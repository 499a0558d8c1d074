"""AS-level topology: scenario loading, policy routing, and hijack coverage.

The Internet model is the standard customer/provider + settlement-free peer
graph.  Routes are selected the way BGP economics dictate: customer-learned
routes beat peer-learned ones, which beat provider-learned ones, regardless
of length; ties fall back to shortest AS path and then to the lowest
next-hop AS id, so every function here is deterministic.
"""

from __future__ import annotations

import functools
import hashlib
import ipaddress
import json
import math
import random
from dataclasses import dataclass, field, fields
from pathlib import Path

_NO_FABRIC: frozenset[str] = frozenset()  # the fabric of a node in no pool


class ScenarioError(ValueError):
    """A scenario file failed validation; message carries the JSON location."""


@dataclass(frozen=True)
class Prefix:
    base: str
    length: int
    origin_as: int

    def __str__(self) -> str:
        return f"{self.base}/{self.length}"


@dataclass(frozen=True)
class NodePlacement:
    node_id: str
    ip: str
    home_prefix: Prefix
    home_as: int


@dataclass
class Pool:
    pool_id: str
    gateways: list[str]
    hash_share: float
    private_peers: list[str] = field(default_factory=list)


@dataclass
class AsGraph:
    """ASes plus relationship adjacency.  `providers[a]` are the ASes a pays."""

    countries: dict[int, str]
    providers: dict[int, set[int]]
    customers: dict[int, set[int]]
    peers: dict[int, set[int]]

    @property
    def as_ids(self) -> set[int]:
        return set(self.countries)


class ForwardingTable:
    """Per-destination routing trees; `path(a, b)` is directional."""

    def __init__(self, next_hop: dict[int, dict[int, int]], dist: dict[int, dict[int, int]]):
        # next_hop[dst][src] -> neighbour src forwards to (absent = no route);
        # dist[dst][src] -> inter-AS hops of that route, with dst itself at 0
        self._next_hop = next_hop
        self._dist = dist
        self._two_way: dict[int, frozenset[int]] = {}  # as_id -> two_way(as_id)

    def path(self, src: int, dst: int) -> list[int] | None:
        if src == dst:
            return [src]
        hops = [src]
        cur = src
        table = self._next_hop.get(dst, {})
        while cur != dst:
            nxt = table.get(cur)
            if nxt is None:
                return None
            hops.append(nxt)
            cur = nxt
            if len(hops) > len(table) + 2:  # defensive: would mean a routing loop
                raise RuntimeError(f"routing loop toward AS{dst}: {hops}")
        return hops

    def hops(self, src: int, dst: int) -> int | None:
        """Inter-AS hops of the route from src to dst (0 inside one AS), or None if there is none."""
        return self._dist[dst].get(src)

    def two_way(self, as_id: int) -> frozenset[int]:
        """The ASes with a route both to and from `as_id`, `as_id` itself included; built on first ask."""
        if as_id not in self._two_way:
            self._two_way[as_id] = frozenset(b for b in self._dist[as_id] if as_id in self._dist[b])
        return self._two_way[as_id]


def compute_forwarding(graph: AsGraph) -> ForwardingTable:
    """Build routing trees for every destination AS.

    Three sweeps per destination mirror route export rules: customer routes
    climb provider links and are exported to everyone; peer routes are taken
    from a peer's customer route; provider routes descend to customers and
    may chain further down.
    """
    import heapq

    next_hop: dict[int, dict[int, int]] = {}
    dist: dict[int, dict[int, int]] = {}
    for dst in sorted(graph.as_ids):
        table: dict[int, int] = {}
        # 1. customer-learned: BFS up provider edges from dst.
        cust_dist = {dst: 0}
        frontier = [dst]
        while frontier:
            nxt_frontier = []
            for u in sorted(frontier):
                for p in graph.providers[u]:
                    if p not in cust_dist:
                        cust_dist[p] = cust_dist[u] + 1
                        table[p] = u
                        nxt_frontier.append(p)
                    elif cust_dist[p] == cust_dist[u] + 1 and u < table[p]:
                        table[p] = u
            frontier = nxt_frontier
        # 2. peer-learned, for ASes with no customer route.
        chosen_dist = dict(cust_dist)
        for u in sorted(graph.as_ids):
            if u in cust_dist:
                continue
            best = None
            for v in graph.peers[u]:
                if v in cust_dist:
                    cand = (cust_dist[v] + 1, v)
                    if best is None or cand < best:
                        best = cand
            if best is not None:
                chosen_dist[u] = best[0]
                table[u] = best[1]
        # 3. provider-learned: multi-source shortest descent along customer edges.
        heap = [(d, u, -1) for u, d in chosen_dist.items()]
        heapq.heapify(heap)
        seen = set(chosen_dist)
        while heap:
            d, u, via = heapq.heappop(heap)
            if u in seen and via != -1:
                continue
            if via != -1:
                seen.add(u)
                chosen_dist[u] = d
                table[u] = via
            for c in graph.customers[u]:
                if c not in seen:
                    heapq.heappush(heap, (d + 1, c, u))
        next_hop[dst] = table
        dist[dst] = chosen_dist
    return ForwardingTable(next_hop, dist)


@dataclass
class Topology:
    graph: AsGraph
    nodes: dict[str, NodePlacement]
    pools: dict[str, Pool]
    params: dict
    attack: dict | None
    raw: dict
    forwarding: ForwardingTable = field(init=False)

    def __post_init__(self):
        self.forwarding = compute_forwarding(self.graph)
        self._pool_of = {}
        for pool in self.pools.values():
            for g in pool.gateways:
                self._pool_of[g] = pool.pool_id
        # pool fabric: the gateways of privately peered pools, keyed by gateway
        self._group_of: dict[str, frozenset[str]] = {}
        self._fabric_of: dict[str, frozenset[str]] = {}
        for group in self.pool_groups():
            pools = frozenset(group)
            gateways = frozenset(g for p in group for g in self.pools[p].gateways)
            for g in gateways:
                self._group_of[g] = pools
                self._fabric_of[g] = gateways

    # -- node / pool helpers -------------------------------------------------

    def pool_of(self, node_id: str) -> str | None:
        return self._pool_of.get(node_id)

    @property
    def regular_ids(self) -> list[str]:
        return [n for n in self.nodes if n not in self._pool_of]

    def pool_groups(self) -> list[frozenset[str]]:
        """Pools merged across private peerings (treated as one larger pool)."""
        cliques = [[p.pool_id, *p.private_peers] for p in self.pools.values()]
        return sorted(_components(self.pools, cliques), key=min)

    def group_of(self, node_id: str) -> frozenset[str] | None:
        return self._group_of.get(node_id)

    def fabric_of(self, node_id: str) -> frozenset[str]:
        """Gateways on node_id's private pool fabric: instant, and invisible to attackers."""
        return self._fabric_of.get(node_id, _NO_FABRIC)

    def stealth_component(self, node_id: str) -> frozenset[str]:
        """Every node node_id reaches over stealth connections (see `stealth_kind`), itself included."""
        return self._stealth_component[node_id]

    @functools.cached_property
    def _stealth_component(self) -> dict[str, frozenset[str]]:
        # built on first use: only the planner and scenario generators need it
        by_as: dict[int, list[str]] = {}
        for n, pl in self.nodes.items():
            by_as.setdefault(pl.home_as, []).append(n)
        cliques = [*by_as.values(), *set(self._fabric_of.values())]
        return {n: comp for comp in _components(self.nodes, cliques) for n in comp}

    def config_digest(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _components(items, cliques) -> list[frozenset]:
    """Connected components of `items` when each clique's members are all linked.

    Components come in the order of their first member in `items`.
    """
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for head, *rest in cliques:
        for other in rest:
            parent[find(other)] = find(head)
    comps: dict = {}
    for x in items:
        comps.setdefault(find(x), set()).add(x)
    return [frozenset(c) for c in comps.values()]


# -- connection classification ------------------------------------------------


def stealth_kind(topo: Topology, a: str, b: str) -> str | None:
    """Why the attacker can never see traffic between a and b, if so.

    This is the one definition of a stealth connection: the endpoints share
    an AS, a pool, or a group of privately peered pools.
    """
    pa, pb = topo.nodes[a], topo.nodes[b]
    if pa.home_as == pb.home_as:
        return "intra-as"
    ga, gb = topo.pool_of(a), topo.pool_of(b)
    if ga is not None and ga == gb:
        return "intra-pool"
    if ga is not None and gb is not None and topo.group_of(a) == topo.group_of(b):
        return "pool-to-pool"
    return None


class Coverage:
    """Which (victim node, source AS) traffic a set of announcements diverts.

    A strictly more-specific announcement wins longest-prefix match everywhere;
    an equal-length one is adopted by roughly half of the source ASes (seeded
    per announced prefix and source AS).  Traffic from the victim's own AS
    never leaves it and can never be diverted.
    """

    def __init__(self, topo: Topology, announced: list[tuple[str, int]], seed: int = 0):
        nets = []  # (network, netmask, length, base), each parsed once
        for base, length in announced:
            if length > 24:
                raise ScenarioError(
                    f"announcement {base}/{length}: prefixes longer than /24 are filtered Internet-wide"
                )
            net = ipaddress.IPv4Network(f"{base}/{length}")  # validates base/mask alignment
            nets.append((int(net.network_address), int(net.netmask), length, base))
        self._seed = seed
        self._coins: dict[tuple[str, int], bool] = {}  # (race prefix, source AS) -> adopted
        # node -> (home AS, rule): False never diverted, True diverted from every
        # foreign AS, or the equal-length prefix whose race each source AS decides
        self._rule: dict[str, tuple[int, bool | str]] = {}
        for node_id, pl in topo.nodes.items():
            ip = int(ipaddress.IPv4Address(pl.ip))
            covering = [(length, base) for net, mask, length, base in nets if ip & mask == net]
            rule: bool | str = False
            if covering:
                length, base = max(covering)
                if length > pl.home_prefix.length:
                    rule = True
                elif length == pl.home_prefix.length:
                    rule = f"{base}/{length}"
            self._rule[node_id] = (pl.home_as, rule)

    def diverted(self, node_id: str, src_as: int) -> bool:
        home_as, rule = self._rule[node_id]
        if rule is False or src_as == home_as:
            return False
        if rule is True:
            return True
        # equal-length race: each source AS adopts one of the two routes
        coin = self._coins.get((rule, src_as))
        if coin is None:
            coin = self._coins[rule, src_as] = random.Random(f"{self._seed}:eqlen:{rule}:{src_as}").random() < 0.5
        return coin


def hijack_coverage(topo: Topology, announced: list[tuple[str, int]], seed: int = 0) -> Coverage:
    """What a hijacker's announcements divert, whichever AS makes them."""
    return Coverage(topo, announced, seed)


# -- scenario loading -----------------------------------------------------------


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ScenarioError(f"{where}: {message}")


def _param(default, json_type, **floor):
    """A parameter field: its default, JSON Schema type and floor (`minimum` or `exclusiveMinimum`)."""
    return field(default=default, metadata={"type": json_type, **floor})


@dataclass
class SimParams:
    """The simulation parameters, the keys of a scenario's `params` block and of `--set`.

    This table is their one definition: field names are the known keys and
    defaults the defaults.  Each field's metadata holds its JSON Schema type
    and floor, which `param_problem` enforces and the `params` block of
    docs/scenario.schema.json restates.  The floors keep the clock running
    forward: a zero block interval is divided by, and a negative latency,
    rate or delay would schedule events in the past.
    """

    block_interval_mean: float = _param(600.0, "number", exclusiveMinimum=0)
    blocks: int = _param(144, "integer", minimum=0)
    per_hop_delay: float = _param(1.0, "number", minimum=0)
    base_delay: float = _param(0.05, "number", minimum=0)
    tx_getdata_rate: float = _param(0.0, "number", minimum=0)
    drain_time: float = _param(7200.0, "number", minimum=0)
    threshold: float = _param(600.0, "number", minimum=0)
    convergence_delay: float = _param(90.0, "number", minimum=0)
    outgoing_target: int = _param(8, "integer", minimum=0)
    max_connections: int = _param(125, "integer", minimum=0)
    residual_share: float | None = _param(None, ["number", "null"], minimum=0)
    churn: dict | None = _param(None, ["object", "null"])
    connections: list | None = _param(None, ["array", "null"])


_PARAM_SPECS = {f.name: f.metadata for f in fields(SimParams)}
_JSON_TYPES = {"number": (int, float), "integer": int, "object": dict, "array": list, "null": type(None)}


def _is_number(value) -> bool:
    """A finite JSON number; a bool is never one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _is_int(value) -> bool:
    """A JSON integer; a bool is never one."""
    return isinstance(value, int) and not isinstance(value, bool)


def param_problem(key: str, value) -> str | None:
    """Why `value` is not valid for simulation parameter `key`, or None if it is fine."""
    spec = _PARAM_SPECS.get(key)
    if spec is None:
        return f"unknown parameter (valid: {', '.join(sorted(_PARAM_SPECS))})"
    types = [spec["type"]] if isinstance(spec["type"], str) else spec["type"]
    if isinstance(value, bool) or not isinstance(value, tuple(_JSON_TYPES[t] for t in types)):
        return f"must be {' or '.join(types)}, got {value!r}"
    if isinstance(value, float) and not math.isfinite(value):
        return f"must be finite, got {value!r}"
    if "minimum" in spec and value is not None and value < spec["minimum"]:
        return f"must be >= {spec['minimum']}, got {value!r}"
    if "exclusiveMinimum" in spec and value <= spec["exclusiveMinimum"]:
        return f"must be > {spec['exclusiveMinimum']}, got {value!r}"
    if key == "churn" and value is not None:
        unknown = sorted(set(value) - {"enabled", "lifetime_table"})
        if unknown:
            return f"has unknown keys {unknown}"
        if not isinstance(value.get("enabled", False), bool):
            return f"enabled must be true or false, got {value['enabled']!r}"
        table = value.get("lifetime_table", [])
        if not isinstance(table, list) or not all(
            isinstance(row, list) and len(row) == 2 and all(map(_is_number, row))
            and 0 <= row[0] <= 1 and row[1] > 0 for row in table
        ):
            return f"lifetime_table must be a list of [p in [0,1], mean > 0], got {table!r}"
        total = sum(p for p, _ in table)
        if table and abs(total - 1) > 1e-9:  # an empty table means the default
            return f"lifetime_table probabilities must sum to 1, got {total!r}"
    if key == "connections" and value is not None:
        for pair in value:
            if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(n, str) for n in pair)):
                return f"must be a list of [from, to] node id pairs, got {pair!r} in it"
    return None


def check_params(params: dict, node_ids) -> None:
    """Raise ScenarioError naming `params.<key>` unless each entry of `params` is a valid simulation parameter.

    `param_problem` checks each value on its own; each explicit connection
    must also join two distinct nodes of `node_ids`.
    """
    for key, value in params.items():
        problem = param_problem(key, value)
        _require(problem is None, f"params.{key}", problem)
    for i, (a, b) in enumerate(params.get("connections") or []):
        for end in (a, b):
            _require(end in node_ids, f"params.connections[{i}]", f"unknown node {end!r}")
        _require(a != b, f"params.connections[{i}]", "a node cannot connect to itself")


def load_topology(path: str | Path | dict) -> Topology:
    """Parse and validate a scenario file (UTF-8 JSON).

    Every validation failure names the offending JSON location, e.g.
    ``pools[1].hash_share: hash shares sum to 0.9``.
    """
    if isinstance(path, dict):
        raw = path
    else:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    _require(isinstance(raw, dict), "$", "scenario must be a JSON object")
    for key in raw:
        _require(key in ENTRY_KEYS or key in ("params", "attack"), key, "unknown top-level key")

    countries: dict[int, str] = {}
    for where, entry in _entries(raw, "ases"):
        _require(_is_int(entry.get("id")), where + ".id", "AS id must be an integer")
        _require(entry["id"] not in countries, where + ".id", f"duplicate AS id {entry['id']}")
        countries[entry["id"]] = str(entry.get("country", ""))
    _require(len(countries) > 0, "ases", "at least one AS required")

    providers = {a: set() for a in countries}
    customers = {a: set() for a in countries}
    peers = {a: set() for a in countries}
    seen_pairs = set()
    for where, entry in _entries(raw, "links"):
        a, b, rel = entry.get("a"), entry.get("b"), entry.get("rel")
        _require(_is_int(a) and a in countries, where + ".a", f"unknown AS {a!r}")
        _require(_is_int(b) and b in countries, where + ".b", f"unknown AS {b!r}")
        _require(a != b, where, "self-links are not allowed")
        _require(rel in ("c2p", "p2p"), where + ".rel", f"rel must be c2p or p2p, got {rel!r}")
        pair = frozenset((a, b))
        _require(pair not in seen_pairs, where, f"duplicate link between AS{a} and AS{b}")
        seen_pairs.add(pair)
        if rel == "c2p":
            providers[a].add(b)
            customers[b].add(a)
        else:
            peers[a].add(b)
            peers[b].add(a)
    _check_provider_acyclic(providers)

    by_str: dict[str, tuple[Prefix, ipaddress.IPv4Network]] = {}  # "a.b.c.d/len" -> the prefix and its network
    nets: list[tuple[ipaddress.IPv4Network, str]] = []
    for where, entry in _entries(raw, "prefixes"):
        base, length, origin = entry.get("base"), entry.get("len"), entry.get("origin_as")
        _require(isinstance(length, int), where + ".len", "prefix length must be an integer")
        _require(length <= 24, where, f"prefix {base}/{length} longer than /24 (filtered Internet-wide)")
        try:
            net = ipaddress.IPv4Network(f"{base}/{length}")
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"{where}: invalid prefix {base}/{length} ({exc})") from None
        _require(_is_int(origin) and origin in countries, where + ".origin_as", f"unknown AS {origin!r}")
        for other, ow in nets:
            _require(not net.overlaps(other), where, f"prefix {net} overlaps {other} ({ow})")
        nets.append((net, where))
        prefix = Prefix(str(net.network_address), length, origin)
        by_str[str(prefix)] = (prefix, net)

    nodes: dict[str, NodePlacement] = {}
    ips_seen = set()
    for where, entry in _entries(raw, "nodes"):
        nid = entry.get("id")
        _require(isinstance(nid, str) and nid, where + ".id", "node id must be a non-empty string")
        _require(nid not in nodes, where + ".id", f"duplicate node id {nid!r}")
        name = entry.get("prefix")
        _require(isinstance(name, str) and name in by_str, where + ".prefix", f"unknown prefix {name!r}")
        prefix, net = by_str[name]
        ip = entry.get("ip")
        try:
            addr = ipaddress.IPv4Address(ip) if isinstance(ip, str) else None
        except ValueError:
            addr = None
        _require(addr is not None, where + ".ip", f"invalid IPv4 address {ip!r}")
        _require(addr in net, where + ".ip", f"{ip} is outside {prefix}")
        _require(ip not in ips_seen, where + ".ip", f"duplicate IP {ip}")
        ips_seen.add(ip)
        home_as = entry.get("as", prefix.origin_as)
        _require(
            home_as == prefix.origin_as,
            where + ".as",
            f"node sits in {prefix} originated by AS{prefix.origin_as}, not AS{home_as}",
        )
        nodes[nid] = NodePlacement(nid, ip, prefix, home_as)

    pools: dict[str, Pool] = {}
    share_sum = 0.0
    for where, entry in _entries(raw, "pools"):
        pid = entry.get("id")
        _require(isinstance(pid, str) and pid, where + ".id", "pool id must be a non-empty string")
        _require(pid not in pools, where + ".id", f"duplicate pool id {pid!r}")
        gateways = entry.get("gateways", [])
        _require(isinstance(gateways, list) and len(gateways) > 0, where + ".gateways",
                 "a pool needs a list of at least one gateway")
        for g in gateways:
            _require(isinstance(g, str) and g in nodes, where + ".gateways", f"unknown node {g!r}")
        share = entry.get("hash_share")
        _require(
            _is_number(share) and 0 <= share <= 1,
            where + ".hash_share",
            f"hash_share must be in [0,1], got {share!r}",
        )
        share_sum += share
        private_peers = entry.get("private_peers", [])
        _require(isinstance(private_peers, list) and all(isinstance(p, str) for p in private_peers),
                 where + ".private_peers", f"must be a list of pool ids, got {private_peers!r}")
        pools[pid] = Pool(pid, list(gateways), float(share), list(private_peers))
    taken: dict[str, str] = {}
    for pool in pools.values():
        for g in pool.gateways:
            _require(
                g not in taken,
                f"pools[{list(pools).index(pool.pool_id)}].gateways",
                f"node {g!r} is a gateway of both {taken.get(g)!r} and {pool.pool_id!r}",
            )
            taken[g] = pool.pool_id
        for other in pool.private_peers:
            _require(other in pools, "pools", f"private peer {other!r} of {pool.pool_id!r} unknown")
            _require(other != pool.pool_id, "pools", f"{pool.pool_id!r} privately peers with itself")

    params = raw.get("params", {})
    _require(isinstance(params, dict), "params", "must be an object")
    params = dict(params)
    check_params(params, nodes)
    residual = params.get("residual_share")
    n_regular = len(nodes) - len(taken)
    if residual is not None:
        total = share_sum + float(residual)
        _require(abs(total - 1.0) <= 1e-9, "pools", f"hash shares sum to {total:g}")
        _require(residual == 0 or n_regular > 0, "params.residual_share",
                 "residual share assigned but there are no regular nodes")
    else:
        _require(share_sum <= 1 + 1e-9, "pools", f"hash shares sum to {share_sum:g}")
        _require(
            share_sum >= 1 - 1e-9 or n_regular > 0,
            "pools",
            f"hash shares sum to {share_sum:g} and no regular nodes can absorb the rest",
        )

    topo = Topology(
        graph=AsGraph(countries, providers, customers, peers),
        nodes=nodes,
        pools=pools,
        params=params,
        attack=raw.get("attack"),
        raw=raw,
    )
    read_attack(topo.attack, topo)
    return topo


# the keys an entry of each top-level list may have
ENTRY_KEYS = {
    "ases": frozenset({"id", "country"}),
    "links": frozenset({"a", "b", "rel"}),
    "prefixes": frozenset({"base", "len", "origin_as"}),
    "nodes": frozenset({"id", "ip", "prefix", "as"}),
    "pools": frozenset({"id", "gateways", "hash_share", "private_peers"}),
}


def _entries(raw: dict, key: str):
    """Yield (JSON location, object) for each entry of the top-level list `key`, checking its keys."""
    items = raw.get(key, [])
    _require(isinstance(items, list), key, "must be a list")
    allowed = ENTRY_KEYS[key]
    for i, entry in enumerate(items):
        where = f"{key}[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{where}: must be an object")
        if not allowed.issuperset(entry):
            raise ScenarioError(f"{where}.{next(k for k in entry if k not in allowed)}: unknown key")
        yield where, entry


# the keys of an attack's `params` block, by the block's `kind`
ATTACK_PARAMS = {
    "partition": ("start", "end", "mode", "announced", "attacker_as"),
    "delay": ("coalition", "direction", "interception", "restore_margin"),
}


@dataclass(frozen=True)
class Attack:
    """A scenario's attack block as the engine runs it; `read_attack` makes one.

    `kind` is `perfect` or `hijack` (a partition of `target` from `start` to
    `end`), `delay` (tampering with victim `target[0]`'s block requests) or
    `coalition` (tampering on every route through the ASes of `coalition`).
    `announced` None covers the target set.
    """

    kind: str
    target: tuple[str, ...]
    start: float = 0.0
    end: float | None = None
    attacker_as: int | None = None
    announced: tuple[tuple[str, int], ...] | None = None
    coalition: frozenset[int] = frozenset()
    direction: str = "outgoing"
    interception: float = 1.0
    restore_margin: float = 300.0  # seconds after a swap that a `delay` attack may still restore it

    @property
    def reads_tx(self) -> bool:
        """Whether the attack reads background transaction requests.

        A `delay` attack restores a stolen block request inside one,
        and a hijack's attacker clocks each diverted sender's liveness by its
        frames.  Nothing else does: a tx-only GETDATA changes no state.
        """
        return self.kind in ("delay", "hijack")


def read_attack(attack, topo: Topology) -> Attack | None:
    """Check a scenario's attack block against `topo` and return it as an `Attack` (None if absent)."""
    if attack is None:
        return None
    _require(isinstance(attack, dict), "attack", "must be an object")
    for key in attack:
        _require(key in ("kind", "target", "params"), f"attack.{key}", "unknown key")
    kind = attack.get("kind")
    _require(kind in ("partition", "delay"), "attack.kind", f"kind must be partition or delay, got {kind!r}")
    targets = attack.get("target", [])
    _require(isinstance(targets, list), "attack.target", "must be a list")
    for t in targets:
        _require(isinstance(t, str) and t in topo.nodes, "attack.target", f"unknown node {t!r}")
    targets = tuple(targets)
    ap = attack.get("params", {})
    _require(isinstance(ap, dict), "attack.params", "must be an object")
    for key in ap:
        owner = next((k for k, keys in ATTACK_PARAMS.items() if key in keys), None)
        _require(owner == kind, f"attack.params.{key}", f"applies to a {owner} attack only" if owner
                 else f"unknown key (valid for a {kind} attack: {', '.join(ATTACK_PARAMS[kind])})")
    countries = topo.graph.countries
    if kind == "partition":
        # control events before time 0 would run the clock backwards, and a lift before the start never lifts
        start, end = ap.get("start", 0), ap.get("end")
        _require(_is_number(start) and start >= 0, "attack.params.start", f"must be a number >= 0, got {start!r}")
        _require(end is None or _is_number(end) and end >= start, "attack.params.end",
                 f"must be null or a number >= start, got {end!r}")
        start, end = float(start), None if end is None else float(end)
        if "mode" in ap:
            _require(ap["mode"] == "perfect", "attack.params.mode", f"must be perfect, got {ap['mode']!r}")
            return Attack("perfect", targets, start, end)
        attacker = ap.get("attacker_as")
        _require(_is_int(attacker), "attack.params.attacker_as", f"a hijack needs an integer AS, got {attacker!r}")
        _require(attacker in countries, "attack.params.attacker_as", f"unknown AS {attacker}")
        announced = ap.get("announced")
        if "announced" in ap:
            _require(isinstance(announced, list), "attack.params.announced", "must be a list of a.b.c.d/len strings")
            for i, p in enumerate(announced):
                try:  # what Coverage accepts: a strict network (no host bits), written with a prefix length
                    ok = (isinstance(p, str) and p.partition("/")[2].isdigit()
                          and ipaddress.IPv4Network(p).prefixlen <= 24)
                except ValueError:
                    ok = False
                _require(ok, f"attack.params.announced[{i}]",
                         f"must be a network a.b.c.d/len with no host bits set, at most /24, got {p!r}")
            # each base as written, since it names the prefix's equal-length race
            announced = tuple((base, int(length)) for base, _, length in (p.partition("/") for p in announced))
        return Attack("hijack", targets, start, end, attacker, announced)
    if "coalition" in ap:
        coalition = ap["coalition"]
        if isinstance(coalition, list):
            for c in coalition:
                _require(_is_int(c) and c in countries, "attack.params.coalition", f"unknown AS {c!r}")
        else:
            coalition = {a for a, c in countries.items() if c == ap["coalition"]}
            _require(coalition, "attack.params.coalition", f"no AS belongs to country {ap['coalition']!r}")
    else:
        _require(targets, "attack.target", "a delay attack needs a victim or params.coalition")
    direction = ap.get("direction", "outgoing")
    _require(direction in ("outgoing", "incoming"), "attack.params.direction",
             f"must be outgoing or incoming, got {direction!r}")
    interception = ap.get("interception", 1.0)
    _require(_is_number(interception) and 0 <= interception <= 1, "attack.params.interception",
             f"must be a number in [0, 1], got {interception!r}")
    margin = ap.get("restore_margin", Attack.restore_margin)
    _require(_is_number(margin) and margin >= 0, "attack.params.restore_margin",
             f"must be a number >= 0, got {margin!r}")
    if "coalition" in ap:
        return Attack("coalition", targets, coalition=frozenset(coalition))
    return Attack("delay", targets, direction=direction, interception=float(interception),
                  restore_margin=float(margin))


def _check_provider_acyclic(providers: dict[int, set[int]]) -> None:
    state: dict[int, int] = {}

    def visit(u: int, trail: list[int]):
        state[u] = 1
        for p in providers[u]:
            if state.get(p) == 1:
                cycle = trail[trail.index(p):] + [p] if p in trail else [u, p]
                raise ScenarioError(f"links: customer-provider cycle {cycle}")
            if state.get(p) != 2:
                visit(p, trail + [p])
        state[u] = 2

    for a in providers:
        if state.get(a) != 2:
            visit(a, [a])
