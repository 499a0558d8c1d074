"""Synthetic scenario builders: random small worlds, delay-attack testbeds,
the two-halves churn testbed, and pool multi-homing adjustments.

Everything here returns plain scenario dicts accepted by
``topology.load_topology``, so generated worlds and shipped ``.scn`` files go
through exactly the same validation.
"""

from __future__ import annotations

import ipaddress
import random

from . import topology as tp

COUNTRIES = ["US", "DE", "CN", "FR", "RU", "BR"]

# Session-length mixture for churn (seconds): mostly long-lived listeners with
# a short-lived tail, shaped so roughly half of all connections are renewed
# within ten hours.
DEFAULT_LIFETIME_TABLE = [
    [0.15, 21_600.0],
    [0.25, 86_400.0],
    [0.35, 259_200.0],
    [0.25, 720_000.0],
]


def _as_tree(rng: random.Random, as_ids: list[int]) -> list[dict]:
    """Connected, acyclic customer/provider tree plus a few peerings."""
    order = list(as_ids)
    rng.shuffle(order)
    links = []
    for i, a in enumerate(order[1:], start=1):
        provider = order[rng.randrange(i)]
        links.append({"a": a, "b": provider, "rel": "c2p"})
    linked = {frozenset((l["a"], l["b"])) for l in links}
    for a in as_ids:
        for b in as_ids:
            if a < b and frozenset((a, b)) not in linked and rng.random() < 0.15:
                linked.add(frozenset((a, b)))
                links.append({"a": a, "b": b, "rel": "p2p"})
    return links


def random_scenario(
    seed: int,
    max_as: int = 10,
    max_nodes: int = 30,
    max_pools: int = 4,
    allow_slash24: bool = False,
    spare_attacker_as: bool = False,
) -> dict:
    """A random valid scenario within the given size budget."""
    rng = random.Random(f"scenario:{seed}")
    n_as = rng.randint(2, max_as)
    as_ids = list(range(1, n_as + 1))
    ases = [{"id": a, "country": rng.choice(COUNTRIES)} for a in as_ids]
    links = _as_tree(rng, as_ids)
    if spare_attacker_as:
        attacker = n_as + 1
        ases.append({"id": attacker, "country": rng.choice(COUNTRIES)})
        links.append({"a": attacker, "b": as_ids[0], "rel": "c2p"})

    lengths = [16, 20, 22] + ([24] if allow_slash24 else [])
    prefixes = []
    for a in as_ids:
        length = rng.choice(lengths)
        prefixes.append({"base": f"10.{a}.0.0", "len": length, "origin_as": a})
        if rng.random() < 0.25:
            length2 = rng.choice(lengths)
            prefixes.append({"base": f"10.{100 + a}.0.0", "len": length2, "origin_as": a})

    n_nodes = rng.randint(max(4, n_as), max_nodes)
    nodes = []
    used_ips = set()
    for k in range(n_nodes):
        pref = rng.choice(prefixes)
        net = ipaddress.IPv4Network(f"{pref['base']}/{pref['len']}")
        while True:
            ip = str(net.network_address + rng.randrange(1, min(net.num_addresses - 1, 250)))
            if ip not in used_ips:
                used_ips.add(ip)
                break
        nodes.append({"id": f"n{k}", "ip": ip, "prefix": f"{net}", "as": pref["origin_as"]})

    n_pools = rng.randint(0, min(max_pools, max(0, n_nodes // 3)))
    pool_ids = [f"pool{i}" for i in range(n_pools)]
    available = [n["id"] for n in nodes]
    rng.shuffle(available)
    pools = []
    share_left = 0.8
    for pid in pool_ids:
        take = min(rng.randint(1, 3), max(1, len(available) - (n_pools - len(pools)) - 1))
        if len(available) <= take + 1:
            break
        gateways = [available.pop() for _ in range(take)]
        share = round(rng.uniform(0.05, share_left / max(1, n_pools)), 3)
        share_left -= share
        pools.append({"id": pid, "gateways": gateways, "hash_share": share, "private_peers": []})
    for i in range(len(pools)):
        for j in range(i + 1, len(pools)):
            if rng.random() < 0.2:
                pools[i]["private_peers"].append(pools[j]["id"])

    return {
        "ases": ases,
        "links": links,
        "prefixes": prefixes,
        "nodes": nodes,
        "pools": pools,
        "params": {},
    }


def random_partition_case(seed: int) -> dict:
    """A random scenario carrying a partition attack whose outcome is checkable.

    The embedded connection list realises every stealth edge and gives every
    targeted node at least one connection the attacker can observe, so the
    online outcome must converge to exactly what the planner predicts.
    """
    rng = random.Random(f"partition-case:{seed}")
    raw = random_scenario(
        seed, max_as=10, max_nodes=30, max_pools=4, spare_attacker_as=True
    )
    topo = tp.load_topology(raw)
    node_ids = sorted(topo.nodes)

    # both sides need miners: the anchor pool added below keeps most of the
    # hash power outside whatever partition gets drawn
    for pool in raw["pools"]:
        pool["hash_share"] = round(min(pool["hash_share"], 0.1), 3)

    def monitored_partner_exists(p: str, members: set[str]) -> bool:
        return any(tp.stealth_kind(topo, p, q) is None for q in members)

    k = rng.randint(2, max(2, len(node_ids) // 2))
    partition = set(rng.sample(node_ids, k))
    if rng.random() < 0.5:
        # absorb whole stealth components so cleanly isolatable targets are
        # as common as hopeless ones
        for comp in dict.fromkeys(topo.stealth_component(n) for n in topo.nodes):
            if comp & partition and len(partition | comp) < len(node_ids):
                partition |= comp
    outside_pool = [n for n in node_ids if n not in partition]
    rng.shuffle(outside_pool)
    world_as = max(a["id"] for a in raw["ases"]) + 1
    for p in sorted(partition):
        while not monitored_partner_exists(p, partition) and outside_pool:
            for i, cand in enumerate(outside_pool):
                if tp.stealth_kind(topo, p, cand) is None:
                    partition.add(outside_pool.pop(i))
                    break
            else:
                break
    if not any(n not in partition for n in node_ids):
        partition.discard(sorted(partition)[-1])

    # a mining anchor that always stays outside, so blocks the partition must
    # not hear about exist in every run
    raw["ases"].append({"id": world_as, "country": rng.choice(COUNTRIES)})
    raw["links"].append({"a": world_as, "b": 1, "rel": "c2p"})
    raw["prefixes"].append({"base": "10.200.0.0", "len": 16, "origin_as": world_as})
    raw["nodes"].append(
        {"id": "world0", "ip": "10.200.0.1", "prefix": "10.200.0.0/16", "as": world_as}
    )
    raw["pools"].append(
        {"id": "world", "gateways": ["world0"], "hash_share": 0.5, "private_peers": []}
    )
    node_ids.append("world0")

    # hijacking a target set sweeps in every address inside the announced
    # prefixes; placing members and bystanders in disjoint halves of each
    # legitimate prefix keeps the minimal cover collateral-free
    ip_pools: dict[str, list] = {}
    for n in raw["nodes"]:
        ip_pools.setdefault(n["prefix"], []).append(n)
    for prefix_str, homed in ip_pools.items():
        net = ipaddress.IPv4Network(prefix_str)
        half = net.num_addresses // 2
        lo, hi = 1, half + 1
        for n in sorted(homed, key=lambda d: d["id"]):
            if n["id"] in partition:
                n["ip"] = str(net.network_address + lo)
                lo += 1
            else:
                n["ip"] = str(net.network_address + hi)
                hi += 1

    topo = tp.load_topology(raw)  # pick up the anchor and the rewritten addresses
    connections: list[list[str]] = []
    seen = set()

    def connect(a: str, b: str) -> None:
        if a == b or frozenset((a, b)) in seen:
            return
        seen.add(frozenset((a, b)))
        connections.append([a, b])

    # realise the whole stealth graph as live connections
    by_as: dict[int, list[str]] = {}
    for n in node_ids:
        by_as.setdefault(topo.nodes[n].home_as, []).append(n)
    for members in by_as.values():
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                connect(a, b)
    # (pool cliques and private peerings are wired by the engine itself)

    # one observable in-partition connection per targeted node
    inside = sorted(partition)
    for p in inside:
        partners = [q for q in inside if tp.stealth_kind(topo, p, q) is None]
        if partners:
            connect(p, rng.choice(partners))
    # outside world: a connected random backbone
    outside = sorted(set(node_ids) - partition)
    rng.shuffle(outside)
    for i, n in enumerate(outside[1:], start=1):
        connect(n, outside[rng.randrange(i)])
    for n in outside:
        for p in inside:
            if rng.random() < 0.1:
                connect(n, p)

    raw["params"].update(
        {
            "blocks": 12,
            "block_interval_mean": 120.0,
            "per_hop_delay": 0.2,
            "tx_getdata_rate": 0.02,
            "drain_time": 600.0,
            "threshold": 10_000_000.0,
            "convergence_delay": 0.0,
            "connections": connections,
        }
    )
    raw["attack"] = {
        "kind": "partition",
        "target": sorted(partition),
        "params": {"attacker_as": world_as - 1},  # the node-free spare AS
    }
    tp.load_topology(raw)  # the rewritten addresses must still validate
    return raw


def delay_node_scenario(n_relays: int = 8) -> dict:
    """A victim and an attack-free reference node, each watching the same
    mining world through one relay per relay AS.

    Every relay AS hosts one relay plus one equal-share pool gateway, so the
    victim's first INV for any block arrives via the relay of the mining AS
    and the first-advertiser connection is uniform over the victim's peers.
    """
    hub = 100
    victim_as, ref_as = 50, 51
    if not 3 <= n_relays < victim_as:  # the relay ring needs 3; relay ASes are 1..n_relays
        raise ValueError(f"n_relays must be from 3 to {victim_as - 1}, not {n_relays}")
    relay_as = list(range(1, n_relays + 1))
    ases = [{"id": a, "country": "US"} for a in relay_as + [victim_as, ref_as, hub]]
    links = [{"a": a, "b": hub, "rel": "c2p"} for a in relay_as + [victim_as, ref_as]]
    prefixes, nodes, pools = [], [], []
    for i, a in enumerate(relay_as):
        prefixes.append({"base": f"10.{a}.0.0", "len": 16, "origin_as": a})
        nodes.append({"id": f"r{i}", "ip": f"10.{a}.0.1", "prefix": f"10.{a}.0.0/16", "as": a})
        nodes.append({"id": f"g{i}", "ip": f"10.{a}.0.2", "prefix": f"10.{a}.0.0/16", "as": a})
        pools.append(
            {"id": f"m{i}", "gateways": [f"g{i}"], "hash_share": round(1 / n_relays, 9)}
        )
    # make shares sum to exactly 1
    total = sum(p["hash_share"] for p in pools)
    pools[-1]["hash_share"] = round(pools[-1]["hash_share"] + (1 - total), 9)
    prefixes += [
        {"base": "10.50.0.0", "len": 16, "origin_as": victim_as},
        {"base": "10.51.0.0", "len": 16, "origin_as": ref_as},
    ]
    nodes += [
        {"id": "victim", "ip": "10.50.0.1", "prefix": "10.50.0.0/16", "as": victim_as},
        {"id": "ref", "ip": "10.51.0.1", "prefix": "10.51.0.0/16", "as": ref_as},
    ]

    relays = [f"r{i}" for i in range(n_relays)]
    connections = [[f"g{i}", f"r{i}"] for i in range(n_relays)]
    for i in range(n_relays):  # ring plus chords: any relay pair within 2 hops
        connections.append([relays[i], relays[(i + 1) % n_relays]])
        connections.append([relays[i], relays[(i + 2) % n_relays]])
    connections += [["victim", r] for r in relays]
    connections += [["ref", r] for r in relays]

    return {
        "ases": ases,
        "links": links,
        "prefixes": prefixes,
        "nodes": nodes,
        "pools": pools,
        "params": {
            "blocks": 144,
            "block_interval_mean": 600.0,
            "per_hop_delay": 0.5,
            "base_delay": 0.05,
            "tx_getdata_rate": 0.0003,
            "drain_time": 0.0,
            "residual_share": 0.0,
            "connections": connections,
        },
        "attack": {
            "kind": "delay",
            "target": ["victim"],
            "params": {"direction": "outgoing", "interception": 1.0, "restore_margin": 1000.0},
        },
    }


def two_halves(n_nodes: int = 1000, n_as: int = 40, seed: int = 0) -> dict:
    """Two AS-disjoint halves for partition-recovery experiments."""
    assert n_as % 2 == 0
    rng = random.Random(f"two-halves:{seed}")
    t1, t2 = n_as + 1, n_as + 2
    ases = [{"id": a, "country": "XX"} for a in range(1, n_as + 1)]
    ases += [{"id": t1, "country": "XX"}, {"id": t2, "country": "XX"}]
    links = [{"a": a, "b": t1 if a <= n_as // 2 else t2, "rel": "c2p"} for a in range(1, n_as + 1)]
    links.append({"a": t1, "b": t2, "rel": "p2p"})
    prefixes = [{"base": f"10.{a}.0.0", "len": 16, "origin_as": a} for a in range(1, n_as + 1)]
    nodes = []
    for k in range(n_nodes):
        a = (k % n_as) + 1
        nodes.append(
            {
                "id": f"h{k}",
                "ip": f"10.{a}.0.{k // n_as + 1}",
                "prefix": f"10.{a}.0.0/16",
                "as": a,
            }
        )
    side_a = [n["id"] for n in nodes if n["as"] <= n_as // 2]
    return {
        "ases": ases,
        "links": links,
        "prefixes": prefixes,
        "nodes": nodes,
        "pools": [],
        "params": {
            "blocks": 0,
            "tx_getdata_rate": 0.0,
            "churn": {"enabled": True, "lifetime_table": DEFAULT_LIFETIME_TABLE},
        },
        "attack": {"kind": "partition", "target": side_a, "params": {"mode": "perfect"}},
    }


def adjust_pool_degree(raw: dict, degree: int) -> dict:
    """Return a copy where every pool spans exactly `degree` hosting ASes.

    Pools hosted wider are trimmed (surplus gateways become regular nodes);
    pools hosted narrower gain fresh gateway nodes in ASes sampled uniformly
    from those already hosting nodes.
    """
    import copy

    rng = random.Random(f"degree:0:{degree}")
    out = copy.deepcopy(raw)
    topo = tp.load_topology(raw)
    hosting = sorted({pl.home_as for pl in topo.nodes.values()})
    used_ips = {n["ip"] for n in out["nodes"]}
    prefix_of_as = {}
    for p in out["prefixes"]:
        prefix_of_as.setdefault(p["origin_as"], p)

    for pool in out["pools"]:
        by_as: dict[int, list[str]] = {}
        for g in pool["gateways"]:
            by_as.setdefault(topo.nodes[g].home_as, []).append(g)
        host_ases = sorted(by_as)
        if len(host_ases) > degree:
            keep = host_ases[:degree]
            pool["gateways"] = [g for a in keep for g in by_as[a]]
            continue
        candidates = [a for a in hosting if a not in host_ases and a in prefix_of_as]
        rng.shuffle(candidates)
        for a in candidates[: degree - len(host_ases)]:
            pref = prefix_of_as[a]
            net = ipaddress.IPv4Network(f"{pref['base']}/{pref['len']}")
            ip = None
            for off in range(1, min(net.num_addresses - 1, 4000)):
                cand = str(net.network_address + off)
                if cand not in used_ips:
                    ip = cand
                    break
            if ip is None:
                continue
            used_ips.add(ip)
            nid = f"g_{pool['id']}_{a}"
            out["nodes"].append({"id": nid, "ip": ip, "prefix": f"{net}", "as": a})
            pool["gateways"].append(nid)
    return out
