"""Scenario builders used only by the tests: random small worlds, random
partition cases with a checkable outcome, and the hub world of stub ASes.

Each returns a plain scenario dict accepted by ``topology.load_topology``, so
generated worlds go through the same validation as shipped ``.scn`` files.
"""

from __future__ import annotations

import ipaddress
import random

from btcrs import topology as tp

COUNTRIES = ["US", "DE", "CN", "FR", "RU", "BR"]


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


def hub_world(node_ases: dict, params: dict | None = None, pools: list | None = None) -> dict:
    """One node per entry of `node_ases` (node id -> AS); every AS is a stub
    of hub AS 99 and announces its own /16, 10.<as>.0.0/16."""
    as_ids = sorted(set(node_ases.values()))
    hosted: dict[int, int] = {}
    nodes = []
    for node, a in node_ases.items():
        hosted[a] = hosted.get(a, 0) + 1
        nodes.append({"id": node, "ip": f"10.{a}.0.{hosted[a]}", "prefix": f"10.{a}.0.0/16", "as": a})
    return {
        "ases": [{"id": a, "country": ""} for a in as_ids + [99]],
        "links": [{"a": a, "b": 99, "rel": "c2p"} for a in as_ids],
        "prefixes": [{"base": f"10.{a}.0.0", "len": 16, "origin_as": a} for a in as_ids],
        "nodes": nodes,
        "pools": pools or [],
        "params": params or {},
    }
