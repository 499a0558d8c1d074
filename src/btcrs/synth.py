"""Synthetic scenario builders: the delay-attack testbed, the two-halves
churn testbed, and pool multi-homing adjustments.

Everything here returns plain scenario dicts accepted by
``topology.load_topology``, so generated worlds and shipped ``.scn`` files go
through exactly the same validation.
"""

from __future__ import annotations

import ipaddress
import random

from . import topology as tp


# Session-length mixture for churn (seconds): mostly long-lived listeners with
# a short-lived tail, shaped so roughly half of all connections are renewed
# within ten hours.
DEFAULT_LIFETIME_TABLE = [
    [0.15, 21_600.0],
    [0.25, 86_400.0],
    [0.35, 259_200.0],
    [0.25, 720_000.0],
]


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


def two_halves(n_nodes: int = 1000, n_as: int = 40) -> dict:
    """Two AS-disjoint halves for partition-recovery experiments."""
    assert n_as % 2 == 0
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
