"""Planner tests.

The minimum-announcement oracle is a bitmask branch-and-bound exact set
cover over independently derived candidates, so it shares no code with the
per-prefix search in btcrs.planner.
"""

import ipaddress
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import worlds

from btcrs import planner
from btcrs import topology as tp

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def isolated_world(node_ases, pools=None):
    """The loaded hub world of `node_ases`."""
    return tp.load_topology(worlds.hub_world(node_ases, pools=pools))


def test_shared_as_makes_node_a_leakage_liability():
    # X lives in A's AS but stays outside the partition: A has to go.
    topo = isolated_world({"A": 1, "X": 1, "B": 2, "C": 3, "Y": 4})
    feasible, violations = planner.is_feasible(topo, {"A", "B", "C"})
    assert not feasible
    assert ("A", "X", "intra-as") in violations
    assert planner.maximal_isolatable(topo, {"A", "B", "C"}) == {"B", "C"}


def test_shared_pool_makes_gateway_a_leakage_liability():
    pools = [{"id": "g", "gateways": ["A", "F"], "hash_share": 0.3}]
    topo = isolated_world({"A": 1, "B": 2, "C": 3, "D": 4, "F": 5}, pools)
    feasible, violations = planner.is_feasible(topo, {"A", "B", "C", "D"})
    assert not feasible
    assert ("A", "F", "intra-pool") in violations
    assert planner.maximal_isolatable(topo, {"A", "B", "C", "D"}) == {"B", "C", "D"}


def test_private_peering_merges_pools():
    pools = [
        {"id": "p1", "gateways": ["A"], "hash_share": 0.2, "private_peers": ["p2"]},
        {"id": "p2", "gateways": ["F"], "hash_share": 0.2},
    ]
    topo = isolated_world({"A": 1, "B": 2, "F": 5}, pools)
    feasible, violations = planner.is_feasible(topo, {"A", "B"})
    assert not feasible
    assert ("A", "F", "pool-to-pool") in violations
    # stealth paths are transitive: A reaches the outside through F
    assert planner.maximal_isolatable(topo, {"A", "B"}) == {"B"}


def test_stealth_paths_chain_through_intermediaries():
    # C shares an AS with B; B shares a pool with X outside: both drop out.
    pools = [{"id": "p", "gateways": ["B", "X"], "hash_share": 0.1}]
    topo = isolated_world({"A": 1, "B": 2, "C": 2, "X": 3, "O": 4}, pools)
    assert planner.maximal_isolatable(topo, {"A", "B", "C"}) == {"A"}


def test_paperlike_partition_example():
    topo = tp.load_topology(SCENARIOS / "paperlike.scn")
    P = {"A", "B", "C", "D", "E", "F"}
    feasible, violations = planner.is_feasible(topo, P)
    assert not feasible
    kinds = {v[2] for v in violations if v[0] == "F"}
    assert kinds == {"intra-pool"}
    assert planner.maximal_isolatable(topo, P) == {"A", "B", "C", "D", "E"}
    plan = planner.min_prefixes_to_isolate(topo, {"A", "B", "C", "D", "E"})
    assert plan.announcements == [("1.0.0.0", 17), ("2.0.0.0", 17)]
    assert not plan.approximate and not plan.partial_coverage


def test_min_prefixes_rejects_empty_and_infeasible():
    topo = isolated_world({"A": 1, "X": 1, "B": 2})
    with pytest.raises(planner.PlanningError):
        planner.min_prefixes_to_isolate(topo, set())
    with pytest.raises(planner.PlanningError) as err:
        planner.min_prefixes_to_isolate(topo, {"A", "B"})
    assert err.value.violations


def test_slash24_homed_nodes_flagged_partial():
    doc = {
        "ases": [{"id": 1, "country": ""}, {"id": 2, "country": ""}],
        "links": [{"a": 1, "b": 2, "rel": "c2p"}],
        "prefixes": [
            {"base": "10.1.0.0", "len": 24, "origin_as": 1},
            {"base": "10.2.0.0", "len": 16, "origin_as": 2},
        ],
        "nodes": [
            {"id": "a", "ip": "10.1.0.1", "prefix": "10.1.0.0/24", "as": 1},
            {"id": "b", "ip": "10.2.0.1", "prefix": "10.2.0.0/16", "as": 2},
        ],
        "pools": [],
        "params": {},
    }
    topo = tp.load_topology(doc)
    plan = planner.min_prefixes_to_isolate(topo, {"a", "b"})
    assert plan.partial_coverage == ["a"]
    assert plan.announcements == [("10.2.0.0", 17)]


def test_two_occupied_halves_need_two_announcements():
    doc = {
        "ases": [{"id": 1, "country": ""}, {"id": 2, "country": ""}],
        "links": [{"a": 1, "b": 2, "rel": "c2p"}],
        "prefixes": [{"base": "10.1.0.0", "len": 16, "origin_as": 1}],
        "nodes": [
            {"id": "lo", "ip": "10.1.1.1", "prefix": "10.1.0.0/16", "as": 1},
            {"id": "hi", "ip": "10.1.200.1", "prefix": "10.1.0.0/16", "as": 1},
        ],
        "pools": [],
        "params": {},
    }
    topo = tp.load_topology(doc)
    plan = planner.min_prefixes_to_isolate(topo, {"lo", "hi"})
    assert len(plan.announcements) == 2
    nets = [ipaddress.IPv4Network(f"{b}/{l}") for b, l in plan.announcements]
    assert any(ipaddress.IPv4Address("10.1.1.1") in n for n in nets)
    assert any(ipaddress.IPv4Address("10.1.200.1") in n for n in nets)


# -- oracles ---------------------------------------------------------------------


def brute_force_isolatable(topo, partition):
    """Largest subset with no stealth edge leaving it, by trying all subsets."""
    nodes = sorted(partition)
    group = {n: topo.group_of(n) for n in topo.nodes}

    def stealthy(a, b):
        return (
            topo.nodes[a].home_as == topo.nodes[b].home_as
            or (group[a] is not None and group[a] == group[b])
        )

    best = set()
    for mask in range(1 << len(nodes)):
        subset = {nodes[i] for i in range(len(nodes)) if mask >> i & 1}
        if len(subset) <= len(best):
            continue
        ok = all(
            not stealthy(a, b) for a in subset for b in topo.nodes if b not in subset
        )
        if ok:
            best = subset
    return best


def test_maximal_isolatable_matches_exhaustive_search():
    rng = random.Random(17)
    for case in range(25):
        raw = worlds.random_scenario(case, max_as=5, max_nodes=9, max_pools=2)
        topo = tp.load_topology(raw)
        ids = sorted(topo.nodes)
        partition = set(rng.sample(ids, rng.randint(1, min(8, len(ids)))))
        got = planner.maximal_isolatable(topo, partition)
        assert got == brute_force_isolatable(topo, partition)
        # the result itself is always feasible
        assert planner.is_feasible(topo, got)[0]


def ipaddress_sub_prefix_candidates(network, ips):
    """Candidate search with an `ipaddress` network per (length, address) pair.

    The reference that the integer-mask `planner._sub_prefix_candidates` must
    agree with; `ips` are sorted `IPv4Address` objects.
    """
    seen = {}
    for length in range(network.prefixlen + 1, 25):
        for ip in ips:
            sub = ipaddress.ip_network(f"{ip}/{length}", strict=False)
            covered = frozenset(i for i in ips if i in sub)
            cand = (str(sub.network_address), length)
            if covered not in seen or (length, cand[0]) < (seen[covered][1], seen[covered][0]):
                seen[covered] = cand
    return [(cand, cov) for cov, cand in sorted(seen.items(), key=lambda kv: kv[1])]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sub_prefix_candidates_equal_ipaddress_reference(data):
    length = data.draw(st.integers(8, 24))
    network = ipaddress.IPv4Network((data.draw(st.integers(0, 2**32 - 1)), length), strict=False)
    # addresses spread over the low `spread` host bits, so some share sub-prefixes
    spread = data.draw(st.integers(0, 32 - length))
    offsets = data.draw(st.lists(st.integers(0, 2**spread - 1), min_size=1, max_size=12, unique=True))
    ips = sorted(int(network.network_address) + o for o in offsets)
    want = ipaddress_sub_prefix_candidates(network, [ipaddress.IPv4Address(i) for i in ips])
    assert planner._sub_prefix_candidates(length, ips) == [
        (cand, frozenset(int(i) for i in cov)) for cand, cov in want
    ]


def oracle_min_cover_size(topo, partition):
    """Exact set-cover size via bitmask branch and bound."""
    coverable = [
        n for n in sorted(partition) if topo.nodes[n].home_prefix.length < 24
    ]
    if not coverable:
        return 0
    bit = {n: 1 << i for i, n in enumerate(coverable)}
    full = (1 << len(coverable)) - 1
    masks = set()
    for n in coverable:
        home = topo.nodes[n].home_prefix
        for length in range(home.length + 1, 25):
            sub = ipaddress.ip_network(f"{topo.nodes[n].ip}/{length}", strict=False)
            m = 0
            for q in coverable:
                if ipaddress.IPv4Address(topo.nodes[q].ip) in sub:
                    m |= bit[q]
            masks.add(m)
    masks = sorted(masks, key=lambda m: -bin(m).count("1"))
    best = [len(masks)]

    def search(covered, used, idx):
        if covered == full:
            best[0] = min(best[0], used)
            return
        if used + 1 >= best[0] or idx >= len(masks):
            return
        # bound: even taking the biggest remaining mask repeatedly can't win
        biggest = bin(masks[idx] & ~covered).count("1")
        for i in range(idx, len(masks)):
            gain = bin(masks[i] & ~covered).count("1")
            biggest = max(biggest, gain)
        if biggest == 0:
            return
        remaining = bin(full & ~covered).count("1")
        if used + (remaining + biggest - 1) // biggest >= best[0] + 1:
            return
        for i in range(idx, len(masks)):
            if masks[i] & ~covered:
                search(covered | masks[i], used + 1, i + 1)

    search(0, 0, 0)
    return best[0]


def test_min_prefix_count_matches_branch_and_bound():
    rng = random.Random(99)
    checked = 0
    for case in range(40):
        raw = worlds.random_scenario(1000 + case, max_as=6, max_nodes=12, max_pools=2)
        topo = tp.load_topology(raw)
        ids = sorted(topo.nodes)
        partition = set(rng.sample(ids, rng.randint(1, len(ids))))
        partition = planner.maximal_isolatable(topo, partition)
        if not partition:
            continue
        plan = planner.min_prefixes_to_isolate(topo, partition)
        if plan.approximate:
            continue
        assert len(plan.announcements) == oracle_min_cover_size(topo, partition), (
            f"case {case}: partition {sorted(partition)}"
        )
        checked += 1
    assert checked >= 20


# -- whole-pool enumeration -------------------------------------------------------


def four_pool_world():
    doc = {
        "ases": [{"id": a, "country": ""} for a in (1, 2, 3, 4, 5, 9)],
        "links": [{"a": a, "b": 9, "rel": "c2p"} for a in (1, 2, 3, 4, 5)],
        "prefixes": [{"base": f"10.{a}.0.0", "len": 16, "origin_as": a} for a in (1, 2, 3, 4, 5)],
        "nodes": [
            {"id": "a1", "ip": "10.1.0.1", "prefix": "10.1.0.0/16", "as": 1},
            {"id": "a2", "ip": "10.1.0.2", "prefix": "10.1.0.0/16", "as": 1},
            {"id": "b1", "ip": "10.2.0.1", "prefix": "10.2.0.0/16", "as": 2},
            {"id": "c1", "ip": "10.3.0.1", "prefix": "10.3.0.0/16", "as": 3},
            {"id": "d1", "ip": "10.4.0.1", "prefix": "10.4.0.0/16", "as": 4},
            {"id": "e1", "ip": "10.5.0.1", "prefix": "10.5.0.0/16", "as": 5},
        ],
        "pools": [
            # w and x share AS1: only isolatable together
            {"id": "w", "gateways": ["a1"], "hash_share": 0.10},
            {"id": "x", "gateways": ["a2"], "hash_share": 0.15},
            {"id": "y", "gateways": ["b1", "c1"], "hash_share": 0.20},
            {"id": "z", "gateways": ["d1"], "hash_share": 0.30},
        ],
        "params": {},
    }
    return tp.load_topology(doc)


def test_enumerate_power_partitions_matches_hand_enumeration():
    topo = four_pool_world()
    plans = planner.enumerate_power_partitions(topo, 0.2, 0.5)
    got = {(frozenset(p.pools), round(p.mining_power, 4)) for p in plans}
    # units: {w,x}=0.25, {y}=0.20, {z}=0.30 -> subsets within [0.2, 0.5]:
    expected = {
        (frozenset({"w", "x"}), 0.25),
        (frozenset({"y"}), 0.20),
        (frozenset({"z"}), 0.30),
        (frozenset({"w", "x", "y"}), 0.45),
        (frozenset({"y", "z"}), 0.50),
    }
    assert got == expected
    counts = [p.prefix_count for p in plans]
    assert counts == sorted(counts)
    for plan in plans:
        if "w" in plan.pools:
            assert {"a1", "a2"} <= plan.nodes  # whole hosting AS comes along


def test_enumerate_includes_empty_partition_for_zero_range():
    topo = four_pool_world()
    plans = planner.enumerate_power_partitions(topo, 0.0, 0.0)
    assert len(plans) == 1
    assert plans[0].nodes == frozenset() and plans[0].mining_power == 0.0


def test_enumerate_rejects_too_many_pools():
    doc = {
        "ases": [{"id": 1, "country": ""}],
        "links": [],
        "prefixes": [{"base": "10.1.0.0", "len": 16, "origin_as": 1}],
        "nodes": [
            {"id": f"n{i}", "ip": f"10.1.0.{i + 1}", "prefix": "10.1.0.0/16", "as": 1}
            for i in range(26)
        ],
        "pools": [
            {"id": f"p{i}", "gateways": [f"n{i}"], "hash_share": 0.01} for i in range(25)
        ],
        "params": {},
    }
    topo = tp.load_topology(doc)
    with pytest.raises(planner.PlanningError) as err:
        planner.enumerate_power_partitions(topo, 0, 1)
    assert "narrow the power range" in str(err.value)
