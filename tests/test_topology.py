"""Topology and routing tests.

The routing oracle below recomputes best routes by simulating route export
round-by-round until fixpoint — an intentionally different algorithm from the
routing-tree construction in btcrs.topology — so the two implementations
cross-check each other on random graphs.
"""

import copy
import functools
import ipaddress
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcrs import engine, metrics
from btcrs import topology as tp

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

CUSTOMER, PEER, PROVIDER = 0, 1, 2


def make_graph(n_as, c2p, p2p):
    countries = {a: "" for a in n_as}
    providers = {a: set() for a in n_as}
    customers = {a: set() for a in n_as}
    peers = {a: set() for a in n_as}
    for cust, prov in c2p:
        providers[cust].add(prov)
        customers[prov].add(cust)
    for a, b in p2p:
        peers[a].add(b)
        peers[b].add(a)
    return tp.AsGraph(countries, providers, customers, peers)


def oracle_routes(graph: tp.AsGraph, dst: int):
    """Round-based route propagation with explicit export rules."""
    best = {dst: (CUSTOMER, 0, (dst,))}
    learned_from_exportable = {dst: True}  # own route counts as exportable-to-all
    for _ in range(2 * len(graph.as_ids) + 4):
        changed = False
        for u in sorted(graph.as_ids):
            if u == dst:
                continue
            candidates = []
            for v in sorted(graph.as_ids):
                if v == u or v not in best:
                    continue
                # does v export its best route to u?
                if not learned_from_exportable[v] and u not in graph.customers[v]:
                    continue
                if v in graph.customers[u]:
                    rank = CUSTOMER
                elif v in graph.peers[u]:
                    rank = PEER
                elif v in graph.providers[u]:
                    rank = PROVIDER
                else:
                    continue
                _, length, path = best[v]
                if u in path:
                    continue
                candidates.append((rank, length + 1, v, path))
            if not candidates:
                continue
            rank, length, v, path = min(candidates, key=lambda c: (c[0], c[1], c[2]))
            entry = (rank, length, (u,) + path)
            if best.get(u) != entry:
                best[u] = entry
                learned_from_exportable[u] = rank == CUSTOMER
                changed = True
        if not changed:
            return best
    raise AssertionError("oracle did not converge")


def assert_tables_match(graph):
    fwd = tp.compute_forwarding(graph)
    for dst in graph.as_ids:
        expected = oracle_routes(graph, dst)
        for src in graph.as_ids:
            got = fwd.path(src, dst)
            if src in expected:
                assert got == list(expected[src][2]), (
                    f"path({src},{dst}): got {got}, oracle {list(expected[src][2])}"
                )
            else:
                assert got is None, f"path({src},{dst}): got {got}, oracle says unreachable"
            # the hop count behind every link delay is the path's length, with no route as None
            assert fwd.hops(src, dst) == (None if got is None else len(got) - 1), (src, dst)
    # the ASes a dial may reach: routes both ways, the AS itself included
    for a in graph.as_ids:
        assert fwd.two_way(a) == {b for b in graph.as_ids
                                  if fwd.hops(a, b) is not None and fwd.hops(b, a) is not None}, a


def test_diamond_prefers_lower_next_hop():
    # dst 5 is a customer of both 2 and 4; 2 and 4 are customers of 1.
    g = make_graph([1, 2, 3, 4, 5], c2p=[(5, 2), (5, 4), (2, 1), (4, 1)], p2p=[])
    fwd = tp.compute_forwarding(g)
    # both [1,2,5] and [1,4,5] are customer-learned, length 2 -> lowest next hop
    assert fwd.path(1, 5) == [1, 2, 5]
    assert_tables_match(g)


def test_customer_route_beats_shorter_peer_route():
    # 1 reaches 5 via customer chain 2-3-5 (length 3) or via peer 4 (length 2).
    g = make_graph(
        [1, 2, 3, 4, 5],
        c2p=[(2, 1), (3, 2), (5, 3), (5, 4)],
        p2p=[(1, 4)],
    )
    fwd = tp.compute_forwarding(g)
    assert fwd.path(1, 5) == [1, 2, 3, 5]
    assert_tables_match(g)


def test_provider_routes_chain_downward():
    # 4's only route to 3 climbs through its provider chain: 4 -> 2 -> 1 -> 3.
    g = make_graph([1, 2, 3, 4], c2p=[(2, 1), (4, 2), (3, 1)], p2p=[])
    fwd = tp.compute_forwarding(g)
    assert fwd.path(4, 3) == [4, 2, 1, 3]
    assert fwd.path(3, 4) == [3, 1, 2, 4]
    assert_tables_match(g)


def test_peers_do_not_transit():
    # 1-2 and 2-3 are peerings: 1 must not reach 3 through 2.
    g = make_graph([1, 2, 3], c2p=[], p2p=[(1, 2), (2, 3)])
    fwd = tp.compute_forwarding(g)
    assert fwd.path(1, 2) == [1, 2]
    assert fwd.path(1, 3) is None


@st.composite
def random_as_graph(draw):
    n = draw(st.integers(2, 8))
    ids = list(range(1, n + 1))
    order = draw(st.permutations(ids))
    tier = {a: i for i, a in enumerate(order)}
    c2p, p2p, used = [], [], set()
    for a in ids:
        for b in ids:
            if a >= b or frozenset((a, b)) in used:
                continue
            roll = draw(st.integers(0, 9))
            if roll < 4:
                used.add(frozenset((a, b)))
                # direct the customer->provider edge toward the lower tier
                c2p.append((a, b) if tier[a] > tier[b] else (b, a))
            elif roll < 6:
                used.add(frozenset((a, b)))
                p2p.append((a, b))
    return make_graph(ids, c2p, p2p)


@settings(max_examples=120, deadline=None)
@given(random_as_graph())
def test_forwarding_matches_oracle_on_random_graphs(graph):
    assert_tables_match(graph)


@settings(max_examples=60, deadline=None)
@given(random_as_graph())
def test_paths_are_valley_free_and_deterministic(graph):
    fwd = tp.compute_forwarding(graph)
    fwd2 = tp.compute_forwarding(graph)
    for dst in graph.as_ids:
        for src in graph.as_ids:
            path = fwd.path(src, dst)
            assert path == fwd2.path(src, dst)
            if path is None or len(path) == 1:
                continue
            # classify each hop: +1 up (to provider), -1 down, 0 peer
            steps = []
            for a, b in zip(path, path[1:]):
                if b in graph.providers[a]:
                    steps.append(1)
                elif b in graph.customers[a]:
                    steps.append(-1)
                else:
                    assert b in graph.peers[a], f"non-adjacent hop {a}->{b}"
                    steps.append(0)
            assert steps.count(0) <= 1, f"two peer hops in {path}"
            seen_flat_or_down = False
            for s in steps:
                if s in (0, -1):
                    seen_flat_or_down = True
                elif seen_flat_or_down:
                    pytest.fail(f"valley in {path}")


# -- scenario loading ---------------------------------------------------------


def minimal_scenario(**overrides):
    doc = {
        "ases": [{"id": 1, "country": "US"}, {"id": 2, "country": "DE"}],
        "links": [{"a": 2, "b": 1, "rel": "c2p"}],
        "prefixes": [
            {"base": "10.1.0.0", "len": 16, "origin_as": 1},
            {"base": "10.2.0.0", "len": 16, "origin_as": 2},
        ],
        "nodes": [
            {"id": "n1", "ip": "10.1.0.1", "prefix": "10.1.0.0/16", "as": 1},
            {"id": "n2", "ip": "10.2.0.1", "prefix": "10.2.0.0/16", "as": 2},
        ],
        "pools": [],
        "params": {},
    }
    doc.update(overrides)
    return doc


def test_load_minimal_scenario():
    topo = tp.load_topology(minimal_scenario())
    assert topo.nodes["n1"].home_as == 1
    assert topo.forwarding.path(2, 1) == [2, 1]


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ({"prefixes": [{"base": "10.1.0.0", "len": 25, "origin_as": 1}]}, "longer than /24"),
        ({"links": [{"a": 1, "b": 1, "rel": "c2p"}]}, "self-link"),
        ({"links": [{"a": 1, "b": 2, "rel": "sibling"}]}, "rel must be"),
        (
            {"links": [{"a": 1, "b": 2, "rel": "c2p"}, {"a": 2, "b": 1, "rel": "c2p"}]},
            "duplicate link",
        ),
        ({"nodes": [{"id": "n1", "ip": "10.9.0.1", "prefix": "10.1.0.0/16", "as": 1}]},
         "outside 10.1.0.0/16"),
        ({"nodes": [{"id": "n1", "ip": "10.1.0.1", "prefix": "10.1.0.0/16", "as": 2}]},
         "originated by AS1"),
        ({"params": {"warp_speed": 1}}, "unknown parameter"),
        ({"ases": [1, 2]}, "ases[0]: must be an object"),
        ({"links": "x"}, "links: must be a list"),
        ({"attack": [1]}, "attack: must be an object"),
        ({"attack": {"kind": "partition", "target": ["n1"]}}, "attack.params.attacker_as"),
        ({"attack": {"kind": "partition", "target": ["n1"], "params": {"attacker_as": "2"}}},
         "attack.params.attacker_as"),
        ({"attack": {"kind": "delay", "target": []}}, "attack.target"),
        ({"attack": {"kind": "delay", "params": {"coalition": "ZZ"}}}, "attack.params.coalition"),
        ({"params": {"churn": {"lifetime_table": [[1.0, -600]]}}}, "params.churn"),
        ({"params": {"connections": [["n1", "nope"]]}}, "params.connections[0]"),
        ({"attack": {"kind": "partition", "target": ["n1"], "params": {"mode": "perfect", "start": -5}}},
         "attack.params.start"),
        ({"links": [{"a": [1], "b": 2, "rel": "c2p"}]}, "links[0].a"),
        ({"pools": [{"id": "p", "gateways": [["n1"]], "hash_share": 0.5}]}, "pools[0].gateways"),
        ({"pools": [{"id": "p", "gateways": ["n1"], "hash_share": True}]}, "pools[0].hash_share"),
        ({"pools": [{"id": "p", "gateways": ["n1"], "hash_share": 0.5, "private_peers": [["q"]]}]},
         "pools[0].private_peers"),
        ({"nodes": [{"id": "n1", "ip": "10.1.0.1", "prefix": ["10.1.0.0/16"]}]}, "nodes[0].prefix"),
        ({"nodes": [{"id": "n1", "ip": 167837697, "prefix": "10.1.0.0/16"}]}, "nodes[0].ip"),
        ({"attack": {"kind": "delay", "target": ["n1"], "params": {"interception": "x"}}},
         "attack.params.interception"),
        ({"attack": {"kind": "delay", "target": ["n1"], "params": {"interception": 1.5}}},
         "attack.params.interception"),
        ({"attack": {"kind": "delay", "target": ["n1"], "params": {"restore_margin": "x"}}},
         "attack.params.restore_margin"),
        ({"attack": {"kind": "delay", "target": ["n1"], "params": {"restore_margin": float("inf")}}},
         "attack.params.restore_margin"),
        ({"attack": {"kind": "delay", "target": ["n1"], "params": {"direction": "sideways"}}},
         "attack.params.direction"),
        *(({"attack": {"kind": "partition", "target": ["n1"],
                       "params": {"attacker_as": 2, "announced": ["10.1.0.0/16", bad]}}},
           "attack.params.announced[1]")
          for bad in ("1.0.0.1/17", "1.0.0.0/x", "1.0.0.0/25", ["1.0.0.0", 17])),
        # a null start used to pass the load check and then crash the run
        ({"attack": {"kind": "partition", "target": ["n1"], "params": {"mode": "perfect", "start": None}}},
         "attack.params.start"),
        ({"attack": {"kind": "partition", "target": ["n1"], "params": {"attacker_as": 2, "start": None}}},
         "attack.params.start"),
        ({"attack": {"kind": "delay", "target": ["n1"], "params": {"start": None}}}, "attack.params.start"),
        # a lift before the start fires first, leaving the partition on for the whole run
        ({"attack": {"kind": "partition", "target": ["n1"], "params": {"mode": "perfect", "start": 600, "end": 300}}},
         "attack.params.end"),
        ({"attack": {"kind": "partition", "target": ["n1"], "params": {"attacker_as": 2, "start": 600, "end": 300}}},
         "attack.params.end"),
        # a delay attack runs the whole simulation, so a window would be silently ignored
        ({"attack": {"kind": "delay", "target": ["n1"], "params": {"start": 300}}}, "attack.params.start"),
        ({"attack": {"kind": "delay", "target": ["n1"], "params": {"end": 300}}}, "attack.params.end"),
        # the missing 0.9 would go silently to the last row
        ({"params": {"churn": {"lifetime_table": [[0.1, 10.0]]}}},
         "params.churn: lifetime_table probabilities must sum to 1, got 0.1"),
        # a bool or a float equal to the origin AS used to load as the node's home AS
        *(({"nodes": [{"id": "n1", "ip": "10.1.0.1", "prefix": "10.1.0.0/16", "as": home}]}, "nodes[0].as")
          for home in (True, 1.0)),
        ({"prefixes": [{"base": "10.1.0.0", "len": True, "origin_as": 1}]}, "prefixes[0].len"),
        # every reader of a delay attack's victim reads one node
        ({"attack": {"kind": "delay", "target": ["n1", "n2"]}}, "attack.target: a delay attack has exactly one victim"),
        # a heal run's post-lift veto share is set by `--onpath`, never by the scenario
        ({"attack": {"kind": "partition", "target": ["n1"], "params": {"mode": "perfect", "onpath": 0.5}}},
         "attack.params.onpath: unknown key"),
    ],
)
def test_scenario_validation_errors(mutation, fragment):
    with pytest.raises(tp.ScenarioError) as err:
        tp.load_topology(minimal_scenario(**mutation))
    assert fragment in str(err.value)


def test_lifetime_table_may_miss_one_by_rounding_or_be_empty():
    assert sum([0.1] * 10) != 1.0
    for table in ([[0.1, 600.0]] * 10, []):
        tp.load_topology(minimal_scenario(params={"churn": {"enabled": True, "lifetime_table": table}}))


@pytest.mark.parametrize(
    "attack, where",
    [
        # ignored, the first would run at the default interception 1.0 and the mode one as a hijack
        ({"kind": "delay", "target": ["n1"], "params": {"interceptoin": 0.5}}, "attack.params.interceptoin"),
        ({"kind": "delay", "target": ["n1"], "param": {"interception": 0.5}}, "attack.param"),
        ({"kind": "delay", "target": ["n1"], "params": {"attacker_as": 2}}, "attack.params.attacker_as"),
        ({"kind": "partition", "target": ["n1"], "params": {"mode": "bogus", "attacker_as": 2}},
         "attack.params.mode"),
        ({"kind": "partition", "target": ["n1"], "params": {"attacker_as": 2, "interception": 0.5}},
         "attack.params.interception"),
        ({"kind": "partition", "target": ["n1"], "params": {"mode": "perfect", "coalition": "US"}},
         "attack.params.coalition"),
    ],
)
def test_attack_keys_outside_the_kind_table_are_rejected(attack, where):
    with pytest.raises(tp.ScenarioError) as err:
        tp.load_topology(minimal_scenario(attack=attack))
    assert str(err.value).startswith(f"{where}: ")


@pytest.mark.parametrize(
    "key, entry, where",
    [
        # each would load and silently drop the key; a pool without its private peering simulates another world
        ("ases", {"id": 1, "contry": "US"}, "ases[0].contry"),
        ("links", {"a": 2, "b": 1, "rel": "c2p", "relation": "p2p"}, "links[0].relation"),
        ("prefixes", {"base": "10.1.0.0", "len": 16, "origin_as": 1, "origin": 1}, "prefixes[0].origin"),
        ("nodes", {"id": "n1", "ip": "10.1.0.1", "prefix": "10.1.0.0/16", "asn": 1}, "nodes[0].asn"),
        ("pools", {"id": "p", "gateways": ["n1"], "hash_share": 1.0, "private_peerz": []}, "pools[0].private_peerz"),
    ],
)
def test_entry_keys_outside_the_list_table_are_rejected(key, entry, where):
    doc = minimal_scenario()
    doc[key] = [entry] + doc[key][1:]
    with pytest.raises(tp.ScenarioError) as err:
        tp.load_topology(doc)
    assert str(err.value) == f"{where}: unknown key"


def test_read_attack_settles_what_the_engine_runs():
    topo = tp.load_topology(minimal_scenario())
    hijack = {"kind": "partition", "target": ["n1"],
              "params": {"attacker_as": 2, "start": 60, "announced": ["10.1.0.0/17"]}}
    assert tp.read_attack(hijack, topo) == tp.Attack("hijack", ("n1",), 60.0, None, 2, (("10.1.0.0", 17),))
    assert type(tp.read_attack(hijack, topo).start) is float  # so the clock never holds an int
    coalition = {"kind": "delay", "target": [], "params": {"coalition": "US", "interception": 1.0}}
    assert tp.read_attack(coalition, topo) == tp.Attack("coalition", (), coalition=frozenset({1}))
    node = {"kind": "delay", "target": ["n2"], "params": {"interception": 1}}
    assert tp.read_attack(node, topo) == tp.Attack("delay", ("n2",), interception=1.0, restore_margin=300.0)
    assert [tp.read_attack(a, topo).reads_tx for a in (hijack, coalition, node)] == [True, False, True]
    assert tp.read_attack(None, topo) is None


def test_simulation_checks_an_attack_passed_to_it():
    # an API caller's attack dict is refused at construction, not found wanting mid-run; the
    # same dict's load-time rejection is a case of test_scenario_validation_errors
    topo = tp.load_topology(minimal_scenario())
    with pytest.raises(TypeError, match="read_attack"):
        engine.Simulation(topo, seed=0, attack={"kind": "partition", "target": ["n1"]})


def _json_paths(doc, prefix=()):
    """The location of every value below the root of a JSON document, parents first.

    Only the first two entries of a list are visited: the rest have their
    shape and their checks, and skipping them keeps the 1000 nodes of
    twohalves.scn from drowning out its parameters.
    """
    items = doc.items() if isinstance(doc, dict) else enumerate(doc[:2]) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@functools.cache
def _shipped(name):
    """A shipped scenario (never mutate it) and the locations of its values."""
    doc = json.loads((SCENARIOS / name).read_text())
    return doc, list(_json_paths(doc))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_shipped_scenarios_are_rejected_or_run(data):
    # one edit anywhere in a shipped scenario: drop the key or list entry, give
    # the value another JSON type, negate a number, or misspell an object key
    doc, paths = _shipped(data.draw(st.sampled_from(["paperlike.scn", "delaynode.scn", "twohalves.scn"])))
    path = data.draw(st.sampled_from(paths))
    value = _at(doc, path)
    number = type(value) in (int, float) and value != 0
    keyed = isinstance(path[-1], str)
    edit = data.draw(st.sampled_from(["drop", "type"] + ["negate"] * number + ["misspell"] * keyed))
    raw = copy.deepcopy(doc)
    parent, key = _at(raw, path[:-1]), path[-1]
    if edit == "drop":
        del parent[key]
    elif edit == "misspell":
        parent[key[:-1] + key[-1] * 2] = parent.pop(key)
    elif edit == "type":
        parent[key] = data.draw(st.sampled_from([v for v in (None, True, 0, 2.5, "x", [], {})
                                                 if type(v) is not type(value)]))
    else:
        parent[key] = -value
    try:
        topo = tp.load_topology(raw)
    except tp.ScenarioError:
        return
    metrics.summarize(engine.Simulation(topo, 0, attack=tp.read_attack(topo.attack, topo), end_time=600.0).run())


def test_hash_share_sum_error_message():
    doc = minimal_scenario(
        pools=[{"id": "p", "gateways": ["n1"], "hash_share": 0.9}],
        params={"residual_share": 0.0},
    )
    with pytest.raises(tp.ScenarioError) as err:
        tp.load_topology(doc)
    assert "hash shares sum to 0.9" in str(err.value)


def test_overlapping_prefixes_rejected():
    doc = minimal_scenario()
    doc["prefixes"].append({"base": "10.1.128.0", "len": 17, "origin_as": 2})
    with pytest.raises(tp.ScenarioError) as err:
        tp.load_topology(doc)
    assert "overlaps" in str(err.value)


def test_customer_provider_cycle_rejected():
    doc = minimal_scenario()
    doc["ases"].append({"id": 3, "country": "US"})
    doc["links"] = [
        {"a": 1, "b": 2, "rel": "c2p"},
        {"a": 2, "b": 3, "rel": "c2p"},
        {"a": 3, "b": 1, "rel": "c2p"},
    ]
    with pytest.raises(tp.ScenarioError) as err:
        tp.load_topology(doc)
    assert "cycle" in str(err.value)


# -- hijack coverage ------------------------------------------------------------


def fully_diverted(cov, node_id):
    """Whether a more-specific announcement than its home prefix covers the node."""
    return cov._rule[node_id][1] is True


def three_as_topology():
    """Victim v in AS1 (10.1.0.0/16), observer AS2, attacker AS3; all peers of a hub."""
    doc = {
        "ases": [{"id": i, "country": ""} for i in (1, 2, 3, 9)],
        "links": [{"a": i, "b": 9, "rel": "c2p"} for i in (1, 2, 3)],
        "prefixes": [
            {"base": "10.1.0.0", "len": 16, "origin_as": 1},
            {"base": "10.2.0.0", "len": 16, "origin_as": 2},
        ],
        "nodes": [
            {"id": "v", "ip": "10.1.7.7", "prefix": "10.1.0.0/16", "as": 1},
            {"id": "w", "ip": "10.1.200.9", "prefix": "10.1.0.0/16", "as": 1},
            {"id": "o", "ip": "10.2.0.1", "prefix": "10.2.0.0/16", "as": 2},
        ],
        "pools": [],
        "params": {},
    }
    return tp.load_topology(doc)


def test_more_specific_pair_fully_diverts_a_slash16():
    topo = three_as_topology()
    cov = tp.hijack_coverage(topo, [("10.1.0.0", 17), ("10.1.128.0", 17)])
    for node in ("v", "w"):
        assert fully_diverted(cov, node)
        assert cov.diverted(node, src_as=2)
        assert cov.diverted(node, src_as=3)
        # traffic already inside the victim's AS never crosses the hijack
        assert not cov.diverted(node, src_as=1)


def test_single_slash17_covers_only_lower_half():
    topo = three_as_topology()
    cov = tp.hijack_coverage(topo, [("10.1.0.0", 17)])
    assert cov.diverted("v", 2)  # 10.1.7.7 is in the announced half
    assert not cov.diverted("w", 2)  # 10.1.200.9 is not


def test_equal_length_announcement_splits_sources_roughly_in_half():
    doc = {
        "ases": [{"id": i, "country": ""} for i in range(1, 60)] + [{"id": 99, "country": ""}],
        "links": [{"a": i, "b": 99, "rel": "c2p"} for i in range(1, 60)],
        "prefixes": [{"base": "10.1.0.0", "len": 16, "origin_as": 1}],
        "nodes": [{"id": "v", "ip": "10.1.0.1", "prefix": "10.1.0.0/16", "as": 1}],
        "pools": [],
        "params": {},
    }
    topo = tp.load_topology(doc)
    cov = tp.hijack_coverage(topo, [("10.1.0.0", 16)], seed=5)
    assert not fully_diverted(cov, "v")
    sources = [a for a in range(2, 60)]
    diverted = sum(cov.diverted("v", a) for a in sources)
    # Bernoulli(0.5) over 58 source ASes: 3 sigma ~ 11.4
    assert 17 <= diverted <= 41
    # deterministic for a fixed seed
    again = tp.hijack_coverage(topo, [("10.1.0.0", 16)], seed=5)
    assert [again.diverted("v", a) for a in sources] == [cov.diverted("v", a) for a in sources]


def test_equal_length_race_seeds_one_coin_per_source_as(monkeypatch):
    topo = three_as_topology()
    cov = tp.hijack_coverage(topo, [("10.1.0.0", 16)], seed=5)
    made = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(tp.random, "Random", CountingRandom)
    verdicts = {cov.diverted("v", 2) for _ in range(100)}
    assert len(verdicts) == 1
    assert len(made) <= 1


def test_slash25_announcement_rejected():
    topo = three_as_topology()
    with pytest.raises(tp.ScenarioError) as err:
        tp.hijack_coverage(topo, [("10.1.0.0", 25)])
    assert "filtered" in str(err.value)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(17, 24))
def test_adding_more_specific_never_shrinks_coverage(ip_suffix, extra_len):
    topo = three_as_topology()
    ip = f"10.1.{ip_suffix >> 8}.{ip_suffix & 0xFF}"
    base = [("10.1.0.0", 17)]
    net = ipaddress.ip_network(f"{ip}/{extra_len}", strict=False)
    more = base + [(str(net.network_address), extra_len)]
    cov_base = tp.hijack_coverage(topo, base)
    cov_more = tp.hijack_coverage(topo, more)
    for node in topo.nodes:
        for src in (2, 3):
            if cov_base.diverted(node, src):
                assert cov_more.diverted(node, src)


class IpaddressCoverage(tp.Coverage):
    """Best-prefix selection with one `ipaddress` network per (node, announcement) pair.

    The reference that the integer-mask selection, the per-node rules and the
    cached race coins of `Coverage` must agree with: it seeds a fresh coin on
    every equal-length call.
    """

    def __init__(self, topo, announced, seed=0):
        self._topo = topo
        self._seed = seed
        self._best = {}
        for node_id, pl in topo.nodes.items():
            covering = [
                (length, base)
                for base, length in announced
                if ipaddress.IPv4Address(pl.ip) in ipaddress.IPv4Network(f"{base}/{length}")
            ]
            self._best[node_id] = max(covering) if covering else None

    def diverted(self, node_id, src_as):
        pl = self._topo.nodes[node_id]
        if src_as == pl.home_as:
            return False
        best = self._best[node_id]
        if best is None:
            return False
        length, base = best
        if length > pl.home_prefix.length:
            return True
        if length < pl.home_prefix.length:
            return False
        coin = random.Random(f"{self._seed}:eqlen:{base}/{length}:{src_as}")
        return coin.random() < 0.5

    def fully_diverted(self, node_id):
        best = self._best[node_id]
        return best is not None and best[0] > self._topo.nodes[node_id].home_prefix.length


def _subnet(ip: int, length: int) -> str:
    return str(ipaddress.IPv4Network((ip, length), strict=False).network_address)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coverage_equals_ipaddress_reference(data):
    ips = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6, unique=True))
    nodes = {}
    for i, ip in enumerate(ips):
        home_len = data.draw(st.integers(8, 24))
        home = tp.Prefix(_subnet(ip, home_len), home_len, origin_as=1 + i % 2)
        nodes[f"n{i}"] = tp.NodePlacement(f"n{i}", str(ipaddress.IPv4Address(ip)), home, home.origin_as)
    # announcements around the nodes' addresses, at their home length or any other
    node_lens = [pl.home_prefix.length for pl in nodes.values()]
    announced = []
    for _ in range(data.draw(st.integers(0, 6))):
        near = data.draw(st.one_of(st.sampled_from(ips), st.integers(0, 2**32 - 1)))
        length = data.draw(st.one_of(st.integers(8, 24), st.sampled_from(node_lens)))
        announced.append((_subnet(near, length), length))
    graph = tp.AsGraph({1: "", 2: "", 3: ""}, {1: {3}, 2: {3}, 3: set()},
                       {1: set(), 2: set(), 3: {1, 2}}, {1: set(), 2: set(), 3: set()})
    topo = tp.Topology(graph, nodes, {}, {}, None, {})
    seed = data.draw(st.integers(0, 2**16))
    cov = tp.hijack_coverage(topo, announced, seed=seed)
    ref = IpaddressCoverage(topo, announced, seed)
    for node in nodes:
        assert fully_diverted(cov, node) == ref.fully_diverted(node)
        for src in (1, 2, 3):
            assert cov.diverted(node, src) == ref.diverted(node, src)


# -- classification and interception -------------------------------------------


def route(topo, src, dst):
    """The ASes that carry node src's traffic to node dst, endpoints included."""
    return topo.forwarding.path(topo.nodes[src].home_as, topo.nodes[dst].home_as)


def test_intercepting_ases_includes_endpoints():
    topo = three_as_topology()
    assert route(topo, "v", "o") == [1, 9, 2]
    assert route(topo, "v", "w") == [1]


def test_classify_stealth_kinds():
    doc = minimal_scenario(
        nodes=[
            {"id": "a", "ip": "10.1.0.1", "prefix": "10.1.0.0/16", "as": 1},
            {"id": "b", "ip": "10.1.0.2", "prefix": "10.1.0.0/16", "as": 1},
            {"id": "c", "ip": "10.2.0.1", "prefix": "10.2.0.0/16", "as": 2},
            {"id": "d", "ip": "10.1.0.9", "prefix": "10.1.0.0/16", "as": 1},
            {"id": "e", "ip": "10.2.0.2", "prefix": "10.2.0.0/16", "as": 2},
        ],
        pools=[
            {"id": "p1", "gateways": ["a", "c"], "hash_share": 0.2, "private_peers": ["p2"]},
            {"id": "p2", "gateways": ["d"], "hash_share": 0.2, "private_peers": ["p1"]},
        ],
    )
    topo = tp.load_topology(doc)
    assert tp.stealth_kind(topo, "a", "b") == "intra-as"
    assert tp.stealth_kind(topo, "a", "c") == "intra-pool"
    assert tp.stealth_kind(topo, "c", "d") == "pool-to-pool"
    assert tp.stealth_kind(topo, "b", "c") is None
    # b and c are linked through a, and e through c's AS, though b-e is no stealth edge
    assert topo.stealth_component("b") == frozenset("abcde")
    assert tp.stealth_kind(topo, "b", "e") is None


# -- the shipped paper-like scenario --------------------------------------------


def test_paperlike_fixture_shape():
    topo = tp.load_topology(json.loads((SCENARIOS / "paperlike.scn").read_text()))
    assert len(topo.graph.as_ids) == 8
    red = topo.pools["red"]
    assert set(red.gateways) == {"I", "J", "F"}
    assert {topo.nodes[g].home_as for g in red.gateways} == {4, 5, 6}
    assert set(topo.pools["green"].gateways) == {"D", "E"}
    # AS3 sits on the path from J toward A and B, but not from J toward H
    assert 3 in route(topo, "J", "A")
    assert 3 in route(topo, "J", "B")
    assert 3 not in route(topo, "J", "H")
