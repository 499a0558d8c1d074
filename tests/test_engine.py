"""Event loop behaviour: determinism, dialing rules, churn, healing phases."""

import copy
import json
from pathlib import Path

import pytest

from btcrs import engine, synth
from btcrs import topology as tp

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def paperlike():
    return json.loads((SCENARIOS / "paperlike.scn").read_text())


def tiny_world(n=6, connections=None, params=None):
    """n nodes in n ASes hanging off one hub, one /16 each."""
    doc = {
        "ases": [{"id": a, "country": ""} for a in range(1, n + 1)] + [{"id": 99, "country": ""}],
        "links": [{"a": a, "b": 99, "rel": "c2p"} for a in range(1, n + 1)],
        "prefixes": [{"base": f"10.{a}.0.0", "len": 16, "origin_as": a} for a in range(1, n + 1)],
        "nodes": [
            {"id": f"n{a}", "ip": f"10.{a}.0.1", "prefix": f"10.{a}.0.0/16", "as": a}
            for a in range(1, n + 1)
        ],
        "pools": [],
        "params": {"blocks": 5, "block_interval_mean": 100.0, "drain_time": 600.0},
    }
    if connections is not None:
        doc["params"]["connections"] = connections
    if params:
        doc["params"].update(params)
    return doc


# ---------------------------------------------------------------- determinism --


def test_same_seed_same_run():
    raw = paperlike()
    a = engine.run_scenario(raw, seed=7)
    b = engine.run_scenario(raw, seed=7)
    assert [(m.time, m.block.hash, m.miner) for m in a.mined] == [
        (m.time, m.block.hash, m.miner) for m in b.mined
    ]
    assert a.tip_series == b.tip_series
    assert (a.dials, a.disconnects, a.end_time) == (b.dials, b.disconnects, b.end_time)


def test_different_seeds_differ():
    raw = paperlike()
    a = engine.run_scenario(raw, seed=1)
    b = engine.run_scenario(raw, seed=2)
    assert [m.time for m in a.mined] != [m.time for m in b.mined]


def test_config_digest_tracks_content():
    raw = paperlike()
    d1 = engine.run_scenario(raw, seed=0).config_digest
    raw2 = copy.deepcopy(raw)
    raw2["params"]["per_hop_delay"] = 9.9
    d2 = engine.run_scenario(raw2, seed=0).config_digest
    assert d1 != d2 and len(d1) == 16


def test_clock_never_runs_backwards():
    sim = engine.Simulation(tp.load_topology(tiny_world()), seed=0)
    sim.schedule_control(50.0, lambda s: s.schedule_control(s.now - 1.0, lambda s: None))
    with pytest.raises(RuntimeError, match="ran backwards"):
        sim.run()


# ---------------------------------------------------------------- connections --


def test_explicit_connections_are_respected():
    conns = [["n1", "n2"], ["n2", "n3"], ["n3", "n4"], ["n4", "n5"], ["n5", "n6"]]
    res = engine.run_scenario(tiny_world(connections=conns), seed=0)
    for a, b in conns:
        assert b in res.nodes[a].peers and a in res.nodes[b].peers
    # a line of 6 nodes: the ends keep exactly one peer, nobody dialed extra
    assert len(res.nodes["n1"].peers) == 1
    assert len(res.nodes["n6"].peers) == 1


def test_random_dialing_avoids_own_slash16_group():
    raw = tiny_world()
    ip_group = {n["id"]: n["ip"].split(".")[1] for n in raw["nodes"]}
    res = engine.run_scenario(raw, seed=3)
    for nid, node in res.nodes.items():
        groups = [ip_group[p] for p in node.outgoing]
        assert len(groups) == len(set(groups)), f"{nid} dialed twice into one /16"


def test_pool_gateways_form_a_clique():
    raw = paperlike()
    res = engine.run_scenario(raw, seed=0)
    topo = tp.load_topology(raw)
    for pool in topo.pools.values():
        for i, a in enumerate(pool.gateways):
            for b in pool.gateways[i + 1:]:
                assert b in res.nodes[a].peers


def test_blocks_converge_without_attack():
    res = engine.run_scenario(tiny_world(), seed=1)
    tips = {node.chain.tip.hash for node in res.nodes.values()}
    assert len(tips) == 1, "healthy network should agree on the tip"
    assert len(res.mined) == 5


# ---------------------------------------------------------------- overrides --


def test_overrides_change_params():
    res = engine.run_scenario(tiny_world(), seed=0, overrides={"blocks": 2})
    assert len(res.mined) == 2


# ---------------------------------------------------------------- churn --


def test_churn_reboots_wipe_peers_and_redial():
    params = {
        "blocks": 1,
        "drain_time": 40_000.0,
        "churn": {"enabled": True, "lifetime_table": [[1.0, 3600.0]]},
    }
    res = engine.run_scenario(tiny_world(params=params), seed=2)
    assert res.disconnects > 0, "reboots must tear connections down"
    base = engine.run_scenario(tiny_world(), seed=2)
    assert res.dials > base.dials, "rebooted nodes dial fresh peers"


# ---------------------------------------------------------------- healing --


@pytest.fixture(scope="module")
def heal_pair():
    raw = synth.two_halves(n_nodes=120, n_as=8, seed=0)
    free = engine.run_healing(raw, seed=0, onpath=0.0)
    sticky = engine.run_healing(raw, seed=0, onpath=0.5)
    return free, sticky


def test_healing_baseline_and_samples(heal_pair):
    free, _ = heal_pair
    assert free.baseline > 0, "halves must talk to each other before the attack"
    times = [t for t, _ in free.samples]
    assert times == sorted(times)
    assert times[0] == engine.HEAL_SAMPLE_EVERY
    assert times[-1] == engine.HEAL_WATCH
    assert 0 < free.final_ratio <= 1.5


def test_onpath_dropping_slows_recovery(heal_pair):
    free, sticky = heal_pair
    assert sticky.final_ratio < free.final_ratio


def test_healing_seeds_fan_out():
    raw = synth.two_halves(n_nodes=120, n_as=8, seed=0)
    results = engine.run_healing_seeds(raw, seeds=[0, 1], onpath=0.0)
    assert sorted(r.seed for r in results) == [0, 1]
    d = results[0].to_dict()
    assert set(d) == {"seed", "onpath", "baseline_cross_fraction", "samples", "final_ratio"}
