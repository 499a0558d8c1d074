"""Post-run measurement helpers and their serialization."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import worlds

from btcrs import engine, metrics
from btcrs import topology as tp

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def mesh3(base=0.1, hop=0.4):
    """Three fully meshed nodes, one per stub AS behind a common hub."""
    return worlds.hub_world({"n1": 1, "n2": 2, "n3": 3}, {
        "blocks": 8,
        "block_interval_mean": 50.0,
        "base_delay": base,
        "per_hop_delay": hop,
        "drain_time": 300.0,
        "connections": [["n1", "n2"], ["n1", "n3"], ["n2", "n3"]],
    })


# ---------------------------------------------------------------- uninformed --


def test_uninformed_hand_case():
    # victim trails by one block during [10, 30) and [50, 80) of a 100 s window
    ref = [(0.0, 0), (10.0, 1), (50.0, 2)]
    vic = [(0.0, 0), (30.0, 1), (80.0, 2)]
    assert metrics.uninformed_fraction(vic, ref, 100.0) == pytest.approx(0.5)


def test_uninformed_ignores_activity_past_the_window():
    ref = [(0.0, 0), (10.0, 1)]
    vic = [(0.0, 0), (10.0, 1), (90.0, 0)]  # nonsense after the window end
    assert metrics.uninformed_fraction(vic, ref, 50.0) == 0.0


series = st.lists(
    st.tuples(st.floats(0.0, 1000.0, allow_nan=False), st.integers(0, 3)),
    max_size=30,
).map(lambda pts: [(t, sum(h for _, h in pts[: i + 1])) for i, (t, _) in enumerate(sorted(pts))])


@settings(max_examples=150)
@given(series, st.floats(1.0, 2000.0))
def test_uninformed_of_identical_series_is_zero(s, until):
    assert metrics.uninformed_fraction(s, s, until) == 0.0


@settings(max_examples=150)
@given(series, series, st.floats(1.0, 2000.0))
# the interval widths sum to a hair more than `until` here
@example([], [(0.0, 1), (1.8661175835007953, 1)], 1025.9999999999998)
def test_uninformed_stays_in_unit_interval(a, b, until):
    f = metrics.uninformed_fraction(a, b, until)
    g = metrics.uninformed_fraction(b, a, until)
    assert 0.0 <= f <= 1.0 and 0.0 <= g <= 1.0
    # strict comparison: at most one side can trail at any instant
    assert f + g <= 1.0 + 1e-9


# ---------------------------------------------------------------- propagation --


def test_p50_is_three_legs_on_a_full_mesh():
    # INV, GETDATA, BLOCK: three one-way trips, each base + hop x two inter-AS
    # edges (every route goes via the hub)
    res = engine.run_scenario(tp.load_topology(mesh3(base=0.1, hop=0.4)), seed=4)
    p50, partial = metrics.p50_propagation(res)
    assert p50 == pytest.approx(3 * (0.1 + 2 * 0.4))
    assert partial is False


def test_p50_flags_blocks_that_never_spread():
    res = engine.run_scenario(tp.load_topology(mesh3()), seed=4)
    lonely = res.mined[0]  # keep a real block, but hide it from everyone
    for node in res.nodes.values():
        node.chain.arrival.pop(lonely.hash, None)
    res.nodes[lonely.miner].chain.arrival[lonely.hash] = lonely.created
    p50, partial = metrics.p50_propagation(res)
    assert partial is True


# ---------------------------------------------------------------- reports --


@pytest.fixture(scope="module")
def paperlike_report():
    raw = json.loads((SCENARIOS / "paperlike.scn").read_text())
    res = engine.run_scenario(tp.load_topology(raw), seed=0)
    return metrics.summarize(res), res


def test_summary_counts_are_consistent(paperlike_report):
    rep, res = paperlike_report
    assert sum(rep.blocks_mined.values()) == len(res.mined)
    for miner, k in rep.blocks_in_chain.items():
        assert k <= rep.blocks_mined[miner]
    on_chain = sum(rep.blocks_in_chain.values())
    assert rep.orphan_rate == pytest.approx(1 - on_chain / len(res.mined))
    assert rep.config == res.topo.config_digest()


def test_chain_exceeding_mined_is_rejected():
    with pytest.raises(AssertionError):
        metrics.MetricsReport(
            seed=0, config="x", orphan_rate=0.0, prop_delay_p50=None,
            prop_delay_partial=False, blocks_mined={"m": 1}, blocks_in_chain={"m": 2},
        )


def test_emit_json_is_deterministic(paperlike_report):
    rep, _ = paperlike_report
    assert metrics.emit(rep) == metrics.emit(rep)
    body = json.loads(metrics.emit([rep], "json"))
    assert body["runs"][0]["seed"] == 0
    assert "aggregates" in body


def test_emit_csv_shape(paperlike_report):
    rep, _ = paperlike_report
    lines = metrics.emit(rep, "csv").decode().splitlines()
    assert lines[0] == "config,seed,metric,value"
    metrics_seen = [ln.split(",")[2] for ln in lines[1:]]
    assert "orphan_rate" in metrics_seen and "prop_delay_p50" in metrics_seen
    assert all(ln.split(",")[0] == rep.config for ln in lines[1:])


def test_emit_rejects_unknown_format(paperlike_report):
    rep, _ = paperlike_report
    with pytest.raises(ValueError, match="unknown format"):
        metrics.emit(rep, "yaml")
