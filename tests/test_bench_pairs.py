"""scripts/bench_pairs.py without a subprocess: the statistics, the wins count and the record it writes."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_spread_is_the_inclusive_median_and_quartiles():
    assert bench_pairs.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.spread([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert bench_pairs.spread([0.7]) == {"median": 0.7, "q1": 0.7, "q3": 0.7}


def test_wins_counts_strictly_better_pairs_in_the_metric_direction():
    parent, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0]
    assert bench_pairs.wins(parent, change, "lower") == 2  # the tie in pair 1 counts for neither side
    assert bench_pairs.wins(parent, change, "higher") == 1


SEED_S = {"name": "seed_s", "unit": "s", "better": "lower", "bound": 0.2}


@pytest.mark.parametrize("parent, change, want", [
    ([1.0] * 10, [0.9] * 9 + [1.1], "gain"),  # 9/10 wins and a median gap beyond the parent's zero IQR
    ([1.0] * 10, [0.9] * 8 + [1.1] * 2, "no change"),  # 8/10 wins is short of nine tenths
    ([1.0, 1.1] * 5, [0.98] * 10, "no change"),  # 10/10 wins, but the gap 0.07 is inside the parent's IQR 0.1
    ([1.0] * 10, [1.21] * 10, "worse than bound"),  # 21% worse against a 20% bound
    ([1.0] * 10, [1.19] * 10, "no change"),
    ([0.7, 1.3] * 5, [0.75, 1.25] * 5, "unresolved"),  # both IQRs (0.6, 0.5) exceed the bound of 0.2
    ([1.0, 1.5] * 5, [0.7, 0.9] * 5, "no change"),  # as wide, but every change run beats every parent run
])
def test_verdict_follows_the_pairs_rule(parent, change, want):
    assert bench_pairs.metric_record(SEED_S, parent, change)["verdict"] == want


def test_verdict_reads_higher_better_metrics_the_other_way_round():
    rate = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}
    assert bench_pairs.metric_record(rate, [1.0] * 10, [1.2] * 10)["verdict"] == "gain"
    assert bench_pairs.metric_record(rate, [1.0] * 10, [0.8] * 10)["verdict"] == "worse than bound"


def _fake_run(seed_s: float, correct: bool = True, failed: int = 0) -> dict:
    metrics = {"seed_s": {"value": seed_s}, "setup_s": {"value": 0.001}}
    return {"environment": {"git_sha": "abc"},
            "result": {"correct": correct, "failed": failed, "metrics": metrics}}


@pytest.fixture
def checkouts(tmp_path, monkeypatch):
    """Two checkouts whose runs are canned: the change reads 0.5 s, the parent 1.0 s, pair 1's change fails."""
    dirs = {}
    for side in ("parent", "change"):
        dirs[side] = tmp_path / side
        dirs[side].mkdir()
    spec = {"end_to_end": [{"name": "seed_s", "unit": "s", "better": "lower", "bound": 0.2},
                           {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    (dirs["change"] / "BENCHMARK.json").write_text(json.dumps(spec))

    def run_once(checkout, workload, seed, sim_seeds):
        if checkout == dirs["parent"]:
            return _fake_run(1.0)
        return _fake_run(0.5, correct=seed != 1, failed=int(seed == 1))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return dirs


def test_a_failed_run_exits_1_after_writing_the_record(checkouts, tmp_path, capsys):
    out = tmp_path / "bench.json"
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "coalition", "--pairs", "3",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    record = json.loads(out.read_text())
    seed_s = record["workloads"]["coalition"]["metrics"]["seed_s"]
    assert (seed_s["wins"], seed_s["pairs"], seed_s["change"]["median"]) == (3, 3, 0.5)
    assert (seed_s["verdict"], record["workloads"]["coalition"]["metrics"]["setup_s"]["verdict"]) == (
        "gain", "no change")
    assert record["workloads"]["coalition"]["correct"]["change"] == [True, False, True]
    assert "coalition pair 1 change: correct False, failed 1" in capsys.readouterr().err


def test_label_merges_into_the_existing_file(checkouts, tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"pinned_seeds": {"pairs": 10}}))
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "gossip", "--pairs", "1",
            "--sim-seeds", "8..15", "--label", "held_out_seeds", "--out", str(out)]
    assert bench_pairs.main(argv) == 0  # pair 0 is correct on both sides
    doc = json.loads(out.read_text())
    assert doc["pinned_seeds"] == {"pairs": 10}
    assert doc["held_out_seeds"]["sim_seeds"] == "8..15"
    assert doc["held_out_seeds"]["workloads"]["gossip"]["metrics"]["seed_s"]["wins"] == 1
