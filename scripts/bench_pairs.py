#!/usr/bin/env python3
"""Alternating benchmark pairs between two checkouts of btcrs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload gossip --pairs 10 --out BENCH_<n>.json

Each pair runs `perfbench/run.py --workload W --seed I --trace 0` once in
each checkout, one run after the other and never two at once.  The parent
goes first in even pairs and the change first in odd ones, so a drift in the
machine's speed falls on both sides alike; both runs of pair I use benchmark
seed I, and every run takes the benchmark's own run length.  `--workload`
may be repeated, and the pairs of every workload run in turn.  `--sim-seeds`
(such as 8..15) is passed to every run, so a claim can be checked on
simulation seeds other than the pinned 0..7; their digests are not pinned,
so `correct` then reflects only the workload's own checks.

The result is one JSON file: per workload and per `end_to_end` metric of the
change's BENCHMARK.json, the value of every pair on each side, each side's
median and quartiles, `wins`, the number of pairs in which the change is
better, and `verdict` (see `verdict`), which is also printed.  Each run's
`correct` and `failed` are kept too.  With `--label NAME`
the record is stored under NAME in the `--out` file, next to the records
already there, so one file can hold the pinned and the held-out seeds:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload coalition --pairs 5 \
        --sim-seeds 8..15 --label held_out_seeds --out BENCH_<n>.json

The exit status is 1 when any run reported `correct: false` or `failed > 0`;
each such run is named on stderr, after the file is written.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, sim_seeds: str | None) -> dict:
    """One `--trace 0` run in `checkout`; returns its `environment` and result lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if sim_seeds is not None:
        cmd += ["--sim-seeds", sim_seeds]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next((json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("environment ")), {})
    return {"environment": env, "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3}


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The number of pairs in which the change is strictly better; a tie counts for neither."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def verdict(m: dict) -> str:
    """One metric's verdict over its pairs: `gain`, `worse than bound`, `unresolved` or `no change`.

    A gain needs the change better in at least nine tenths of the pairs and
    the medians apart, in its favour, by more than the parent's
    interquartile range.  Worse than bound means the change's median is
    worse than the parent's by more than the metric's `bound`, a fraction of
    the parent's median (no bound counts as 0).  Otherwise the metric is
    unresolved when either side's interquartile range is wider than that
    bound, unless every run of the change beats every run of the parent, and
    no change when it is not.
    """
    parent, change = m["parent"], m["change"]
    if m["better"] == "lower":
        gain = parent["median"] - change["median"]  # > 0 when the change's median is better
        every_run_better = max(change["values"]) < min(parent["values"])
    else:
        gain = change["median"] - parent["median"]
        every_run_better = min(change["values"]) > max(parent["values"])
    if 10 * m["wins"] >= 9 * m["pairs"] and gain > parent["q3"] - parent["q1"]:
        return "gain"
    allowed = (m["bound"] or 0.0) * abs(parent["median"])
    if -gain > allowed:
        return "worse than bound"
    widest = max(parent["q3"] - parent["q1"], change["q3"] - change["q1"])
    if widest > allowed and not every_run_better:
        return "unresolved"
    return "no change"


def metric_record(metric: dict, parent: list[float], change: list[float]) -> dict:
    """The record of one `end_to_end` metric over the pairs: each side's values and spread, wins and verdict."""
    m = {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric.get("bound"),
        "parent": {"values": parent, **spread(parent)},
        "change": {"values": change, **spread(change)},
        "wins": wins(parent, change, metric["better"]),
        "pairs": len(parent),
    }
    m["verdict"] = verdict(m)
    return m


def bad_runs(record: dict) -> list[str]:
    """One line for each run of `record` that reported `correct: false` or `failed > 0`."""
    bad = []
    for workload, res in record["workloads"].items():
        for side in SIDES:
            for i, (ok, failed) in enumerate(zip(res["correct"][side], res["failed"][side])):
                if not ok or failed:
                    bad.append(f"{workload} pair {i} {side}: correct {ok}, failed {failed}")
    return bad


def workload_pairs(dirs: dict[str, Path], workload: str, pairs: int, metrics: list[dict],
                   sim_seeds: str | None) -> dict:
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            t0 = time.perf_counter()
            runs[side].append(run_once(dirs[side], workload, i, sim_seeds))
            res = runs[side][-1]["result"]
            print(f"{workload} pair {i} {side}: seed_s {res['metrics']['seed_s']['value']:.4f} "
                  f"correct {res['correct']} ({time.perf_counter() - t0:.0f} s wall)", file=sys.stderr)
    out = {
        "correct": {side: [r["result"]["correct"] for r in runs[side]] for side in SIDES},
        "failed": {side: [r["result"]["failed"] for r in runs[side]] for side in SIDES},
        "git_sha": {side: runs[side][0]["environment"].get("git_sha") for side in SIDES},
        "metrics": {},
    }
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        out["metrics"][name] = metric_record(metric, values["parent"], values["change"])
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--sim-seeds", help="simulation seeds A..B or A,B,C for every run instead of the pinned ones")
    p.add_argument("--out", type=Path, required=True, help="JSON file to write, such as BENCH_<n>.json")
    p.add_argument("--label", help="store the record under this key of --out, keeping the records already there")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    record = {
        "command": "perfbench/run.py --trace 0",
        "pairs": args.pairs,
        "sim_seeds": args.sim_seeds,
        "order": "parent first in even pairs, change first in odd pairs; pair i uses --seed i",
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "processor": platform.processor() or platform.machine()},
        "workloads": {w: workload_pairs(dirs, w, args.pairs, spec["end_to_end"], args.sim_seeds)
                      for w in args.workload},
    }
    if args.label is None:
        doc = record
    else:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc[args.label] = record
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for w, res in record["workloads"].items():
        for name, m in res["metrics"].items():
            print(f"{w} {name}: parent {m['parent']['median']:.4g} [{m['parent']['q1']:.4g}, "
                  f"{m['parent']['q3']:.4g}]  change {m['change']['median']:.4g} [{m['change']['q1']:.4g}, "
                  f"{m['change']['q3']:.4g}] {m['unit']}; change better in {m['wins']}/{m['pairs']}: "
                  f"{m['verdict']}")
    bad = bad_runs(record)
    for line in bad:
        print(f"incorrect run: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
