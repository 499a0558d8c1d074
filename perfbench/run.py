#!/usr/bin/env python3
"""Benchmark of btcrs: seeded simulation workloads, end to end and per module.

    python3 perfbench/run.py --workload gossip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload hijack --seed 1 --trace 1
    python3 perfbench/run.py --self-test

A run is a closed loop with one caller: seeded runs execute one after the
other in this process, with no process pool.  Simulation seeds 0..7 of every
workload are pinned; `--seed` picks the order in which they are visited.
`--sim-seeds` replaces them with any list, whose digests are printed but not
checked.

`--trace 0` runs whole cycles of the seeds, as many as fit in `--seconds`
and at least one, so every run covers the same mix of inputs.  It reports the
`end_to_end` metrics of BENCHMARK.json, timed with meter.py's contention
correction: `seed_s` is the median over cycles of the mean seconds per seeded
run in a cycle, `setup_s` the median over set-up samples.  The plain
host-second medians are printed too.  `--trace 1` runs
simulation seeds 0..2 (in the order `--seed` gives) untraced and then traced
(see spans.py), and reports the `per_layer` metrics.  Every seeded run's
artifact is checked against pins.json and against the workload's own
invariants.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

`--self-test` checks that the benchmark's artifacts equal `btcrs` CLI
output, that tracing restores every wrapped object and that traced counts
repeat.

pins.json is edited by hand, and only when a change to the program's output
is intended: run `--sim-seeds 0..7` on each workload and copy the printed
sha256 of every seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import meter  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from btcrs import cli  # noqa: E402
from btcrs import topology as tp  # noqa: E402

PINS = HERE / "pins.json"
POPULATION = 8  # simulation seeds 0..7 of every workload are pinned
TRACE_SEEDS = (0, 1, 2)
SETUP_SAMPLE_S = 0.05  # one set-up sample repeats load_topology for at least this long

# per-layer names that do not spell their span's qualified name
ALIASES = {"engine.run": "engine.Simulation.run",
           "engine.cross_fraction": "engine.Simulation.cross_fraction"}
HANDLERS = [f"protocol.Node.{h}" for h in
            ("on_connect", "on_disconnect", "on_inv", "on_getdata", "on_block", "on_timeout",
             "accept_block")]
ATTACKER_COUNTERS = ("rewrites", "restores", "corruptions")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "git_sha": git_sha(),
            "BTCRS_THREADS": os.environ.get("BTCRS_THREADS")}


def seed_order(workload: str, seed: int, seeds) -> list[int]:
    """`seeds` in an order fixed by the benchmark seed."""
    order = list(seeds)
    random.Random(f"{workload}:{seed}").shuffle(order)
    return order


def parse_seed_list(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def plain(fn, *args):
    """Uncorrected timing with meter.Meter.measure's signature."""
    t0 = time.perf_counter()
    out = fn(*args)
    dt = time.perf_counter() - t0
    return out, dt, dt


class Checker:
    """Counts seeded runs and the ones that raised or produced a wrong output."""

    def __init__(self, wl: workloads.Workload, pins: dict[str, str] | None):
        self.wl = wl
        self.pins = pins
        self.attempted = 0
        self.failed = 0

    def run(self, topo: tp.Topology, seed: int, measure=plain):
        """One seeded run, timed by `measure`; the check is not timed.

        Returns (host seconds, corrected seconds, digest, artifact, output),
        all None if the run raised.
        """
        self.attempted += 1
        try:
            (artifact, out), host, corrected = measure(self.wl.run, topo, seed)
        except Exception:
            self.failed += 1
            print(f"{self.wl.name} seed {seed}: raised", file=sys.stderr)
            traceback.print_exc()
            return None, None, None, None, None
        digest = hashlib.sha256(artifact).hexdigest()
        problems = self.wl.check(topo, out)
        pinned = None if self.pins is None else self.pins.get(str(seed))
        if pinned is not None and digest != pinned:
            problems.append(f"digest {digest} != pinned {pinned}")
        status = "held-out" if pinned is None else "pinned"
        if problems:
            self.failed += 1
            status = "FAILED: " + "; ".join(problems)
        print(f"{self.wl.name} seed {seed} host {host:.4f} s corrected {corrected:.4f} s "
              f"sha256 {digest} {status}")
        return host, corrected, digest, artifact, out


def load_pins(workload: str) -> dict[str, str]:
    return json.loads(PINS.read_text())["digests"][workload]


def setup_sample(measure, scenario: dict):
    """load_topology repeated for at least SETUP_SAMPLE_S; returns (topology, host s, corrected s) per call."""
    def repeat():
        calls, t0 = 0, time.perf_counter()
        while True:
            topo = tp.load_topology(scenario)
            calls += 1
            if time.perf_counter() - t0 >= SETUP_SAMPLE_S:
                return topo, calls

    (topo, calls), host, corrected = measure(repeat)
    return topo, host / calls, corrected / calls


class Pass:
    """The seconds and digests of an untraced pass."""

    def __init__(self):
        # mean seconds per seeded run over each whole cycle
        self.cycle_host: list[float] = []
        self.cycle_s: list[float] = []
        self.setup_host: list[float] = []
        self.setup_s: list[float] = []
        self.digests: dict[int, str] = {}


def untraced_pass(checker: Checker, measure, scenario: dict, order: list[int],
                  seconds: float | None) -> Pass:
    """Whole cycles of `order`, each seed after its own set-up sample.

    Another cycle starts only if it is likely to end within `seconds`; with
    `seconds` None there is one cycle.
    """
    result = Pass()
    start = time.perf_counter()
    while True:
        seed_host, seed_s = [], []
        for seed in order:
            gc.collect()
            topo, host, corrected = setup_sample(measure, scenario)
            result.setup_host.append(host)
            result.setup_s.append(corrected)
            host, corrected, result.digests[seed], _, _ = checker.run(topo, seed, measure)
            if host is not None:
                seed_host.append(host)
                seed_s.append(corrected)
        result.cycle_host.append(statistics.mean(seed_host))
        result.cycle_s.append(statistics.mean(seed_s))
        cycles = len(result.cycle_s)
        if seconds is None or (time.perf_counter() - start) * (cycles + 1) / cycles > seconds:
            return result


def traced_pass(checker: Checker, scenario: dict, seeds: list[int]):
    """One traced iteration per seed: set-up, seeded run and check, all traced.

    Returns the tracer, the traced host seconds of each seeded run, the
    digests and the total seconds of all iterations.
    """
    tracer = spans.Tracer()
    seed_times, digests, iter_total = [], {}, 0.0
    tracer.install()
    try:
        for seed in seeds:
            gc.collect()
            t0 = time.perf_counter()
            topo = tp.load_topology(scenario)
            dt, _, digests[seed], _, _ = checker.run(topo, seed)
            seed_times.append(dt)
            iter_total += time.perf_counter() - t0
    finally:
        tracer.restore()
    return tracer, seed_times, digests, iter_total


def layer_values(per_layer: list[dict], tracer: spans.Tracer, n: int, iter_total: float,
                 traced_host: float, untraced_host: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics, each a mean per traced iteration unless it is a ratio."""
    def span(name):
        name = ALIASES.get(name, name)
        if name not in tracer.spans:
            raise KeyError(f"no traced span {name!r}")
        return tracer.spans[name]

    def attacker_total(counter):
        return sum(getattr(r.delay_attacker, counter) for r in tracer.results
                   if r.delay_attacker is not None)

    events = tracer.heap.pops / n
    special = {
        "engine.events": events,
        "engine.events_per_s": events / untraced_s,
        "engine.dials": sum(r.dials for r in tracer.results) / n,
        "engine.disconnects": sum(r.disconnects for r in tracer.results) / n,
        "protocol.handlers.self_s": sum(span(h)[2] for h in HANDLERS) / n,
        "trace.overhead": traced_host / untraced_host,
        "trace.iter_s": iter_total / n,
        **{f"adversary.{c}": attacker_total(c) / n for c in ATTACKER_COUNTERS},
    }
    values = {}
    for metric in per_layer:
        name = metric["name"]
        if name in special:
            values[name] = special[name]
            continue
        base, stat = name.rsplit(".", 1)
        calls, _, self_s, truthy = span(base)
        if stat == "calls":
            values[name] = calls / n
        elif stat == "self_s":
            values[name] = self_s / n
        elif stat.endswith("_ratio"):
            values[name] = truthy / calls if calls else 0.0
        else:
            raise KeyError(f"unknown per-layer statistic in {name!r}")
    return values


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    })


def bench(args, spec: dict) -> int:
    wl = workloads.build()[args.workload]
    held_out = args.sim_seeds is not None
    checker = Checker(wl, None if held_out else load_pins(wl.name))
    print("environment " + json.dumps(environment(), sort_keys=True))

    if not args.trace:
        seeds = parse_seed_list(args.sim_seeds) if held_out else range(POPULATION)
        order = seed_order(wl.name, args.seed, seeds)
        run = untraced_pass(checker, meter.Meter().measure, wl.scenario, order, args.seconds)
        values = {
            "seed_s": statistics.median(run.cycle_s),
            "setup_s": statistics.median(run.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metric_defs = spec["end_to_end"]
        print(f"{wl.name} host medians: seed {statistics.median(run.cycle_host)!r} s, "
              f"setup {statistics.median(run.setup_host)!r} s")
        note = (f"cycles of seeds {order}: {len(run.cycle_s)}; "
                f"seed_s is the median over cycles of their mean, setup_s the median of "
                f"{len(run.setup_s)} set-up samples")
        correct = True
    else:
        seeds = parse_seed_list(args.sim_seeds) if held_out else TRACE_SEEDS
        order = seed_order(wl.name, args.seed, seeds)
        run = untraced_pass(checker, meter.Meter().measure, wl.scenario, order, None)
        tracer, traced_host, traced_digests, iter_total = traced_pass(checker, wl.scenario, order)
        leftover = tracer.unrestored()
        correct = traced_digests == run.digests and not leftover
        if traced_digests != run.digests:
            print("traced digests differ from untraced ones", file=sys.stderr)
        if leftover:
            print(f"not restored after tracing: {', '.join(leftover)}", file=sys.stderr)
        metric_defs = spec["per_layer"]
        values = layer_values(metric_defs, tracer, len(order), iter_total,
                              statistics.mean(traced_host), run.cycle_host[0], run.cycle_s[0])
        note = f"per traced iteration over seeds {order}"

    units = {m["name"]: m["unit"] for m in metric_defs}
    for name, unit in units.items():
        print(f"{wl.name} {name} {values[name]!r} {unit}")
    error_rate = checker.failed / checker.attempted
    print(f"{wl.name} error_rate {error_rate!r} ({checker.failed}/{checker.attempted}); {note}")
    print(result_line(correct and checker.failed == 0, checker.attempted, checker.failed,
                      values, units))
    return 0


def self_test(args, spec: dict) -> int:
    design = json.loads((HERE / "design.json").read_text())
    undocumented = {m["name"] for m in spec["per_layer"]} ^ set(design["per_layer"])
    problems = [f"design.json and BENCHMARK.json disagree on per-layer metrics: {sorted(undocumented)}"
                ] if undocumented else []
    all_workloads = workloads.build()
    names = [args.workload] if args.workload else list(all_workloads)
    saved = os.environ.get("BTCRS_THREADS")
    os.environ["BTCRS_THREADS"] = "1"
    try:
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            for name in names:
                problems += _cli_equality(all_workloads[name], Path(tmp))
    finally:
        if saved is None:
            del os.environ["BTCRS_THREADS"]
        else:
            os.environ["BTCRS_THREADS"] = saved
    counted = [m for m in spec["per_layer"] if m["unit"] in ("count", "ratio")]
    for name in names:
        problems += _trace_repeats(all_workloads[name], counted)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def _cli_equality(wl: workloads.Workload, tmp: Path) -> list[str]:
    """Seeds 0 and 1 on one shared topology must give the CLI's bytes, seed by seed."""
    problems = []
    checker = Checker(wl, load_pins(wl.name))
    topo = tp.load_topology(wl.scenario)
    if wl.cli_scenario is None:
        scenario_path = tmp / f"{wl.name}.scn"
        scenario_path.write_text(json.dumps(wl.scenario))
    else:
        scenario_path = workloads.SCENARIOS / wl.cli_scenario
    for seed in (0, 1):
        _, _, _, artifact, out = checker.run(topo, seed)
        if artifact is None:
            continue
        out_path = tmp / f"{wl.name}-{seed}.out"
        code = cli.main(wl.cli_argv(scenario_path, seed) + ["--out", str(out_path)])
        if code != 0:
            problems.append(f"{wl.name} seed {seed}: btcrs exited {code}")
        elif out_path.read_bytes() != wl.cli_bytes(topo, out, artifact):
            problems.append(f"{wl.name} seed {seed}: benchmark bytes differ from btcrs CLI output")
        else:
            print(f"{wl.name} seed {seed}: benchmark bytes equal btcrs CLI output")
    if checker.failed:
        problems.append(f"{wl.name}: {checker.failed} seeded runs failed their checks")
    return problems


def _trace_repeats(wl: workloads.Workload, counted: list[dict]) -> list[str]:
    """Two traced passes over seed 0 restore every wrapped object and give equal counts."""
    problems, seen = [], []
    checker = Checker(wl, load_pins(wl.name))
    for _ in range(2):
        tracer, times, _, iter_total = traced_pass(checker, wl.scenario, [0])
        leftover = tracer.unrestored()
        if leftover:
            problems.append(f"{wl.name}: not restored after tracing: {', '.join(leftover)}")
        seen.append(layer_values(counted, tracer, 1, iter_total, times[0], times[0], times[0]))
    if seen[0] != seen[1]:
        diff = sorted(k for k in seen[0] if seen[0][k] != seen[1][k])
        problems.append(f"{wl.name}: traced counts differ between passes: {', '.join(diff)}")
    if checker.failed:
        problems.append(f"{wl.name}: {checker.failed} traced runs failed their checks")
    if not problems:
        print(f"{wl.name}: {len(counted)} traced counts repeat; every wrapped object restored")
    return problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=0, help="benchmark seed: picks the seed order")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sim-seeds", help="simulation seeds A..B or A,B,C instead of the pinned ones")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if args.self_test:
        return self_test(args, spec)
    if args.workload is None:
        p.error("--workload is required")
    return bench(args, spec)


if __name__ == "__main__":
    sys.exit(main())
