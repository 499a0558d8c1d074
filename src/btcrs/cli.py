"""Batch experiment front-end.

Each subcommand loads a scenario, fans the runs out over a seed range, and
writes one deterministic artifact (JSON or CSV): re-running with identical
flags reproduces identical bytes.  Every artifact embeds the scenario's
config digest so result tables stay traceable to their inputs.  The env var
BTCRS_THREADS, a positive integer, caps the number of seed workers.
"""

from __future__ import annotations

import argparse
import copy
import json
import statistics
import sys
from pathlib import Path

from . import engine, metrics, planner, synth
from . import topology as tp

USAGE_ERR, SCENARIO_ERR, RUNTIME_ERR = 2, 3, 4

_REPO_ROOT = Path(__file__).resolve().parents[2]


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep errors single-line and machine-parsable
        raise _CliError(USAGE_ERR, message)


def _parse_seeds(text: str) -> list[int]:
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(text)
    except ValueError:
        raise _CliError(USAGE_ERR, f"bad --seeds {text!r}: expected N or A..B") from None
    if hi < lo:
        raise _CliError(USAGE_ERR, f"bad --seeds {text!r}: empty range")
    return list(range(lo, hi + 1))


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq:
            raise _CliError(USAGE_ERR, f"bad --set {pair!r}: expected key=value")
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value
        problem = tp.param_problem(key, overrides[key])
        if problem is not None:
            raise _CliError(USAGE_ERR, f"bad --set {pair!r}: params.{key} {problem}")
    return overrides


def _load_topology(raw: dict, overrides: dict) -> tp.Topology:
    """Load a scenario and check the `--set` overrides with the engine's own check.

    `_parse_overrides` has rejected every per-key problem, so only a
    connection naming an unknown node, or a node to itself, fails here.
    """
    topo = tp.load_topology(raw)
    try:
        tp.check_params(overrides, topo.nodes)
    except tp.ScenarioError as exc:
        raise _CliError(USAGE_ERR, f"bad --set connections: {exc}") from None
    return topo


def _load_scenario(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise _CliError(SCENARIO_ERR, f"scenario not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise _CliError(SCENARIO_ERR, f"{p}: not valid JSON ({exc})") from None


def _default_scenario(name: str) -> Path:
    for cand in (_REPO_ROOT / "scenarios" / name, Path("scenarios") / name):
        if cand.exists():
            return cand
    raise _CliError(USAGE_ERR, f"--scenario is required (no bundled {name} found)")


def _write(out, data: bytes) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _report_job(raw: dict, seed: int, overrides: dict | None):
    return metrics.summarize(engine.run_scenario(raw, seed, overrides))


def _sweep_csv(cells: list[tuple[str, dict]], seeds: list[int], overrides: dict, metric: str, value) -> bytes:
    """CSV rows of `metric` per (label, scenario) cell and seed; every cell is checked, then all run in one pool."""
    names = [f"{_load_topology(scn, overrides).config_digest()}:{label}" for label, scn in cells]
    reports = engine._map_tasks(_report_job, [(scn, s, overrides) for _, scn in cells for s in seeds])
    cell_of = [name for name in names for _ in seeds]
    return metrics.csv_bytes((name, rep.seed, metric, value(rep)) for name, rep in zip(cell_of, reports))


# -- subcommands ---------------------------------------------------------------


def _cmd_run(args) -> int:
    raw = _load_scenario(args.scenario)
    overrides = _parse_overrides(args.set)
    seeds = _parse_seeds(args.seeds)
    _load_topology(raw, overrides)
    reports = engine._map_tasks(_report_job, [(raw, s, overrides) for s in seeds])
    _write(args.out, metrics.emit(reports, args.format))
    return 0


def _cmd_plan_partition(args) -> int:
    raw = _load_scenario(args.scenario)
    try:
        lo_s, hi_s = args.power.split(":", 1)
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise _CliError(USAGE_ERR, f"bad --power {args.power!r}: expected LO:HI") from None
    if not (0 <= lo <= hi <= 1):
        raise _CliError(USAGE_ERR, f"bad --power {args.power!r}: need 0 <= LO <= HI <= 1")
    topo = tp.load_topology(raw)
    plans = planner.enumerate_power_partitions(topo, lo, hi)
    body = [dict(p.to_dict(), config=topo.config_digest()) for p in plans]
    _write(args.out, (json.dumps(body, sort_keys=True, indent=2) + "\n").encode())
    return 0


def _cmd_heal(args) -> int:
    if not 0 <= args.onpath <= 1:
        raise _CliError(USAGE_ERR, f"bad --onpath {args.onpath!r}: must be a fraction in [0, 1]")
    raw = _load_scenario(args.scenario)
    overrides = _parse_overrides(args.set)
    seeds = _parse_seeds(args.seeds)
    topo = _load_topology(raw, overrides)
    attack = tp.read_attack(topo.attack, topo)
    if attack is None or attack.kind not in ("perfect", "hijack") or not attack.target:
        raise _CliError(SCENARIO_ERR, "heal needs a scenario with a partition attack on a non-empty target")
    digest = topo.config_digest()
    results = engine._map_tasks(engine.run_healing, [(raw, s, args.onpath, overrides) for s in seeds])
    body = {
        "config": digest,
        "onpath": args.onpath,
        "results": [r.to_dict() for r in results],
        "mean_final_ratio": statistics.mean(r.final_ratio for r in results),
    }
    _write(args.out, (json.dumps(body, sort_keys=True, indent=2) + "\n").encode())
    return 0


def _cmd_delay_node(args) -> int:
    raw = _load_scenario(args.scenario)
    topo = tp.load_topology(raw)  # validated before anything reads it
    attack = tp.read_attack(topo.attack, topo)
    if attack is None or attack.kind != "delay" or not attack.target:
        raise _CliError(SCENARIO_ERR, "delay-node needs a scenario with a single-victim delay attack")
    if "ref" not in topo.nodes:  # the victim is measured against it
        raise tp.ScenarioError("nodes: delay-node needs an attack-free reference node named 'ref'")
    overrides = _parse_overrides(args.set)
    seeds = _parse_seeds(args.seeds)
    try:
        fractions = [float(x) for x in args.interception.split(",")]
    except ValueError:
        raise _CliError(USAGE_ERR, f"bad --interception {args.interception!r}: expected comma-separated fractions") from None
    if not all(0 <= f <= 1 for f in fractions):
        raise _CliError(USAGE_ERR, f"bad --interception {args.interception!r}: fractions must be in [0, 1]")
    cells = []
    for f in fractions:
        scn = copy.deepcopy(raw)
        scn["attack"].setdefault("params", {})["interception"] = f
        cells.append((f"interception={f}", scn))
    victim = attack.target[0]
    _write(args.out, _sweep_csv(cells, seeds, overrides, "uninformed_fraction", lambda rep: rep.uninformed[victim]))
    return 0


def _cmd_multihoming_sweep(args) -> int:
    path = args.scenario or _default_scenario("paperlike.scn")
    raw = _load_scenario(path)
    overrides = _parse_overrides(args.set)
    seeds = _parse_seeds(args.seeds)
    try:
        degrees = [int(x) for x in args.degrees.split(",")]
    except ValueError:
        raise _CliError(USAGE_ERR, f"bad --degrees {args.degrees!r}: expected comma-separated integers") from None
    if min(degrees) < 1:
        raise _CliError(USAGE_ERR, f"bad --degrees {args.degrees!r}: a pool is hosted in at least 1 AS")
    cells = []
    for d in degrees:
        scn = synth.adjust_pool_degree(raw, d)
        scn["attack"] = {
            "kind": "delay",
            "target": [],
            "params": {"coalition": args.coalition, "interception": 1.0},
        }
        cells.append((f"degree={d}", scn))
    _write(args.out, _sweep_csv(cells, seeds, overrides, "orphan_rate", lambda rep: rep.orphan_rate))
    return 0


# -- wiring ---------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="btcrs", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, scenario_required=True, simulates=True):
        sp.add_argument("--scenario", required=scenario_required, help="scenario JSON file")
        sp.add_argument("--out", default=None, help="output file (default: stdout)")
        if simulates:  # only a subcommand that runs seeds reads these two
            sp.add_argument("--seeds", default="0..19", help="seed range A..B (inclusive) or single seed")
            sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                            help="override a simulation parameter")

    sp = sub.add_parser("run", help="simulate a scenario over a seed range")
    common(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("plan-partition", help="enumerate isolatable pool partitions by hash power")
    common(sp, simulates=False)
    sp.add_argument("--power", required=True, metavar="LO:HI", help="hash-power window, e.g. 0.45:0.55")
    sp.set_defaults(func=_cmd_plan_partition)

    sp = sub.add_parser("heal", help="partition, lift, and watch connectivity recover")
    common(sp)
    sp.add_argument("--onpath", type=float, default=0.0,
                    help="fraction of cross pairs an attacker keeps dropping after the lift")
    sp.set_defaults(func=_cmd_heal)

    sp = sub.add_parser("delay-node", help="sweep interception fractions against one victim")
    common(sp)
    sp.add_argument("--interception", default="0,0.5,0.8,1.0",
                    help="comma-separated interception fractions")
    sp.set_defaults(func=_cmd_delay_node)

    sp = sub.add_parser("multihoming-sweep", help="orphan rate vs pool hosting degree under a coalition attack")
    common(sp, scenario_required=False)
    sp.add_argument("--degrees", default="1,3,5,7", help="comma-separated hosting degrees")
    sp.add_argument("--coalition", required=True, help="country code whose ASes attack")
    sp.set_defaults(func=_cmd_multihoming_sweep)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            engine.thread_cap()
        except ValueError as exc:
            raise _CliError(USAGE_ERR, str(exc)) from None
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (tp.ScenarioError, planner.PlanningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SCENARIO_ERR
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERR


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
