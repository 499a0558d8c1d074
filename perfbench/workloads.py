"""The benchmark's four seeded workloads.

Each workload turns shipped scenario files into one scenario dict (the
program receives nothing else), runs one seed through the same public entry
points the CLI uses, and produces that seed's artifact bytes in the CLI's
format.  `check` returns the problems it finds in one seeded run beyond the
pinned digest; an empty list means the run is correct.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from btcrs import engine, metrics, planner, synth
from btcrs import topology as tp

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

BLOCKS = 20
HIJACK_ATTACKER_AS = 42  # the upper transit AS of two_halves(n_as=40)
COALITION = "US"
DEGREE = 1
HEAL_ONPATH = 0.28


def _json_bytes(body) -> bytes:
    return (json.dumps(body, sort_keys=True, indent=2) + "\n").encode()


def _load(name: str) -> dict:
    return json.loads((SCENARIOS / name).read_text())


@dataclass
class Workload:
    name: str
    # shipped scenario file the CLI reads; None: the CLI reads `scenario` from a temp file
    cli_scenario: str | None
    scenario: dict
    # (topology, seed) -> (artifact bytes, the run's report or result)
    run: Callable
    # (topology, report or result) -> problems found
    check: Callable
    # (scenario path, seed) -> argv of the equivalent `btcrs` command
    cli_argv: Callable
    # (topology, report or result, artifact) -> the bytes that command writes
    cli_bytes: Callable = lambda topo, out, artifact: artifact


def _report_run(topo: tp.Topology, seed: int):
    report = metrics.summarize(engine.run_scenario(topo, seed))
    return metrics.emit(report), report


def _check_blocks(topo: tp.Topology, report) -> list[str]:
    want = topo.params["blocks"]
    got = sum(report.blocks_mined.values())
    return [] if got == want else [f"mined {got} blocks, expected {want}"]


def _check_hijack(topo: tp.Topology, report) -> list[str]:
    problems = _check_blocks(topo, report)
    part = report.partition
    if part is None:
        return problems + ["no partition report"]
    if part["external_blocks_in_isolated"] != 0:
        problems.append(f"{part['external_blocks_in_isolated']} external blocks in isolated chains")
    keep = planner.maximal_isolatable(topo, set(topo.attack["target"]))
    extra = set(part["isolated"]) - keep
    if extra:
        problems.append(f"{len(extra)} isolated nodes outside the maximal isolatable set")
    return problems


def _run_argv(path, seed):
    return ["run", "--scenario", str(path), "--seeds", str(seed)]


def _coalition_run(topo: tp.Topology, seed: int):
    report = metrics.summarize(engine.run_scenario(topo, seed))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["config", "seed", "metric", "value"])
    writer.writerow([f"{topo.config_digest()}:degree={DEGREE}", seed, "orphan_rate", report.orphan_rate])
    return buf.getvalue().encode(), report


def _check_coalition(topo: tp.Topology, report) -> list[str]:
    problems = _check_blocks(topo, report)
    if not 0.0 <= report.orphan_rate <= 1.0:
        problems.append(f"orphan rate {report.orphan_rate} outside [0, 1]")
    return problems


def _heal_run(topo: tp.Topology, seed: int):
    result = engine.run_healing(topo, seed, onpath=HEAL_ONPATH)
    return _json_bytes(result.to_dict()), result


def _check_heal(topo: tp.Topology, result) -> list[str]:
    want = int(engine.HEAL_WATCH // engine.HEAL_SAMPLE_EVERY)
    problems = [] if len(result.samples) == want else [f"{len(result.samples)} samples, expected {want}"]
    if not result.baseline > 0.0:
        problems.append(f"baseline cross fraction {result.baseline}")
    return problems


def _heal_cli_bytes(topo: tp.Topology, result, artifact: bytes) -> bytes:
    return _json_bytes({
        "config": topo.config_digest(),
        "onpath": HEAL_ONPATH,
        "results": [result.to_dict()],
        "mean_final_ratio": statistics.mean([result.final_ratio]),
    })


def build() -> dict[str, Workload]:
    """Generate every workload's scenario; the same files give the same inputs."""
    halves = _load("twohalves.scn")

    gossip = copy.deepcopy(halves)
    del gossip["attack"]
    gossip["params"]["blocks"] = BLOCKS

    hijack = copy.deepcopy(halves)
    hijack["attack"] = {
        "kind": "partition",
        "target": halves["attack"]["target"],
        "params": {"attacker_as": HIJACK_ATTACKER_AS},
    }
    hijack["params"]["blocks"] = BLOCKS

    coalition = synth.adjust_pool_degree(_load("paperlike.scn"), DEGREE)
    coalition["attack"] = {
        "kind": "delay",
        "target": [],
        "params": {"coalition": COALITION, "interception": 1.0},
    }

    workloads = [
        Workload("gossip", None, gossip, _report_run, _check_blocks, _run_argv),
        Workload("coalition", "paperlike.scn", coalition, _coalition_run, _check_coalition,
                 lambda path, seed: ["multihoming-sweep", "--scenario", str(path), "--degrees",
                                     str(DEGREE), "--coalition", COALITION, "--seeds", str(seed)]),
        Workload("heal", "twohalves.scn", halves, _heal_run, _check_heal,
                 lambda path, seed: ["heal", "--scenario", str(path), "--onpath", str(HEAL_ONPATH),
                                     "--seeds", str(seed)],
                 _heal_cli_bytes),
        Workload("hijack", None, hijack, _report_run, _check_hijack, _run_argv),
    ]
    return {w.name: w for w in workloads}
