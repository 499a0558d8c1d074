"""Run-level measurements and their serialization.

Everything here is pure post-processing over a finished run: the simulator
never consults these numbers while events are in flight.  The observer for
chain-level quantities is the lowest node id, an arbitrary but stable choice.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from dataclasses import dataclass, field

from .protocol import ChainView


def orphan_rate(chain: ChainView, mined: int) -> float:
    """Share of mined blocks that did not make this chain's active branch."""
    if mined == 0:
        return 0.0
    on_chain = len(chain.main_chain()) - 1  # genesis does not count
    return (mined - on_chain) / mined


def tip_series(chain: ChainView) -> list[tuple[float, int]]:
    """The chain's tip height as a step series: (0.0, 0), then (time, height) at each rise, in arrival order."""
    series = [(0.0, 0)]
    for h, t in chain.arrival.items():
        if chain.known[h].height > series[-1][1]:
            series.append((t, chain.known[h].height))
    return series


def uninformed_fraction(victim_series, reference_series, until: float) -> float:
    """Fraction of [0, until] where the victim's tip height trails the reference.

    Both inputs are `tip_series`; of several points at one time (an orphan
    cascade) the last holds.  Strict comparison: matching heights count as informed.
    """
    if until <= 0:
        return 0.0
    victim = [p for p in victim_series if p[0] <= until]
    reference = [p for p in reference_series if p[0] <= until]
    points = sorted({t for t, _ in victim} | {t for t, _ in reference} | {until})
    lag = 0.0
    i = j = v_height = r_height = 0
    for a, b in zip(points, points[1:]):
        while i < len(victim) and victim[i][0] <= a:
            v_height = victim[i][1]
            i += 1
        while j < len(reference) and reference[j][0] <= a:
            r_height = reference[j][1]
            j += 1
        if v_height < r_height:
            lag += b - a
    # lag is never negative, but its float widths can sum past `until`
    return min(lag / until, 1.0)


def p50_propagation(run) -> tuple[float | None, bool]:
    """Median over blocks of the time until half the nodes hold the block.

    A block that never reaches half of all nodes is measured over the nodes
    it did reach, and the result is flagged partial — the healthy-network
    reading only makes sense when the flag stays False.
    """
    n_nodes = len(run.nodes)
    half = -(-n_nodes // 2)  # ceil
    delays, partial = [], False
    for block in run.mined:
        arrivals = sorted(
            node.chain.arrival[block.hash] - block.created
            for node in run.nodes.values()
            if block.hash in node.chain.arrival
        )
        if not arrivals:
            partial = True
            continue
        if len(arrivals) >= half:
            delays.append(arrivals[half - 1])
        else:
            partial = True
            delays.append(arrivals[-(-len(arrivals) // 2) - 1])
    if not delays:
        return None, True
    return statistics.median(delays), partial


@dataclass
class MetricsReport:
    """The evaluation quantities of one seeded run."""

    seed: int
    config: str
    orphan_rate: float
    prop_delay_p50: float | None
    prop_delay_partial: bool
    uninformed: dict[str, float] = field(default_factory=dict)
    cross_partition_series: list[tuple[float, float]] = field(default_factory=list)
    blocks_mined: dict[str, int] = field(default_factory=dict)
    blocks_in_chain: dict[str, int] = field(default_factory=dict)
    partition: dict | None = None

    def __post_init__(self):
        for m, k in self.blocks_in_chain.items():
            assert k <= self.blocks_mined.get(m, 0), f"chain exceeds mined for {m}"

    def to_dict(self) -> dict:
        d = {
            "seed": self.seed,
            "config": self.config,
            "orphan_rate": self.orphan_rate,
            "prop_delay_p50": self.prop_delay_p50,
            "prop_delay_partial": self.prop_delay_partial,
            "uninformed": dict(sorted(self.uninformed.items())),
            "cross_partition_series": [[t, f] for t, f in self.cross_partition_series],
            "blocks_mined": dict(sorted(self.blocks_mined.items())),
            "blocks_in_chain": dict(sorted(self.blocks_in_chain.items())),
        }
        if self.partition is not None:
            d["partition"] = self.partition
        return d

    def rows(self) -> list[tuple[str, int, str, float]]:
        """Flatten to (config, seed, metric, value) rows for CSV emission."""
        rows = [(self.config, self.seed, "orphan_rate", self.orphan_rate)]
        if self.prop_delay_p50 is not None:
            rows.append((self.config, self.seed, "prop_delay_p50", self.prop_delay_p50))
        for node, frac in sorted(self.uninformed.items()):
            rows.append((self.config, self.seed, f"uninformed.{node}", frac))
        for miner in sorted(self.blocks_mined):
            rows.append((self.config, self.seed, f"blocks_mined.{miner}", self.blocks_mined[miner]))
            rows.append(
                (self.config, self.seed, f"blocks_in_chain.{miner}", self.blocks_in_chain.get(miner, 0))
            )
        return rows


def summarize(run) -> MetricsReport:
    """Distill one finished `engine.Simulation` into a MetricsReport.

    When the run carried a single-victim delay attack, the victim is compared
    against a node literally named "ref" if the scenario ships one.
    """
    observer = run.nodes[min(run.nodes)]
    on_chain = set(observer.chain.main_chain())
    blocks_mined: dict[str, int] = {}
    blocks_in_chain: dict[str, int] = {}
    for b in run.mined:
        blocks_mined[b.miner] = blocks_mined.get(b.miner, 0) + 1
        if b.hash in on_chain:
            blocks_in_chain[b.miner] = blocks_in_chain.get(b.miner, 0) + 1

    uninformed = {}
    if run.attack is not None and run.attack.kind == "delay" and "ref" in run.nodes:
        victim = run.attack.target[0]
        last_mined = run.mined[-1].created if run.mined else 0.0
        uninformed[victim] = uninformed_fraction(
            tip_series(run.nodes[victim].chain), tip_series(run.nodes["ref"].chain), last_mined
        )

    partition = None
    if run.partition_attacker is not None:
        partition = run.partition_attacker.report()
        lifted = run.partition_attacker.lifted_at
        cutoff = math.inf if lifted is None else lifted  # after a lift, outside blocks flow in freely
        partition["external_blocks_in_isolated"] = sum(
            1
            for nid in partition["isolated"]
            for h, t in run.nodes[nid].chain.arrival.items()
            if t <= cutoff and run.partition_attacker.is_external(h)
        )

    p50, flagged = p50_propagation(run)
    return MetricsReport(
        seed=run.seed,
        config=run.topo.config_digest(),
        orphan_rate=orphan_rate(observer.chain, len(run.mined)),
        prop_delay_p50=p50,
        prop_delay_partial=flagged,
        uninformed=uninformed,
        cross_partition_series=run.cross_series,
        blocks_mined=blocks_mined,
        blocks_in_chain=blocks_in_chain,
        partition=partition,
    )


def emit(reports, fmt: str = "json") -> bytes:
    """Serialize one or many reports deterministically.

    JSON carries the full structure with sorted keys; CSV flattens to the
    fixed column order config, seed, metric, value.
    """
    if isinstance(reports, MetricsReport):
        reports = [reports]
    reports = sorted(reports, key=lambda r: (r.config, r.seed))
    if fmt == "json":
        body = {"runs": [r.to_dict() for r in reports]}
        scalar = [r.orphan_rate for r in reports]
        if scalar:
            body["aggregates"] = {"orphan_rate_mean": statistics.mean(scalar)}
            p50s = [r.prop_delay_p50 for r in reports if r.prop_delay_p50 is not None]
            if p50s:
                body["aggregates"]["prop_delay_p50_mean"] = statistics.mean(p50s)
        return (json.dumps(body, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "csv":
        return csv_bytes(row for r in reports for row in r.rows())
    raise ValueError(f"unknown format: {fmt}")


def csv_bytes(rows) -> bytes:
    """(config, seed, metric, value) rows as CSV under a fixed header; a float is written as its repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["config", "seed", "metric", "value"])
    writer.writerows(rows)
    return buf.getvalue().encode()
