"""Acceptance gate: the eight end-to-end criteria in one module.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line through the conftest
summary hook, with the measured values inline.  Tolerances are stated next
to each assertion; runtime caps are wall-clock on a single CPU.
"""

import copy
import json
import math
import random
import statistics
from pathlib import Path
from time import perf_counter

from conftest import record_verdict
from test_planner import four_pool_world, oracle_min_cover_size
import worlds

from btcrs import cli, engine, metrics, planner, synth, wire
from btcrs import topology as tp

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def load(name):
    return json.loads((SCENARIOS / name).read_text())


def check(criterion, ok, detail):
    record_verdict(criterion, ok, detail)
    assert ok, f"criterion {criterion}: {detail}"


# -- 1. healthy baseline ----------------------------------------------------------


def test_criterion_1_healthy_baseline():
    t0 = perf_counter()
    raw = load("paperlike.scn")
    reports = [metrics.summarize(engine.run_scenario(raw, seed)) for seed in range(20)]
    elapsed = perf_counter() - t0
    orphan = statistics.mean(r.orphan_rate for r in reports)
    p50 = statistics.mean(r.prop_delay_p50 for r in reports)
    clean = not any(r.prop_delay_partial for r in reports)
    ok = 0.0 <= orphan <= 0.025 and 5.0 <= p50 <= 8.0 and clean and elapsed < 60.0
    check(1, ok, f"orphan {orphan:.2%} in [0%,2.5%], p50 {p50:.2f}s in [5s,8s], "
                 f"{elapsed:.0f}s < 60s over 20 seeds")


# -- 2. partition attacker vs planner oracle ---------------------------------------


def test_criterion_2_partition_matches_planner():
    t0 = perf_counter()
    matches, external_hits = 0, 0
    for case in range(200):
        raw = worlds.random_partition_case(seed=case)
        topo = tp.load_topology(raw)
        targets = set(raw["attack"]["target"])
        expect = planner.maximal_isolatable(topo, targets)
        res = engine.run_scenario(raw, seed=case)
        rep = res.partition_attacker.report()
        kept = targets - set(rep["leaked"])
        matches += kept == expect
        for nid in rep["isolated"]:
            for h in res.nodes[nid].chain.arrival:
                external_hits += res.partition_attacker.is_external(h)
    elapsed = perf_counter() - t0
    ok = matches == 200 and external_hits == 0 and elapsed < 120.0
    check(2, ok, f"P\\L == maximal_isolatable in {matches}/200 cases, "
                 f"{external_hits} external blocks in isolated chains, {elapsed:.0f}s < 120s")


# -- 3. delay attack: interception ordering and bounds ------------------------------


def seed_means(cells, value):
    """Mean of `value(report)` over seeds 0..19 for each (key, scenario) cell; all runs share one pool."""
    tasks = [(scn, seed, None) for _, scn in cells for seed in range(20)]
    vals = [value(rep) for rep in engine._map_tasks(cli._report_job, tasks)]
    return {key: statistics.mean(vals[20 * i : 20 * (i + 1)]) for i, (key, _) in enumerate(cells)}


def test_criterion_3_delay_interception_bands():
    raw = load("delaynode.scn")
    cells = []
    for f in (0.0, 0.5, 0.8, 1.0):
        scn = copy.deepcopy(raw)
        scn["attack"]["params"]["interception"] = f
        cells.append((f, scn))

    def only_uninformed(rep):
        (val,) = rep.uninformed.values()
        return val

    means = seed_means(cells, only_uninformed)
    ordered = means[0.0] < means[0.5] < means[0.8] < means[1.0]
    ok = (
        ordered
        and means[0.0] < 0.02
        and abs(means[0.5] - 0.6321) <= 0.15
        and abs(means[1.0] - 0.8545) <= 0.10
    )
    check(3, ok, "uninformed means "
                 f"{means[0.0]:.3f} < {means[0.5]:.3f} < {means[0.8]:.3f} < {means[1.0]:.3f}; "
                 f"f=0 below 2%, f=0.5 within 63.21%±15pp, f=1.0 within 85.45%±10pp")


# -- 4. twenty-minute mechanics ------------------------------------------------------


def duet(direction, tx_rate=0.0):
    """Victim v one inter-AS link away from the only miner p."""
    return {
        "ases": [{"id": 1, "country": ""}, {"id": 2, "country": ""}],
        "links": [{"a": 1, "b": 2, "rel": "p2p"}],
        "prefixes": [
            {"base": "10.1.0.0", "len": 16, "origin_as": 1},
            {"base": "10.2.0.0", "len": 16, "origin_as": 2},
        ],
        "nodes": [
            {"id": "p", "ip": "10.1.0.1", "prefix": "10.1.0.0/16", "as": 1},
            {"id": "v", "ip": "10.2.0.1", "prefix": "10.2.0.0/16", "as": 2},
        ],
        "pools": [{"id": "m", "gateways": ["p"], "hash_share": 1.0}],
        "params": {
            "blocks": 1,
            "block_interval_mean": 600.0,
            "base_delay": 0.5,
            "per_hop_delay": 0.5,
            "tx_getdata_rate": tx_rate,
            "connections": [["v", "p"]],
        },
        "attack": {"kind": "delay", "target": ["v"],
                   "params": {"direction": direction, "interception": 1.0}},
    }


def test_criterion_4_exact_timeout_mechanics():
    leg = 0.5 + 0.5  # base_delay + one inter-AS hop, exact in binary

    # incoming corruption: victim never gets a valid copy, walks at +1200 s sharp
    raw = duet("incoming")
    full = engine.run_scenario(raw, seed=0)
    b = full.mined[0]
    deadline = (b.created + leg) + 1200.0  # INV arrival = request time
    starved = (
        full.nodes["v"].chain.tip.height == 0
        and full.delay_attacker.corruptions == 1
        and full.disconnects == 1
        and not full.nodes["v"].peers
    )
    before = engine.run_scenario(raw, seed=0, end_time=math.nextafter(deadline, 0.0))
    at = engine.run_scenario(raw, seed=0, end_time=deadline)
    exact = (
        before.nodes["v"].pending[b.hash].deadline == deadline
        and "p" in before.nodes["v"].peers
        and "p" not in at.nodes["v"].peers
    )

    # outgoing rewrite with tx chatter: block restored late, no disconnect
    res = engine.run_scenario(duet("outgoing", tx_rate=0.02), seed=0)
    b2 = res.mined[0]
    arrival = res.nodes["v"].chain.arrival.get(b2.hash)
    restored = (
        res.nodes["v"].chain.tip.hash == b2.hash
        and arrival is not None
        and b2.created + leg < arrival < b2.created + leg + 1200.0
        and res.disconnects == 0
        and res.delay_attacker.rewrites == 1
        and res.delay_attacker.restores == 1
    )
    ok = starved and exact and restored
    check(4, ok, "incoming: 0 valid copies, disconnect exactly at request+1200s "
                 f"(t={deadline:.4f}, tolerance 0); outgoing: restored "
                 f"{arrival - b2.created:.1f}s after mining, no disconnect")


# -- 5. multihoming sweep -------------------------------------------------------------


def test_criterion_5_multihoming_ordering():
    raw = load("paperlike.scn")
    degrees = (1, 3, 5, 7)
    cells = []
    for d in degrees:
        scn = synth.adjust_pool_degree(raw, d)
        scn["attack"] = {"kind": "delay", "target": [],
                         "params": {"coalition": "US", "interception": 1.0}}
        cells.append((d, scn))
    means = seed_means(cells, lambda rep: rep.orphan_rate)
    ordered = all(means[a] >= means[b] - 1e-12 for a, b in zip(degrees, degrees[1:]))
    ratio = means[1] / means[7] if means[7] else float("inf")
    ok = ordered and ratio >= 3.0
    check(5, ok, "orphan means " + " >= ".join(f"{means[d]:.2%}(x{d})" for d in degrees)
                 + f"; degree-1/degree-7 ratio {ratio:.1f} >= 3")


# -- 6. partition healing --------------------------------------------------------------


def test_criterion_6_healing_band_and_onpath_drag():
    t0 = perf_counter()
    raw = load("twohalves.scn")
    free_ratios, pairs_below = [], 0
    for seed in range(20):
        free = engine.run_healing(raw, seed, onpath=0.0)
        sticky = engine.run_healing(raw, seed, onpath=0.28)
        free_ratios.append(free.final_ratio)
        pairs_below += sticky.final_ratio < free.final_ratio
    elapsed = perf_counter() - t0
    mean_ratio = statistics.mean(free_ratios)
    ok = 0.35 <= mean_ratio <= 0.65 and pairs_below >= 18 and elapsed < 300.0
    check(6, ok, f"10h cross-connection recovery {mean_ratio:.1%} of baseline in [35%,65%]; "
                 f"28% on-path dropping lower in {pairs_below}/20 pairs (need 18); "
                 f"{elapsed:.0f}s < 300s at 1000 nodes")


# -- 7. wire format properties -----------------------------------------------------------


def random_frame(rng):
    kind = rng.randrange(4)
    if kind == 0:  # opaque command, arbitrary payload
        cmd = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(1, 12)))
        return wire.serialize(cmd, rng.randbytes(rng.randrange(200)))
    if kind == 1:
        return wire.serialize("block", rng.randbytes(rng.randint(1, 300)))
    items = [(rng.choice((wire.INV_TX, wire.INV_BLOCK)), rng.randbytes(32))
             for _ in range(rng.randint(1, 8))]
    return wire.serialize_inventory("inv" if kind == 2 else "getdata", items)


def test_criterion_7_wire_roundtrip_and_tampering():
    rng = random.Random("acceptance-wire")
    roundtrips = rewrites = corruptions = 0
    for _ in range(10_000):
        frame = random_frame(rng)
        msg = wire.parse(frame)
        again = (wire.serialize_inventory(msg.command, msg.inventory)
                 if msg.inventory else wire.serialize(msg.command, msg.payload))
        roundtrips += again == frame and msg.checksum_ok

        if msg.command == "getdata":
            old = msg.inventory[rng.randrange(len(msg.inventory))][1]
            out = wire.rewrite_getdata_hash(frame, old, rng.randbytes(32))
            re = wire.parse(out)
            rewrites += len(out) == len(frame) and re.checksum_ok
        elif msg.command == "block":
            re = wire.parse(wire.corrupt_block(frame, rng))
            corruptions += not re.checksum_ok

    # independent double-SHA256 oracle for the empty payload
    import hashlib
    oracle = hashlib.sha256(hashlib.sha256(b"").digest()).digest()[:4]
    empty_ok = wire.checksum(b"") == oracle == bytes.fromhex("5df6e0e2")

    seen = {"rewrites": rewrites, "corruptions": corruptions}
    ok = roundtrips == 10_000 and empty_ok and all(v > 2000 for v in seen.values())
    check(7, ok, f"10000/10000 round-trips exact; {rewrites} rewrites kept length+checksum; "
                 f"{corruptions} corruptions all failed checksum; checksum(\"\")=5df6e0e2")
    # every tampering attempt must have succeeded, not just "many"
    assert rewrites + corruptions + roundtrips >= 10_000


# -- 8. planner exactness ------------------------------------------------------------------


def test_criterion_8_planner_matches_exhaustive_search():
    rng = random.Random(2024)
    exact_cases, case_seed = 0, 0
    while exact_cases < 100:
        case_seed += 1
        raw = worlds.random_scenario(5000 + case_seed, max_as=6, max_nodes=12, max_pools=2)
        topo = tp.load_topology(raw)
        ids = sorted(topo.nodes)
        partition = planner.maximal_isolatable(
            topo, set(rng.sample(ids, rng.randint(1, len(ids))))
        )
        if not partition:
            continue
        plan = planner.min_prefixes_to_isolate(topo, partition)
        assert not plan.approximate, "tiny topologies must stay under the exhaustive limit"
        assert len(plan.announcements) == oracle_min_cover_size(topo, partition)
        exact_cases += 1

    topo = four_pool_world()
    got = {(frozenset(p.pools), round(p.mining_power, 4))
           for p in planner.enumerate_power_partitions(topo, 0.2, 0.5)}
    hand = {
        (frozenset({"w", "x"}), 0.25),  # co-hosted in AS1: only jointly isolatable
        (frozenset({"y"}), 0.20),
        (frozenset({"z"}), 0.30),
        (frozenset({"w", "x", "y"}), 0.45),
        (frozenset({"y", "z"}), 0.50),
    }
    ok = exact_cases == 100 and got == hand
    check(8, ok, f"min prefixes == exhaustive minimum in {exact_cases}/100 topologies; "
                 f"4-pool power enumeration matches hand enumeration ({len(got)} plans)")
