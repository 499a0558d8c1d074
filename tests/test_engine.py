"""Event loop behaviour: determinism, dialing rules, churn, healing phases."""

import copy
import dataclasses
import gc
import heapq
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import worlds

from btcrs import engine, metrics, synth, wire
from btcrs import protocol as pr
from btcrs import topology as tp

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def paperlike():
    return json.loads((SCENARIOS / "paperlike.scn").read_text())


def tiny_world(n=6, connections=None, params=None):
    """n nodes n1..n<n>, each in its own stub AS of the hub world."""
    extra = {} if connections is None else {"connections": connections}
    base = {"blocks": 5, "block_interval_mean": 100.0, "drain_time": 600.0}
    return worlds.hub_world({f"n{a}": a for a in range(1, n + 1)}, {**base, **extra, **(params or {})})


# ---------------------------------------------------------------- determinism --


def test_same_seed_same_run():
    topo = tp.load_topology(paperlike())
    a = engine.run_scenario(topo, seed=7)
    b = engine.run_scenario(topo, seed=7)
    assert [(m.created, m.hash, m.miner) for m in a.mined] == [
        (m.created, m.hash, m.miner) for m in b.mined
    ]
    assert all(metrics.tip_series(a.nodes[n].chain) == metrics.tip_series(b.nodes[n].chain) for n in a.nodes)
    assert (a.dials, a.disconnects) == (b.dials, b.disconnects)


def test_different_seeds_differ():
    topo = tp.load_topology(paperlike())
    a = engine.run_scenario(topo, seed=1)
    b = engine.run_scenario(topo, seed=2)
    assert [m.created for m in a.mined] != [m.created for m in b.mined]


def test_config_digest_tracks_content():
    raw = paperlike()
    d1 = engine.run_scenario(tp.load_topology(raw), seed=0).topo.config_digest()
    raw2 = copy.deepcopy(raw)
    raw2["params"]["per_hop_delay"] = 9.9
    d2 = engine.run_scenario(tp.load_topology(raw2), seed=0).topo.config_digest()
    assert d1 != d2 and len(d1) == 16


def test_clock_never_runs_backwards():
    sim = engine.Simulation(tp.load_topology(tiny_world()), seed=0)
    sim.schedule_control(50.0, lambda s: s.schedule_control(s.now - 1.0, lambda s: None))
    with pytest.raises(RuntimeError, match="ran backwards"):
        sim.run()


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("fails", [False, True])
def test_run_pauses_the_collector_and_restores_the_callers_state(collecting, fails):
    sim = engine.Simulation(tp.load_topology(tiny_world()), seed=0)
    during = []
    sim.schedule_control(50.0, lambda s: during.append(gc.isenabled()))

    def fail(s):
        raise RuntimeError("handler failed")

    if fails:
        sim.schedule_control(60.0, fail)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if fails:
            with pytest.raises(RuntimeError, match="handler failed"):
                sim.run()
        else:
            sim.run()
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def _hijack_with_an_end():
    raw = synth.two_halves(n_nodes=60, n_as=6)
    raw["attack"] = {"kind": "partition", "target": raw["attack"]["target"],
                     "params": {"attacker_as": 8, "start": 300.0, "end": 900.0}}
    return raw


def _perfect_with_an_end():
    raw = synth.two_halves(n_nodes=60, n_as=6)
    raw["attack"]["params"].update(start=300.0, end=900.0)
    return raw


SHIPPED = sorted(SCENARIOS.glob("*.scn"))


@pytest.mark.parametrize("raw", [json.loads(p.read_text()) for p in SHIPPED] + [_hijack_with_an_end(),
                                                                                _perfect_with_an_end()],
                         ids=[p.stem for p in SHIPPED] + ["hijack", "perfect"])
def test_a_run_leaves_no_cyclic_garbage(raw):
    # the collector is paused during a run, so a run must free everything it made by reference counts alone
    topo = tp.load_topology(raw)  # loading leaves a cycle or two of its own: a recursive check's closure
    debug = gc.get_debug()
    gc.collect()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        attack = tp.read_attack(topo.attack, topo)
        if attack is not None and attack.kind == "perfect" and attack.end is not None:
            attack = dataclasses.replace(attack, onpath=0.5)  # heal's post-lift veto, which no scenario sets
        sim = engine.Simulation(topo, 0, {"blocks": 4}, attack).run()
        assert len(sim.mined) == 4
        del sim
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()


# ---------------------------------------------------------------- event queue --


def _reference_delay(sim, src, dst):
    """The one-way delay of a send from `src` to `dst`: 0 inside a pool fabric, else by the AS route."""
    if dst in sim.topo.fabric_of(src):
        return 0.0
    src_as, dst_as = sim.topo.nodes[src].home_as, sim.topo.nodes[dst].home_as
    path = sim.topo.forwarding.path(src_as, dst_as) if src_as != dst_as else None
    hops = len(path) if path else 1
    return sim.params.base_delay + sim.params.per_hop_delay * (hops - 1)


class HeapSimulation(engine.Simulation):
    """One `(when, seq, handler, args)` heap entry per event, one message per send, and every INV delivered.

    The reference that the timestamp buckets, the INV path's batched
    destination walk, its unasked delay attacker and its skipped deliveries,
    the dial's test order, the skipped empty connects and the crossing count
    of `Simulation` must agree with.  Every INV, too, goes through `_send_one`
    and `_deliver`: `_execute` sends an INV by `_announce`, overridden here.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._heap = []
        self._seq = 0

    def _push(self, when, handler, args):
        heapq.heappush(self._heap, (when, self._seq, handler, args))
        self._seq += 1

    def _send(self, src, dsts, msg):
        for dst in dsts:
            self._send_one(src, dst, msg)

    _announce = _send

    def _send_one(self, src, dst, msg):
        if dst not in self.nodes[src].peers:
            return
        if dst in self.topo.fabric_of(src):
            self._push(self.now, HeapSimulation._deliver, (src, dst, msg))
            return
        src_as = self.topo.nodes[src].home_as
        if self._coverage is not None and self._coverage.diverted(dst, src_as):
            if not self.partition_attacker.tick(src, dst, msg, self.now):
                return
        if self.delay_attacker is not None and self.delay_attacker.intercepts(src, dst):
            msg = self.delay_attacker.transform(src, dst, msg, self.now)
        self._push(self.now + _reference_delay(self, src, dst), HeapSimulation._deliver, (src, dst, msg))

    def _deliver(self, src, dst, msg):
        """Every delivery to a live connection runs its handler and executes the result."""
        node = self.nodes[dst]
        if src in node.peers:
            handler = {pr.InvMsg: node.on_inv, pr.GetDataMsg: node.on_getdata, pr.BlockMsg: node.on_block}
            self._execute(dst, handler[type(msg)](src, msg, self.now))

    def _connect(self, a, b, dialed=True):
        if dialed:
            self.dials += 1
        acts_a = self.nodes[a].on_connect(b, dialed, self.now)
        acts_b = self.nodes[b].on_connect(a, False, self.now)
        if self.delay_attacker is not None and dialed:
            self.delay_attacker.on_connect(a, b)
        self._execute(a, acts_a)
        self._execute(b, acts_b)

    def _routable(self, a, b):
        pa, pb = self.topo.nodes[a].home_as, self.topo.nodes[b].home_as
        return pa == pb or (self.topo.forwarding.hops(pa, pb) is not None
                            and self.topo.forwarding.hops(pb, pa) is not None)

    def _dial(self, nid, exclude=frozenset()):
        """The veto first, then the other tests; one `randrange` per attempt, then the scan."""
        node = self.nodes[nid]
        taken_groups = {self._ip16[p] for p in node.outgoing}

        def eligible(cand):
            if cand == nid or cand in node.peers or cand in exclude:
                return False
            if self.dial_veto is not None and self.dial_veto(nid, cand):
                return False
            if len(self.nodes[cand].peers) >= self.params.max_connections:
                return False
            if self._ip16[cand] in taken_groups:
                return False
            return self._routable(nid, cand)

        order = self._node_order
        for _ in range(24):
            cand = order[self.rng_net.randrange(len(order))]
            if eligible(cand):
                self._connect(nid, cand)
                return True
        candidates = [c for c in order if eligible(c)]
        if not candidates:
            return False
        self._connect(nid, self.rng_net.choice(candidates))
        return True

    def cross_fraction(self, side):
        total = crossing = 0
        for nid, node in self.nodes.items():
            for peer in node.outgoing:
                total += 1
                crossing += (nid in side) != (peer in side)
        return crossing / total if total else 0.0

    def _run_queue(self):
        while self._heap:
            when, _, handler, args = heapq.heappop(self._heap)
            if when < self.now:
                raise RuntimeError(f"simulated time ran backwards: {handler.__name__}")
            if self.horizon is not None and when > self.horizon:
                break
            self.now = when
            handler(self, *args)


def _queued_by(sim, fn):
    """Run `fn(sim)`; return (when, args) of every event it queued, in run order.

    An `_ev_announce` entry of `Simulation` holds a list of destinations; it
    counts as one `(src, dst, msg)` event per destination, in the list's
    order.  A `HeapSimulation` INV to a node that holds every block it names
    counts as none, since `Simulation` queues only its time.
    """
    if isinstance(sim, HeapSimulation):
        seq = sim._seq
        fn(sim)
        return [(w, args) for w, s, _, args in sorted(sim._heap) if s >= seq and not _held_inv(sim, *args)]
    sizes = {w: len(b) for w, b in sim._buckets.items()}
    fn(sim)
    queued = []
    for w in sorted(sim._buckets):
        for handler, args in sim._buckets[w][sizes.get(w, 0):]:
            if handler is engine.Simulation._ev_announce:
                src, dsts, msg = args
                queued.extend((w, (src, dst, msg)) for dst in dsts)
            else:
                queued.append((w, args))
    return queued


def _held_inv(sim, src, dst, msg):
    """True for an INV whose every block `dst` holds: `on_inv` would change nothing there."""
    held = sim.nodes[dst].chain.arrival
    return type(msg) is pr.InvMsg and all(h in held for _, h in msg.items)


def _run_state(cls, topo, seed, inject=None):
    """The end state of a run; `inject` is (when, fn) to call fn(sim) at `when`, its pushes recorded."""
    sim = cls(topo, seed, attack=tp.read_attack(topo.attack, topo))
    pushed = []
    if inject is not None:
        when, fn = inject
        sim.schedule_control(when, lambda s: pushed.extend(_queued_by(s, fn)))
    res = sim.run()
    coverage, delayer = sim._coverage, sim.delay_attacker
    for nid, n in res.nodes.items():
        for peer, link in n.peers.items():  # a link's record, once filled, is what a send would take
            if link is None:
                continue
            assert link.delay == _reference_delay(sim, nid, peer), (nid, peer, link)
            # the attackers' verdicts, once filled, are what they would decide now; a fabric link is unseen
            seen = peer not in sim.topo.fabric_of(nid)
            diverted = seen and coverage is not None and coverage.diverted(peer, sim.topo.nodes[nid].home_as)
            intercepted = seen and delayer is not None and delayer.intercepts(nid, peer)
            assert (link.diverted, link.intercepted) == (diverted, intercepted), (nid, peer, link)
    return {
        "now": sim.now,
        "mined": [(m.created, m.hash, m.miner) for m in res.mined],
        "tip_series": {nid: metrics.tip_series(n.chain) for nid, n in res.nodes.items()},
        "dials": res.dials,
        "disconnects": res.disconnects,
        "partition": res.partition_attacker and res.partition_attacker.report(),
        "tampering": res.delay_attacker and (res.delay_attacker.rewrites, res.delay_attacker.restores,
                                             res.delay_attacker.corruptions),
        "nodes": {nid: (n.chain.arrival, n.pending, n.advertisers, set(n.peers), n.outgoing)
                  for nid, n in res.nodes.items()},
        "pushed": pushed,
        # the draw streams: a kernel that consumes a draw the reference does not differs here
        "rng_net": sim.rng_net.getstate(),
        "rng_mine": sim.rng_mine.getstate(),
    }


def _assert_same_as_heap(raw, seed):
    topo = tp.load_topology(raw)
    assert _run_state(engine.Simulation, topo, seed) == _run_state(HeapSimulation, topo, seed)


@st.composite
def gossip_worlds(draw):
    """Small worlds whose runs cover churn, pool fabrics, a dial veto, and every attack kind.

    The delay attacks of both directions and the coalition intercept INVs,
    which the reference shows to `DelayAttacker.transform` and `Simulation` does not.
    """
    kind = draw(st.sampled_from(["halves", "hijack", "perfect", "paperlike", "delay", "coalition"]))
    if kind in ("halves", "hijack", "perfect"):
        n_as = draw(st.sampled_from([4, 6, 8]))
        raw = synth.two_halves(n_nodes=draw(st.integers(n_as, 60)), n_as=n_as)
        churn = draw(st.booleans())
        raw["params"].update(blocks=draw(st.integers(1, 6)), block_interval_mean=120.0, drain_time=1500.0,
                             churn={"enabled": churn, "lifetime_table": [[1.0, 900.0]]})
        if kind == "hijack":
            raw["attack"] = {"kind": "partition", "target": raw["attack"]["target"],
                             "params": {"attacker_as": n_as + 2}}
            # the partition report's final sweep reads the clock against `threshold`
            raw["params"].update(convergence_delay=draw(st.sampled_from([0.0, 30.0])),
                                 threshold=draw(st.sampled_from([60.0, 600.0])))
        elif kind == "perfect":
            # isolate severs the crossing connections and vetoes dials across them until `end`
            raw["attack"]["params"].update(start=draw(st.sampled_from([0.0, 300.0])),
                                           end=draw(st.sampled_from([None, 900.0])))
        else:
            del raw["attack"]
    elif kind in ("paperlike", "coalition"):
        raw = synth.adjust_pool_degree(paperlike(), draw(st.sampled_from([1, 3])))
        raw["params"]["blocks"] = draw(st.integers(1, 6))
        if kind == "coalition":
            raw["attack"] = {"kind": "delay", "target": [], "params": {"coalition": "US"}}
    else:
        raw = synth.delay_node_scenario(n_relays=draw(st.integers(3, 8)))  # the relay ring needs 3
        raw["attack"]["params"].update(interception=draw(st.sampled_from([0.0, 0.5, 1.0])),
                                       direction=draw(st.sampled_from(["outgoing", "incoming"])))
        raw["params"]["blocks"] = draw(st.integers(1, 6))
    return raw


@settings(max_examples=60, deadline=None)
@given(gossip_worlds(), st.integers(0, 2**16))
def test_buckets_and_inv_skipping_equal_heap_reference(raw, seed):
    _assert_same_as_heap(raw, seed)


@settings(max_examples=60, deadline=None)
@given(gossip_worlds(), st.integers(0, 2**16), st.data())
def test_any_destination_list_is_walked_like_one_send_each(raw, seed, data):
    # the handlers announce only to peers, in sorted order; this reaches the INV
    # walk's peer check and its order with non-peers, repeats and any order, for
    # a block every node holds, the latest mined one or one nobody has
    topo = tp.load_topology(raw)
    ids = sorted(topo.nodes)
    src = data.draw(st.sampled_from(ids))
    dsts = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=12))
    when = data.draw(st.floats(0.0, 1500.0))
    block = data.draw(st.sampled_from(["genesis", "latest", "unknown"]))

    def inject(sim):
        h = {"genesis": pr.GENESIS.hash, "unknown": bytes(32)}.get(block)
        h = h or (sim.mined[-1] if sim.mined else pr.GENESIS).hash
        sim._execute(src, [(pr.SEND, dsts, pr.block_inv(h))])

    assert (_run_state(engine.Simulation, topo, seed, (when, inject))
            == _run_state(HeapSimulation, topo, seed, (when, inject)))


def _connected(raw, pairs, dialed=True):
    """A Simulation over `raw` that has not run, with each pair of `pairs` connected and nothing queued."""
    sim = engine.Simulation(tp.load_topology(raw), seed=0)
    for a, b in pairs:
        sim._connect(a, b, dialed)
    return sim


class _Rewrites:
    """Stands in for a delay attacker that rewrites every message sent to `victim` into a request for genesis."""

    def __init__(self, victim):
        self.victim = victim

    def intercepts(self, src, dst):
        return dst == self.victim

    def transform(self, src, dst, msg, now):
        return pr.GetDataMsg([(wire.INV_BLOCK, pr.GENESIS.hash)])


TX_REQUEST = pr.GetDataMsg([(wire.INV_TX, bytes(32))])


def test_fan_out_shares_one_entry_per_arrival_time_in_push_order():
    dsts = ["n2", "n3", "n4", "n5", "n6", "n7"]
    sim = _connected(tiny_world(n=7), [("n1", d) for d in dsts])
    block = pr.make_block(pr.GENESIS, "m", 0, 0.0)
    for holder in ("n4", "n7"):  # they hold the block when it is announced
        sim.nodes[holder].chain.add(block, 0.0)
    x, y, z = (engine.Link(t, False, False) for t in (1.0, 2.0, 3.0))
    sim.nodes["n1"].peers.update(n2=x, n3=y, n4=x, n5=engine.Link(1.0, False, True), n6=x, n7=z)
    sim.delay_attacker = _Rewrites("n5")  # it would rewrite whatever it were shown
    inv = pr.block_inv(block.hash)
    queued = _queued_by(sim, lambda s: s._execute("n1", [(pr.SEND, dsts, inv)]))
    assert [(w, dst, out is inv) for w, (_, dst, out) in queued] == [
        (1.0, "n2", True), (1.0, "n5", True), (1.0, "n6", True), (2.0, "n3", True)]
    # the intercepted n5 gets the INV itself, in the entry of its time; the holders get no delivery
    assert [(handler, to) for handler, (_, to, _) in sim._buckets[1.0]] == [
        (engine.Simulation._ev_announce, ["n2", "n5", "n6"])]
    assert sim._buckets[3.0] == []  # n7's arrival time alone


def asymmetric_world():
    """n1 in AS1 and n2 in AS2, where 1 reaches 2 through its customer 3 and 2 takes the direct peer link back."""
    return {
        "ases": [{"id": a, "country": ""} for a in (1, 2, 3)],
        "links": [{"a": 3, "b": 1, "rel": "c2p"}, {"a": 2, "b": 3, "rel": "c2p"}, {"a": 1, "b": 2, "rel": "p2p"}],
        "prefixes": [{"base": f"10.{a}.0.0", "len": 16, "origin_as": a} for a in (1, 2)],
        "nodes": [{"id": f"n{a}", "ip": f"10.{a}.0.1", "prefix": f"10.{a}.0.0/16", "as": a} for a in (1, 2)],
        "pools": [],
        "params": {"blocks": 1, "base_delay": 0.5, "per_hop_delay": 2.0},
    }


def test_link_delay_is_per_direction_and_measured_again_after_a_reconnect():
    sim = _connected(asymmetric_world(), [("n1", "n2")])
    n1, n2 = sim.nodes["n1"], sim.nodes["n2"]
    assert (n1.peers, n2.peers) == ({"n2": None}, {"n1": None})
    sim._send("n1", ["n2"], TX_REQUEST)
    sim._send("n2", ["n1"], TX_REQUEST)
    assert (n1.peers["n2"].delay, n2.peers["n1"].delay) == (0.5 + 2 * 2.0, 0.5 + 2.0)  # 1-3-2 there, 2-1 back
    sim._disconnect("n1", "n2")
    sim._connect("n2", "n1")  # reopened, the other way round
    assert (n1.peers, n2.peers) == ({"n2": None}, {"n1": None})
    assert _queued_by(sim, lambda s: s._send("n1", ["n2"], TX_REQUEST)) == [(4.5, ("n1", "n2", TX_REQUEST))]
    assert n1.peers["n2"].delay == 4.5
    n1.on_connect("n2", False, sim.now)  # a connect over a live link forgets its delay too
    assert n1.peers["n2"] is None


def test_fabric_link_is_instant_and_unseen_by_the_attacker():
    sim = _connected(paperlike(), [("D", "E")], dialed=False)  # D (AS1) and E (AS2) share a pool fabric
    sim.delay_attacker = _Rewrites("E")
    assert _queued_by(sim, lambda s: s._send("D", ["E"], TX_REQUEST)) == [(0.0, ("D", "E", TX_REQUEST))]
    assert sim.nodes["D"].peers["E"].delay == 0.0
    # a real coalition on the route of the red fabric link I (AS5) -> F (AS6): the send path spares it
    sim = engine.Simulation(tp.load_topology(paperlike()), seed=0,
                            attack=tp.Attack("coalition", (), coalition=frozenset({3, 7})))
    sim._install_attack()
    sim._connect("I", "F", dialed=False)
    sim._connect("A", "H")
    request = pr.GetDataMsg([(wire.INV_BLOCK, pr.make_block(pr.GENESIS, "m", 0, 0.0).hash)])
    queued = _queued_by(sim, lambda s: (s._send("I", ["F"], request), s._send("A", ["H"], request)))
    assert queued[0] == (0.0, ("I", "F", request))
    assert queued[1][1] == ("A", "H", pr.GetDataMsg([(wire.INV_BLOCK, pr.GENESIS.hash)]))  # AS1 -> AS4 via 3, 7
    assert list(sim.delay_attacker._hits) == [("A", "H")]  # never asked about the fabric link
    assert sim.delay_attacker.intercepts("I", "F")  # though its AS route crosses the coalition


@pytest.mark.parametrize("onpath", [0.0, 0.5])
def test_healing_equals_reference_dial_and_crossing_count(monkeypatch, onpath):
    # isolate's veto holds for an hour, then `onpath` keeps vetoing a seeded share of cross pairs
    topo = tp.load_topology(synth.two_halves(n_nodes=60, n_as=6))
    want = engine.run_healing(topo, seed=2, onpath=onpath).to_dict()
    monkeypatch.setattr(engine, "Simulation", HeapSimulation)
    assert engine.run_healing(topo, seed=2, onpath=onpath).to_dict() == want


NODE_DELAY = {"kind": "delay", "target": ["n1"], "params": {"interception": 1.0}}
TINY_ATTACKS = {  # attacks on tiny_world, each with whether it reads background tx requests
    "none": (None, False),
    "coalition": ({"kind": "delay", "target": [], "params": {"coalition": [99]}}, False),
    "perfect": ({"kind": "partition", "target": ["n1"], "params": {"mode": "perfect"}}, False),
    "node-delay": (NODE_DELAY, True),
    "hijack": ({"kind": "partition", "target": ["n1"], "params": {"attacker_as": 99}}, True),
}


def _per_node_streams(monkeypatch, tx_rate, churn, attack):
    """How many `random.Random` per node `Simulation(...)` builds beyond rng_mine and rng_net."""
    topo = tp.load_topology(tiny_world())
    made = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(engine.random, "Random", CountingRandom)
    engine.Simulation(topo, seed=0, overrides={
        "tx_getdata_rate": tx_rate, "churn": {"enabled": churn, "lifetime_table": [[1.0, 900.0]]}},
        attack=tp.read_attack(attack, topo))
    return (len(made) - 2) / len(topo.nodes)


@pytest.mark.parametrize("tx_rate, churn, per_node", [(0.0, False, 0), (0.0, True, 1), (0.01, False, 1),
                                                      (0.01, True, 2)])
def test_per_node_streams_only_for_processes_that_run(monkeypatch, tx_rate, churn, per_node):
    # a node-mode delay attack reads tx requests, so the tx streams follow the rate
    assert _per_node_streams(monkeypatch, tx_rate, churn, NODE_DELAY) == per_node


@pytest.mark.parametrize("attack", sorted(TINY_ATTACKS))
def test_tx_streams_only_when_the_attack_reads_tx(monkeypatch, attack):
    spec, reads = TINY_ATTACKS[attack]
    assert _per_node_streams(monkeypatch, 0.01, True, spec) == 1 + reads  # churn, then tx if read


class AlwaysTxSimulation(engine.Simulation):
    """Runs the background tx process whenever its rate is positive, whether or not an attack reads it."""

    def __init__(self, topo, seed, overrides=None, attack=None, end_time=None):
        super().__init__(topo, seed, overrides, attack, end_time)
        if self.params.tx_getdata_rate > 0:
            self._tx_on = True
            self._tx_rng = {n: random.Random(f"{seed}:tx:{n}") for n in self._node_order}


@st.composite
def tx_worlds(draw, kind):
    """A world with background tx requests under `kind`: paperlike (no attack), coalition, delay, hijack or perfect."""
    if kind == "paperlike":
        raw = paperlike()
    elif kind == "coalition":
        raw = synth.adjust_pool_degree(paperlike(), draw(st.sampled_from([1, 3])))
        raw["attack"] = {"kind": "delay", "target": [], "params": {"coalition": "US", "interception": 1.0}}
    elif kind == "delay":
        raw = synth.delay_node_scenario(n_relays=draw(st.integers(3, 8)))
        raw["attack"]["params"].update(interception=draw(st.sampled_from([0.5, 1.0])),
                                       direction=draw(st.sampled_from(["outgoing", "incoming"])))
    elif kind == "hijack":
        raw = worlds.random_partition_case(draw(st.integers(0, 199)))
    else:
        n_as = draw(st.sampled_from([4, 6, 8]))
        raw = synth.two_halves(n_nodes=draw(st.integers(n_as, 60)), n_as=n_as)
        raw["params"].update(block_interval_mean=120.0, drain_time=1500.0,
                             churn={"enabled": draw(st.booleans()), "lifetime_table": [[1.0, 900.0]]})
        raw["attack"]["params"].update(start=draw(st.sampled_from([0.0, 300.0])),
                                       end=draw(st.sampled_from([None, 900.0])))
    raw["params"].update(blocks=draw(st.integers(1, 4)), tx_getdata_rate=draw(st.sampled_from([0.003, 0.02])))
    return raw


@pytest.mark.parametrize("kind", ["paperlike", "coalition", "delay", "hijack", "perfect"])
@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_unread_tx_requests_change_nothing_but_the_final_clock(kind, data, seed):
    # under "delay" and "hijack" both sides run the tx process, so a dropped reader shows here
    topo = tp.load_topology(data.draw(tx_worlds(kind)))
    got = _run_state(engine.Simulation, topo, seed)
    want = _run_state(AlwaysTxSimulation, topo, seed)
    assert got.pop("now") <= want.pop("now")
    assert got == want


def test_lone_peer_of_the_sender_still_records_its_tip():
    # in a line n1 - n2 - ... - n6 an end's only peer is the block's sender:
    # accept_block returns no action there, yet the end's tip moves
    conns = [["n1", "n2"], ["n2", "n3"], ["n3", "n4"], ["n4", "n5"], ["n5", "n6"]]
    raw = tiny_world(connections=conns)
    res = engine.run_scenario(tp.load_topology(raw), seed=1)
    for end in ("n1", "n6"):
        assert [h for _, h in metrics.tip_series(res.nodes[end].chain)] == list(range(len(res.mined) + 1))
    _assert_same_as_heap(raw, seed=1)


def test_held_blocks_keep_no_advertisers():
    raw = synth.two_halves(n_nodes=60, n_as=6)
    del raw["attack"]
    raw["params"].update(blocks=4, block_interval_mean=120.0, drain_time=1500.0)
    res = engine.run_scenario(tp.load_topology(raw), seed=0)
    assert len(res.mined) == 4
    for node in res.nodes.values():
        assert not any(h in node.chain.arrival for h in node.advertisers)


class TipRecordingSimulation(engine.Simulation):
    """Records each node's tip height as it moves: a log kept apart from arrivals, to check `metrics.tip_series`.

    `accept_block`, from `on_block` or mining, is the only call that connects
    blocks, so recording after each call sees every move at the time it happens.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorded = {nid: [(0.0, 0)] for nid in self.nodes}
        for node in self.nodes.values():
            node.accept_block = self._recording(node, node.accept_block)

    def _recording(self, node, accept_block):
        def wrapper(*args, **kwargs):
            actions = accept_block(*args, **kwargs)
            series, height = self.recorded[node.node_id], node.chain.tip.height
            if height != series[-1][1]:
                series.append((self.now, height))
            return actions
        return wrapper


def _last_per_time(series):
    return list({t: (t, h) for t, h in series}.values())


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(0, 2**16))
def test_tip_series_from_arrivals_equals_a_recorded_tip_log(data, seed):
    kind = data.draw(st.sampled_from(["gossip", "paperlike", "coalition", "delay", "hijack", "perfect"]))
    raw = data.draw(gossip_worlds() if kind == "gossip" else tx_worlds(kind))
    topo = tp.load_topology(raw)
    sim = TipRecordingSimulation(topo, seed, attack=tp.read_attack(topo.attack, topo)).run()
    derived = {nid: metrics.tip_series(n.chain) for nid, n in sim.nodes.items()}
    for nid in sim.nodes:
        assert _last_per_time(derived[nid]) == _last_per_time(sim.recorded[nid]), nid
    first, last = min(sim.nodes), max(sim.nodes)
    for until in (sim.mined[-1].created if sim.mined else 0.0, sim.now):
        for a, b in ((first, last), (last, first)):
            want = metrics.uninformed_fraction(sim.recorded[a], sim.recorded[b], until)
            assert metrics.uninformed_fraction(derived[a], derived[b], until) == want
    # one block table serves every node, and it holds exactly what was mined
    assert all(n.chain.known is sim.known for n in sim.nodes.values())
    assert set(sim.known) == {pr.GENESIS.hash} | {b.hash for b in sim.mined}


@pytest.mark.parametrize("raw", [paperlike(), tiny_world()], ids=["paperlike", "tiny"])
def test_all_nodes_share_one_block_table_of_genesis_and_mined(raw):
    sim = engine.run_scenario(tp.load_topology(raw), seed=3)
    tables = {id(n.chain.known) for n in sim.nodes.values()}
    assert tables == {id(sim.known)}
    assert sorted(sim.known) == sorted([pr.GENESIS.hash] + [b.hash for b in sim.mined])
    assert len(sim.mined) == sim.params.blocks


def test_chain_view_has_no_per_node_block_table():
    # `arrival` is the held set; a read of a per-node `blocks` table must fail, not walk the run's table
    sim = engine.run_scenario(tp.load_topology(tiny_world()), seed=0)
    for chain in (pr.ChainView(), pr.Node("n").chain, sim.nodes["n1"].chain):
        assert not hasattr(chain, "blocks")
        assert set(chain.arrival) <= set(chain.known)


@pytest.mark.parametrize("n_relays", [0, 1, 2, 50])
def test_delay_node_scenario_rejects_relay_counts_it_cannot_wire(n_relays):
    with pytest.raises(ValueError, match="n_relays"):
        synth.delay_node_scenario(n_relays=n_relays)


def test_hijack_lifted_before_it_takes_effect_lifts_as_it_takes_effect():
    # `end` passes the load check against `start`, but the hijack takes effect
    # only `convergence_delay` later, which `--set` can change after loading
    raw = synth.two_halves(n_nodes=60, n_as=6)
    raw["attack"] = {"kind": "partition", "target": raw["attack"]["target"],
                     "params": {"attacker_as": 8, "start": 0.0, "end": 100.0}}
    raw["params"].update(blocks=4, block_interval_mean=120.0, drain_time=1500.0)
    early = engine.run_scenario(tp.load_topology(raw), seed=0, overrides={"convergence_delay": 300.0})
    raw["attack"]["params"]["end"] = 300.0
    on_time = engine.run_scenario(tp.load_topology(raw), seed=0, overrides={"convergence_delay": 300.0})
    assert early.partition_attacker.report() == on_time.partition_attacker.report()
    assert (early.partition_attacker.forwarded, early.partition_attacker.dropped) == (0, 0)
    assert [b.hash for b in early.mined] == [b.hash for b in on_time.mined]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([4, 6, 8]), st.booleans(), st.sampled_from([330.0, 900.0]), st.integers(0, 2**16))
def test_hijack_with_an_end_equals_heap_reference(n_as, churn, end, seed):
    # the hijack takes effect at 360 s; it is lifted before that (330 s, so at 360 s) or while
    # blocks flow (900 s).  Activation and lift each reset every live link, while the reference
    # asks `Coverage` on every send.
    raw = synth.two_halves(n_nodes=40, n_as=n_as)
    raw["attack"] = {"kind": "partition", "target": raw["attack"]["target"],
                     "params": {"attacker_as": n_as + 2, "start": 300.0, "end": end}}
    raw["params"].update(blocks=6, block_interval_mean=150.0, drain_time=1500.0, convergence_delay=60.0,
                         threshold=60.0, churn={"enabled": churn, "lifetime_table": [[1.0, 900.0]]})
    _assert_same_as_heap(raw, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_hijack_with_an_end_reports_its_outcome_as_of_the_lift(seed):
    # after the lift the liveness clocks stop and outside blocks flow in freely,
    # so the outcome is the one a run cut off at the lift reports
    raw = synth.two_halves(n_nodes=60, n_as=6)
    raw["attack"] = {"kind": "partition", "target": raw["attack"]["target"],
                     "params": {"attacker_as": 8, "start": 0.0}}
    raw["params"].update(blocks=8, block_interval_mean=300.0, drain_time=1500.0, convergence_delay=0.0)
    lift = 20 * engine.SWEEP_INTERVAL  # a sweep time, so the cut-off run sweeps there too
    topo = tp.load_topology(raw)
    attack = tp.read_attack(topo.attack, topo)
    cut = metrics.summarize(engine.Simulation(topo, seed, attack=attack, end_time=lift).run()).partition
    raw["attack"]["params"]["end"] = lift
    run = engine.run_scenario(tp.load_topology(raw), seed)
    assert run.partition_attacker.lifted_at == lift
    assert run.now > lift + run.params.threshold
    assert metrics.summarize(run).partition == cut
    assert cut["isolated"] and cut["external_blocks_in_isolated"] == 0


class SweepChainSimulation(engine.Simulation):
    """`Simulation` with the hijack's liveness sweep queued every `SWEEP_INTERVAL` from activation.

    The reference for the one sweep `run` takes at the end: each queued sweep
    records its time and queues the next while the hijack holds, and once
    the queue stops, the run sweeps at its final clock unless a lift did.
    """

    def _install_attack(self):
        super()._install_attack()
        if self.attack is not None and self.attack.kind == "hijack":  # queued right after the activation
            self.schedule_control(self.attack.start + self.params.convergence_delay, SweepChainSimulation._next_sweep)

    def _next_sweep(self):
        self._push(self.now + engine.SWEEP_INTERVAL, SweepChainSimulation._ev_sweep, ())

    def _ev_sweep(self):
        if self._coverage is not None:
            self.partition_attacker.sweep(self.now)
            self._next_sweep()

    def run(self):
        super().run()
        if self.partition_attacker.lifted_at is None:
            self.partition_attacker.sweep(self.now)
        return self


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 6, 8]), st.integers(0, 5), st.booleans(), st.sampled_from([0.0, 0.002]),
       st.sampled_from([0.0, 60.0, 600.0]), st.sampled_from([None, 700.0]), st.integers(0, 2**16))
# the queue empties at 2010.095 s, past the last block's INVs; the grid's last point is 2250 s
@example(n_as=4, blocks=4, churn=False, tx_rate=0.0, threshold=600.0, end=None, seed=0)
def test_one_end_of_run_sweep_equals_a_queued_sweep_every_interval(n_as, blocks, churn, tx_rate, threshold,
                                                                   end, seed):
    raw = synth.two_halves(n_nodes=40, n_as=n_as)
    raw["attack"] = {"kind": "partition", "target": raw["attack"]["target"],
                     "params": {"attacker_as": n_as + 2, "end": end}}
    raw["params"].update(blocks=blocks, block_interval_mean=300.0, drain_time=1500.0, tx_getdata_rate=tx_rate,
                         threshold=threshold, churn={"enabled": churn, "lifetime_table": [[1.0, 900.0]]})
    topo = tp.load_topology(raw)
    attack = tp.read_attack(topo.attack, topo)
    runs = [cls(topo, seed, attack=attack).run() for cls in (engine.Simulation, SweepChainSimulation)]
    got, want = ((r.partition_attacker.swept_at, r.partition_attacker.lifted_at, r.partition_attacker.report(),
                  metrics.summarize(r).to_dict()) for r in runs)
    assert got == want


# ---------------------------------------------------------------- connections --


def test_explicit_connections_are_respected():
    conns = [["n1", "n2"], ["n2", "n3"], ["n3", "n4"], ["n4", "n5"], ["n5", "n6"]]
    res = engine.run_scenario(tp.load_topology(tiny_world(connections=conns)), seed=0)
    for a, b in conns:
        assert b in res.nodes[a].peers and a in res.nodes[b].peers
    # a line of 6 nodes: the ends keep exactly one peer, nobody dialed extra
    assert len(res.nodes["n1"].peers) == 1
    assert len(res.nodes["n6"].peers) == 1


def test_random_dialing_avoids_own_slash16_group():
    raw = tiny_world()
    ip_group = {n["id"]: n["ip"].split(".")[1] for n in raw["nodes"]}
    res = engine.run_scenario(tp.load_topology(raw), seed=3)
    for nid, node in res.nodes.items():
        groups = [ip_group[p] for p in node.outgoing]
        assert len(groups) == len(set(groups)), f"{nid} dialed twice into one /16"


def _next_draws(sim):
    """The nodes the next 24 dial attempts of `sim` draw, and `rng_net`'s state after them, read from a copy."""
    probe = random.Random()
    probe.setstate(sim.rng_net.getstate())
    order = sim._node_order
    return {order[probe.randrange(len(order))] for _ in range(24)}, probe.getstate()


def _counted_scans(sim):
    """Wrap `sim.rng_net.choice`, the scan's one draw; returns the list each scan picks from, in order."""
    scans, choice = [], sim.rng_net.choice
    sim.rng_net.choice = lambda seq: scans.append(list(seq)) or choice(seq)
    return scans


@pytest.mark.parametrize("refusal", ["veto", "cap"])
def test_dial_scan_after_24_misses_equals_heap_reference(refusal):
    # every node the 24 draws hit is refused, so the pick falls to the scan
    topo = tp.load_topology(tiny_world(n=40, params={"max_connections": 1}))
    got = {}
    for cls in (engine.Simulation, HeapSimulation):
        sim = cls(topo, seed=0)
        drawn, _ = _next_draws(sim)
        if refusal == "veto":
            sim.dial_veto = lambda a, b: b in drawn
        else:  # each drawn node is full: its one peer is n40
            for d in sorted(drawn - {"n1", "n40"}):
                sim._connect("n40", d, dialed=False)
        scans = _counted_scans(sim)
        assert sim._dial("n1")
        (picked,) = sim.nodes["n1"].outgoing
        assert picked not in drawn and len(scans) == 1 and picked in scans[0]
        got[cls] = (picked, scans, sim.rng_net.getstate(), sim.dials)
    assert got[engine.Simulation] == got[HeapSimulation]


def test_dial_with_nothing_eligible_draws_24_times_then_gives_up():
    sim = engine.Simulation(tp.load_topology(tiny_world(n=12)), seed=0)
    asked = []
    sim.dial_veto = lambda a, b: asked.append(b) or True
    _, after_24 = _next_draws(sim)
    scans = _counted_scans(sim)
    assert not sim._dial("n1")
    assert sim.rng_net.getstate() == after_24
    others = [c for c in sim._node_order if c != "n1"]
    assert asked[-len(others):] == others  # the scan asked about every other node, in order
    assert (scans, sim.dials, sim.nodes["n1"].peers) == ([], 0, {})


def test_pool_gateways_form_a_clique():
    topo = tp.load_topology(paperlike())
    res = engine.run_scenario(topo, seed=0)
    for pool in topo.pools.values():
        for i, a in enumerate(pool.gateways):
            for b in pool.gateways[i + 1:]:
                assert b in res.nodes[a].peers


def test_blocks_converge_without_attack():
    res = engine.run_scenario(tp.load_topology(tiny_world()), seed=1)
    tips = {node.chain.tip.hash for node in res.nodes.values()}
    assert len(tips) == 1, "healthy network should agree on the tip"
    assert len(res.mined) == 5


class _DeliveryLog(HeapSimulation):
    """`HeapSimulation` that logs each delivery `Simulation` makes.

    That is every one but an INV held in full when sent, and an INV held in
    full or to a closed connection when it arrives.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.delivered = []

    def _push(self, when, handler, args):
        if handler is HeapSimulation._deliver and not _held_inv(self, *args):
            handler = _DeliveryLog._logged
        super()._push(when, handler, args)

    def _logged(self, src, dst, msg):
        if type(msg) is not pr.InvMsg or (src in self.nodes[dst].peers and not _held_inv(self, src, dst, msg)):
            self.delivered.append((self.now, src, dst, msg))
        self._deliver(src, dst, msg)


def test_every_delivery_runs_the_class_handler_once(monkeypatch):
    # GETDATA and BLOCK dispatch through `Simulation._ev_deliver`, and every INV an
    # `_ev_announce` entry hands on through the class's `Node.on_inv`, so patching them sees all
    raw = synth.adjust_pool_degree(paperlike(), 3)
    raw["params"]["blocks"] = 4
    raw["attack"] = {"kind": "delay", "target": [], "params": {"coalition": "US"}}  # rewrites are single entries
    topo = tp.load_topology(raw)
    want = _DeliveryLog(topo, 0, attack=tp.read_attack(topo.attack, topo)).run().delivered
    delivered, fan_outs, singles = [], [], []
    deliver, announce, on_inv = engine.Simulation._ev_deliver, engine.Simulation._ev_announce, pr.Node.on_inv

    def counting(sim, src, dst, msg):
        delivered.append((sim.now, src, dst, msg))
        singles.append(msg)
        deliver(sim, src, dst, msg)

    def batching(sim, src, dsts, msg):
        fan_outs.append(len(dsts))
        announce(sim, src, dsts, msg)

    def logged_inv(node, src, msg, now):
        delivered.append((now, src, node.node_id, msg))
        return on_inv(node, src, msg, now)

    monkeypatch.setattr(engine.Simulation, "_ev_deliver", counting)
    monkeypatch.setattr(engine.Simulation, "_ev_announce", batching)
    monkeypatch.setattr(pr.Node, "on_inv", logged_inv)
    engine.run_scenario(topo, 0)
    invs = len(delivered) - len(singles)
    assert max(fan_outs) > 1 and len(singles) > 0  # both kinds of entry ran
    assert 0 < invs < sum(fan_outs)  # and some announced INVs were held on arrival
    assert len(delivered) == len(want)
    assert delivered == want


def test_heap_reference_never_reaches_the_announce_path(monkeypatch):
    # every INV of `HeapSimulation` goes through its own `_deliver`, whatever `Simulation` does with INVs
    def refuse(*args):
        raise AssertionError("the reference reached Simulation's INV path")

    monkeypatch.setattr(engine.Simulation, "_announce", refuse)
    monkeypatch.setattr(engine.Simulation, "_ev_announce", refuse)
    topo = tp.load_topology(synth.adjust_pool_degree(paperlike(), 3))
    sim = HeapSimulation(topo, 0, {"blocks": 3}).run()
    assert len(sim.mined) == 3 and all(n.chain.tip == sim.mined[-1] for n in sim.nodes.values())


# ---------------------------------------------------------------- overrides --


def test_overrides_change_params():
    res = engine.run_scenario(tp.load_topology(tiny_world()), seed=0, overrides={"blocks": 2})
    assert len(res.mined) == 2


@pytest.mark.parametrize("overrides, error", [
    ({"blcoks": 5}, r"^params\.blcoks: unknown parameter"),
    ({"connections": [["n1", "nope"]]}, r"^params\.connections\[0\]: unknown node 'nope'"),
], ids=["unknown-key", "unknown-node"])
def test_overrides_are_checked_like_set(overrides, error):
    with pytest.raises(tp.ScenarioError, match=error):
        engine.run_scenario(tp.load_topology(tiny_world()), seed=0, overrides=overrides)


def test_delay_attacker_takes_the_attack_then_the_params():
    # the shipped attack sets restore_margin 1000
    topo = tp.load_topology(json.loads((SCENARIOS / "delaynode.scn").read_text()))

    def attacker(overrides, attack=topo.attack):
        sim = engine.Simulation(topo, seed=0, overrides=overrides, attack=tp.read_attack(attack, topo))
        sim._install_attack()
        return sim.delay_attacker

    own = attacker({})
    assert (own.victim, own.restore_margin, own.target_count) == ("victim", 1000.0, 8)
    bare = copy.deepcopy(topo.attack)
    del bare["params"]["restore_margin"]
    assert attacker({}, bare).restore_margin == 300.0  # the margin when the attack sets none
    assert attacker({"outgoing_target": 4}).target_count == 4


# ---------------------------------------------------------------- churn --


def test_churn_reboots_wipe_peers_and_redial():
    params = {
        "blocks": 1,
        "drain_time": 40_000.0,
        "churn": {"enabled": True, "lifetime_table": [[1.0, 3600.0]]},
    }
    res = engine.run_scenario(tp.load_topology(tiny_world(params=params)), seed=2)
    assert res.disconnects > 0, "reboots must tear connections down"
    base = engine.run_scenario(tp.load_topology(tiny_world()), seed=2)
    assert res.dials > base.dials, "rebooted nodes dial fresh peers"


# ---------------------------------------------------------------- healing --


@pytest.fixture(scope="module")
def heal_pair():
    topo = tp.load_topology(synth.two_halves(n_nodes=120, n_as=8))
    free = engine.run_healing(topo, seed=0, onpath=0.0)
    sticky = engine.run_healing(topo, seed=0, onpath=0.5)
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
    topo = tp.load_topology(synth.two_halves(n_nodes=120, n_as=8))
    results = engine._map_tasks(engine.run_healing, [(topo, seed, 0.0) for seed in (0, 1)])
    assert sorted(r.seed for r in results) == [0, 1]
    d = results[0].to_dict()
    assert set(d) == {"seed", "onpath", "baseline_cross_fraction", "samples", "final_ratio"}


@pytest.mark.parametrize("seed", [0, 1])
def test_run_report_series_is_the_heal_series(seed):
    # heal is the scenario's partition as a perfect attack with an end, so that run's report carries its series
    topo = tp.load_topology(synth.two_halves(n_nodes=120, n_as=8))
    attack = tp.Attack("perfect", tp.read_attack(topo.attack, topo).target, 1800.0, 5400.0)
    report = metrics.summarize(engine.Simulation(topo, seed, attack=attack, end_time=41401.0).run())
    healed = engine.run_healing(topo, seed, onpath=0.0)
    assert report.cross_partition_series == [(-3601.0, healed.baseline), *healed.samples]
