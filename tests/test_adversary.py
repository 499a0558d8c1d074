"""Attacker logic: partition filtering/leak detection and delay tampering."""

import copy
import hashlib
import random
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcrs import adversary as adv
from btcrs import protocol as pr
from btcrs import topology as tp
from btcrs import wire

G = pr.GENESIS
SCN = __import__("pathlib").Path(__file__).resolve().parent.parent / "scenarios"


def mk(parent, miner, idx, now=0.0):
    return pr.make_block(parent, miner, idx, now)


def inv_of(*blocks):
    return pr.InvMsg([(wire.INV_BLOCK, b.hash) for b in blocks])


# ---------------------------------------------------------------- partition --


def test_forwarding_matrix():
    a = adv.PartitionAttacker({"a", "b"}, threshold=600.0, now=0.0)
    internal = mk(G, "a", 0)
    a.register_block(internal.hash, {"a"})
    msg = inv_of(internal)
    assert a.tick("a", "b", msg, 2.0) is True  # member to member, clean
    assert a.tick("o", "b", msg, 3.0) is False  # outsider talking in
    assert a.tick("a", "o", msg, 4.0) is False  # member talking out
    assert a.forwarded == 1 and a.dropped == 2


def test_external_inv_marks_the_source_leaked():
    a = adv.PartitionAttacker({"a", "b"}, threshold=600.0, now=0.0)
    ext = mk(G, "outsider", 0)
    a.register_block(ext.hash, {"outsider"})
    assert a.tick("a", "b", inv_of(ext), 6.0) is False
    assert a.leaked == {"a"}
    assert a.leak_events == [(6.0, "a")]
    # everything from a leaked member is dropped from then on, clean or not
    internal = mk(G, "b", 1)
    a.register_block(internal.hash, {"b"})
    assert a.tick("a", "b", inv_of(internal), 8.0) is False


def test_external_block_message_leaks_but_getdata_does_not():
    a = adv.PartitionAttacker({"a", "b"}, threshold=600.0, now=0.0)
    ext = mk(G, "outsider", 0)
    a.register_block(ext.hash, {"outsider"})
    # asking for a hash is not proof of possession; the reply would be
    assert a.tick("a", "b", pr.GetDataMsg([(wire.INV_BLOCK, ext.hash)]), 6.0) is True
    assert a.leaked == set()
    assert a.tick("b", "a", pr.BlockMsg(ext), 7.0) is False
    assert a.leaked == {"b"}


def test_externality_is_judged_at_mining_time():
    a = adv.PartitionAttacker({"a", "b"}, threshold=600.0, now=0.0)
    early = mk(G, "a", 0)
    a.register_block(early.hash, {"a"})  # a is still monitored: internal
    ext = mk(G, "outsider", 1)
    a.register_block(ext.hash, {"outsider"})
    a.tick("a", "b", inv_of(ext), 3.0)  # a leaks
    late = mk(early, "a", 2)
    a.register_block(late.hash, {"a"})  # mined by a leaked member: external
    assert not a.is_external(early.hash)  # no retroactive reclassification
    assert a.is_external(late.hash)
    assert not a.is_external(G.hash)


def test_tx_chatter_is_forwarded_and_counts_as_liveness():
    a = adv.PartitionAttacker({"a", "b"}, threshold=600.0, now=0.0)
    tx = hashlib.sha256(b"sometx").digest()
    assert a.tick("a", "b", pr.InvMsg([(wire.INV_TX, tx)]), 50.0) is True
    assert a.last_seen["a"] == 50.0


def test_liveness_sweep_tracks_silence():
    a = adv.PartitionAttacker({"a", "b", "c"}, threshold=600.0, now=0.0)
    blk = mk(G, "a", 0)
    a.register_block(blk.hash, {"a"})
    a.tick("a", "b", inv_of(blk), 550.0)
    a.sweep(700.0)
    assert a.unresponsive == {"b", "c"}  # silent since t=0
    a.tick("b", "a", inv_of(blk), 710.0)  # b speaks again
    assert "b" not in a.unresponsive
    a.sweep(720.0)
    assert a.unresponsive == {"c"}
    ext = mk(G, "o", 9)
    a.register_block(ext.hash, {"o"})
    a.tick("c", "a", inv_of(ext), 740.0)  # c leaks: leaves U, joins L
    assert a.leaked == {"c"} and "c" not in a.unresponsive
    a.sweep(5000.0)
    assert "c" not in a.unresponsive  # leaked members are not tracked
    rep = a.report()
    assert rep["isolated"] == sorted({"a", "b"} - set(rep["unresponsive"]))
    assert rep["leaked"] == ["c"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcxy"), st.sampled_from("abcxy"),
                          st.sampled_from(["external", "internal", "getdata", "sweep"])), max_size=40))
def test_monitored_is_partition_minus_leaked(steps):
    a = adv.PartitionAttacker({"a", "b", "c"}, threshold=5.0, now=0.0)
    ext, internal = mk(G, "x", 0), mk(G, "a", 1)
    a.register_block(ext.hash, {"x"})
    a.register_block(internal.hash, {"a"})
    msgs = {"external": inv_of(ext), "internal": inv_of(internal),
            "getdata": pr.GetDataMsg([(wire.INV_BLOCK, ext.hash)])}
    for now, (src, dst, what) in enumerate(steps, start=1):
        if what == "sweep":
            a.sweep(float(now))
        else:
            a.tick(src, dst, msgs[what], float(now))
        assert a.monitored == a.partition - a.leaked


class EagerLiveness(adv.PartitionAttacker):
    """The reference: `sweep` builds the unresponsive set and every `tick` prunes it."""

    unresponsive = None  # a plain attribute here, not the derived property

    def __init__(self, partition, threshold, now):
        super().__init__(partition, threshold, now)
        self.unresponsive = set()

    def tick(self, src, dst, msg, now):
        verdict = super().tick(src, dst, msg, now)
        if src in self.partition:  # heard from, or leaked: either way no longer unresponsive
            self.unresponsive.discard(src)
        return verdict

    def sweep(self, now):
        self.unresponsive = {n for n in self.monitored if now - self.last_seen[n] >= self.threshold}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.5, 5.0, 60.0]),
       st.lists(st.tuples(st.sampled_from("abcxy"), st.sampled_from("abcxy"),
                          st.sampled_from(["external", "internal", "getdata", "sweep"]),
                          st.sampled_from([0.0, 0.25, 1.0, 4.0, 30.0])), max_size=60))
def test_derived_liveness_equals_eager_sweeps(threshold, steps):
    got = adv.PartitionAttacker({"a", "b", "c"}, threshold, now=0.0)
    want = EagerLiveness({"a", "b", "c"}, threshold, now=0.0)
    ext, internal = mk(G, "x", 0), mk(G, "a", 1)
    msgs = {"external": inv_of(ext), "internal": inv_of(internal),
            "getdata": pr.GetDataMsg([(wire.INV_BLOCK, ext.hash)])}
    for a in (got, want):
        a.register_block(ext.hash, {"x"})
        a.register_block(internal.hash, {"a"})
    now = 0.0
    for src, dst, what, dt in steps:
        now += dt  # the engine's clock never runs backwards, and ticks may share a sweep's time
        for a in (got, want):
            if what == "sweep":
                a.sweep(now)
            else:
                a.tick(src, dst, msgs[what], now)
        assert got.unresponsive == want.unresponsive
        assert got.leaked == want.leaked
        assert got.report() == want.report()


# -------------------------------------------------------------------- delay --


Timer = namedtuple("Timer", "block_hash deadline")


class Pipe:
    """Victim and one peer joined by an attacker-controlled zero-latency link."""

    def __init__(self, attacker):
        self.v = pr.Node("v")
        self.p = pr.Node("p")
        self.attacker = attacker
        attacker.on_connect("v", "p")
        self.v.on_connect("p", True, 0.0)
        self.p.on_connect("v", False, 0.0)
        self.timers = []  # Timers for the victim's TIMER actions
        self.disconnects = []  # (who, peer, time)

    def _deliver(self, src_node, dst_node, msg, now):
        msg = pr.from_wire(pr.to_wire(msg))  # every message still crosses the codec
        if self.attacker.intercepts(src_node.node_id, dst_node.node_id):
            msg = self.attacker.transform(src_node.node_id, dst_node.node_id, msg, now)
        if isinstance(msg, pr.InvMsg):
            acts = dst_node.on_inv(src_node.node_id, msg, now)
        elif isinstance(msg, pr.GetDataMsg):
            acts = dst_node.on_getdata(src_node.node_id, msg, now)
        else:
            acts = dst_node.on_block(src_node.node_id, msg, now)
        self._run(dst_node, acts, now)

    def _run(self, node, actions, now):
        other = self.p if node is self.v else self.v
        for kind, what, arg in actions:
            if kind == pr.SEND:
                assert what == [other.node_id]
                self._deliver(node, other, arg, now)
            elif kind == pr.TIMER:
                if node is self.v:
                    self.timers.append(Timer(what, arg))
            elif kind == pr.DROP:
                self.disconnects.append((node.node_id, what, now))
                node.on_disconnect(what)
                other.on_disconnect(node.node_id)
                self.attacker.on_disconnect("v", "p")

    def peer_mines(self, idx, now):
        block = pr.make_block(self.p.chain.tip, self.p.node_id, idx, now)
        self._run(self.p, self.p.accept_block(block, now), now)
        return block

    def victim_tx_request(self, now):
        tx = hashlib.sha256(f"tx@{now}".encode()).digest()
        self._deliver(self.v, self.p, pr.GetDataMsg([(wire.INV_TX, tx)]), now)

    def fire_timer(self, timer, now):
        self._run(self.v, self.v.on_timeout(timer.block_hash, timer.deadline, now), now)


PARAMS = tp.SimParams()


def delay_attack(**params):
    """A delay attack on victim "v", as `read_attack` returns it."""
    return tp.Attack("delay", ("v",), **params)


def outgoing_attacker():
    return adv.DelayAttacker(delay_attack(direction="outgoing", interception=1.0), PARAMS)


def test_outgoing_delay_holds_block_then_restores_on_next_tx():
    pipe = Pipe(outgoing_attacker())
    b = pipe.peer_mines(0, 10.0)
    # the INV went through, the getdata got rewritten to the genesis hash:
    # peer served a block the victim already had, so the request is still open
    assert b.hash not in pipe.v.chain.arrival
    assert pipe.v.pending[b.hash].deadline == 10.0 + 1200.0
    assert pipe.attacker.rewrites == 1
    # first tx request while the stash is live carries the request back
    pipe.victim_tx_request(250.0)
    assert pipe.v.chain.tip == b  # delivered 240 s late
    assert b.hash not in pipe.v.pending
    assert pipe.attacker.restores == 1
    # the deadline passes without incident: no disconnect
    for t in list(pipe.timers):
        pipe.fire_timer(t, t.deadline)
    assert pipe.disconnects == []
    assert "p" in pipe.v.peers


def test_second_block_request_passes_while_a_swap_is_pending():
    pipe = Pipe(outgoing_attacker())
    b1 = pipe.peer_mines(0, 0.0)
    b2 = pipe.peer_mines(1, 30.0)
    # one tampered retrieval per connection: b2's getdata went through intact,
    # but the block it fetched is parentless until b1 is released
    assert pipe.attacker.rewrites == 1
    stash = pipe.attacker._stash[("v", "p")]
    assert stash.block_hash == b1.hash
    assert any(b.hash == b2.hash for kids in pipe.v.chain._waiting.values() for b in kids)
    assert pipe.v.chain.tip.height == 0
    pipe.victim_tx_request(250.0)  # restore b1: the buffered child cascades in
    assert b1.hash in pipe.v.chain.arrival and b2.hash in pipe.v.chain.arrival
    assert pipe.v.chain.tip == b2
    for t in list(pipe.timers):
        pipe.fire_timer(t, t.deadline)
    assert pipe.disconnects == []


def test_stash_expires_restore_margin_after_the_swap():
    pipe = Pipe(outgoing_attacker())
    b = pipe.peer_mines(0, 0.0)
    pipe.victim_tx_request(300.0)  # margin is 300 s: one tick too late
    assert b.hash not in pipe.v.chain.arrival
    assert ("v", "p") not in pipe.attacker._stash
    # with no carrier in time the victim walks away at the protocol deadline
    (t,) = pipe.timers
    pipe.fire_timer(t, t.deadline)
    assert pipe.disconnects == [("v", "p", 1200.0)]


def test_incoming_corruption_starves_victim_until_exact_timeout():
    attacker = adv.DelayAttacker(delay_attack(direction="incoming", interception=1.0), PARAMS)
    pipe = Pipe(attacker)
    b = pipe.peer_mines(0, 10.0)
    # the block did cross the wire, but with a broken checksum every time
    assert attacker.corruptions == 1
    assert b.hash not in pipe.v.chain.arrival
    assert b.hash in pipe.v.pending  # corrupted copies are not re-requested
    (t,) = pipe.timers
    assert t.deadline == 10.0 + 1200.0
    pipe.fire_timer(t, t.deadline)
    assert pipe.disconnects == [("v", "p", 1210.0)]  # exactly request + 1200 s
    assert b.hash not in pipe.v.chain.arrival


def test_node_mode_interception_bookkeeping():
    a = adv.DelayAttacker(delay_attack(interception=0.5), tp.SimParams(outgoing_target=8))
    assert a.target_count == 4
    for i in range(8):
        a.on_connect("v", f"p{i}")
    assert a.intercepted == {"p0", "p1", "p2", "p3"}
    a.on_disconnect("v", "p1")
    assert a.intercepted == {"p0", "p2", "p3"}
    a.on_connect("v", "p8")  # the refilled slot inherits interception
    assert a.intercepted == {"p0", "p2", "p3", "p8"}
    a.on_connect("v", "p9")  # back at target: left alone
    assert "p9" not in a.intercepted
    assert adv.DelayAttacker(delay_attack(interception=0.8), PARAMS).target_count == 6
    assert not a.intercepts("v", "p9") and a.intercepts("v", "p8")
    assert not a.intercepts("p8", "v")  # outgoing mode tampers one direction
    a._stash[("v", "p2")] = a._stash[("p2", "v")] = adv._Stash(b"h" * 32, expires=1.0)
    a.on_disconnect("p2", "v")  # the victim may be either end of the closed connection
    assert "p2" not in a.intercepted and not a._stash


def test_coalition_follows_as_paths():
    topo = tp.load_topology(SCN / "paperlike.scn")
    a = adv.DelayAttacker(tp.Attack("coalition", (), coalition=frozenset({3, 7})), PARAMS, topo)
    assert a.intercepts("A", "H")  # AS1 -> AS4 transits through 3 and 7
    assert not a.intercepts("A", "C")  # AS1 -> AS2 is a direct peering
    assert a.intercepts("K", "A")  # traffic from AS3 itself is on-path
    # the red fabric I-F is kept from the attacker by the engine's send path, not here
    unroutable = tp.load_topology({
        "ases": [{"id": 1, "country": ""}, {"id": 2, "country": ""}], "links": [],
        "prefixes": [{"base": f"10.{i}.0.0", "len": 16, "origin_as": i} for i in (1, 2)],
        "nodes": [{"id": n, "ip": f"10.{i}.0.1", "prefix": f"10.{i}.0.0/16", "as": i} for n, i in (("a", 1), ("b", 2))],
        "pools": [], "params": {"connections": [["a", "b"]]}})
    both = adv.DelayAttacker(tp.Attack("coalition", (), coalition=frozenset({1, 2})), PARAMS, unroutable)
    assert not both.intercepts("a", "b")  # no route, so no AS of the coalition is on it
    b = pr.make_block(G, "m", 0, 5.0)
    request = pr.GetDataMsg([(wire.INV_BLOCK, b.hash)])
    assert a.transform("A", "H", request, 5.0) == pr.GetDataMsg([(wire.INV_BLOCK, G.hash)])
    assert request.items == [(wire.INV_BLOCK, b.hash)]  # the sender's object is not edited
    assert a._stash == {}  # a coalition never intends to give the block back
    tx = pr.GetDataMsg([(wire.INV_TX, bytes(32))])
    assert a.transform("A", "H", tx, 900.0) is tx


def test_non_getdata_frames_pass_untouched_in_outgoing_mode():
    a = outgoing_attacker()
    a.on_connect("v", "p")
    b = pr.make_block(G, "m", 0, 5.0)
    for msg in (pr.InvMsg([(wire.INV_BLOCK, b.hash)]), pr.BlockMsg(b)):
        assert a.transform("v", "p", msg, 5.0) is msg


# ------------------------------------------------ object vs frame tampering --


def _first(inventory, inv_type):
    return next(((i, h) for i, (t, h) in enumerate(inventory) if t == inv_type), (None, None))


class FrameDelayAttacker(adv.DelayAttacker):
    """The byte-level tamperer: parses, rewrites and corrupts whole wire frames.

    This is the reference the message-object `transform` must agree with.
    Its corruption draws from its own seeded stream.
    """

    def __init__(self, attack, params, seed=0):
        super().__init__(attack, params)
        self.rng = random.Random(f"{seed}:delay")

    def transform(self, src, dst, frame, now):
        parsed = wire.parse(frame)
        if self.incoming:
            if parsed.command == "block":
                self.corruptions += 1
                return wire.corrupt_block(frame, self.rng)
            return frame
        if parsed.command != "getdata":
            return frame
        key = (src, dst)
        stash = self._stash.get(key)
        if stash is not None and now >= stash.expires:
            self._stash.pop(key, None)
            stash = None
        _, block_hash = _first(parsed.inventory, wire.INV_BLOCK)
        if block_hash is not None and block_hash != G.hash:
            if stash is not None:
                return frame
            self.rewrites += 1
            if self.coalition is None:
                self._stash[key] = adv._Stash(block_hash, expires=now + self.restore_margin)
            return wire.rewrite_getdata_hash(frame, block_hash, G.hash)
        if stash is not None:
            tx_idx, _ = _first(parsed.inventory, wire.INV_TX)
            if tx_idx is not None:
                items = list(parsed.inventory)
                items[tx_idx] = (wire.INV_BLOCK, stash.block_hash)
                self._stash.pop(key, None)
                self.restores += 1
                return wire.serialize_inventory("getdata", items)
        return frame


# hashes are unique within a message: the frame rewrite swaps the first slot
# holding the hash, the object rewrite the first block item
_inventory = st.lists(
    st.tuples(st.sampled_from([wire.INV_TX, wire.INV_BLOCK]),
              st.one_of(st.just(G.hash), st.binary(min_size=32, max_size=32))),
    min_size=1, max_size=3, unique_by=lambda item: item[1],
)
_blocks = st.builds(lambda miner, idx, t: pr.make_block(G, miner, idx, t),
                    st.sampled_from(["m", "pool-7", "\u00e9"]), st.integers(0, 10**6),
                    st.floats(0.0, 1e6, allow_nan=False))
_steps = st.lists(
    st.tuples(
        st.sampled_from([("v", "p"), ("v", "p"), ("v", "q"), ("p", "v")]),
        st.floats(0.0, 120.0),
        st.one_of(_inventory.map(pr.GetDataMsg), _inventory.map(pr.GetDataMsg), _inventory.map(pr.InvMsg),
                  _blocks.map(pr.BlockMsg), st.just("disconnect")),
    ),
    max_size=40,
)


# the ids name the paper's two scopes: network-wide (a coalition) and a single node
@pytest.mark.parametrize("kind,direction", [pytest.param("coalition", "outgoing", id="network-outgoing"),
                                            pytest.param("delay", "outgoing", id="node-outgoing"),
                                            pytest.param("delay", "incoming", id="node-incoming")])
@settings(max_examples=150, deadline=None)
@given(steps=_steps, seed=st.integers(0, 2**32 - 1))
def test_message_tampering_equals_frame_tampering(kind, direction, steps, seed):
    attack = tp.Attack(kind, ("v",) if kind == "delay" else (), direction=direction)
    attacker, ref = adv.DelayAttacker(attack, PARAMS), FrameDelayAttacker(attack, PARAMS, seed=seed)
    now = 0.0
    for (src, dst), dt, msg in steps:
        now += dt
        if msg == "disconnect":
            attacker.on_disconnect(src, dst)
            ref.on_disconnect(src, dst)
            continue
        sent = copy.deepcopy(msg)
        frame = pr.to_wire(msg)
        out = ref.transform(src, dst, frame, now)
        assert len(out) == len(frame)
        got = attacker.transform(src, dst, msg, now)
        assert got == pr.from_wire(out)
        assert msg == sent  # the sender's object is never edited
        if isinstance(msg, pr.BlockMsg) and direction == "incoming" and kind == "delay":
            assert got.valid is False
    assert (attacker.rewrites, attacker.restores, attacker.corruptions) == (
        ref.rewrites, ref.restores, ref.corruptions)
    assert attacker._stash == ref._stash


# the engine's INV path (`Simulation._announce`) never shows an INV to `transform`, on the strength of this
@pytest.mark.parametrize("kind,direction", [pytest.param("coalition", "outgoing", id="network-outgoing"),
                                            pytest.param("delay", "outgoing", id="node-outgoing"),
                                            pytest.param("delay", "incoming", id="node-incoming")])
@settings(max_examples=100, deadline=None)
@given(steps=_steps)
def test_transform_returns_any_inv_untouched(kind, direction, steps):
    # any INV, at any point of a run of tampering, comes back as the same object and moves no count or stash
    attacker = adv.DelayAttacker(tp.Attack(kind, ("v",) if kind == "delay" else (), direction=direction), PARAMS)
    now = 0.0
    for (src, dst), dt, msg in steps:
        now += dt
        if msg == "disconnect":
            attacker.on_disconnect(src, dst)
            continue
        before = (attacker.rewrites, attacker.restores, attacker.corruptions, copy.deepcopy(attacker._stash))
        got = attacker.transform(src, dst, msg, now)
        if isinstance(msg, pr.InvMsg):
            assert got is msg
            assert (attacker.rewrites, attacker.restores, attacker.corruptions, attacker._stash) == before
