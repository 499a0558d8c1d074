"""Gossip state machine tests: request/timeout discipline, tip selection, orphans."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from btcrs import metrics
from btcrs import protocol as pr
from btcrs import wire

G = pr.GENESIS


def chained(n, miner="m", start=0):
    """n blocks in a straight line on top of genesis."""
    out = []
    parent = G
    for i in range(n):
        blk = pr.make_block(parent, miner, start + i, now=float(i))
        out.append(blk)
        parent = blk
    return out


def sends(actions, msg_type=None):
    """One (dst, msg) pair per destination of every SEND action."""
    picked = [(dst, msg) for kind, dsts, msg in actions if kind == pr.SEND for dst in dsts]
    if msg_type is not None:
        picked = [(dst, msg) for dst, msg in picked if isinstance(msg, msg_type)]
    return picked


def buffered(chain, h):
    """Whether `h` waits in the orphan buffer for its parent."""
    return any(b.hash == h for kids in chain._waiting.values() for b in kids)


def test_genesis_is_fixed_point():
    assert G.height == 0 and G.parent is None
    assert len(G.hash) == 32
    again = pr.make_block(G, "x", 0, 1.0)
    assert again.parent == G.hash and again.height == 1


def test_first_seen_tip_wins_ties():
    c = pr.ChainView()
    b1 = pr.make_block(G, "a", 0, 10.0)
    b2 = pr.make_block(G, "b", 0, 10.0)
    c.add(b1, 10.0)
    c.add(b2, 11.0)
    assert c.tip == b1  # same height, b1 arrived first
    b3 = pr.make_block(b2, "b", 1, 20.0)
    c.add(b3, 20.0)
    assert c.tip == b3  # strictly higher chain takes over
    assert c.main_chain() == [G.hash, b2.hash, b3.hash]


def test_orphans_wait_for_parent_then_cascade():
    c = pr.ChainView()
    b1, b2, b3 = chained(3)
    assert c.add(b3, 1.0) == []
    assert c.add(b2, 2.0) == []
    assert buffered(c, b3.hash) and buffered(c, b2.hash)
    connected = c.add(b1, 3.0)
    assert [b.hash for b in connected] == [b1.hash, b2.hash, b3.hash]
    assert c.arrival[b3.hash] == 3.0  # connected, not received, time
    assert c.tip == b3


def test_duplicate_orphans_buffer_once():
    c = pr.ChainView()
    b1, b2 = chained(2)
    c.add(b2, 1.0)
    c.add(b2, 2.0)
    connected = c.add(b1, 3.0)
    assert [b.hash for b in connected] == [b1.hash, b2.hash]


def test_inv_requests_from_first_advertiser_only():
    n = pr.Node("n")
    n.on_connect("p1", True, 0.0)
    n.on_connect("p2", True, 0.0)
    b = pr.make_block(G, "a", 0, 5.0)
    acts = n.on_inv("p1", pr.block_inv(b.hash), 5.0)
    gd = sends(acts, pr.GetDataMsg)
    assert len(gd) == 1 and gd[0][0] == "p1"
    timers = [a for a in acts if a[0] == pr.TIMER]
    assert timers == [(pr.TIMER, b.hash, 5.0 + 1200.0)]
    # second advertiser: recorded for retries, no duplicate request
    acts2 = n.on_inv("p2", pr.block_inv(b.hash), 6.0)
    assert acts2 == []
    assert n.advertisers[b.hash] == ["p1", "p2"]


def test_block_delivery_clears_pending_and_relays():
    n = pr.Node("n")
    for p in ("p1", "p2", "p3"):
        n.on_connect(p, True, 0.0)
    b = pr.make_block(G, "a", 0, 5.0)
    n.on_inv("p1", pr.block_inv(b.hash), 5.0)
    acts = n.on_block("p1", pr.BlockMsg(b), 7.0)
    assert b.hash not in n.pending
    assert n.chain.tip == b
    relayed = {dst for dst, _ in sends(acts, pr.InvMsg)}
    assert relayed == {"p2", "p3"}  # everyone except the sender


def test_accept_block_announces_once_to_sorted_peers_but_the_sender():
    n = pr.Node("n")
    for p in ("p3", "p1", "p4", "p2"):
        n.on_connect(p, True, 0.0)
    b = pr.make_block(G, "a", 0, 5.0)
    acts = n.accept_block(b, 5.0, exclude="p2")
    assert acts == [(pr.SEND, ["p1", "p3", "p4"], pr.block_inv(b.hash))]


def test_timeout_disconnects_and_walks_advertiser_list():
    n = pr.Node("n")
    for p in ("p1", "p2", "p3"):
        n.on_connect(p, True, 0.0)
    b = pr.make_block(G, "a", 0, 5.0)
    n.on_inv("p1", pr.block_inv(b.hash), 5.0)
    n.on_inv("p2", pr.block_inv(b.hash), 6.0)
    n.on_inv("p3", pr.block_inv(b.hash), 7.0)
    acts = n.on_timeout(b.hash, 1205.0, 1205.0)
    kinds = [a[0] for a in acts]
    assert kinds == [pr.DROP, pr.SEND, pr.TIMER]
    assert acts[0][1] == "p1"
    assert acts[1][1] == ["p2"]  # announcement order, not random choice
    assert n.pending[b.hash].deadline == 1205.0 + 1200.0
    n.on_disconnect("p1")
    # block finally shows up from the retry target
    n.on_block("p2", pr.BlockMsg(b), 1300.0)
    assert b.hash in n.chain.arrival and b.hash not in n.pending


def test_stale_timer_is_ignored():
    n = pr.Node("n")
    n.on_connect("p1", True, 0.0)
    b = pr.make_block(G, "a", 0, 5.0)
    n.on_inv("p1", pr.block_inv(b.hash), 5.0)
    n.on_block("p1", pr.BlockMsg(b), 6.0)
    assert n.on_timeout(b.hash, 1205.0, 1205.0) == []
    assert "p1" in n.peers


def test_corrupted_block_keeps_pending_until_timeout():
    n = pr.Node("n")
    n.on_connect("p1", True, 0.0)
    b = pr.make_block(G, "a", 0, 5.0)
    n.on_inv("p1", pr.block_inv(b.hash), 5.0)
    acts = n.on_block("p1", pr.BlockMsg(b, valid=False), 6.0)
    assert acts == []  # no re-request, no relay, nothing
    assert b.hash in n.pending  # still waiting on the same deadline
    acts = n.on_timeout(b.hash, 1205.0, 1205.0)
    assert (pr.DROP, "p1", None) in acts


def test_unknown_parent_triggers_parent_fetch():
    n = pr.Node("n")
    n.on_connect("p1", True, 0.0)
    b1, b2 = chained(2)
    acts = n.on_block("p1", pr.BlockMsg(b2), 4.0)
    gd = sends(acts, pr.GetDataMsg)
    assert len(gd) == 1 and gd[0][0] == "p1"
    assert gd[0][1].items == [(wire.INV_BLOCK, b1.hash)]
    assert buffered(n.chain, b2.hash)
    acts = n.on_block("p1", pr.BlockMsg(b1), 9.0)
    assert n.chain.tip == b2
    # both newly connected blocks get announced (sender excluded, no peers left)
    assert sends(acts, pr.InvMsg) == []


def test_getdata_serves_only_known_blocks():
    n = pr.Node("n")
    n.on_connect("p1", False, 0.0)
    b = pr.make_block(G, "a", 0, 5.0)
    n.accept_block(b, 5.0)
    unknown = bytes(32)
    acts = n.on_getdata(
        "p1",
        pr.GetDataMsg([(wire.INV_BLOCK, b.hash), (wire.INV_BLOCK, unknown), (wire.INV_TX, b.hash)]),
        6.0,
    )
    blocks = sends(acts, pr.BlockMsg)
    assert len(blocks) == 1 and blocks[0][1].block == b


def test_connect_announces_current_tip():
    n = pr.Node("n")
    assert n.on_connect("p1", True, 0.0) == []  # nothing to brag about at genesis
    b = pr.make_block(G, "a", 0, 5.0)
    n.accept_block(b, 5.0)
    acts = n.on_connect("p2", False, 6.0)
    assert sends(acts, pr.InvMsg)[0][1].items == [(wire.INV_BLOCK, b.hash)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["p1", "p2", "p3"]),
                          st.sampled_from([True, False, "disconnect"])), max_size=40))
def test_outgoing_follows_connects_and_disconnects(steps):
    n = pr.Node("n")
    model = {}  # peer -> whether n dialed it
    for peer, what in steps:
        if what == "disconnect":
            n.on_disconnect(peer)
            model.pop(peer, None)
        else:
            n.on_connect(peer, what, 0.0)  # a connected peer may come back in another direction
            model[peer] = what
        assert n.peers == dict.fromkeys(model)  # a link's delay is unknown until the engine sends on it
        assert n.outgoing == {p for p, dialed in model.items() if dialed}


def test_orphan_rate_counts_off_chain_blocks():
    c = pr.ChainView()
    main = chained(8, miner="a")
    for b in main:
        c.add(b, b.created)
    fork = pr.make_block(main[3], "b", 99, 50.0)
    c.add(fork, 50.0)
    assert metrics.orphan_rate(c, mined=9) == (9 - 8) / 9
    assert metrics.orphan_rate(pr.ChainView(), mined=0) == 0.0


def test_protocol_messages_survive_the_wire():
    b = pr.make_block(G, "miner-7", 3, 123.456)
    for msg in (
        pr.InvMsg([(wire.INV_BLOCK, b.hash), (wire.INV_TX, bytes(32))]),
        pr.GetDataMsg([(wire.INV_BLOCK, b.hash)]),
        pr.BlockMsg(b),
    ):
        back = pr.from_wire(pr.to_wire(msg))
        assert type(back) is type(msg)
        if isinstance(msg, pr.BlockMsg):
            assert back.block == b and back.valid
        else:
            assert back.items == msg.items


def test_corrupted_wire_block_arrives_invalid():
    b = pr.make_block(G, "a", 0, 5.0)
    frame = pr.to_wire(pr.BlockMsg(b))
    mangled = wire.corrupt_block(frame, random.Random(7))
    back = pr.from_wire(mangled)
    assert isinstance(back, pr.BlockMsg) and not back.valid


@st.composite
def block_trees(draw):
    """A random tree of up to 12 blocks over genesis."""
    n = draw(st.integers(min_value=1, max_value=12))
    blocks = []
    for i in range(n):
        parent = G if not blocks else draw(st.sampled_from([G] + blocks))
        blocks.append(pr.make_block(parent, f"m{i}", i, float(i)))
    order = draw(st.permutations(blocks))
    return blocks, list(order)


@given(block_trees())
@settings(max_examples=120, deadline=None)
def test_any_arrival_order_connects_everything(tree):
    blocks, order = tree
    c = pr.ChainView()
    for i, b in enumerate(order):
        c.add(b, float(i))
    assert all(b.hash in c.arrival for b in blocks)
    best = max(b.height for b in blocks)
    assert c.tip.height == best
    # the tip must be the first *connectable* block of maximal height: at
    # minimum, it is one of the blocks at that height
    assert c.tip in [b for b in blocks if b.height == best]


@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_never_two_outstanding_requests_per_hash(n_peers, rng):
    n = pr.Node("n")
    peers = [f"p{i}" for i in range(n_peers)]
    for p in peers:
        n.on_connect(p, True, 0.0)
    b = pr.make_block(G, "a", 0, 1.0)
    outstanding = 0
    for t in range(30):
        acts = n.on_inv(rng.choice(peers), pr.block_inv(b.hash), float(t))
        outstanding += len(sends(acts, pr.GetDataMsg))
    assert outstanding == 1
