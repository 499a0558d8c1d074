"""Per-node gossip protocol: inv/getdata/block exchange and chain selection.

Nodes request a block from the first peer that advertised it and wait up to
20 simulated minutes; a peer that fails to deliver is disconnected and the
block is re-requested from the next advertiser in announcement order.  The
active chain is the highest one, first-seen winning ties.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from . import wire

BLOCK_REQUEST_TIMEOUT = 1200.0  # the infamous 20 minutes


@dataclass(frozen=True)
class Block:
    hash: bytes
    parent: bytes | None
    height: int
    miner: str
    created: float


GENESIS = Block(hashlib.sha256(b"genesis").digest(), None, 0, "_genesis", 0.0)


def make_block(parent: Block, miner: str, index: int, now: float) -> Block:
    h = hashlib.sha256(f"{parent.hash.hex()}:{miner}:{index}".encode()).digest()
    return Block(h, parent.hash, parent.height + 1, miner, now)


# -- protocol messages ---------------------------------------------------------


@dataclass
class InvMsg:
    items: list[tuple[int, bytes]]


@dataclass
class GetDataMsg:
    items: list[tuple[int, bytes]]


@dataclass
class BlockMsg:
    block: Block
    valid: bool = True  # False once a checksum-breaking corruption happened


def block_inv(block_hash: bytes) -> InvMsg:
    return InvMsg([(wire.INV_BLOCK, block_hash)])


def block_to_payload(block: Block) -> bytes:
    miner = block.miner.encode()
    return (
        (block.parent or bytes(32))
        + block.hash
        + struct.pack("<Id", block.height, block.created)
        + wire.encode_varint(len(miner))
        + miner
    )


def block_from_payload(payload: bytes) -> Block:
    parent = payload[:32]
    h = payload[32:64]
    height, created = struct.unpack_from("<Id", payload, 64)
    n, off = wire.decode_varint(payload, 76)
    miner = payload[off : off + n].decode()
    return Block(h, None if parent == bytes(32) else parent, height, miner, created)


def to_wire(msg) -> bytes:
    if isinstance(msg, InvMsg):
        return wire.serialize_inventory("inv", msg.items)
    if isinstance(msg, GetDataMsg):
        return wire.serialize_inventory("getdata", msg.items)
    if isinstance(msg, BlockMsg):
        return wire.serialize("block", block_to_payload(msg.block))
    raise TypeError(f"unknown message {msg!r}")


def from_wire(frame: bytes):
    parsed = wire.parse(frame)
    if parsed.command == "inv":
        return InvMsg(parsed.inventory)
    if parsed.command == "getdata":
        return GetDataMsg(parsed.inventory)
    if parsed.command == "block":
        if not parsed.checksum_ok:
            return BlockMsg(GENESIS, valid=False)  # content is untrusted garbage
        return BlockMsg(block_from_payload(parsed.payload))
    raise wire.WireError(f"unexpected command {parsed.command}")


# -- chain state -----------------------------------------------------------------


class ChainView:
    """Held blocks (`arrival`: hash -> time, in arrival order) and the tip; bodies are in the run's shared `known`."""

    def __init__(self, known: dict[bytes, Block] | None = None):
        self.known = {GENESIS.hash: GENESIS} if known is None else known
        self.arrival: dict[bytes, float] = {GENESIS.hash: 0.0}
        self.tip: Block = GENESIS
        self._waiting: dict[bytes, list[Block]] = {}  # parent hash -> orphaned children

    def add(self, block: Block, now: float) -> list[Block]:
        """Insert if the parent is held; return every block that became connected."""
        if block.hash in self.arrival:
            return []
        if block.parent not in self.arrival:
            kids = self._waiting.setdefault(block.parent, [])
            if all(b.hash != block.hash for b in kids):
                kids.append(block)
            return []
        connected = []
        queue = [block]
        i = 0
        while i < len(queue):  # the orphan cascade, breadth first; `queue` grows as it goes
            blk = queue[i]
            i += 1
            if blk.hash in self.arrival:
                continue
            self.known[blk.hash] = blk
            self.arrival[blk.hash] = now
            connected.append(blk)
            if blk.height > self.tip.height:
                self.tip = blk
            queue.extend(self._waiting.pop(blk.hash, []))
        return connected

    def main_chain(self) -> list[bytes]:
        """Hashes from genesis to the tip."""
        out = []
        cur: Block | None = self.tip
        while cur is not None:
            out.append(cur.hash)
            cur = self.known.get(cur.parent) if cur.parent else None
        return list(reversed(out))


# -- node state machine ------------------------------------------------------------


@dataclass
class Pending:
    peer: str
    deadline: float


# Handlers return lists of 3-tuple actions for the engine to execute:
# (SEND, [dst, ...], msg), (TIMER, block_hash, deadline) and (DROP, peer, None).
SEND, TIMER, DROP = 0, 1, 2


class Node:
    """One Bitcoin node.  Handlers return actions for the engine to execute."""

    def __init__(self, node_id: str, known: dict[bytes, Block] | None = None):
        self.node_id = node_id
        self.chain = ChainView(known)
        # peer -> the engine's record of the link to it (`engine.Link`), None until a send decides it
        self.peers: dict[str, tuple | None] = {}
        self.pending: dict[bytes, Pending] = {}
        self.advertisers: dict[bytes, list[str]] = {}
        self._outgoing: set[str] = set()

    @property
    def outgoing(self) -> set[str]:
        """The peers this node dialed, a subset of `peers`.

        This is the live set that `on_connect` and `on_disconnect` keep
        current, not a copy: callers must not mutate it.
        """
        return self._outgoing

    def on_connect(self, peer: str, dialed: bool, now: float) -> list:
        """A connection to `peer` opened; `dialed` is True when this node dialed it."""
        self.peers[peer] = None  # a reconnect decides its link again
        if dialed:
            self._outgoing.add(peer)
        else:
            self._outgoing.discard(peer)  # a re-added peer may have changed direction
        if self.chain.tip is not GENESIS:
            return [(SEND, [peer], block_inv(self.chain.tip.hash))]
        return []

    def on_disconnect(self, peer: str) -> None:
        self.peers.pop(peer, None)
        self._outgoing.discard(peer)

    def _request(self, h: bytes, peer: str, now: float) -> list:
        deadline = now + BLOCK_REQUEST_TIMEOUT
        self.pending[h] = Pending(peer, deadline)
        return [(SEND, [peer], GetDataMsg([(wire.INV_BLOCK, h)])), (TIMER, h, deadline)]

    def on_inv(self, from_peer: str, msg: InvMsg, now: float) -> list:
        actions = []
        held = self.chain.arrival
        for inv_type, h in msg.items:
            if inv_type != wire.INV_BLOCK or h in held:
                continue
            ads = self.advertisers.setdefault(h, [])
            if from_peer not in ads:
                ads.append(from_peer)
            if h not in self.pending:
                actions.extend(self._request(h, from_peer, now))
        return actions

    def on_getdata(self, from_peer: str, msg: GetDataMsg, now: float) -> list:
        actions = []
        for inv_type, h in msg.items:
            if inv_type == wire.INV_BLOCK and h in self.chain.arrival:
                actions.append((SEND, [from_peer], BlockMsg(self.chain.known[h])))
            # tx requests are background noise: nothing to serve
        return actions

    def accept_block(self, block: Block, now: float, exclude: str | None = None) -> list:
        """Connect a block (and any buffered children), announcing each to every peer but `exclude`.

        A held block needs no pending request and no advertisers, so both entries go.
        """
        connected = self.chain.add(block, now)
        if not connected:
            return []
        peers = [p for p in sorted(self.peers) if p != exclude]
        actions = []
        for blk in connected:
            self.pending.pop(blk.hash, None)
            self.advertisers.pop(blk.hash, None)
            if peers:
                actions.append((SEND, peers, block_inv(blk.hash)))
        return actions

    def on_block(self, from_peer: str, msg: BlockMsg, now: float) -> list:
        if not msg.valid:
            # Checksum mismatch: the client drops the message on the floor and,
            # crucially, never re-requests — the pending entry keeps ticking.
            return []
        block = msg.block
        held = self.chain.arrival
        self.pending.pop(block.hash, None)
        if block.hash in held:
            return []
        actions = self.accept_block(block, now, exclude=from_peer)
        if not actions and block.hash not in held:
            # parent unknown: block is parked; chase the parent hash
            parent = block.parent
            if parent and parent not in held and parent not in self.pending:
                ads = self.advertisers.setdefault(parent, [])
                if from_peer not in ads:
                    ads.append(from_peer)
                actions = self._request(parent, from_peer, now)
        return actions

    def on_timeout(self, h: bytes, deadline: float, now: float) -> list:
        entry = self.pending.get(h)
        if entry is None or entry.deadline != deadline or h in self.chain.arrival:
            return []
        del self.pending[h]
        slow = entry.peer
        actions: list = []
        if slow in self.peers:
            actions.append((DROP, slow, None))  # the request timed out
        for candidate in self.advertisers.get(h, []):
            if candidate != slow and candidate in self.peers:
                actions.extend(self._request(h, candidate, now))
                break
        return actions
