"""Attacker-side logic: partition traffic policing and in-path delay tampering.

The partition attacker sits on the diverted routes and forwards only frames
that travel between partition members, none of which mention a block mined
outside.  A member caught relaying outside information is `leaked` and cut
off; a member not heard from for `threshold` seconds at the last liveness
sweep is `unresponsive`.  A sweep only records its time: the unresponsive
set is derived from the liveness clocks when it is read.  The engine takes
one sweep, at the lift or at the end of the run.

The delay attacker runs a `topology.Attack` of kind `delay` or `coalition`.
It rewrites block requests in flight so the requester's peer serves a block
the requester already has.  Under a `delay` attack the original request is
remembered and, shortly before the victim's 20-minute patience runs out,
smuggled back inside an unrelated transaction request, so the block arrives
late but the connection survives; with direction `incoming` the victim's
blocks are corrupted instead.  A `coalition` attack never gives a block back.

Tampering works on protocol message objects, never on wire frames.  Each
edit is one the byte-level reference in `wire` can make in flight: a
swapped or restored request keeps its frame length and a valid checksum,
and a corrupted block fails its checksum and is dropped by the recipient.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import topology as tp
from . import wire
from .protocol import GENESIS, BlockMsg, GetDataMsg, InvMsg


class PartitionAttacker:
    """Filtering policy over diverted traffic, with leak and liveness tracking."""

    def __init__(self, partition, threshold: float, now: float):
        self.partition = frozenset(partition)
        self.threshold = threshold
        self.leaked: set[str] = set()
        self._monitored = self.partition  # P \ L, recomputed only when a member leaks
        self.swept_at: float | None = None  # the time of the last liveness sweep
        self.last_seen: dict[str, float] = {n: now for n in self.partition}
        self._external: set[bytes] = set()
        self.forwarded = 0
        self.dropped = 0
        self.leak_events: list[tuple[float, str]] = []
        self.lifted_at: float | None = None  # once set, the report's outcome is as of this time

    @property
    def monitored(self) -> frozenset:
        """P \\ L: members still being kept inside."""
        return self._monitored

    @property
    def unresponsive(self) -> set[str]:
        """Members of P \\ L not heard from for `threshold` seconds at the last sweep; empty before one.

        This equals the set an eager sweep would build and every later
        `tick` would prune, but for one case: with `threshold` 0, a member
        heard at the exact time of the sweep, after it ran, stays in the set.
        The engine never reads the set in that state: its last sweep is the
        lift or the end of the run, and no tick follows it.
        """
        swept_at = self.swept_at
        if swept_at is None:
            return set()
        last_seen, threshold = self.last_seen, self.threshold
        return {n for n in self._monitored if swept_at - last_seen[n] >= threshold}

    def register_block(self, block_hash: bytes, miners: set) -> None:
        """Record a block's origin the moment it is mined.

        `miners` is the set of nodes the block is injected at: its miner, or
        a pool's gateways.  Externality is judged against P \\ L *as of the
        mining instant*; a block mined by a member that leaks later does not
        retroactively become outside information.
        """
        if not miners <= self.monitored:
            self._external.add(block_hash)

    def is_external(self, block_hash: bytes) -> bool:
        return block_hash in self._external

    def _mentions_external(self, msg) -> bool:
        if isinstance(msg, InvMsg):
            for _, h in msg.items:
                if h in self._external:
                    return True
            return False
        if isinstance(msg, BlockMsg):
            return msg.block.hash in self._external
        return False  # getdata and the rest carry no new knowledge

    def tick(self, src: str, dst: str, msg, now: float) -> bool:
        """Police one diverted frame; True means deliver it."""
        if src in self.partition:
            self.last_seen[src] = now
        if src not in self.monitored or dst not in self.partition:
            self.dropped += 1
            return False
        if self._mentions_external(msg):
            self.leaked.add(src)
            self._monitored = self.partition - self.leaked
            self.leak_events.append((now, src))
            self.dropped += 1
            return False
        self.forwarded += 1
        return True

    def sweep(self, now: float) -> None:
        """Take a liveness sweep at `now`: `unresponsive` is derived as of the last sweep."""
        self.swept_at = now

    def lift(self, now: float) -> None:
        """Take the final sweep as the hijack ends; the liveness clocks stop with the diversion."""
        self.sweep(now)
        self.lifted_at = now

    def report(self) -> dict:
        """The run's partition outcome, as the `partition` object of a run report."""
        unresponsive = self.unresponsive
        return {
            "partition": sorted(self.partition),
            "leaked": sorted(self.leaked),
            "unresponsive": sorted(unresponsive),
            "isolated": sorted(self.partition - self.leaked - unresponsive),
            "forwarded": self.forwarded,
            "dropped": self.dropped,
            "leak_events": [[t, n] for t, n in self.leak_events],
        }


# -- delay attacks ---------------------------------------------------------------


@dataclass
class _Stash:
    block_hash: bytes
    expires: float  # swap time + restore_margin; no restore after this


def _first_item(items, inv_type):
    for i, (t, h) in enumerate(items):
        if t == inv_type:
            return i, h
    return None, None


def _with_item(msg: GetDataMsg, i: int, item: tuple[int, bytes]) -> GetDataMsg:
    """A copy of `msg` with inventory item i replaced; `msg` itself is left alone."""
    return GetDataMsg(msg.items[:i] + [item] + msg.items[i + 1 :])


class DelayAttacker:
    """In-path tamperer of block delivery, built from a run's `delay` or `coalition` Attack.

    A `delay` attack pins round(interception * params.outgoing_target) of
    victim `target[0]`'s dialed connections, re-acquiring replacements as
    connections churn, and tampers with the victim's messages in the
    attack's `direction`.  A `coalition` attack intercepts every message
    whose AS route crosses the coalition, and never restores: every delayed
    block costs the downstream node a 20-minute wait and the connection.
    Pool fabric links are not routed over the open net; the engine never
    shows them to the attacker.
    """

    def __init__(self, attack: tp.Attack, params: tp.SimParams, topo: tp.Topology | None = None):
        delay = attack.kind == "delay"
        self.victim = attack.target[0] if delay else None
        self.incoming = delay and attack.direction == "incoming"
        self.coalition = None if delay else attack.coalition  # None: a single-victim attack
        self.target_count = round(attack.interception * params.outgoing_target)
        self.restore_margin = attack.restore_margin
        self.topo = topo
        self.intercepted: set[str] = set()
        self._stash: dict[tuple[str, str], _Stash] = {}
        self._hits: dict[tuple[str, str], bool] = {}  # coalition: (src, dst) -> intercepts
        self.rewrites = 0
        self.restores = 0
        self.corruptions = 0

    # ---- interception bookkeeping (delay attack) ----

    def on_connect(self, a: str, b: str) -> None:
        if a == self.victim and len(self.intercepted) < self.target_count:
            self.intercepted.add(b)

    def on_disconnect(self, a: str, b: str) -> None:
        """The connection a-b closed; either end may be the victim."""
        if self.victim not in (a, b):
            return
        self.intercepted.discard(b if a == self.victim else a)
        self._stash.pop((a, b), None)
        self._stash.pop((b, a), None)

    # ---- message selection ----

    def intercepts(self, src: str, dst: str) -> bool:
        if self.coalition is not None:
            # one verdict per ordered pair: routes are fixed for the run
            hit = self._hits.get((src, dst))
            if hit is None:
                nodes = self.topo.nodes
                path = self.topo.forwarding.path(nodes[src].home_as, nodes[dst].home_as)
                hit = self._hits[src, dst] = path is not None and not self.coalition.isdisjoint(path)
            return hit
        if self.incoming:
            return dst == self.victim and src in self.intercepted
        return src == self.victim and dst in self.intercepted

    # ---- message tampering ----

    def transform(self, src: str, dst: str, msg, now: float):
        """Tamper with one intercepted message; untouched messages come back as is.

        An edit returns a new object and never mutates `msg`: the sender may
        hand the same message to every peer.
        """
        if self.incoming:
            if isinstance(msg, BlockMsg):
                self.corruptions += 1
                return BlockMsg(GENESIS, valid=False)
            return msg
        if not isinstance(msg, GetDataMsg):
            return msg
        return self._tamper_getdata(src, dst, msg, now)

    def _tamper_getdata(self, src, dst, msg, now):
        key = (src, dst)
        stash = self._stash.get(key)
        if stash is not None and now >= stash.expires:
            self._stash.pop(key, None)
            stash = None
        idx, block_hash = _first_item(msg.items, wire.INV_BLOCK)
        if block_hash is not None and block_hash != GENESIS.hash:
            if stash is not None:
                # one tampered retrieval per connection at a time: while a
                # swap is pending, further block requests pass untouched
                return msg
            self.rewrites += 1
            if self.coalition is None:  # a coalition never restores, so it stashes nothing
                self._stash[key] = _Stash(block_hash, expires=now + self.restore_margin)
            return _with_item(msg, idx, (wire.INV_BLOCK, GENESIS.hash))
        if stash is not None:
            tx_idx, _ = _first_item(msg.items, wire.INV_TX)
            if tx_idx is not None:
                self._stash.pop(key, None)
                self.restores += 1
                return _with_item(msg, tx_idx, (wire.INV_BLOCK, stash.block_hash))
        return msg
