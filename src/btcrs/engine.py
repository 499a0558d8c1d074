"""Deterministic event-driven simulation of Bitcoin gossip over an AS topology.

One queue orders deliveries, mining, request timeouts, background
transaction chatter, churn reboots and attack control: a heap of distinct
times, each with a FIFO list of the events due then.  Each event carries the
function that handles it, and events at one time run in insertion order, so
a (scenario, seed) pair always replays identically.  Block INVs, the only
fan-out, have their own path: one announcement's deliveries due at one time
are one event that walks its destinations in order, exactly as one event
each would.  An INV whose every block its receiver holds, when sent or on
arrival, never reaches `on_inv`; one held when sent queues only its time.

Latency between two nodes is `base_delay` plus `per_hop_delay` for every
inter-AS hop of the policy-compliant route (`ForwardingTable.hops`), which
may differ by direction; members of the same pool fabric exchange messages
instantly and invisibly to any on-path attacker.  Each direction of a
connection keeps one `Link` record as its value in `Node.peers`: the delay,
whether the hijack diverts it and whether the delay attacker intercepts it.
The record is decided on the link's first send and kept until a connect
resets it; a hijack's activation and lift reset every live link, since they
change the diversion verdict.

A hijack's liveness sweep only records its time, so none is queued: a lift
takes one, or else `run` does at the end, at the later of the last event and
the last point by the horizon of the `SWEEP_INTERVAL` grid from activation.

Background transaction chatter runs only when the attack reads it:
a `delay` attack or a hijack partition (`topology.Attack.reads_tx`).
Anywhere else a tx request changes no state, so leaving it out keeps every
output and can only end the final clock `now` earlier, which no report
reads.  A new reader of tx frames, such as a per-command frame counter,
must be added to `Attack.reads_tx`.
"""

from __future__ import annotations

import concurrent.futures
import gc
import heapq
import os
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from . import planner
from . import protocol as pr
from . import topology as tp
from . import wire
from .adversary import DelayAttacker, PartitionAttacker

SWEEP_INTERVAL = 60.0


class Link(NamedTuple):
    """One direction of a connection, as the engine decided it on the first send."""

    delay: float  # one-way seconds
    diverted: bool  # the hijack's partition attacker polices it
    intercepted: bool  # the delay attacker tampers with it


FABRIC_LINK = Link(0.0, False, False)


def _slash16(ip: str) -> str:
    return ".".join(ip.split(".")[:2])


class Simulation:
    """One seeded run over a loaded topology.

    `overrides` replace entries of the scenario's `params` block; a key or
    value that `--set` would refuse raises ScenarioError naming `params.<key>`.
    """

    def __init__(self, topo: tp.Topology, seed: int, overrides: dict | None = None,
                 attack: dict | None = None, end_time: float | None = None):
        overrides = overrides or {}
        tp.check_params(overrides, topo.nodes)
        self.topo = topo
        self.seed = seed
        self.params = tp.SimParams(**{**topo.params, **overrides})
        self.now = 0.0
        self._times: list[float] = []  # heap of the distinct times in `_buckets`
        self._buckets: dict[float, list[tuple]] = {}  # time -> [(handler, args)] in push order
        self.known = {pr.GENESIS.hash: pr.GENESIS}  # every node's block bodies: one table per run
        self.nodes = {nid: pr.Node(nid, self.known) for nid in sorted(topo.nodes)}
        self._node_order = sorted(topo.nodes)
        self.rng_mine = random.Random(f"{seed}:mine")
        self.rng_net = random.Random(f"{seed}:net")
        # a per-node stream only for the processes `_schedule_initial` starts
        self._churn_on = bool((self.params.churn or {}).get("enabled"))
        self.attack = tp.read_attack(attack, topo)  # the run's typed attack, None without one
        self._tx_on = self.params.tx_getdata_rate > 0 and self.attack is not None and self.attack.reads_tx
        self._tx_rng = {n: random.Random(f"{seed}:tx:{n}") for n in self._node_order} if self._tx_on else {}
        self._churn_rng = ({n: random.Random(f"{seed}:churn:{n}") for n in self._node_order}
                           if self._churn_on else {})
        self._lifetime: dict[str, float] = {}
        self._home_as = {n: topo.nodes[n].home_as for n in self._node_order}
        self._fabric = {n: f for n in self._node_order if (f := topo.fabric_of(n))}  # gateways only
        self._ip16 = {n: _slash16(topo.nodes[n].ip) for n in self._node_order}
        self.dial_veto = None  # pure callable(a, b) -> True to refuse the dial; `_dial` asks it last
        self.mined: list[pr.Block] = []
        self.dials = 0
        self.disconnects = 0
        self.horizon: float | None = end_time
        if self.params.blocks == 0 and end_time is None:
            self.horizon = self.params.drain_time

        self.partition_attacker: PartitionAttacker | None = None
        self._coverage: tp.Coverage | None = None
        self.delay_attacker: DelayAttacker | None = None
        self._links: dict[tuple, Link] = {}  # each distinct link record, shared by every link it describes
        self._regular = sorted(topo.regular_ids)
        self._pools_sorted = sorted(topo.pools.values(), key=lambda p: p.pool_id)

    # ---- scheduling primitives ----

    def _push(self, when: float, handler, args: tuple) -> None:
        """Schedule `handler(self, *args)`; `handler` is a plain function, not a bound method."""
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(handler, args)]
            heapq.heappush(self._times, when)
        else:
            bucket.append((handler, args))

    def schedule_control(self, when: float, fn) -> None:
        self._push(when, fn, ())

    # ---- connections ----

    def _connect(self, a: str, b: str, dialed: bool = True) -> None:
        """Join a and b: `a` dialed `b`, or neither dialed (a pool fabric clique)."""
        if dialed:
            self.dials += 1
            if self.delay_attacker is not None:
                self.delay_attacker.on_connect(a, b)
        # skipping an empty execute matters: most connects of a churn-only run announce no block
        if acts := self.nodes[a].on_connect(b, dialed, self.now):
            self._execute(a, acts)
        if acts := self.nodes[b].on_connect(a, False, self.now):
            self._execute(b, acts)

    def _dial(self, nid: str, exclude: frozenset = frozenset()) -> bool:
        """Connect `nid` to an eligible node drawn uniformly at random; False if there is none.

        Eligible is: not `nid`, a peer, in `exclude` or in a /16 group `nid` dials into; fewer than
        `max_connections` peers; an AS in `nid`'s `ForwardingTable.two_way`; and no `dial_veto`.  Both loops
        write that test out, in that order, so only the veto costs a call; it is pure, so asking it last
        keeps every verdict.  At most 24 uniform draws, then a scan of every node for what they missed.
        """
        nodes, ip16, home_as = self.nodes, self._ip16, self._home_as
        veto, cap = self.dial_veto, self.params.max_connections
        peers = nodes[nid].peers
        taken = {ip16[p] for p in nodes[nid].outgoing}
        reach = self.topo.forwarding.two_way(home_as[nid])
        order = self._node_order
        randrange, n = self.rng_net.randrange, len(order)
        for _ in range(24):
            cand = order[randrange(n)]
            if (cand != nid and cand not in peers and cand not in exclude and ip16[cand] not in taken
                    and len(nodes[cand].peers) < cap and home_as[cand] in reach
                    and (veto is None or not veto(nid, cand))):
                self._connect(nid, cand)
                return True
        candidates = [cand for cand in order if (cand != nid and cand not in peers and cand not in exclude
                      and ip16[cand] not in taken and len(nodes[cand].peers) < cap and home_as[cand] in reach
                      and (veto is None or not veto(nid, cand)))]
        if not candidates:
            return False
        self._connect(nid, self.rng_net.choice(candidates))
        return True

    def _disconnect(self, a: str, b: str, refill_a: bool = True) -> None:
        """Close a-b; each end that lost an outgoing slot dials a replacement (a only if `refill_a`)."""
        na, nb = self.nodes[a], self.nodes[b]
        if b not in na.peers:
            return
        out_a, out_b = na.outgoing, nb.outgoing  # live sets: on_disconnect updates them
        lost_out_a, lost_out_b = b in out_a, a in out_b
        na.on_disconnect(b)
        nb.on_disconnect(a)
        if self.delay_attacker is not None:
            self.delay_attacker.on_disconnect(a, b)
        self.disconnects += 1
        if refill_a and lost_out_a and len(out_a) < self.params.outgoing_target:
            self._dial(a, exclude=frozenset({b}))
        if lost_out_b and len(out_b) < self.params.outgoing_target:
            self._dial(b, exclude=frozenset({a}))

    def _join_fabric(self, nid: str) -> None:
        """Connect `nid` to each other gateway of its pool fabric not yet a peer: fabrics are instant cliques."""
        peers = self.nodes[nid].peers
        for g in sorted(self._fabric.get(nid, ())):
            if g != nid and g not in peers:
                self._connect(nid, g, dialed=False)

    def _setup_connections(self) -> None:
        for nid in sorted(self._fabric):
            self._join_fabric(nid)
        if self.params.connections is not None:
            for a, b in self.params.connections:
                if b not in self.nodes[a].peers:
                    self._connect(a, b)
        else:
            for nid in self._node_order:
                while len(self.nodes[nid].outgoing) < self.params.outgoing_target:
                    if not self._dial(nid):
                        break

    def _link(self, src: str, dst: str) -> Link:
        """The record of the link src -> dst as it stands now; a fabric link is instant and unseen."""
        if dst in self._fabric.get(src, ()):
            return FABRIC_LINK
        src_as = self._home_as[src]
        hops = self.topo.forwarding.hops(src_as, self._home_as[dst]) or 0  # unroutable: base_delay alone
        coverage, delayer = self._coverage, self.delay_attacker
        key = (self.params.base_delay + self.params.per_hop_delay * hops,
               coverage is not None and coverage.diverted(dst, src_as),
               delayer is not None and delayer.intercepts(src, dst))
        link = self._links.get(key)
        if link is None:  # a Link is built once per distinct record, not once per link
            link = self._links[key] = Link(*key)
        return link

    def _forget_links(self) -> None:
        """Reset every live link, so that its next send decides the record again."""
        for node in self.nodes.values():
            peers = node.peers
            for peer in peers:
                peers[peer] = None

    def cross_fraction(self, side: set[str]) -> float:
        total = crossing = 0
        for nid, node in self.nodes.items():
            out = node.outgoing
            inside = len(side.intersection(out))
            total += len(out)
            crossing += len(out) - inside if nid in side else inside
        return crossing / total if total else 0.0

    def sever_crossing(self, side: set[str]) -> None:
        for a in self._node_order:
            for b in sorted(self.nodes[a].peers):
                if a < b and ((a in side) != (b in side)):
                    self._disconnect(a, b)

    def isolate(self, side: set[str]) -> None:
        """Perfect partition: sever every connection across `side` and veto dials across it."""
        self.dial_veto = lambda a, b: (a in side) != (b in side)
        self.sever_crossing(side)

    # ---- attacks ----

    def _install_attack(self) -> None:
        attack = self.attack
        if attack is None:
            return
        targets = attack.target
        if attack.kind == "perfect":
            side = set(targets)

            def lift(sim: "Simulation") -> None:
                sim.dial_veto = None

            self.schedule_control(attack.start, lambda sim: sim.isolate(side))
            if attack.end is not None:
                self.schedule_control(attack.end, lift)
        elif attack.kind == "hijack":
            announced = attack.announced
            if announced is None:
                announced = planner.cover_nodes(self.topo, targets)
            active_at = attack.start + self.params.convergence_delay

            def activate(sim: "Simulation") -> None:
                sim._coverage = tp.hijack_coverage(sim.topo, announced, sim.seed)
                sim._forget_links()
                sim.partition_attacker = PartitionAttacker(targets, sim.params.threshold, sim.now)

            def deactivate(sim: "Simulation") -> None:
                if sim.partition_attacker is not None:
                    sim.partition_attacker.lift(sim.now)
                sim._coverage = None
                sim._forget_links()

            self.schedule_control(active_at, activate)
            if attack.end is not None:
                # never before activation, which would leave the hijack on for good
                self.schedule_control(max(attack.end, active_at), deactivate)
        else:  # delay or coalition
            self.delay_attacker = DelayAttacker(attack, self.params, self.topo)

    # ---- event handlers ----

    def _execute(self, nid: str, actions) -> None:
        for kind, what, arg in actions:
            if kind == pr.SEND:
                if type(arg) is pr.InvMsg:
                    self._announce(nid, what, arg)
                else:
                    self._send(nid, what, arg)
            elif kind == pr.TIMER:
                self._push(arg, Simulation._ev_timeout, (nid, what, arg))
            else:
                self._disconnect(nid, what)

    def _send(self, src: str, dsts: list[str], msg) -> None:
        """Send a GETDATA, BLOCK or tx request from `src` to each of `dsts`, in order; INVs go by `_announce`.

        Each link's `Link` record is decided on its first send and kept in
        the sender's `peers` until a connect or a hijack's activation or lift
        resets it; a diverted frame still passes `PartitionAttacker.tick` and
        an intercepted one `DelayAttacker.transform`, every time.
        """
        buckets, times, links = self._buckets, self._times, self.nodes[src].peers
        partition, delayer = self.partition_attacker, self.delay_attacker
        now = self.now
        for dst in dsts:
            try:
                link = links[dst]
            except KeyError:
                continue  # not a peer
            if link is None:
                link = links[dst] = self._link(src, dst)
            delay, diverted, intercepted = link
            if diverted and not partition.tick(src, dst, msg, now):
                continue
            when = now + delay
            entry = (Simulation._ev_deliver, (src, dst, delayer.transform(src, dst, msg, now) if intercepted else msg))
            if (bucket := buckets.get(when)) is None:  # `_push`, inline: most sends under a delay attack come here
                buckets[when] = [entry]
                heapq.heappush(times, when)
            else:
                bucket.append(entry)

    def _announce(self, src: str, dsts: list[str], msg: pr.InvMsg) -> None:
        """Send the INV `msg` from `src` to each of `dsts`, in order; the one send that fans out.

        Links and `PartitionAttacker.tick` are as in `_send`, but no INV is
        shown to `DelayAttacker.transform`, which returns every INV as is and
        counts nothing (`test_transform_returns_any_inv_untouched`).  Only the
        arrival time is queued for a destination that already holds every
        announced block; the rest share one `_ev_announce` entry per time.
        """
        nodes, buckets, times = self.nodes, self._buckets, self._times
        links, partition, now = nodes[src].peers, self.partition_attacker, self.now
        groups = {}  # arrival time -> the destinations of this send's entry at that time
        for dst in dsts:
            try:
                link = links[dst]
            except KeyError:
                continue  # not a peer
            if link is None:
                link = links[dst] = self._link(src, dst)
            delay, diverted, _ = link
            if diverted and not partition.tick(src, dst, msg, now):
                continue
            when = now + delay
            held = nodes[dst].chain.arrival
            for _, h in msg.items:
                if h not in held:
                    break
            else:  # on_inv skips a held hash and blocks are never lost: only the clock would move
                if when not in buckets:
                    buckets[when] = []
                    heapq.heappush(times, when)
                continue
            if (group := groups.get(when)) is not None:
                group.append(dst)
                continue
            entry = (Simulation._ev_announce, (src, groups.setdefault(when, [dst]), msg))
            if (bucket := buckets.get(when)) is None:
                buckets[when] = [entry]
                heapq.heappush(times, when)
            else:
                bucket.append(entry)

    def _ev_deliver(self, src: str, dst: str, msg) -> None:
        """Deliver one GETDATA or BLOCK; INVs arrive by `_ev_announce`."""
        node = self.nodes[dst]
        if src not in node.peers:
            return  # the connection died while the frame was in flight
        if type(msg) is pr.GetDataMsg:
            acts = node.on_getdata(src, msg, self.now)
        else:
            acts = node.on_block(src, msg, self.now)
        if acts:
            self._execute(dst, acts)

    def _ev_announce(self, src: str, dsts: list[str], msg: pr.InvMsg) -> None:
        """Hand the INV to `on_inv` at each of `dsts` in turn, unless the connection closed or every block is held."""
        nodes, now = self.nodes, self.now
        for dst in dsts:
            node = nodes[dst]
            if src in node.peers:
                held = node.chain.arrival
                for _, h in msg.items:
                    if h not in held:
                        if acts := node.on_inv(src, msg, now):
                            self._execute(dst, acts)
                        break

    def _ev_timeout(self, nid: str, block_hash: bytes, deadline: float) -> None:
        self._execute(nid, self.nodes[nid].on_timeout(block_hash, deadline, self.now))

    def _pick_miner(self) -> tuple[str, list[str]]:
        r = self.rng_mine.random()
        acc = 0.0
        for pool in self._pools_sorted:
            acc += pool.hash_share
            if r < acc:
                return pool.pool_id, sorted(pool.gateways)
        if self._regular:
            return (nid := self.rng_mine.choice(self._regular)), [nid]
        pool = self._pools_sorted[-1]
        return pool.pool_id, sorted(pool.gateways)

    def _ev_mine(self) -> None:
        miner, inserted = self._pick_miner()
        parent = self.nodes[inserted[0]].chain.tip
        block = pr.make_block(parent, miner, len(self.mined), self.now)
        self.mined.append(block)
        if self._coverage is not None:
            self.partition_attacker.register_block(block.hash, set(inserted))
        for nid in inserted:
            self._execute(nid, self.nodes[nid].accept_block(block, self.now))
        if len(self.mined) < self.params.blocks:
            self._push(self.now + self.rng_mine.expovariate(1.0 / self.params.block_interval_mean),
                       Simulation._ev_mine, ())
        elif self.horizon is None:
            self.horizon = self.now + self.params.drain_time

    def _ev_txreq(self, nid: str) -> None:
        node = self.nodes[nid]
        rng = self._tx_rng[nid]
        peers = sorted(node.peers)
        if peers:
            fake_tx = rng.randbytes(32)
            self._send(nid, [rng.choice(peers)], pr.GetDataMsg([(wire.INV_TX, fake_tx)]))
        else:
            rng.randbytes(32)  # keep the stream aligned whether or not we sent
        # tx_getdata_rate is per connection; the node-level process is the
        # superposition over however many peers it has right now
        rate = self.params.tx_getdata_rate * max(len(peers), 1)
        self._push(self.now + rng.expovariate(rate), Simulation._ev_txreq, (nid,))

    def _ev_churn(self, nid: str) -> None:
        node = self.nodes[nid]
        for peer in sorted(node.peers):
            self._disconnect(nid, peer, refill_a=False)  # the rebooted node redials below
        node.pending.clear()
        node.advertisers.clear()
        self._join_fabric(nid)
        for _ in range(self.params.outgoing_target):
            if not self._dial(nid):
                break
        self._push(self.now + self._churn_rng[nid].expovariate(1.0 / self._lifetime[nid]),
                   Simulation._ev_churn, (nid,))

    # ---- main loop ----

    def _schedule_initial(self) -> None:
        if self.params.blocks > 0:
            self._push(self.rng_mine.expovariate(1.0 / self.params.block_interval_mean),
                       Simulation._ev_mine, ())
        if self._tx_on:
            for nid in self._node_order:
                self._push(self._tx_rng[nid].expovariate(self.params.tx_getdata_rate),
                           Simulation._ev_txreq, (nid,))
        if self._churn_on:
            table = self.params.churn.get("lifetime_table") or [[1.0, 86_400.0]]
            for nid in self._node_order:
                rng = self._churn_rng[nid]
                u, acc = rng.random(), 0.0
                mean = table[-1][1]
                for p, m in table:
                    acc += p
                    if u < acc:
                        mean = m
                        break
                self._lifetime[nid] = float(mean)
                self._push(rng.expovariate(1.0 / mean), Simulation._ev_churn, (nid,))

    def _run_queue(self) -> None:
        """Run events in (time, push order) until the queue empties or passes the horizon."""
        while self._times:
            when = heapq.heappop(self._times)
            bucket = self._buckets.pop(when)
            if when < self.now:
                raise RuntimeError(f"simulated time ran backwards: {bucket[0][0].__name__} at {when} < {self.now}")
            if self.horizon is not None and when > self.horizon:
                break
            self.now = when
            # an event pushed for `now` lands in a fresh bucket that is popped next
            for handler, args in bucket:
                handler(self, *args)

    def run(self) -> "Simulation":
        """Run to the end and return this finished simulation, the run's result.

        The cyclic collector is paused for the run: a run makes no reference
        cycles, so a collection would only rescan live state.  The caller's
        collector state is restored however the run ends.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._install_attack()
            self._setup_connections()
            self._schedule_initial()
            self._run_queue()
            if self.partition_attacker is not None and self.partition_attacker.lifted_at is None:
                tick = self.attack.start + self.params.convergence_delay  # the grid by repeated addition
                while tick + SWEEP_INTERVAL <= self.horizon:
                    tick += SWEEP_INTERVAL
                self.partition_attacker.sweep(max(self.now, tick))
        finally:
            if collecting:
                gc.enable()
        return self


# -- experiment drivers ------------------------------------------------------------


def run_scenario(raw, seed: int, overrides: dict | None = None, end_time: float | None = None) -> Simulation:
    topo = raw if isinstance(raw, tp.Topology) else tp.load_topology(raw)
    return Simulation(topo, seed, overrides, topo.attack, end_time).run()


def thread_cap() -> int | None:
    """The worker cap set by BTCRS_THREADS, or None when it is unset or empty."""
    text = os.environ.get("BTCRS_THREADS")
    if not text:
        return None
    if not text.isdecimal() or int(text) < 1:
        raise ValueError(f"BTCRS_THREADS must be a positive integer, not {text!r}")
    return int(text)


def worker_count(n_tasks: int) -> int:
    return max(1, min(thread_cap() or os.cpu_count() or 1, n_tasks))


def _map_tasks(fn, tasks: list[tuple]) -> list:
    workers = worker_count(len(tasks))
    if workers <= 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))


# -- partition recovery ------------------------------------------------------------

HEAL_WARMUP = 1800.0
HEAL_ATTACK = 3600.0
HEAL_WATCH = 36_000.0
HEAL_SAMPLE_EVERY = 1800.0


@dataclass
class HealResult:
    seed: int
    onpath: float
    baseline: float
    samples: list[tuple[float, float]] = field(default_factory=list)

    @property
    def final_ratio(self) -> float:
        return self.samples[-1][1] / self.baseline if self.baseline else 0.0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "onpath": self.onpath,
            "baseline_cross_fraction": self.baseline,
            "samples": [[t, f] for t, f in self.samples],
            "final_ratio": self.final_ratio,
        }


def run_healing(raw, seed: int, onpath: float = 0.0, overrides: dict | None = None) -> HealResult:
    """Perfect partition, lift, then watch connectivity knit back together.

    While the partition holds, cross-boundary connections are severed and
    cross-boundary dials fail.  After lifting, a seeded `onpath` fraction of
    cross pairs keeps failing, the persistent-drop behaviour of an attacker
    who stays on the routes.  Recovery is driven entirely by churn.
    """
    topo = raw if isinstance(raw, tp.Topology) else tp.load_topology(raw)
    side = set(tp.read_attack(topo.attack, topo).target)
    result = HealResult(seed=seed, onpath=onpath, baseline=0.0)
    end = HEAL_WARMUP + HEAL_ATTACK + HEAL_WATCH + 1.0
    sim = Simulation(topo, seed, overrides, end_time=end)

    verdicts: dict[tuple[str, str], bool] = {}

    def suppressed(a: str, b: str) -> bool:
        pair = (a, b) if a < b else (b, a)
        hit = verdicts.get(pair)
        if hit is None:
            lo, hi = pair
            hit = random.Random(f"{seed}:onpath:{lo}:{hi}").random() < onpath
            verdicts[pair] = hit
        return hit

    def measure_baseline(s: Simulation) -> None:
        result.baseline = s.cross_fraction(side)

    def lift(s: Simulation) -> None:
        if onpath > 0.0:
            s.dial_veto = lambda a, b: ((a in side) != (b in side)) and suppressed(a, b)
        else:
            s.dial_veto = None

    def sample(s: Simulation) -> None:
        result.samples.append((s.now - HEAL_WARMUP - HEAL_ATTACK, s.cross_fraction(side)))

    sim.schedule_control(HEAL_WARMUP - 1.0, measure_baseline)
    sim.schedule_control(HEAL_WARMUP, lambda s: s.isolate(side))
    lift_at = HEAL_WARMUP + HEAL_ATTACK
    sim.schedule_control(lift_at, lift)
    t = lift_at + HEAL_SAMPLE_EVERY
    while t <= lift_at + HEAL_WATCH:
        sim.schedule_control(t, sample)
        t += HEAL_SAMPLE_EVERY
    sim.run()
    return result
