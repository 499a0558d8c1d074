"""Partition feasibility, the maximal isolatable subset, and hijack planning.

A node set P can only stay isolated if no stealth connection — same AS, same
pool, or privately peered pools — crosses its boundary, because the attacker
never sees those links.  The largest salvageable subset of a P that fails
this test is unique: peel away every node with a stealth path to the outside
world and what is left cannot leak.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from itertools import combinations

from .topology import Topology, stealth_kind


class PlanningError(ValueError):
    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        self.violations = violations or []


def stealth_violations(topo: Topology, partition: set[str]) -> list[tuple[str, str, str]]:
    """Stealth edges crossing the boundary of `partition`, as (inside, outside, kind)."""
    violations = []
    for a in sorted(partition):
        for b in sorted(topo.stealth_component(a) - partition):
            kind = stealth_kind(topo, a, b)
            if kind is not None:
                violations.append((a, b, kind))
    return violations


def is_feasible(topo: Topology, partition: set[str]) -> tuple[bool, list[tuple[str, str, str]]]:
    for n in partition:
        if n not in topo.nodes:
            raise PlanningError(f"unknown node {n!r} in partition")
    violations = stealth_violations(topo, partition)
    return (len(violations) == 0, violations)


def maximal_isolatable(topo: Topology, partition: set[str]) -> set[str]:
    """The unique largest subset of `partition` with no stealth path outside.

    Any node that can reach a non-partition node through stealth connections
    (in any number of hops, through any intermediaries) would eventually act
    as a leakage point, so it is excluded; everything else can be kept.
    """
    return {n for n in partition if topo.stealth_component(n) <= partition}


# -- hijack planning ------------------------------------------------------------


@dataclass
class PartitionPlan:
    nodes: frozenset[str]
    announcements: list[tuple[str, int]] = field(default_factory=list)
    partial_coverage: list[str] = field(default_factory=list)
    approximate: bool = False
    mining_power: float | None = None
    pools: list[str] = field(default_factory=list)

    @property
    def prefix_count(self) -> int:
        return len(self.announcements)

    def to_dict(self) -> dict:
        return {
            "nodes": sorted(self.nodes),
            "announcements": [f"{b}/{l}" for b, l in self.announcements],
            "prefix_count": self.prefix_count,
            "partial_coverage": sorted(self.partial_coverage),
            "approximate": self.approximate,
            "mining_power": self.mining_power,
            "pools": sorted(self.pools),
        }


EXHAUSTIVE_CANDIDATE_LIMIT = 20


def _sub_prefix_candidates(prefixlen: int, ips: list[int]):
    """Distinct-coverage sub-prefixes of a /prefixlen holding `ips`, down to /24.

    `ips` are the addresses as integers.  Returns (prefix, covered) pairs
    sorted by prefix, where `covered` is the frozenset of `ips` inside it.
    Each covered set keeps its shortest prefix.
    """
    seen: dict[frozenset, tuple[str, int]] = {}
    for length in range(prefixlen + 1, 25):
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        subnets: dict[int, list[int]] = {}
        for ip in ips:
            subnets.setdefault(ip & mask, []).append(ip)
        for net, members in subnets.items():
            # lengths ascend, so a covered set seen before has a shorter prefix
            seen.setdefault(frozenset(members), (str(ipaddress.IPv4Address(net)), length))
    return [(cand, cov) for cov, cand in sorted(seen.items(), key=lambda kv: kv[1])]


def _min_cover(candidates, universe) -> tuple[list, bool]:
    """Exact cover by enumeration when small, greedy otherwise."""
    useful = [(c, cov & universe) for c, cov in candidates if cov & universe]
    if not universe:
        return [], False
    if len(useful) <= EXHAUSTIVE_CANDIDATE_LIMIT:
        for k in range(1, len(useful) + 1):
            best = None
            for combo in combinations(useful, k):
                covered = frozenset().union(*(cov for _, cov in combo))
                if covered >= universe:
                    pick = sorted(c for c, _ in combo)
                    if best is None or pick < best:
                        best = pick
            if best is not None:
                return best, False
        raise PlanningError("candidates cannot cover the target IPs")  # pragma: no cover
    chosen = []
    remaining = set(universe)
    pool = list(useful)
    while remaining:
        pool = [(c, cov & frozenset(remaining)) for c, cov in pool if cov & remaining]
        if not pool:
            raise PlanningError("candidates cannot cover the target IPs")  # pragma: no cover
        c, cov = max(pool, key=lambda e: (len(e[1]), e[0][1] * -1, e[0][0]))
        chosen.append(c)
        remaining -= cov
    return sorted(chosen), True


def min_prefixes_to_isolate(topo: Topology, partition: set[str]) -> PartitionPlan:
    """Fewest hijack announcements that divert all traffic into `partition`.

    Announcements must be strictly more specific than the victims' own
    prefixes (an equal-length one only wins half the Internet) and no longer
    than /24.  Victims already homed in a /24 cannot be fully covered and are
    reported via `partial_coverage`.  The cover is computed independently per
    legitimate prefix, exhaustively up to 20 candidates per prefix and with a
    greedy fallback (flagged `approximate`) beyond.
    """
    if not partition:
        raise PlanningError("empty partition")
    feasible, violations = is_feasible(topo, partition)
    if not feasible:
        raise PlanningError(
            f"partition is not isolatable: {len(violations)} stealth connections cross "
            f"the boundary (first: {violations[0]})",
            violations,
        )
    announcements, partial, approximate = _cover_members(topo, partition)
    return PartitionPlan(
        nodes=frozenset(partition),
        announcements=announcements,
        partial_coverage=partial,
        approximate=approximate,
    )


def _cover_members(topo: Topology, nodes) -> tuple[list[tuple[str, int]], list[str], bool]:
    """Minimal strictly-more-specific announcements covering the nodes' IPs."""
    by_prefix: dict = {}
    for n in sorted(nodes):
        by_prefix.setdefault(topo.nodes[n].home_prefix, []).append(n)
    announcements: list[tuple[str, int]] = []
    partial: list[str] = []
    approximate = False
    for prefix, members in sorted(by_prefix.items(), key=lambda kv: str(kv[0])):
        if prefix.length >= 24:
            partial.extend(members)
            continue
        ips = sorted({int(ipaddress.IPv4Address(topo.nodes[n].ip)) for n in members})
        candidates = _sub_prefix_candidates(prefix.length, ips)
        chosen, approx = _min_cover(candidates, frozenset(ips))
        announcements.extend(chosen)
        approximate = approximate or approx
    return sorted(announcements), sorted(partial), approximate


def cover_nodes(topo: Topology, nodes) -> list[tuple[str, int]]:
    """Announcements fully diverting all traffic toward `nodes`, feasible or not.

    This is what the attacker actually announces when targeting a set whose
    isolatable core it does not know in advance; leakage monitoring trims the
    set at run time.  Nodes homed in a /24 cannot be out-announced and make
    the target impossible to divert completely.
    """
    announcements, partial, _ = _cover_members(topo, nodes)
    if partial:
        raise PlanningError(
            f"cannot fully divert /24-homed nodes: {', '.join(partial)}"
        )
    return announcements


def _pool_units(topo: Topology) -> list[set[str]]:
    """Pools forced together: those whose gateways share a stealth component."""
    units: dict[frozenset[str], set[str]] = {}
    for pool in topo.pools.values():
        units.setdefault(topo.stealth_component(pool.gateways[0]), set()).add(pool.pool_id)
    return sorted(units.values(), key=min)


def enumerate_power_partitions(
    topo: Topology, power_lo: float, power_hi: float
) -> list[PartitionPlan]:
    """All isolatable partitions built from whole pools, filtered by hash power.

    Pools that share a hosting AS (or peer privately) can only be isolated
    together, which is also what makes them cheap targets: one set of
    announcements covers several pools at once.  Results are sorted by how
    many prefixes the hijack needs.
    """
    if len(topo.pools) > 24:
        raise PlanningError(
            f"{len(topo.pools)} pools is beyond the exhaustive enumeration limit (24); "
            "narrow the power range or reduce the pool count"
        )
    units = _pool_units(topo)
    plans: list[PartitionPlan] = []
    if power_lo <= 0 <= power_hi:
        plans.append(PartitionPlan(nodes=frozenset(), mining_power=0.0))
    for r in range(1, len(units) + 1):
        for combo in combinations(units, r):
            pools = sorted(set().union(*combo))
            power = sum(topo.pools[p].hash_share for p in pools)
            if not (power_lo <= power <= power_hi + 1e-12):
                continue
            host_ases = {
                topo.nodes[g].home_as for p in pools for g in topo.pools[p].gateways
            }
            members = {
                n for n, pl in topo.nodes.items() if pl.home_as in host_ases
            }
            plan = min_prefixes_to_isolate(topo, members)
            plan.mining_power = power
            plan.pools = pools
            plans.append(plan)
    plans.sort(key=lambda p: (p.prefix_count, -(p.mining_power or 0), sorted(p.nodes)))
    return plans
