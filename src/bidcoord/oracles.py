"""Brute-force reference implementations for desk-scale validation.

Everything here favors obviousness over speed and stays independent of
the production solvers: payments are recomputed from first principles
where payments are the target, profile enumeration is local, and the
linear-programming gold standard runs on scipy rather than the in-repo
simplex.  The recursive interval split, with its event probability, is
the reference for the discretizer's iterative one, and pruning a given
grid gap by gap is the reference for the pruned levels the discretizer
reads off that split.  Ranking every agent with one sort of its own
(level, tie rank) keys, externals at rank 0, and paying every rank,
once per support entry, is the reference for the mechanisms module's
expected outcome and for ``BidProfile.ranking``.  The scalar
per-arc weight, one support entry and one level pair at a time, is the
reference for the optimizer's numpy tables, and the same tables built
one support entry at a time are their bit-for-bit reference.  Those
tables and the exhaustive weighted-utility maximum read only the
instance's external distribution: a fixed external profile is its
one-entry case.  A query's arc weights, every layer at once in one dense
tensor, and the masked-max DP over that tensor are the bit-for-bit
reference for the optimizer's DP, which forms one layer at a time.  A
path's weight, its arcs added one by one from the source, is what the
lemma-map checks compare with the mechanism accounting.  The dense
master, every grid column at once, is the reference for column
generation.  Shared surface is limited to the core types, the
discretizer's grid-profile enumerator, the mechanisms module's
expected-outcome type and function, the optimizer's weight type,
tables, level normalization, graph and colluder order, and the
limited-liability module's column, master LP and solution extraction.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .core import (
    GSP,
    AgencySolution,
    AuctionInstance,
    BidProfile,
    ExternalDistribution,
    InfeasibleError,
    make_profile,
)
from .discretize import iter_grid_profiles
from .limited import MasterSolution, extract_solution, make_column, solve_master
from .mechanisms import ExpectedOutcome, expected_outcome
from .wup import WupGraph, WupTables, WupWeights, _normalize_levels, wup_colluder_order

_EXTERNALITY_CAP = 20
_WUP_CAP = 10**6
_LL_COLUMN_CAP = 10**5


def event_probability(distribution: ExternalDistribution, lower: float, upper: float) -> float:
    """Probability that any external bid lands in (lower, upper]."""
    total = 0.0
    for bids, prob in distribution.support:
        if any(lower < b <= upper for b in bids):
            total += prob
    return total


def recursive_split(
    lower: float, upper: float, p: float, eta: float, distribution: ExternalDistribution
) -> tuple[list[tuple[float, float]], int]:
    """The interval split as the paper defines it: bisect (lower, upper]
    recursively while the external-bid probability exceeds p and the
    width exceeds eta; returns the leaves in order, as (lower, upper)
    pairs, and the call count.  With eta below the spacing of doubles
    near a bid, a midpoint rounds onto an endpoint: a ValueError."""
    if event_probability(distribution, lower, upper) <= p or upper - lower <= eta:
        return [(lower, upper)], 1
    mid = (lower + upper) / 2.0
    if not lower < mid < upper:
        raise ValueError(f"midpoint {mid} of ({lower}, {upper}] is not inside it")
    left, cl = recursive_split(lower, mid, p, eta, distribution)
    right, cr = recursive_split(mid, upper, p, eta, distribution)
    return left + right, cl + cr + 1


def prune_levels(
    levels: Sequence[float], distribution: ExternalDistribution
) -> tuple[float, ...]:
    """Drop the grid levels no optimum needs.

    Keeps level 0 and each level l_k whose gap (l_{k-1}, l_k] holds a
    positive support bid.  A colluder bidding a dropped l_k can move down
    to the highest kept level below it, with tie ranks keeping every
    colluder's order: no external bid lies in the levels it passes and
    colluders win level ties, so it passes no external agent and no
    allocation changes.  Every bid only falls or stays, so every GSP
    price (the next bid below) and every VCG payment (a weighted sum of
    the bids below) falls or stays equal.  Hence for any revenue weights
    y >= 0 and payment weight x >= 0, and for the limited-liability
    master, whose columns keep their revenue and lose payment, the
    optimum over the kept levels equals the optimum over all of them.
    So at most 1 + (number of distinct positive support bids) remain.

    ``levels`` is ascending and starts at 0, as in ``BidGrid``; one
    merge pass over it and the sorted distinct bids decides every level.
    """
    if not levels or levels[0] != 0.0:
        raise ValueError("grid levels must start at 0")
    bids = sorted({b for entry, _ in distribution.support for b in entry if b > 0.0})
    kept = [levels[0]]
    j = 0
    for below, level in itertools.pairwise(levels):
        while j < len(bids) and bids[j] <= below:
            j += 1
        if j < len(bids) and bids[j] <= level:
            kept.append(level)
    return tuple(kept)


#: One entry of a merged ranking: kind is "c" (colluder) or "e" (external),
#: index points into the respective group; externals carry tie rank 0.
RankedAgent = namedtuple("RankedAgent", ["kind", "index", "level", "tie_rank"])


def allocate(profile: BidProfile, external_levels: Sequence[float]) -> list[RankedAgent]:
    """Merge colluder and external bids into a descending ranking.

    The agent at rank k (1-based) occupies slot k while slots last.
    External agents carry tie rank 0, so colluders win level ties; equal
    external bids keep their profile order.
    """
    bids = zip(profile.levels, profile.tie_ranks)
    entries = [RankedAgent("c", i, level, rank) for i, (level, rank) in enumerate(bids)]
    entries += [RankedAgent("e", j, level, 0) for j, level in enumerate(external_levels)]
    entries.sort(key=lambda a: (-a.level, -a.tie_rank))
    return entries


def payments_gsp(ranking: Sequence[RankedAgent], lambdas: Sequence[float]) -> list[float]:
    """Next-bid-level payments: slot k pays lambda_k times the (k+1)-th level."""
    n = len(ranking)
    pays = [0.0] * n
    for k in range(min(n, len(lambdas))):
        nxt = ranking[k + 1].level if k + 1 < n else 0.0
        pays[k] = lambdas[k] * nxt
    return pays


def payments_vcg(ranking: Sequence[RankedAgent], lambdas: Sequence[float]) -> list[float]:
    """Closed-form VCG payments over the merged ranking.

    The agent in slot k pays sum_{j=k+1}^{m+1} b_j (lambda_{j-1} - lambda_j)
    with lambda extended by 0 beyond the last slot and b_j = 0 beyond the
    last agent.
    """
    n = len(ranking)
    m = len(lambdas)
    pays = [0.0] * n

    def lam(j: int) -> float:
        return lambdas[j - 1] if 1 <= j <= m else 0.0

    acc = 0.0
    for k in range(min(n, m), 0, -1):
        nxt = ranking[k].level if k < n else 0.0
        acc += nxt * (lam(k) - lam(k + 1))
        pays[k - 1] = acc
    return pays


def ranking_expected_outcome(instance: AuctionInstance, profile: BidProfile) -> ExpectedOutcome:
    """Reference for ``mechanisms.expected_outcome``: per support entry,
    every agent ranked by one sort of (level, tie rank) keys and every
    rank paid; each slot holder's share added in support order."""
    pay_rule = payments_gsp if instance.mechanism == GSP else payments_vcg
    n_c = instance.n_colluders
    rev = [0.0] * n_c
    pay = [0.0] * n_c
    for levels, prob in instance.external.support:
        ranking = allocate(profile, levels)
        pays = pay_rule(ranking, instance.slots)
        for k, agent in enumerate(ranking[: instance.n_slots]):
            if agent.kind == "c":
                i = agent.index
                rev[i] += prob * (instance.slots[k] * instance.valuations[i])
                pay[i] += prob * pays[k]
    return ExpectedOutcome(tuple(rev), tuple(pay), profile)


def vcg_externality(ranking: Sequence[RankedAgent], lambdas: Sequence[float]) -> list[float]:
    """VCG payments as literal externalities, with bid levels standing in
    for valuations: what the others gain if this agent disappears and
    everyone below shifts up one slot."""
    n = len(ranking)
    if n > _EXTERNALITY_CAP:
        raise ValueError(f"externality oracle capped at {_EXTERNALITY_CAP} agents")
    m = len(lambdas)
    levels = [a.level for a in ranking]

    def welfare_of_others(excluded: int) -> float:
        total = 0.0
        slot = 0
        for k in range(n):
            if k == excluded:
                continue
            if slot < m:
                total += lambdas[slot] * levels[k]
                slot += 1
        return total

    pays = []
    for k in range(n):
        present = sum(lambdas[j] * levels[j] for j in range(min(n, m)) if j != k)
        pays.append(welfare_of_others(k) - present)
    return pays


class _ExternalView:
    """Precomputed rank statistics of one fixed external bid profile."""

    def __init__(self, external_levels: Sequence[float], lambdas: Sequence[float], n_positions: int):
        self.desc = sorted(external_levels, reverse=True)
        self.n_e = len(self.desc)
        m = len(lambdas)

        def lam(j: int) -> float:
            return lambdas[j - 1] if 1 <= j <= m else 0.0

        self.lam = lam
        # prefix[i][h]: for the first h externals, the telescoping payment
        # terms they generate when exactly i colluders sit above them.
        self.prefix = [[0.0] * (self.n_e + 1) for _ in range(n_positions + 1)]
        for i in range(1, n_positions + 1):
            row = self.prefix[i]
            for h in range(1, self.n_e + 1):
                e = self.desc[h - 1]
                row[h] = row[h - 1] + e * (lam(h + i - 1) - lam(h + i))

    def count_above(self, level: float) -> int:
        """Externals strictly above a colluder bidding at this level."""
        c = 0
        for e in self.desc:
            if e > level:
                c += 1
            else:
                break
        return c

    def max_at_or_below(self, level: float) -> float:
        """Largest external level <= level (ties lose to colluders), 0 if none."""
        a = self.count_above(level)
        return self.desc[a] if a < self.n_e else 0.0


def arc_weight(
    i: int,
    level: float,
    next_level: float,
    external_levels: Sequence[float],
    weights: WupWeights,
    instance: AuctionInstance,
) -> float:
    """Scalar reference weight of the arc where the i-th colluder (1-based,
    in the weighted-valuation order) bids `level` and the next bids
    `next_level` (0 for the last colluder's sink arc), against one fixed
    external profile.  Under GSP it is the colluder's slot revenue net of
    its next-bid price; under VCG its revenue plus its slice of the
    agency's total payment."""
    order = wup_colluder_order(instance, weights)
    c = order[i - 1]
    y = weights.revenue_weights[c]
    v = instance.valuations[c]
    x = weights.payment_weight
    lambdas = instance.slots
    view = _ExternalView(external_levels, lambdas, len(order))
    a = view.count_above(level)
    slot = i + a
    lam_slot = lambdas[slot - 1] if slot <= len(lambdas) else 0.0
    if instance.mechanism == GSP:
        price = max(next_level, view.max_at_or_below(level))
        return lam_slot * (y * v - x * price)
    rev = lam_slot * v
    g = 0.0 if i == 1 else (i - 1) * level * (view.lam(slot - 1) - lam_slot)
    # Externals in (next_level, level]: below this colluder, above the next.
    b = view.count_above(next_level)
    ell = i * (view.prefix[i][b] - view.prefix[i][a])
    return y * rev - x * (g + ell)


def entrywise_expected_tables(
    instance: AuctionInstance, grid_levels: Sequence[float]
) -> WupTables:
    """Reference for ``wup.expected_tables``, bit for bit: the same
    tables built one support entry at a time, each entry's share added
    to running sums that start at +0.0."""
    levels = _normalize_levels(grid_levels)
    support = instance.external.support
    lv = np.array(levels)
    d = len(levels)
    n = instance.n_colluders
    n_e = len(support[0][0])
    pos = np.arange(1, n + 1)
    lam = np.zeros(n + n_e + 1)
    lam[1 : instance.n_slots + 1] = instance.slots
    gsp = instance.mechanism == GSP

    revenue = np.zeros((n, d))
    if gsp:
        payment = np.zeros((n - 1, d, d))
        sink_payment = np.zeros(d)
    else:
        g_cur = np.zeros((n, d))
        h_next = np.zeros((n, d))
        h_sink = np.zeros(n)
        h = np.arange(1, n_e + 1)
        steps = lam[h[None, :] + pos[:, None] - 1] - lam[h[None, :] + pos[:, None]]
    for ext, prob in support:
        desc = np.array(ext, dtype=float)
        above = n_e - np.searchsorted(desc[::-1], lv, side="right")
        slot = pos[:, None] + above[None, :]
        lam_slot = lam[slot]
        revenue += prob * lam_slot
        if gsp:
            below = np.append(desc, 0.0)[above]
            price = np.maximum(lv[None, :], below[:, None])
            payment += (prob * lam_slot[:-1])[:, :, None] * price
            sink_payment += prob * lam_slot[-1] * below
        else:
            prefix = np.zeros((n, n_e + 1))
            np.cumsum(desc[None, :] * steps, axis=1, out=prefix[:, 1:])
            prefix *= pos[:, None]
            own = (pos - 1)[:, None] * lv[None, :] * (lam[slot - 1] - lam_slot)
            g_cur += prob * (own - prefix[:, above])
            h_next += prob * prefix[:, above]
            h_sink += prob * prefix[:, int(np.count_nonzero(desc > 0.0))]
    if not gsp:
        payment = g_cur[:-1, :, None] + h_next[:-1, None, :]
        sink_payment = g_cur[-1] + h_sink[-1]
    return WupTables(levels, revenue, payment, sink_payment)


def dense_arcs(graph: WupGraph) -> tuple[np.ndarray, np.ndarray]:
    """Every arc weight of the query at once: ``arcs[pos, j_cur, j_next]``
    where position ``pos`` of ``graph.order`` takes level index ``j_cur``
    and the next position ``j_next`` (-inf below the diagonal, where no
    arc exists), and ``sink[j_cur]``, the last position's arc to the sink."""
    tables, x = graph.tables, graph.payment_weight
    arcs = tables.payment * -x
    arcs += graph.revenue[:-1, :, None]
    np.copyto(arcs, -np.inf, where=tables.below_diagonal)
    sink = graph.revenue[-1] - x * tables.sink_payment
    return arcs, sink


def dense_best_path(graph: WupGraph) -> tuple[float, tuple[int, ...]]:
    """Best path by forward DP over :func:`dense_arcs`, one masked max per
    layer; ties prefer the smaller level index, as in ``wup.solve_graph``."""
    arcs, sink = dense_arcs(graph)
    columns = np.arange(len(graph.levels))
    value = np.zeros(len(graph.levels))
    parents = []
    for layer in arcs:
        cand = value[:, None] + layer
        par = cand.argmax(axis=0)
        value = cand[par, columns]
        parents.append(par)
    total = value + sink
    path = [int(total.argmax())]
    for par in reversed(parents):
        path.append(int(par[path[-1]]))
    return float(total[path[0]]), tuple(reversed(path))


def path_weight(graph: WupGraph, level_indices: Sequence[int]) -> float:
    """Total weight of the source-to-sink path through these level
    indices, one per position of ``graph.order``: its arcs in
    :func:`dense_arcs` added in order from the source, then the sink."""
    n = len(graph.order)
    if len(level_indices) != n:
        raise ValueError("one level index per colluder required")
    arcs, sink = dense_arcs(graph)
    total = 0.0
    for pos in range(n - 1):
        j_cur, j_next = level_indices[pos], level_indices[pos + 1]
        if j_next < j_cur:
            raise ValueError("bid levels must be non-increasing along a path")
        total += float(arcs[pos, j_cur, j_next])
    return total + float(sink[level_indices[-1]])


def _iter_assignments(levels: Sequence[float], n: int, priority: Sequence[int]):
    for assignment in itertools.product(sorted(set(levels)), repeat=n):
        yield make_profile(assignment, priority)


def brute_force_wup(
    grid_levels: Sequence[float], weights: WupWeights, instance: AuctionInstance
) -> tuple[BidProfile, float]:
    """Exhaustive weighted-utility maximum over every level assignment,
    ordered or not; ties at equal levels rank the heavier-weighted
    colluder higher."""
    levels = sorted(set(grid_levels))
    n = instance.n_colluders
    if len(levels) ** n > _WUP_CAP:
        raise ValueError(f"assignment count exceeds {_WUP_CAP}")
    order = wup_colluder_order(instance, weights)
    priority = [0] * n
    for pos, i in enumerate(order):
        priority[i] = pos
    best_profile = None
    best_value = float("-inf")
    y = weights.revenue_weights
    x = weights.payment_weight
    for profile in _iter_assignments(levels, n, priority):
        out = expected_outcome(instance, profile)
        value = sum(
            y[i] * out.revenue[i] - x * out.payment[i] for i in range(n)
        )
        if value > best_value:
            best_value = value
            best_profile = profile
    return best_profile, best_value


def brute_force_arbitrary(instance: AuctionInstance, grid_levels: Sequence[float]) -> float:
    """Best cumulative expected utility over all grid level assignments."""
    weights = WupWeights((1.0,) * instance.n_colluders, 1.0)
    _, value = brute_force_wup(grid_levels, weights, instance)
    return value


def _ll_profiles(levels: Sequence[float], n: int) -> list[BidProfile]:
    """Every master column's profile; ValueError past the column cap."""
    profiles = []
    for profile in iter_grid_profiles(levels, n):
        profiles.append(profile)
        if len(profiles) > _LL_COLUMN_CAP:
            raise ValueError(f"column count exceeds {_LL_COLUMN_CAP}")
    return profiles


def brute_force_ll(
    instance: AuctionInstance, grid_levels: Sequence[float], p: float
) -> tuple[Optional[float], str]:
    """Gold-standard limited-liability value: the full master LP with every
    column materialized, solved by scipy's HiGHS backend.

    Returns (value, status) with status "optimal" or "infeasible".
    """
    n_c = instance.n_colluders
    profiles = _ll_profiles(grid_levels, n_c)
    outs = [expected_outcome(instance, prof) for prof in profiles]
    n_s = len(profiles)

    c = np.zeros(n_s + n_c)
    c[:n_s] = [-o.cumulative for o in outs]
    a_ub = np.zeros((n_c + 1, n_s + n_c))
    b_ub = np.zeros(n_c + 1)
    for i in range(n_c):
        a_ub[i, :n_s] = [-o.revenue[i] for o in outs]
        a_ub[i, n_s + i] = 1.0
        b_ub[i] = -(instance.outside_options[i] - p)
    a_ub[n_c, :n_s] = [sum(o.payment) for o in outs]
    a_ub[n_c, n_s:] = -1.0
    a_eq = np.zeros((1, n_s + n_c))
    a_eq[0, :n_s] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], method="highs")
    if res.status == 2:
        return None, "infeasible"
    if res.status != 0:
        raise RuntimeError(f"linprog failed with status {res.status}: {res.message}")
    return -float(res.fun), "optimal"


def solve_ll_dense(
    instance: AuctionInstance, grid_levels: Sequence[float], p: float
) -> tuple[AgencySolution, MasterSolution]:
    """Limited-liability reference: the in-repo master LP with every grid
    column materialized, so no pricing step can miss a column."""
    profiles = _ll_profiles(grid_levels, instance.n_colluders)
    master = solve_master(instance, [make_column(instance, prof) for prof in profiles], p)
    if master is None:
        raise InfeasibleError(
            "dense master infeasible; no grid profile mix covers every outside option"
        )
    return extract_solution(instance, master, p), master


def best_deterministic_ll(
    instance: AuctionInstance, grid_levels: Sequence[float]
) -> Optional[float]:
    """Best single-profile value meeting the unrelaxed constraints.

    A lone profile is feasible iff every colluder's expected revenue
    covers its outside option and the headroom sums to at least the
    agency's expected payment.  Returns None when no profile qualifies.
    """
    best = None
    for profile in iter_grid_profiles(grid_levels, instance.n_colluders):
        out = expected_outcome(instance, profile)
        headroom = [r - t for r, t in zip(out.revenue, instance.outside_options)]
        if any(h < 0.0 for h in headroom):
            continue
        if sum(headroom) < sum(out.payment):
            continue
        value = out.cumulative
        if best is None or value > best:
            best = value
    return best
