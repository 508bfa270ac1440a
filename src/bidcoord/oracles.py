"""Brute-force reference implementations for desk-scale validation.

Everything here favors obviousness over speed and stays independent of
the production solvers: payments are recomputed from first principles
where payments are the target, profile enumeration is local, and the
linear-programming gold standard runs on scipy rather than the in-repo
simplex.  The recursive interval split is the reference for the
discretizer's iterative one.  The scalar per-arc weight, one support
entry and one level pair at a time, is the reference for the optimizer's
numpy tables, and the dense master, every grid column at once, is the
reference for column generation.  Shared surface is limited to the core
types, the discretizer's interval type and event probability, the
mechanisms module's allocation and expectation helpers, the optimizer's
weight type and colluder order, and the limited-liability module's
column, master LP and solution extraction.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
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
from .discretize import Interval, event_probability
from .limited import MasterSolution, extract_solution, make_column, solve_master
from .mechanisms import RankedAgent, expected_outcome
from .wup import WupWeights, wup_colluder_order

_EXTERNALITY_CAP = 20
_WUP_CAP = 10**6
_LL_COLUMN_CAP = 10**5


def recursive_split(
    lower: float, upper: float, p: float, eta: float, distribution: ExternalDistribution
) -> tuple[list[Interval], int]:
    """The interval split as the paper defines it: bisect (lower, upper]
    recursively while the external-bid probability exceeds p and the
    width exceeds eta; returns the leaves in order and the call count."""
    if event_probability(distribution, lower, upper) <= p or upper - lower <= eta:
        return [Interval(lower, upper)], 1
    mid = (lower + upper) / 2.0
    left, cl = recursive_split(lower, mid, p, eta, distribution)
    right, cr = recursive_split(mid, upper, p, eta, distribution)
    return left + right, cl + cr + 1


def vcg_externality(ranking: Sequence[RankedAgent], lambdas: Sequence[float]) -> list[float]:
    """VCG payments as literal externalities, with bid levels standing in
    for valuations: what the others gain if this agent disappears and
    everyone below shifts up one slot."""
    n = len(ranking)
    if n > _EXTERNALITY_CAP:
        raise ValueError(f"externality oracle capped at {_EXTERNALITY_CAP} agents")
    m = len(lambdas)
    levels = [a.bid.level for a in ranking]

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


def _arc_weight(
    mechanism: str,
    i: int,
    level: float,
    next_level: float,
    view: _ExternalView,
    y: float,
    v: float,
    x: float,
    lambdas: Sequence[float],
) -> float:
    """Weight for the i-th ordered colluder bidding `level` with the next
    colluder at `next_level` (0 for the last colluder's sink arc)."""
    a = view.count_above(level)
    slot = i + a
    m = len(lambdas)
    lam_slot = lambdas[slot - 1] if slot <= m else 0.0
    if mechanism == GSP:
        price = max(next_level, view.max_at_or_below(level))
        return lam_slot * (y * v - x * price)
    rev = lam_slot * v
    g = 0.0 if i == 1 else (i - 1) * level * (view.lam(slot - 1) - lam_slot)
    # Externals in (next_level, level]: below this colluder, above the next.
    b = view.count_above(next_level)
    ell = i * (view.prefix[i][b] - view.prefix[i][a])
    return y * rev - x * (g + ell)


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
    `next_level`, against one fixed external profile.  Under GSP it is the
    colluder's slot revenue net of its next-bid price; under VCG its
    revenue plus its slice of the agency's total payment."""
    order = wup_colluder_order(instance, weights)
    c = order[i - 1]
    view = _ExternalView(external_levels, instance.slots, len(order))
    return _arc_weight(
        instance.mechanism,
        i,
        level,
        next_level,
        view,
        weights.revenue_weights[c],
        instance.colluders[c].valuation,
        weights.payment_weight,
        instance.slots,
    )


def _weighted_order(instance: AuctionInstance, weights: WupWeights) -> list[int]:
    n = instance.n_colluders
    return sorted(
        range(n),
        key=lambda i: (-weights.revenue_weights[i] * instance.colluders[i].valuation, i),
    )


def _iter_assignments(levels: Sequence[float], n: int, priority: Sequence[int]):
    for assignment in itertools.product(sorted(set(levels)), repeat=n):
        yield make_profile(assignment, priority)


def _fixed_external(instance: AuctionInstance, external_levels: Sequence[float]) -> AuctionInstance:
    point_mass = ExternalDistribution(((tuple(sorted(external_levels, reverse=True)), 1.0),))
    return replace(instance, external=point_mass)


def brute_force_wup(
    grid_levels: Sequence[float],
    weights: WupWeights,
    instance: AuctionInstance,
    external_levels: Optional[Sequence[float]] = None,
) -> tuple[BidProfile, float]:
    """Exhaustive weighted-utility maximum over every level assignment,
    ordered or not; ties at equal levels rank the heavier-weighted
    colluder higher."""
    levels = sorted(set(grid_levels))
    n = instance.n_colluders
    if len(levels) ** n > _WUP_CAP:
        raise ValueError(f"assignment count exceeds {_WUP_CAP}")
    if external_levels is not None:
        instance = _fixed_external(instance, external_levels)
    order = _weighted_order(instance, weights)
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


def _iter_columns(levels: Sequence[float], n: int):
    """Level assignments crossed with every tie ordering of equal levels."""
    for assignment in itertools.product(sorted(set(levels)), repeat=n):
        groups: dict[float, list[int]] = {}
        for i in range(n):
            groups.setdefault(assignment[i], []).append(i)
        tied = [g for g in groups.values() if len(g) > 1]
        if not tied:
            yield make_profile(assignment)
            continue
        for combo in itertools.product(*(itertools.permutations(g) for g in tied)):
            priority = list(range(n))
            for perm in combo:
                for pos, i in enumerate(perm):
                    priority[i] = pos
            yield make_profile(assignment, priority)


def _ll_profiles(levels: Sequence[float], n: int) -> list[BidProfile]:
    """Every master column's profile; ValueError past the column cap."""
    profiles = []
    for profile in _iter_columns(levels, n):
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
        b_ub[i] = -(instance.colluders[i].outside_option - p)
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
    for profile in _iter_columns(grid_levels, instance.n_colluders):
        out = expected_outcome(instance, profile)
        headroom = [
            r - c.outside_option for r, c in zip(out.revenue, instance.colluders)
        ]
        if any(h < 0.0 for h in headroom):
            continue
        if sum(headroom) < sum(out.payment):
            continue
        value = out.cumulative
        if best is None or value > best:
            best = value
    return best
