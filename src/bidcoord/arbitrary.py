"""Bi-criteria approximation scheme for the arbitrary-transfers setting.

A deterministic (single-profile) optimum always exists here, so the
solver discretizes the bid space with probability threshold p = eps/n_c,
maximizes cumulative expected utility over the grid, and charges each
colluder its expected revenue minus outside option plus p.  That leaves
each participation constraint relaxed by exactly p while losing at most
eps of the optimal value overall.  The optimizer runs over the grid's
dominance-pruned levels (``discretize.prune_levels``): they keep the
grid optimum and number at most one more than the distinct external
support bids, so the work no longer grows with the split's depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import EQ_TOL, AgencySolution, AuctionInstance, BidProfile, make_profile
from .discretize import (
    BidGrid,
    build_grid,
    iter_grid_profiles,
    project_to_grid,
    prune_levels,
)
from .mechanisms import expected_outcome
from .wup import solve_wup_expected, unit_weights


@dataclass(frozen=True)
class ArbitraryParams:
    """Target loss eps in (0, 1] and the derived grid threshold p = eps/n_c."""

    epsilon: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p!r}")

    @classmethod
    def for_instance(cls, instance: AuctionInstance, epsilon: float) -> "ArbitraryParams":
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon!r}")
        return cls(epsilon, epsilon / instance.n_colluders)


@dataclass(frozen=True)
class Assumption1Report:
    """Result of searching the grid for a profile covering every outside option.

    ``witness`` is a profile whose per-colluder utility is at least
    t_i - p for all i, or None if no grid profile is one.
    """

    satisfied: bool
    witness: Optional[BidProfile]
    p: float


def _is_witness(instance: AuctionInstance, profile: BidProfile, p: float) -> bool:
    out = expected_outcome(instance, profile)
    return all(
        r - pay >= c.outside_option - p - EQ_TOL
        for r, pay, c in zip(out.revenue, out.payment, instance.colluders)
    )


def check_assumption1(
    instance: AuctionInstance, grid_levels: Sequence[float], p: float
) -> Assumption1Report:
    """Search the grid for a participation witness.

    The projected truthful profile is tried first; when outside options
    were calibrated from truthful-bidding utilities, the projection
    bounds make it a witness, so the scan usually ends immediately.
    Otherwise every grid profile is scanned, so the work grows as
    d^n_c; the solvers never call this.
    """
    levels = sorted(grid_levels)
    if levels and levels[0] == 0.0:
        truthful = project_to_grid(make_profile(instance.valuations), levels)
        if _is_witness(instance, truthful, p):
            return Assumption1Report(True, truthful, p)
    for profile in iter_grid_profiles(grid_levels, instance.n_colluders):
        if _is_witness(instance, profile, p):
            return Assumption1Report(True, profile, p)
    return Assumption1Report(False, None, p)


def solve_arbitrary(
    instance: AuctionInstance, epsilon: float, grid: BidGrid | None = None
) -> AgencySolution:
    """Solve the arbitrary-transfers problem to within eps.

    Returns a point-mass distribution on the best grid profile.  The
    participation slack is zero by construction; a negative reported IR
    slack flags that no profile can cover the outside options (the
    feasibility assumption fails), but the solution is still returned
    with its diagnostics.  ``grid`` is the grid ``build_grid`` returns
    for p = eps/n_c, built here when not given; the optimizer sees only
    its pruned levels, whose optimum is the full grid's.
    """
    params = ArbitraryParams.for_instance(instance, epsilon)
    if grid is None:
        _, grid = build_grid(instance, params.p)
    levels = prune_levels(grid.levels, instance.external)
    result = solve_wup_expected(levels, unit_weights(instance.n_colluders), instance)
    out = expected_outcome(instance, result.profile)

    transfers = tuple(
        r - c.outside_option + params.p for r, c in zip(out.revenue, instance.colluders)
    )
    ic_slacks = tuple(
        (r - q) - (c.outside_option - params.p)
        for r, q, c in zip(out.revenue, transfers, instance.colluders)
    )
    ir_slack = sum(transfers) - sum(out.payment)
    return AgencySolution(
        distribution=((result.profile, 1.0),),
        transfers=transfers,
        objective=out.cumulative,
        ic_slacks=ic_slacks,
        ir_slack=ir_slack,
        relaxation=params.p,
    )
