"""Bi-criteria approximation scheme for the arbitrary-transfers setting.

A deterministic (single-profile) optimum always exists here, so the
solver discretizes the bid space with probability threshold p = eps/n_c,
maximizes cumulative expected utility over the grid, and charges each
colluder its cap r_i - (t_i - p), its expected revenue less its outside
option relaxed by p.  That meets each p-relaxed participation constraint
with slack exactly 0.0 while losing at most eps of the optimal value
overall.  The optimizer runs over exactly the levels it is given; by
default those are the grid's dominance-pruned levels
(``discretize.pruned_grid``), which keep the grid optimum and number at
most one more than the distinct external support bids, so the work does
not grow with the split's depth.  The solver contributes its profile's
expected outcome and a transfer rule that returns the caps
``mechanisms.certify`` hands it; ``certify`` sums the expected revenues
and payments, the objective and the slacks from that point mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import EQ_TOL, AgencySolution, AuctionInstance, BidProfile, make_profile
from .discretize import iter_grid_profiles, project_to_grid, pruned_grid
from .mechanisms import certify, expected_outcome
from .wup import solve_wup_expected, unit_weights


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
        r - pay >= t - p - EQ_TOL
        for r, pay, t in zip(out.revenue, out.payment, instance.outside_options)
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
    instance: AuctionInstance, epsilon: float, levels: Sequence[float] | None = None
) -> AgencySolution:
    """Solve the arbitrary-transfers problem to within eps.

    Returns a point-mass distribution on the best grid profile.  Each
    transfer is its cap, so every participation slack is exactly 0.0; a
    negative reported IR slack flags that no profile can cover the
    outside options (the feasibility assumption fails), but the solution
    is still returned with its diagnostics.  The optimizer runs over
    exactly ``levels``; when they are not given, it uses the pruned
    levels of the grid for p = eps/n_c, whose optimum is the full grid's.
    """
    p = instance.threshold(epsilon)
    if levels is None:
        levels = pruned_grid(instance, p).levels
    result = solve_wup_expected(levels, unit_weights(instance.n_colluders), instance)
    return certify(
        instance,
        ((expected_outcome(instance, result.profile), 1.0),),
        lambda caps, pbar: caps,
        p,
    )
