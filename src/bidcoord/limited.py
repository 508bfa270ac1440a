"""Limited-liability solver: master LP over grid profiles, priced by the
weighted-utility optimizer.

The master maximizes expected cumulative utility over a distribution of
grid profiles together with nonnegative per-colluder transfers, under
p-relaxed participation constraints and the agency's budget constraint.
Column generation grows the master from its seed columns, repeatedly
asking the weighted-utility solver for the best positive-reduced-cost
column, with weights read off the master's duals.
A feasibility phase (minimizing an elastic relief mass, priced the same
way) precedes the objective phase, so infeasibility is only ever
reported for the full grid, never for an unlucky restricted master.
``solve_ll`` hands column generation the grid's dominance-pruned levels
(``discretize.prune_levels``): a column on a dropped level is matched by
one on kept levels with equal revenue and no larger payment, so the
master's optimum and feasibility are the full grid's, while the pricing
tables shrink to at most one level more than the distinct support bids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    EQ_TOL,
    AgencySolution,
    AuctionInstance,
    BidProfile,
    InfeasibleError,
    ToleranceError,
    make_profile,
)
from .discretize import BidGrid, build_grid, prune_levels
from .mechanisms import expected_outcome
from .simplex import INFEASIBLE, OPTIMAL, LPResult, lp_solve
from .wup import WupTables, WupWeights, expected_tables, solve_wup, unit_weights

#: A column prices in only if its reduced cost exceeds this.
PRICING_TOL = 1e-7
#: Column-generation round limit.
MAX_ROUNDS = 200


@dataclass(frozen=True)
class Column:
    """A candidate bid profile with cached expected revenue and payment."""

    profile: BidProfile
    revenue: tuple[float, ...]
    payment: tuple[float, ...]

    @property
    def coefficient(self) -> float:
        """Objective contribution: cumulative expected utility."""
        return sum(self.revenue) - sum(self.payment)

    @property
    def total_payment(self) -> float:
        return sum(self.payment)


def make_column(instance: AuctionInstance, profile: BidProfile) -> Column:
    out = expected_outcome(instance, profile)
    return Column(profile, out.revenue, out.payment)


@dataclass(frozen=True)
class DualValues:
    """Master duals: y per participation row (<= 0 at optimality), x for
    the budget row, z for the distribution-normalization row."""

    y: tuple[float, ...]
    x: float
    z: float


@dataclass(frozen=True)
class MasterSolution:
    columns: tuple[Column, ...]
    gammas: tuple[float, ...]
    transfers: tuple[float, ...]
    duals: DualValues
    objective: float
    relief: float = 0.0


def solve_master(
    instance: AuctionInstance,
    columns: Sequence[Column],
    p: float,
    elastic: bool = False,
) -> Optional[MasterSolution]:
    """Solve the restricted master over the given columns; None if infeasible.

    Variables are one weight per column plus one transfer per colluder.
    Rows: per colluder  sum_s gamma_s r_i(s) - q_i >= t_i - p;  budget
    sum_i q_i >= sum_s gamma_s sum_i pi_i(s);  normalization sum gamma = 1.

    With ``elastic`` the LP instead minimizes the mass of a relief
    pseudo-column (unit revenue for everyone, no payment) that makes the
    system always feasible: zero relief at the optimum means the real
    columns support a feasible master, and residual relief that no
    priced-in column can remove certifies full-master infeasibility.
    """
    n_c = instance.n_colluders
    n_s = len(columns)
    if elastic:
        # feasibility phase: ignore column values, minimize relief mass
        objective = [0.0] * (n_s + n_c) + [-1.0]
    else:
        objective = [col.coefficient for col in columns] + [0.0] * n_c

    rows = []
    senses = []
    rhs = []
    for i in range(n_c):
        row = [col.revenue[i] for col in columns]
        row += [-1.0 if j == i else 0.0 for j in range(n_c)]
        if elastic:
            row.append(1.0)
        rows.append(row)
        senses.append(">=")
        rhs.append(instance.colluders[i].outside_option - p)
    row = [-col.total_payment for col in columns] + [1.0] * n_c
    if elastic:
        row.append(0.0)
    rows.append(row)
    senses.append(">=")
    rhs.append(0.0)
    row = [1.0] * n_s + [0.0] * n_c
    if elastic:
        row.append(1.0)
    rows.append(row)
    senses.append("=")
    rhs.append(1.0)

    result: LPResult = lp_solve(objective, rows, senses, rhs)
    if result.status == INFEASIBLE:
        return None
    if result.status != OPTIMAL:
        raise ToleranceError(f"master LP ended with status {result.status}")
    gammas = tuple(float(v) for v in result.x[:n_s])
    transfers = tuple(float(v) for v in result.x[n_s : n_s + n_c])
    relief = float(result.x[n_s + n_c]) if elastic else 0.0
    duals = DualValues(
        tuple(float(d) for d in result.duals[:n_c]),
        float(result.duals[n_c]),
        float(result.duals[n_c + 1]),
    )
    return MasterSolution(
        tuple(columns), gammas, transfers, duals, float(result.objective), relief
    )


def pricing(
    duals: DualValues,
    tables: WupTables,
    instance: AuctionInstance,
    include_objective: bool = True,
) -> tuple[BidProfile, float]:
    """Find the grid profile with the largest reduced cost.

    Expanding the master's reduced-cost expression gives revenue weights
    1 - y_i and payment weight 1 - x, both nonnegative at dual-feasible
    points, so this is exactly a weighted-utility instance over the
    grid's prebuilt ``tables``.  For the feasibility phase (column value
    coefficients zero) the weights are -y_i and -x instead, nonnegative
    for the same reason.  Noise within EQ_TOL below zero is clamped to
    zero; a genuinely negative payment weight means the duals are not
    dual-feasible and raises ToleranceError.
    """
    base = 1.0 if include_objective else 0.0
    y_hat = tuple(max(base - yi, 0.0) for yi in duals.y)
    x_hat = base - duals.x
    if -EQ_TOL <= x_hat < 0.0:
        x_hat = 0.0
    if x_hat < 0.0:
        raise ToleranceError(f"master duals give a negative payment weight {x_hat}")
    result = solve_wup(tables, WupWeights(y_hat, x_hat), instance)
    return result.profile, result.value - duals.z


def extract_solution(
    instance: AuctionInstance, master: MasterSolution, p: float
) -> AgencySolution:
    """Rebuild a certified solution from the master optimum.

    Columns below 1e-12 weight are dropped and the rest renormalized;
    revenues, payments, the objective and all slacks are recomputed from
    the mechanisms module rather than trusted from LP arithmetic.
    Transfers are re-derived canonically: the smallest nonnegative
    amounts, filled in colluder order, that exactly cover the agency's
    expected payment (the LP leaves them underdetermined).
    """
    kept = [
        (col, g) for col, g in zip(master.columns, master.gammas) if g > 1e-12
    ]
    total = sum(g for _, g in kept)
    if abs(total - 1.0) > 1e-9:
        raise ToleranceError(f"distribution mass {total} drifted beyond 1e-9")
    kept = [(col, g / total) for col, g in kept]

    n_c = instance.n_colluders
    rbar = [0.0] * n_c
    pay_total = 0.0
    objective = 0.0
    for col, g in kept:
        out = expected_outcome(instance, col.profile)
        for i in range(n_c):
            rbar[i] += g * out.revenue[i]
        pay_total += g * sum(out.payment)
        objective += g * out.cumulative

    caps = []
    for i in range(n_c):
        cap = rbar[i] - (instance.colluders[i].outside_option - p)
        if cap < -EQ_TOL:
            raise ToleranceError("participation constraint violated after recomputation")
        caps.append(max(cap, 0.0))
    if sum(caps) < pay_total - EQ_TOL:
        raise ToleranceError("transfers cannot cover the agency payment")
    transfers = []
    need = pay_total
    for cap in caps:
        q = min(cap, max(need, 0.0))
        transfers.append(q)
        need -= q

    ic_slacks = tuple(
        rbar[i] - transfers[i] - (instance.colluders[i].outside_option - p)
        for i in range(n_c)
    )
    ir_slack = sum(transfers) - pay_total
    return AgencySolution(
        distribution=tuple((col.profile, g) for col, g in kept),
        transfers=tuple(transfers),
        objective=objective,
        ic_slacks=ic_slacks,
        ir_slack=ir_slack,
        relaxation=p,
    )


def solve_ll_cg(
    instance: AuctionInstance,
    grid_levels: Sequence[float],
    p: float,
    max_rounds: int = MAX_ROUNDS,
    tol: float = PRICING_TOL,
) -> tuple[AgencySolution, MasterSolution, int]:
    """Column generation: returns (solution, final master, pricing rounds).

    Seeds the restricted master with the all-zero-level profile and the
    plain utility optimum.  A feasibility phase first drives out the
    relief mass (certifying full-master infeasibility, with the residual
    relief, if no column can lower it), then the objective phase
    alternates master solves with weighted-utility pricing until no
    column's reduced cost exceeds the tolerance.  The weighted-utility
    tables are built once for the grid and shared by the seed solve and
    every pricing round.
    """
    n_c = instance.n_colluders
    tables = expected_tables(instance, grid_levels)
    seeds = [make_profile([0.0] * n_c)]
    seeds.append(solve_wup(tables, unit_weights(n_c), instance).profile)
    columns: list[Column] = []
    seen: set[BidProfile] = set()
    for profile in seeds:
        if profile not in seen:
            seen.add(profile)
            columns.append(make_column(instance, profile))

    rounds = 0
    while True:
        master = solve_master(instance, columns, p, elastic=True)
        assert master is not None  # the relief column keeps this feasible
        if master.relief <= 1e-9:
            break
        if rounds >= max_rounds:
            raise ToleranceError(f"column generation exceeded {max_rounds} rounds")
        rounds += 1
        profile, reduced = pricing(master.duals, tables, instance, include_objective=False)
        if reduced <= tol or profile in seen:
            raise InfeasibleError(
                "master infeasible even over the full grid; outside options"
                f" cannot be covered (residual relief {master.relief!r})"
            )
        seen.add(profile)
        columns.append(make_column(instance, profile))

    while True:
        master = solve_master(instance, columns, p)
        if master is None:
            # cannot happen after the feasibility phase succeeded
            raise ToleranceError("master lost feasibility between phases")
        if rounds >= max_rounds:
            raise ToleranceError(f"column generation exceeded {max_rounds} rounds")
        rounds += 1
        profile, reduced = pricing(master.duals, tables, instance)
        if reduced <= tol or profile in seen:
            if reduced > 1e-5:
                raise ToleranceError(
                    f"pricing re-proposed a known column with reduced cost {reduced}"
                )
            return extract_solution(instance, master, p), master, rounds
        seen.add(profile)
        columns.append(make_column(instance, profile))


def solve_ll(
    instance: AuctionInstance, epsilon: float, grid: BidGrid | None = None
) -> AgencySolution:
    """Solve the limited-liability problem to within eps (p = eps/n_c) by
    column generation over the grid's pruned levels, whose master has the
    full grid's optimum.  ``grid`` is the grid ``build_grid`` returns for
    that p, built here when not given."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon!r}")
    p = epsilon / instance.n_colluders
    if grid is None:
        _, grid = build_grid(instance, p)
    levels = prune_levels(grid.levels, instance.external)
    solution, _, _ = solve_ll_cg(instance, levels, p)
    return solution
