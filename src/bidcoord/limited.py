"""Limited-liability solver: master LP over grid profiles, priced by the
weighted-utility optimizer.

The master maximizes expected cumulative utility over a distribution of
grid profiles together with nonnegative per-colluder transfers, under
p-relaxed participation constraints and the agency's budget constraint.
Column generation grows the master from its seed columns, repeatedly
asking the weighted-utility solver for the best positive-reduced-cost
column, with weights read off the master's duals.
Each round adds a grid profile the master does not yet hold, so a phase
ends, with no round cap, once the best profile's reduced cost is at most
``PRICING_TOL`` or the master already holds it (a pricing error if its
reduced cost is above 1e-5).
The objective master on the seed columns is solved first.  Only if it is
infeasible does a feasibility phase (minimizing an elastic relief mass,
priced the same way) run before the objective phase, so infeasibility
is only ever reported for the full grid, never for an unlucky restricted
master.  Within a phase, only the first master LP is solved from
scratch: each later round appends its column to the last optimal
simplex tableau and resumes from that basis (``add_master_column``).
Column generation runs over exactly the levels ``solve_ll`` is given;
by default those are the grid's dominance-pruned levels
(``discretize.pruned_grid``).  A column on a dropped level is matched by
one on kept levels with equal revenue and no larger payment, so the
master's optimum and feasibility are the full grid's, while the pricing
tables shrink to at most one level more than the distinct support bids.
The master optimum's distribution is certified by ``mechanisms.certify``;
this module contributes only the canonical transfer fill.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .discretize import pruned_grid
from .mechanisms import certify, expected_outcome
from .simplex import INFEASIBLE, OPTIMAL, LPResult, Tableau, lp_solve
from .wup import WupTables, WupWeights, expected_tables, solve_wup, unit_weights

#: A column prices in only if its reduced cost exceeds this.
PRICING_TOL = 1e-7


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
    #: The master LP's optimal tableau, which ``add_master_column`` extends.
    tableau: Optional[Tableau] = field(default=None, repr=False, compare=False)


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

    return _read_master(columns, lp_solve(objective, rows, senses, rhs), n_c, elastic)


def add_master_column(
    master: MasterSolution, column: Column, elastic: bool = False
) -> MasterSolution:
    """The master over one more column, warm-started from ``master``'s
    optimal basis rather than solved again from scratch."""
    result = master.tableau.add_column(
        0.0 if elastic else column.coefficient,
        list(column.revenue) + [-column.total_payment, 1.0],
        index=len(master.columns),
    )
    return _read_master(master.columns + (column,), result, len(master.transfers), elastic)


def _read_master(
    columns: Sequence[Column], result: LPResult, n_c: int, elastic: bool
) -> Optional[MasterSolution]:
    if result.status == INFEASIBLE:
        return None
    if result.status != OPTIMAL:
        raise ToleranceError(f"master LP ended with status {result.status}")
    n_s = len(columns)
    gammas = tuple(float(v) for v in result.x[:n_s])
    transfers = tuple(float(v) for v in result.x[n_s : n_s + n_c])
    relief = float(result.x[n_s + n_c]) if elastic else 0.0
    duals = DualValues(
        tuple(float(d) for d in result.duals[:n_c]),
        float(result.duals[n_c]),
        float(result.duals[n_c + 1]),
    )
    return MasterSolution(
        tuple(columns), gammas, transfers, duals, float(result.objective), relief, result.tableau
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
    """The certified solution of the master optimum.

    Columns below 1e-12 weight are dropped and the rest renormalized;
    ``mechanisms.certify`` computes every reported number from that
    distribution rather than trusting LP arithmetic.
    Transfers are re-derived canonically: the smallest nonnegative
    amounts, filled in colluder order, that exactly cover the agency's
    expected payment (the LP leaves them underdetermined), read off the
    kept columns' cached payments.
    """
    kept = [
        (col, g) for col, g in zip(master.columns, master.gammas) if g > 1e-12
    ]
    total = sum(g for _, g in kept)
    if abs(total - 1.0) > 1e-9:
        raise ToleranceError(f"distribution mass {total} drifted beyond 1e-9")
    kept = [(col, g / total) for col, g in kept]
    pay_total = 0.0
    for col, g in kept:
        pay_total += g * sum(col.payment)

    def fill(rbar: list[float]) -> list[float]:
        caps = []
        for r, c in zip(rbar, instance.colluders):
            cap = r - (c.outside_option - p)
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
        return transfers

    return certify(instance, [(col.profile, g) for col, g in kept], fill, p)


def solve_ll_cg(
    instance: AuctionInstance,
    grid_levels: Sequence[float],
    p: float,
) -> tuple[AgencySolution, MasterSolution, int]:
    """Column generation: returns (solution, final master, pricing rounds).

    Seeds the restricted master with the all-zero-level profile and the
    plain utility optimum, and solves the objective master on them.  If
    that master is infeasible, a feasibility phase drives out the relief
    mass (certifying full-master infeasibility, with the residual relief,
    if no column can lower it) and the objective master is solved again
    on all columns.  The objective phase then alternates pricing with
    master solves until pricing adds no column.
    Each phase solves its first master cold; every priced-in column is
    appended to the previous optimal tableau and the LP resumed from its
    basis.  The weighted-utility tables are built once for the grid and
    shared by the seed solve and every pricing round.
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

    def price_in(master: MasterSolution, elastic: bool) -> Optional[MasterSolution]:
        """One pricing round: the master over the priced-in column, or
        None when the phase ends (the end rule of the module docstring)."""
        nonlocal rounds
        rounds += 1
        profile, reduced = pricing(master.duals, tables, instance, include_objective=not elastic)
        if profile in seen and reduced > 1e-5:
            raise ToleranceError(f"pricing re-proposed a known column with reduced cost {reduced}")
        if reduced <= PRICING_TOL or profile in seen:
            return None
        seen.add(profile)
        columns.append(make_column(instance, profile))
        return add_master_column(master, columns[-1], elastic=elastic)

    master = solve_master(instance, columns, p)
    if master is None:
        master = solve_master(instance, columns, p, elastic=True)
        assert master is not None  # the relief column keeps this feasible
        while master.relief > 1e-9:
            grown = price_in(master, elastic=True)
            if grown is None:
                raise InfeasibleError(
                    "master infeasible even over the full grid; outside options"
                    f" cannot be covered (residual relief {master.relief!r})"
                )
            master = grown
        master = solve_master(instance, columns, p)
        if master is None:
            # cannot happen after the feasibility phase succeeded
            raise ToleranceError("master lost feasibility between phases")

    while (grown := price_in(master, elastic=False)) is not None:
        master = grown
    return extract_solution(instance, master, p), master, rounds


def solve_ll(
    instance: AuctionInstance, epsilon: float, levels: Sequence[float] | None = None
) -> AgencySolution:
    """Solve the limited-liability problem to within eps (p = eps/n_c) by
    column generation over exactly ``levels``.  When they are not given,
    it uses the pruned levels of the grid for that p, whose master has
    the full grid's optimum."""
    p = instance.threshold(epsilon)
    if levels is None:
        levels = pruned_grid(instance, p).levels
    solution, _, _ = solve_ll_cg(instance, levels, p)
    return solution
