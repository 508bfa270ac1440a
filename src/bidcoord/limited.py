"""Limited-liability solver: master LP over grid profiles, priced by the
weighted-utility optimizer.

The master maximizes expected cumulative utility over a distribution of
grid profiles under p-relaxed participation constraints.  It needs no
transfer variable or budget row: transfers in [0, r_i - (t_i - p)] cover
the agency's payment exactly when that utility is at least sum_i (t_i - p),
which ``extract_solution`` checks on the optimum.
Column generation grows the master from its seed columns, repeatedly
asking the weighted-utility solver for the best positive-reduced-cost
column, with weights read off the master's duals.
Each round adds a grid profile the master does not yet hold, so a phase
ends, with no round cap, once the best profile's reduced cost is at most
``PRICING_TOL`` or the master already holds it (a pricing error if its
reduced cost is above 1e-5).
Round 0 needs no LP.  The master's objective is a mix of profile
utilities, so it never exceeds the plain utility optimum, and when that
optimum's point mass covers every outside option and the agency's
payment it is the master optimum; the duals y = 0, z = its utility
certify it, since the utility query that found it is then the pricing
round.  Otherwise round 0's point-mass test picks the first phase.  A
point mass that covers every outside option makes the objective master
on the seed columns feasible, so it is solved directly.  One that does
not starts a feasibility phase (minimizing an elastic relief mass, priced
the same way) on the seeds before the objective phase, so infeasibility
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
A column is its profile's ``mechanisms.ExpectedOutcome``, computed once:
its ``cumulative`` is the master's objective coefficient, and
``mechanisms.certify`` sums the master optimum's own columns into every
reported number; this module contributes only the canonical transfer fill.
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
from .mechanisms import ExpectedOutcome, certify, expected_outcome, transfer_caps
from .simplex import INFEASIBLE, OPTIMAL, LPResult, Tableau, lp_solve
from .wup import WupTables, WupWeights, expected_tables, solve_wup, unit_weights

#: A column prices in only if its reduced cost exceeds this.
PRICING_TOL = 1e-7


def make_column(instance: AuctionInstance, profile: BidProfile) -> ExpectedOutcome:
    return expected_outcome(instance, profile)


@dataclass(frozen=True)
class DualValues:
    """Master duals: y per participation row (<= 0 at optimality), z for
    the distribution-normalization row."""

    y: tuple[float, ...]
    z: float


@dataclass(frozen=True)
class MasterSolution:
    columns: tuple[ExpectedOutcome, ...]
    gammas: tuple[float, ...]
    duals: DualValues
    objective: float
    #: The relief mass in the elastic (feasibility) master; None in the
    #: objective master, which has no relief variable.
    relief: Optional[float] = None
    #: The master LP's optimal tableau, which ``add_master_column`` extends.
    tableau: Optional[Tableau] = field(default=None, repr=False, compare=False)


def solve_master(
    instance: AuctionInstance,
    columns: Sequence[ExpectedOutcome],
    p: float,
    elastic: bool = False,
) -> Optional[MasterSolution]:
    """Solve the restricted master over the given columns; None if infeasible.

    Variables are one weight per column.  Rows: per colluder
    sum_s gamma_s r_i(s) >= t_i - p;  normalization sum gamma = 1.
    A column's objective coefficient is its ``cumulative`` expected
    utility, the number ``certify`` reports for its profile.  No budget
    row: it would only bound the objective below by sum_i (t_i - p).

    With ``elastic`` the LP instead minimizes the mass of a relief
    pseudo-column (unit revenue for everyone, no payment) that makes the
    system always feasible: zero relief at the optimum means the real
    columns support a feasible master, and residual relief that no
    priced-in column can remove certifies full-master infeasibility.
    """
    n_c = instance.n_colluders
    # the LP's columns: one per profile, then the relief
    variables = [_master_entries(col) for col in columns]
    if elastic:
        # feasibility phase: ignore column values, minimize relief mass
        variables.append([1.0] * (n_c + 1))
        objective = [0.0] * len(columns) + [-1.0]
    else:
        objective = [col.cumulative for col in columns]
    rows = list(zip(*variables))
    senses = [">="] * n_c + ["="]
    rhs = [t - p for t in instance.outside_options] + [1.0]

    return _read_master(columns, lp_solve(objective, rows, senses, rhs), n_c, elastic)


def _master_entries(column: ExpectedOutcome) -> list[float]:
    """A column's entries in the master's rows: its revenue in each
    participation row and 1 in the normalization row."""
    return [*column.revenue, 1.0]


def add_master_column(master: MasterSolution, column: ExpectedOutcome) -> MasterSolution:
    """The master over one more column, warm-started from ``master``'s
    optimal basis rather than solved again from scratch, in ``master``'s
    phase."""
    elastic = master.relief is not None
    result = master.tableau.add_column(
        0.0 if elastic else column.cumulative,
        _master_entries(column),
        index=len(master.columns),
    )
    return _read_master(master.columns + (column,), result, len(column.revenue), elastic)


def _read_master(
    columns: Sequence[ExpectedOutcome], result: LPResult, n_c: int, elastic: bool
) -> Optional[MasterSolution]:
    if result.status == INFEASIBLE:
        return None
    if result.status != OPTIMAL:
        raise ToleranceError(f"master LP ended with status {result.status}")
    n_s = len(columns)
    gammas = tuple(float(v) for v in result.x[:n_s])
    relief = float(result.x[n_s]) if elastic else None
    duals = DualValues(tuple(float(d) for d in result.duals[:n_c]), float(result.duals[n_c]))
    return MasterSolution(
        tuple(columns), gammas, duals, float(result.objective), relief, result.tableau
    )


def pricing(
    duals: DualValues,
    tables: WupTables,
    instance: AuctionInstance,
    elastic: bool = False,
) -> tuple[BidProfile, float]:
    """Find the grid profile with the largest reduced cost.

    Expanding the master's reduced-cost expression gives revenue weights
    1 - y_i, nonnegative at dual-feasible points, and payment weight 1
    (the master has no budget row whose dual would change it), so this
    is exactly a weighted-utility instance over the grid's prebuilt
    ``tables``.  For the ``elastic`` feasibility phase (column value
    coefficients zero) the weights are -y_i and 0 instead.  Noise within
    EQ_TOL below zero is clamped to zero; a genuinely negative weight
    means the duals are not dual-feasible and raises ToleranceError.
    """
    base = 0.0 if elastic else 1.0
    weights = [base - yi for yi in duals.y]
    if min(weights) < -EQ_TOL:
        raise ToleranceError(f"master duals give a negative pricing weight {min(weights)}")
    result = solve_wup(tables, WupWeights(tuple(max(w, 0.0) for w in weights), base), instance)
    return result.profile, result.value - duals.z


def extract_solution(
    instance: AuctionInstance, master: MasterSolution, p: float
) -> AgencySolution:
    """The certified solution of the master optimum.

    Columns below 1e-12 weight are dropped and the rest renormalized;
    ``mechanisms.certify`` sums every reported number from the kept
    columns' outcomes rather than trusting LP arithmetic.
    Transfers are derived canonically from the caps that ``certify``
    computes with ``mechanisms.transfer_caps``: the smallest nonnegative
    amounts, filled in colluder order and each at most its cap, that
    exactly cover the agency's expected payment sum(pbar), the payment
    the solution states.  Caps that cannot cover it make the instance
    infeasible: no mix has more utility.
    """
    kept = [
        (col, g) for col, g in zip(master.columns, master.gammas) if g > 1e-12
    ]
    total = sum(g for _, g in kept)
    if abs(total - 1.0) > 1e-9:
        raise ToleranceError(f"distribution mass {total} drifted beyond 1e-9")

    def fill(caps: list[float], pbar: list[float]) -> list[float]:
        if min(caps) < -EQ_TOL:
            raise ToleranceError("participation constraint violated after recomputation")
        caps = [max(cap, 0.0) for cap in caps]
        need = sum(pbar)
        if sum(caps) < need - EQ_TOL:
            raise InfeasibleError(
                f"transfers of at most {sum(caps)!r} cannot cover the agency payment {need!r}"
            )
        transfers = []
        for cap in caps:
            q = min(cap, max(need, 0.0))
            transfers.append(q)
            need -= q
        return transfers

    return certify(instance, [(col, g / total) for col, g in kept], fill, p)


def solve_ll_cg(
    instance: AuctionInstance,
    grid_levels: Sequence[float],
    p: float,
) -> tuple[AgencySolution, MasterSolution, int]:
    """Column generation: returns (solution, final master, pricing rounds).

    Round 0: the plain utility optimum is the best single profile, and
    the master's objective is a mix of profile utilities, so when the
    optimum's point mass is feasible (every transfer cap r_i - (t_i - p)
    is nonnegative and the caps cover its payment) it is the optimum.
    It is returned with 0 rounds and no LP: at duals y = 0, z = its
    utility the seed query was the pricing round, so the pair is
    primal-dual optimal.  Round 0 leaves to the master LP an optimum of
    zero utility and one within ``PRICING_TOL`` of the zero-level seed,
    where the LP's tie-break picks the reported profile.
    Otherwise it seeds the restricted master with the all-zero-level
    profile and the utility optimum.  A point mass with no negative cap
    makes the objective master on them feasible, so the objective phase
    starts there; otherwise a feasibility phase drives out the relief
    mass (certifying full-master infeasibility, with the residual relief,
    if no column can lower it) and the objective phase starts on all its
    columns.  Each phase alternates pricing with master solves until its
    end rule stops it.  No budget row is needed, since the objective
    phase ends at the full grid's best utility under participation.
    Each phase solves its first master cold; every priced-in column is
    appended to the previous optimal tableau and the LP resumed from its
    basis.  The weighted-utility tables are built once for the grid and
    shared by the seed solve and every pricing round.
    """
    n_c = instance.n_colluders
    tables = expected_tables(instance, grid_levels)
    zero = make_column(instance, make_profile([0.0] * n_c))
    optimum = solve_wup(tables, unit_weights(n_c), instance).profile
    best = zero if optimum == zero.profile else make_column(instance, optimum)
    caps = transfer_caps(instance, best.revenue, p)
    # the master LP's tie-break picks among zero-utility profiles, and
    # between the optimum and a zero seed it ties exactly or in float
    # rounding (bidding 0 can earn as much as outranking an external bid)
    rival = 0.0 if best is zero else zero.cumulative + PRICING_TOL
    participates = min(caps) >= 0.0
    if participates and sum(caps) >= sum(best.payment) and best.cumulative > rival:
        # round 0: the point mass is feasible, and at duals y = 0, z =
        # cumulative the seed query was the pricing round
        master = MasterSolution(
            (best,), (1.0,), DualValues((0.0,) * n_c, best.cumulative), best.cumulative
        )
        return extract_solution(instance, master, p), master, 0
    columns = (zero,) if best is zero else (zero, best)
    seen = {col.profile for col in columns}
    rounds = 0
    for elastic in (False,) if participates else (True, False):
        master = solve_master(instance, columns, p, elastic)
        if master is None:
            # the seeds hold a participating point mass, and after the
            # feasibility phase the columns hold a zero-relief mix
            raise ToleranceError(f"the objective master on {len(columns)} columns is infeasible")
        # the end rule of the module docstring; the feasibility phase
        # also ends once its relief is gone
        while not elastic or master.relief > 1e-9:
            rounds += 1
            profile, reduced = pricing(master.duals, tables, instance, elastic)
            if profile in seen and reduced > 1e-5:
                raise ToleranceError(f"pricing re-proposed a known column with reduced cost {reduced}")
            if reduced <= PRICING_TOL or profile in seen:
                if elastic:
                    raise InfeasibleError(
                        "master infeasible even over the full grid; outside options"
                        f" cannot be covered (residual relief {master.relief!r})"
                    )
                break
            seen.add(profile)
            master = add_master_column(master, make_column(instance, profile))
        columns = master.columns
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
