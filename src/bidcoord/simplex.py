"""Dense two-phase simplex for small linear programs.

Solves  max c'x  s.t.  A x (<=|>=|=) b,  x >= 0,  returning both the
primal solution and one dual value per constraint row.  Bland's rule is
used for entering and leaving variables, so the method cannot cycle and
is deterministic.  Sized for the column-generation master: n_c + 1 rows
and tens of columns at desk scale (737 at n_c = 64).  A pivot is one masked rank-1 update of the
rows with a nonzero pivot-column entry, and the reduced costs and duals
are numpy products ``cost[basis] @ table``; the leaving-row ratio test
runs on Python floats, which divide and compare as numpy's do.

An optimal result carries its final tableau.  ``Tableau.add_column``
appends one more variable and resumes phase 2 from that basis, as column
generation does after each pricing round: the artificial block of the
tableau is B^-1, so the new column's tableau entries are B^-1 a.  This
needs every artificial variable out of the basis after phase 1, which
holds when the rows have full rank, e.g. when every inequality row has a
slack and some column has a nonzero entry on each equality row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import ordered_sum

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7
#: The slack coefficient of a row of each sense; = rows have no slack.
_SLACK_SIGN = {"<=": 1.0, ">=": -1.0, "=": 0.0}


@dataclass
class LPResult:
    status: str
    x: Optional[np.ndarray] = None
    duals: Optional[np.ndarray] = None
    objective: Optional[float] = None
    #: The optimal tableau, for ``Tableau.add_column``.
    tableau: Optional["Tableau"] = field(default=None, repr=False)


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """Make ``col`` basic in ``row``; mutates tableau and basis.

    One rank-1 update over the rows whose ``col`` entry is nonzero; the
    rest, ``-0.0`` entries included, are left untouched.
    """
    tableau[row, :] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    rows = (factors != 0.0)[:, None]
    np.subtract(tableau, np.multiply.outer(factors, tableau[row]), out=tableau, where=rows)
    basis[row] = col


def _bland_iterate(
    tableau: np.ndarray,
    basis: list[int],
    cost: np.ndarray,
    allowed: np.ndarray,
) -> str:
    """Pivot until optimal or unbounded; mutates tableau and basis."""
    cb = cost[basis]
    while True:
        reduced = cost - cb @ tableau[:, :-1]
        candidates = (reduced > _PIVOT_TOL) & allowed
        enter = int(candidates.argmax())
        if not candidates[enter]:
            return OPTIMAL
        rhs = tableau[:, -1].tolist()
        ratios = {
            r: rhs[r] / a for r, a in enumerate(tableau[:, enter].tolist()) if a > _PIVOT_TOL
        }
        if not ratios:
            return UNBOUNDED
        bound = min(ratios.values()) + 1e-12
        # Bland tie-break: smallest basis variable index among minimal ratios.
        leave = min((r for r, q in ratios.items() if q <= bound), key=basis.__getitem__)
        _pivot(tableau, basis, leave, enter)
        cb[leave] = cost[enter]  # cb stays cost[basis]


def _initial_tableau(
    a: np.ndarray, b: np.ndarray, senses: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, int]:
    """The phase-1 tableau [A | slacks | artificials | b], each row's sign
    flip and the first artificial column.

    Rows with a negative right-hand side are negated, which swaps <= and
    >=; each inequality row then gets a slack of sign +1 (<=) or -1 (>=),
    and every row an artificial.
    """
    m, n = a.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    slack = np.array([_SLACK_SIGN[s] for s in senses]) * sign
    slack_rows = np.flatnonzero(slack)
    art0 = n + slack_rows.size
    tableau = np.zeros((m, art0 + m + 1))
    np.multiply(a, sign[:, None], out=tableau[:, :n])
    tableau[slack_rows, n + np.arange(slack_rows.size)] = slack[slack_rows]
    tableau[np.arange(m), art0 + np.arange(m)] = 1.0
    tableau[:, -1] = b * sign
    return tableau, sign, art0


def lp_solve(
    objective: Sequence[float],
    rows: Sequence[Sequence[float]],
    senses: Sequence[str],
    rhs: Sequence[float],
) -> LPResult:
    """Maximize objective'x subject to rows[i] . x  senses[i]  rhs[i], x >= 0.

    Duals follow the maximization convention: >= rows get nonpositive
    duals, <= rows nonnegative, = rows unconstrained, and the dual
    objective duals'rhs equals the primal optimum.
    """
    c = np.asarray(objective, dtype=float)
    a = np.asarray(rows, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != len(senses) or a.shape[0] != b.size:
        raise ValueError("inconsistent LP dimensions")
    m, n = a.shape
    if c.size != n:
        raise ValueError("objective length does not match row width")
    for s in senses:
        if s not in _SLACK_SIGN:
            raise ValueError(f"unknown sense {s!r}")

    tableau, sign, art0 = _initial_tableau(a, b, senses)
    basis = [art0 + i for i in range(m)]
    allowed = np.ones(tableau.shape[1] - 1, dtype=bool)

    phase1 = np.zeros(allowed.size)
    phase1[art0:] = -1.0
    status = _bland_iterate(tableau, basis, phase1, allowed)
    assert status == OPTIMAL  # phase 1 is bounded by construction
    if ordered_sum(tableau[r, -1] for r in range(m) if basis[r] >= art0) > _FEAS_TOL:
        return LPResult(INFEASIBLE)

    # Drive remaining artificials out of the basis where a pivot exists;
    # rows without one are redundant and keep a zero-valued artificial.
    for r in range(m):
        if basis[r] >= art0:
            for j in range(art0):
                if abs(tableau[r, j]) > _PIVOT_TOL:
                    _pivot(tableau, basis, r, j)
                    break

    allowed[art0:] = False
    phase2 = np.zeros(allowed.size)
    phase2[:n] = c
    return Tableau(tableau, basis, phase2, allowed, sign, art0, list(range(n))).solve()


@dataclass(eq=False)
class Tableau:
    """A phase-2 simplex tableau that a column can be appended to.

    ``table`` columns are the structural variables, the slacks, the m
    artificials (starting at ``art0``), then each appended variable, and
    last the right-hand side; rows carry the cold solve's sign flips
    (``sign``).  ``cost`` is the phase-2 cost and ``allowed`` the entering
    candidates of each table column, ``basis`` the basic table column of
    each row, and ``columns`` the table column of each variable, in
    variable order.
    """

    table: np.ndarray
    basis: list[int]
    cost: np.ndarray
    allowed: np.ndarray
    sign: np.ndarray
    art0: int
    columns: list[int]

    def solve(self) -> LPResult:
        """Run phase 2 from the current basis; mutates this tableau."""
        status = _bland_iterate(self.table, self.basis, self.cost, self.allowed)
        if status == UNBOUNDED:
            return LPResult(UNBOUNDED)
        values = np.zeros(self.cost.size)
        values[self.basis] = self.table[:, -1]
        x = values[self.columns]
        # The artificial block started as the identity, so its final columns
        # are B^-1 and duals are c_B B^-1, re-signed for flipped rows.
        binv = self.table[:, self.art0 : self.art0 + len(self.basis)]
        duals = (self.cost[self.basis] @ binv) * self.sign
        return LPResult(OPTIMAL, x, duals, float(self.cost[self.columns] @ x), self)

    def add_column(self, objective: float, column: Sequence[float], index: int) -> LPResult:
        """Re-solve with one more variable, warm-started from this optimum.

        ``column`` holds the new variable's coefficient in each original
        row; the variable is placed before variable ``index`` in the
        result's ``x``.  Its tableau column B^-1 a (rows sign-flipped as
        in the cold solve) is appended as the highest-indexed column, and
        phase 2 resumes with Bland's rule on a copy, so this tableau stays
        as it is.  Requires every artificial to have left the basis in
        phase 1, as it does when the rows have full rank.
        """
        m = len(self.basis)
        assert not any(self.art0 <= j < self.art0 + m for j in self.basis), (
            "an artificial variable is still basic; the rows are not of full rank"
        )
        binv = self.table[:, self.art0 : self.art0 + m]
        entry = binv @ (self.sign * np.asarray(column, dtype=float))
        columns = list(self.columns)
        columns.insert(index, self.cost.size)
        return Tableau(
            np.concatenate((self.table[:, :-1], entry[:, None], self.table[:, -1:]), axis=1),
            list(self.basis),
            np.append(self.cost, float(objective)),
            np.append(self.allowed, True),
            self.sign,
            self.art0,
            columns,
        ).solve()
