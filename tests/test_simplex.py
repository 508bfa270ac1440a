import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from bidcoord.core import ordered_sum
from bidcoord.simplex import (
    _PIVOT_TOL,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    _initial_tableau,
    _pivot,
    lp_solve,
)


class TestBasics:
    def test_one_dimensional(self):
        res = lp_solve([1.0], [[1.0]], ["<="], [1.0])
        assert res.status == OPTIMAL
        assert abs(res.x[0] - 1.0) < 1e-12
        assert abs(res.duals[0] - 1.0) < 1e-12
        assert abs(res.objective - 1.0) < 1e-12

    def test_degenerate_redundant_constraints(self):
        # duplicated and implied rows; Bland's rule must still terminate
        res = lp_solve(
            [1.0, 1.0],
            [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 0.0]],
            ["<=", "<=", "<=", "<="],
            [1.0, 1.0, 2.0, 1.0],
        )
        assert res.status == OPTIMAL
        assert abs(res.objective - 1.0) < 1e-9

    def test_infeasible(self):
        res = lp_solve([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0])
        assert res.status == INFEASIBLE

    def test_unbounded(self):
        res = lp_solve([1.0], [[-1.0]], ["<="], [1.0])
        assert res.status == UNBOUNDED

    def test_equality_row(self):
        res = lp_solve([0.0, 1.0], [[1.0, 1.0]], ["="], [1.0])
        assert res.status == OPTIMAL
        assert abs(res.objective - 1.0) < 1e-12
        assert abs(res.x[1] - 1.0) < 1e-12

    def test_negative_rhs_row(self):
        # x >= 0, -x >= -0.5  ->  x <= 0.5
        res = lp_solve([1.0], [[-1.0]], [">="], [-0.5])
        assert res.status == OPTIMAL
        assert abs(res.objective - 0.5) < 1e-12


def random_lp(rng):
    """(c, a, senses, b): up to 5 rows and 7 columns of milli-step entries."""
    m = rng.randint(1, 5)
    n = rng.randint(1, 7)
    a = [[round(rng.uniform(-2, 2), 3) for _ in range(n)] for _ in range(m)]
    b = [round(rng.uniform(-1, 2), 3) for _ in range(m)]
    c = [round(rng.uniform(-1, 1), 3) for _ in range(n)]
    senses = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
    return c, a, senses, b


class TestAgainstScipy:
    def test_random_lps(self):
        rng = random.Random(31)
        optimal_seen = 0
        for _ in range(250):
            c, a, senses, b = random_lp(rng)
            res = lp_solve(c, a, senses, b)

            aub, bub, aeq, beq = [], [], [], []
            for row, s, rhs in zip(a, senses, b):
                if s == "<=":
                    aub.append(row)
                    bub.append(rhs)
                elif s == ">=":
                    aub.append([-v for v in row])
                    bub.append(-rhs)
                else:
                    aeq.append(row)
                    beq.append(rhs)
            sp = linprog(
                [-v for v in c],
                A_ub=aub or None,
                b_ub=bub or None,
                A_eq=aeq or None,
                b_eq=beq or None,
                method="highs",
            )
            if res.status == OPTIMAL:
                assert sp.status == 0
                assert abs(res.objective - (-sp.fun)) < 1e-7
                optimal_seen += 1
            elif res.status == INFEASIBLE:
                # scipy agrees the feasible region is empty
                assert sp.status == 2
            else:
                # HiGHS may label unbounded problems infeasible after
                # presolve; a feasibility-only solve disambiguates.
                feas = linprog(
                    [0.0] * len(c),
                    A_ub=aub or None,
                    b_ub=bub or None,
                    A_eq=aeq or None,
                    b_eq=beq or None,
                    method="highs",
                )
                assert feas.status == 0
                assert sp.status in (2, 3, 4)
        assert optimal_seen >= 30

    def test_dual_certificates(self):
        rng = random.Random(37)
        verified = 0
        while verified < 40:
            m = rng.randint(1, 4)
            n = rng.randint(1, 6)
            a = [[round(rng.uniform(-1, 2), 3) for _ in range(n)] for _ in range(m)]
            b = [round(rng.uniform(0, 2), 3) for _ in range(m)]
            c = [round(rng.uniform(-1, 1), 3) for _ in range(n)]
            senses = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
            res = lp_solve(c, a, senses, b)
            if res.status != OPTIMAL:
                continue
            verified += 1
            y = res.duals
            amat = np.array(a)
            # strong duality
            assert abs(float(y @ np.array(b)) - res.objective) < 1e-7
            # dual feasibility: reduced costs nonpositive for a max problem
            reduced = np.array(c) - y @ amat
            assert (reduced <= 1e-7).all()
            # sign pattern and complementary slackness
            for i, s in enumerate(senses):
                slack = b[i] - float(amat[i] @ res.x)
                if s == "<=":
                    assert y[i] >= -1e-7
                if s == ">=":
                    assert y[i] <= 1e-7
                if s != "=":
                    assert abs(y[i] * slack) < 1e-6
            # primal complementary slackness
            for j in range(n):
                assert abs(res.x[j] * reduced[j]) < 1e-6


# Few distinct values, so columns tie, repeat and make degenerate vertices.
# Cent steps keep every coefficient far above the pivot tolerance, where
# the cold solve is an exact enough reference for a 1e-12 comparison.
_COEF = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(0, 100).map(lambda c: c / 100)
)


@st.composite
def master_lps(draw):
    """A master-shaped LP and the columns later appended to it.

    Variables are one weight per column, in the ``budget`` layout one
    transfer per participation row, and in the elastic form a relief
    variable.  Rows: participation ``r . gamma - q_i + relief >= rhs_i``
    (rhs often negative), in the ``budget`` layout a budget row
    ``q . 1 - pay . gamma >= 0``, and normalization ``gamma . 1 + relief
    = 1``.  Without the ``budget`` layout there is no q, as in
    ``limited.solve_master``.  A column is (revenues, payment); it may be
    all zero or repeat an earlier one.
    """
    n_c = draw(st.integers(1, 3))
    elastic = draw(st.booleans())
    budget = draw(st.booleans())
    rhs = draw(
        st.lists(
            st.one_of(
                st.sampled_from([-1.0, -0.5, 0.0]),
                st.integers(-100, 50).map(lambda c: c / 100),
            ),
            min_size=n_c,
            max_size=n_c,
        )
    )
    columns = []
    for _ in range(draw(st.integers(3, 9))):
        kind = draw(st.sampled_from(["new", "new", "zero", "repeat"]))
        if kind == "zero":
            columns.append(((0.0,) * n_c, 0.0))
        elif kind == "repeat" and columns:
            columns.append(draw(st.sampled_from(columns)))
        else:
            revenue = tuple(draw(_COEF) for _ in range(n_c))
            columns.append((revenue, draw(_COEF)))
    n_seed = draw(st.integers(1, 2))
    return n_c, elastic, budget, rhs, columns, n_seed


def master_lp(n_c, elastic, budget, rhs, columns):
    """(objective, rows, senses, rhs) with variables [gammas | q? | relief?]."""
    n_q = n_c if budget else 0
    if elastic:
        objective = [0.0] * (len(columns) + n_q) + [-1.0]
    else:
        objective = [sum(r) - pay for r, pay in columns] + [0.0] * n_q
    tail = [1.0] if elastic else []
    rows = [
        [r[i] for r, _ in columns] + [-1.0 if j == i else 0.0 for j in range(n_q)] + tail
        for i in range(n_c)
    ]
    if budget:
        rows.append([-pay for _, pay in columns] + [1.0] * n_q + [0.0] * len(tail))
    rows.append([1.0] * len(columns) + [0.0] * n_q + tail)
    rhs = list(rhs) + ([0.0] if budget else []) + [1.0]
    return objective, rows, [">="] * (len(rows) - 1) + ["="], rhs


def assert_dual_feasible(res, objective, rows, senses):
    y = res.duals
    for yi, sense in zip(y, senses):
        if sense == ">=":
            assert yi <= _PIVOT_TOL
    reduced = np.array(objective) - y @ np.array(rows)
    assert (reduced <= _PIVOT_TOL).all()


class TestWarmStart:
    @settings(max_examples=300)
    @given(master_lps())
    def test_appended_columns_match_cold_solves(self, case):
        n_c, elastic, budget, rhs, columns, n_seed = case
        objective, *seed_lp = master_lp(n_c, elastic, budget, rhs, columns[:n_seed])
        res = lp_solve(objective, *seed_lp)
        assume(res.status == OPTIMAL)
        assert_objective_row(res, objective)
        for k in range(n_seed, len(columns)):
            revenue, pay = columns[k]
            value = 0.0 if elastic else sum(revenue) - pay
            entries = [*revenue, -pay, 1.0] if budget else [*revenue, 1.0]
            res = res.tableau.add_column(value, entries, index=k)
            objective, rows, senses, b = master_lp(n_c, elastic, budget, rhs, columns[: k + 1])
            cold = lp_solve(objective, rows, senses, b)
            assert res.status == cold.status == OPTIMAL
            assert abs(res.objective - cold.objective) <= 1e-12
            assert_objective_row(res, objective)
            assert abs(float(np.array(objective) @ res.x) - res.objective) <= 1e-12
            for sol in (res, cold):
                assert_dual_feasible(sol, objective, rows, senses)

    def test_add_column_keeps_the_tableau_it_extends(self):
        res = lp_solve([1.0, 0.0], [[1.0, 1.0]], ["<="], [1.0])
        width = res.tableau.table.shape[1]
        grown = res.tableau.add_column(2.0, [1.0], index=2)
        assert abs(grown.objective - 2.0) < 1e-12
        assert list(grown.x) == [0.0, 0.0, 1.0]
        assert res.tableau.table.shape[1] == width
        again = res.tableau.add_column(0.5, [1.0], index=0)
        assert abs(again.objective - 1.0) < 1e-12
        assert list(again.x) == [0.0, 1.0, 0.0]

    def test_add_column_needs_full_rank(self):
        # a repeated equality row keeps its artificial basic at zero
        res = lp_solve([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], ["=", "="], [1.0, 1.0])
        assert res.status == OPTIMAL
        with pytest.raises(AssertionError, match="full rank"):
            res.tableau.add_column(1.0, [1.0, 1.0], index=2)


def assert_objective_row(res, objective):
    """The optimal tableau's objective row is [c | 0] - sum_i c_B[i] row_i,
    its duals c_B B^-1 and its objective c.x, each added left to right."""
    assert res.status == OPTIMAL
    tab = res.tableau
    m = len(tab.basis)
    rows = tab.table[:-1]
    cost = np.zeros(tab.allowed.size)
    cost[tab.columns] = objective
    cb = cost[tab.basis]
    row = [
        ordered_sum([v, *(-cb[i] * rows[i, j] for i in range(m))])
        for j, v in enumerate([*cost, 0.0])
    ]
    assert np.abs(tab.table[-1] - row).max() <= 1e-12
    binv = rows[:, tab.art0 : tab.art0 + m]
    duals = [ordered_sum(cb[i] * binv[i, k] for i in range(m)) * tab.sign[k] for k in range(m)]
    assert np.abs(res.duals - duals).max() <= 1e-12
    assert abs(ordered_sum(v * x for v, x in zip(objective, res.x)) - res.objective) <= 1e-12


class TestObjectiveRow:
    """The pivoted objective row agrees with the totals it stands for."""

    @settings(max_examples=300)
    @given(st.randoms(use_true_random=False))
    def test_random_lps(self, rng):
        c, a, senses, b = random_lp(rng)
        res = lp_solve(c, a, senses, b)
        assume(res.status == OPTIMAL)
        assert_objective_row(res, c)


def pivot_by_rows(tableau, basis, row, col):
    """Reference pivot: one update per row whose ``col`` entry is nonzero."""
    pivot = tableau[row, col]
    tableau[row, :] /= pivot
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r, :] -= tableau[r, col] * tableau[row, :]
    basis[row] = col


def initial_tableau_by_rows(a, b, senses):
    """Reference phase-1 tableau, built one row at a time."""
    m, n = a.shape
    sign = np.ones(m)
    a = a.copy()
    b = b.copy()
    flipped = list(senses)
    for i in range(m):
        if b[i] < 0.0:
            a[i, :] *= -1.0
            b[i] *= -1.0
            sign[i] = -1.0
            flipped[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]
    slack_rows = [i for i, s in enumerate(flipped) if s != "="]
    art0 = n + len(slack_rows)
    tableau = np.zeros((m, art0 + m + 1))
    tableau[:, :n] = a
    for k, i in enumerate(slack_rows):
        tableau[i, n + k] = 1.0 if flipped[i] == "<=" else -1.0
    for i in range(m):
        tableau[i, art0 + i] = 1.0
    tableau[:, -1] = b
    return tableau, sign, art0


#: Entries with exact zeros of both signs among ordinary values.
entries = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0)),
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
)


class TestKernelBytes:
    """The array kernels leave exactly the bytes of their row loops."""

    @settings(max_examples=300)
    @given(st.data())
    def test_pivot_matches_row_loop(self, data):
        m = data.draw(st.integers(1, 7))
        width = data.draw(st.integers(2, 10))
        cells = data.draw(st.lists(entries, min_size=m * width, max_size=m * width))
        table = np.array(cells).reshape(m, width)
        row = data.draw(st.integers(0, m - 1))
        col = data.draw(st.integers(0, width - 2))
        assume(table[row, col] != 0.0)
        basis = list(range(m))
        expected, expected_basis = table.copy(), list(basis)
        pivot_by_rows(expected, expected_basis, row, col)
        _pivot(table, basis, row, col)
        assert table.tobytes() == expected.tobytes()
        assert basis == expected_basis

    @settings(max_examples=300)
    @given(st.data())
    def test_initial_tableau_matches_row_loop(self, data):
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(0, 6))
        a = np.array(data.draw(st.lists(entries, min_size=m * n, max_size=m * n))).reshape(m, n)
        b = np.array(data.draw(st.lists(entries, min_size=m, max_size=m)))
        senses = data.draw(st.lists(st.sampled_from(("<=", ">=", "=")), min_size=m, max_size=m))
        tableau, sign, art0 = _initial_tableau(a, b, senses)
        ref_tableau, ref_sign, ref_art0 = initial_tableau_by_rows(a, b, senses)
        assert art0 == ref_art0
        assert tableau.tobytes() == ref_tableau.tobytes()
        assert sign.tobytes() == ref_sign.tobytes()


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lp_solve([1.0], [[1.0, 2.0]], ["<="], [1.0])

    def test_unknown_sense(self):
        with pytest.raises(ValueError):
            lp_solve([1.0], [[1.0]], ["<"], [1.0])
