import contextlib
import json
import random
import re
import time
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidcoord as bc
from bidcoord import arbitrary, limited
from bidcoord.cli import main
from bidcoord.core import make_profile, ordered_sum
from bidcoord.discretize import build_grid, iter_grid_profiles, pruned_grid
from bidcoord.limited import (
    PRICING_TOL,
    DualValues,
    MasterSolution,
    add_master_column,
    extract_solution,
    make_column,
    pricing,
    solve_ll,
    solve_ll_cg,
    solve_master,
)
from bidcoord.mechanisms import (
    certify,
    expected_outcome,
    individual_baseline,
    ll_transfers,
    transfer_caps,
)
from bidcoord.simplex import INFEASIBLE, OPTIMAL, LPResult
from bidcoord.wup import expected_tables, solve_wup, solve_wup_expected, unit_weights
from conftest import load_workloads, random_instance
from oracles import (
    best_deterministic_ll,
    brute_force_ll,
    prune_levels,
    ranking_expected_outcome,
    solve_ll_dense,
)


def feasible_instance(rng):
    return random_instance(
        rng, max_colluders=3, max_external=2, max_slots=4,
        max_support=3, bid_bits=4, feasible_outside=True,
    )


def calibrated_instance(seed):
    """VCG, 4 colluders, 3 slots, 6 support entries of two 8-bit bids, and
    outside options at the individual-bidding baseline."""
    rng = random.Random(seed)
    k = 6
    support = [
        {
            "bids": sorted((rng.randrange(0, 257) / 256 for _ in range(2)), reverse=True),
            "prob": 1.0 / k,
        }
        for _ in range(k)
    ]
    raw = {
        "mechanism": "vcg",
        "slots": [1.0, 0.75, 0.5],
        "colluders": [{"v": v, "t": 0.0} for v in (0.9, 0.7, 0.5, 0.3)],
        "external": {"support": support},
    }
    inst = bc.validate_and_normalize(raw)
    base = individual_baseline(inst)
    raw["colluders"] = [
        {"v": v, "t": max(0.0, u)} for v, u in zip(inst.valuations, base)
    ]
    return bc.validate_and_normalize(raw), base


def binding_instance():
    """No single grid profile covers every outside option (eps = 0.05)."""
    raw = {
        "mechanism": "gsp",
        "slots": [0.9, 0.5],
        "colluders": [
            {"v": v, "t": (0.05 + 0.35 * 0.9 * v) / 3} for v in (0.8, 0.6, 0.4)
        ],
        "external": {"support": [{"bids": [0.37], "prob": 1.0}]},
    }
    return bc.validate_and_normalize(raw)


class TestColumns:
    def test_cache_matches_recomputation(self, example3):
        for profile in iter_grid_profiles([0.0, 0.5, 0.75], 2):
            col = make_column(example3, profile)
            out = expected_outcome(example3, profile)
            assert col.revenue == out.revenue
            assert col.payment == out.payment
            assert col.cumulative == out.cumulative


class TestExample3Golden:
    def test_tight_epsilon_requires_mixing(self, example3):
        sol = solve_ll(example3, 0.01)
        assert abs(sol.objective - 1.0) < 1e-6
        assert len(sol.distribution) >= 2
        assert sol.transfers == (0.0, 0.0)
        assert all(s >= -1e-9 for s in sol.ic_slacks)
        assert sol.ir_slack >= -1e-9

    def test_loose_epsilon_same_value(self, example3):
        sol = solve_ll(example3, 0.1)
        assert abs(sol.objective - 1.0) < 1e-6

    def test_best_deterministic_is_half(self, example3):
        _, grid = build_grid(example3, 0.005)
        assert abs(best_deterministic_ll(example3, grid.levels) - 0.5) < 1e-6

    def test_column_generation_path(self, example3):
        p = 0.005
        _, grid = build_grid(example3, p)
        sol, master, rounds = solve_ll_cg(example3, grid.levels, p)
        assert abs(sol.objective - 1.0) < 1e-6
        assert len(sol.distribution) >= 2
        assert rounds <= 200


@contextlib.contextmanager
def capped_bits_ignored():
    """Ignores the warning that a support bid's bit count was capped,
    which cent bids raise, and no other warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "support bid needs .*; capping at 53", UserWarning)
        yield


def assert_sandwich(instance, epsilon):
    """The limited-liability objective is at most the arbitrary one, a
    mix of profile values against the best profile value on the same
    levels, and equal to it when the arbitrary solution pays no
    colluder and covers the agency's payment.  Returns "equal" in that
    case, else "infeasible" or "at most"."""
    arb = bc.solve_arbitrary(instance, epsilon)
    arb_is_ll = min(arb.transfers) >= 0.0 and arb.ir_slack >= 0.0
    try:
        ll = solve_ll(instance, epsilon)
    except bc.InfeasibleError:
        assert not arb_is_ll
        return "infeasible"
    assert ll.objective <= arb.objective + 1e-12
    if arb_is_ll:
        assert ll.objective == arb.objective
        return "equal"
    return "at most"


class TestSimpleCases:
    def test_single_colluder_no_externals(self):
        raw = {
            "mechanism": "gsp",
            "slots": [0.9],
            "colluders": [{"v": 0.8, "t": 0.0}],
            "external": {"support": [{"bids": [], "prob": 1.0}]},
        }
        inst = bc.validate_and_normalize(raw)
        sol = solve_ll(inst, 0.1)
        assert abs(sol.objective - 0.9 * 0.8) < 1e-9
        assert sol.transfers == (0.0,)

    def test_zero_outside_options_match_arbitrary(self):
        rng = random.Random(42)
        for _ in range(10):
            inst = random_instance(rng, max_colluders=2, max_external=2, bid_bits=4)
            assert assert_sandwich(inst, 0.1) == "equal"

    def test_infeasible_reported(self):
        raw = {
            "mechanism": "gsp",
            "slots": [0.5],
            "colluders": [{"v": 1.0, "t": 1.0}],
            "external": {"support": [{"bids": [], "prob": 1.0}]},
        }
        inst = bc.validate_and_normalize(raw)
        with pytest.raises(bc.InfeasibleError) as err:
            solve_ll(inst, 0.1)
        # the diagnostic is the outside-option mass no grid mixture covers
        match = re.search(r"residual relief ([0-9.eE+-]+)", str(err.value))
        assert match is not None
        assert float(match.group(1)) > 0.0

    def test_infeasible_certified_by_cg(self):
        raw = {
            "mechanism": "gsp",
            "slots": [0.5],
            "colluders": [{"v": 1.0, "t": 1.0}],
            "external": {"support": [{"bids": [], "prob": 1.0}]},
        }
        inst = bc.validate_and_normalize(raw)
        with pytest.raises(bc.InfeasibleError) as err:
            solve_ll(inst, 0.1)
        assert "full grid" in str(err.value)
        assert "relief" in str(err.value)

    def test_mixing_only_feasibility_found_by_cg(self):
        # no single profile covers both outside options; only a mixture of
        # the two tie orders at level 0 does, so the feasibility phase has
        # to price in the column the seeds lack
        raw = {
            "mechanism": "gsp",
            "slots": [1.0],
            "colluders": [{"v": 1.0, "t": 0.4}, {"v": 1.0, "t": 0.4}],
            "external": {"support": [{"bids": [], "prob": 1.0}]},
        }
        inst = bc.validate_and_normalize(raw)
        p = 0.005
        _, grid = build_grid(inst, p)
        assert not arbitrary.check_assumption1(inst, grid.levels, p).satisfied
        dense_sol, _ = solve_ll_dense(inst, grid.levels, p)
        cg_sol, _, rounds = solve_ll_cg(inst, grid.levels, p)
        assert abs(dense_sol.objective - 1.0) < 1e-9
        assert abs(cg_sol.objective - 1.0) < 1e-9
        assert len(cg_sol.distribution) == 2
        assert rounds <= 200


class TestPricing:
    def test_zero_duals_is_plain_wup(self, example3):
        _, grid = build_grid(example3, 0.05)
        duals = DualValues((0.0, 0.0), 0.25)
        profile, reduced = pricing(duals, expected_tables(example3, grid.levels), example3)
        plain = solve_wup_expected(grid.levels, unit_weights(2), example3)
        assert abs(reduced - (plain.value - 0.25)) < 1e-12
        out = expected_outcome(example3, profile)
        assert abs(out.cumulative - plain.value) < 1e-9

    def test_large_negative_dual_prioritizes_that_colluder(self, example3):
        _, grid = build_grid(example3, 0.05)
        duals = DualValues((0.0, -1000.0), 0.0)
        profile, _ = pricing(duals, expected_tables(example3, grid.levels), example3)
        out = expected_outcome(example3, profile)
        best_r1 = max(
            expected_outcome(example3, prof).revenue[1]
            for prof in iter_grid_profiles(grid.levels, 2)
        )
        assert out.revenue[1] >= best_r1 - 1e-9

    def test_negative_pricing_weight_raises(self, example3):
        # duals a master would never emit: a participation dual beyond
        # EQ_TOL above the phase's base (1 in the objective phase, 0 in the
        # elastic one) is not dual-feasible, so pricing refuses it instead
        # of scanning the grid
        _, grid = build_grid(example3, 0.05)
        tables = expected_tables(example3, grid.levels)
        for elastic, base in ((False, 1.0), (True, 0.0)):
            duals = DualValues((0.0, base + 1e-6), 0.0)
            with pytest.raises(bc.ToleranceError, match="negative pricing weight"):
                pricing(duals, tables, example3, elastic)

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(53)
        for _ in range(15):
            inst = feasible_instance(rng)
            _, grid = build_grid(inst, 0.1)
            duals = DualValues(
                tuple(-rng.random() for _ in range(inst.n_colluders)),
                rng.uniform(-1, 1),
            )
            _, reduced = pricing(duals, expected_tables(inst, grid.levels), inst)
            y_hat = [1.0 - y for y in duals.y]
            best = max(
                sum(
                    yh * r - pay
                    for yh, r, pay in zip(y_hat, out.revenue, out.payment)
                )
                for out in (
                    expected_outcome(inst, prof)
                    for prof in iter_grid_profiles(grid.levels, inst.n_colluders)
                )
            )
            assert abs(reduced - (best - duals.z)) < 1e-9


class TestMasterAndExtraction:
    def test_point_mass_preserved(self):
        raw = {
            "mechanism": "gsp",
            "slots": [0.9],
            "colluders": [{"v": 0.8, "t": 0.1}],
            "external": {"support": [{"bids": [], "prob": 1.0}]},
        }
        inst = bc.validate_and_normalize(raw)
        sol, master = solve_ll_dense(inst, [0.0], 0.05)
        assert len(sol.distribution) == 1
        assert sol.distribution[0][1] == 1.0

    def test_two_column_mix_preserved(self, example3):
        sol = solve_ll(example3, 0.01)
        assert len(sol.distribution) >= 2
        assert abs(sum(pr for _, pr in sol.distribution) - 1.0) < 1e-12

    def test_recomputed_objective_matches_lp(self):
        rng = random.Random(64)
        for _ in range(10):
            inst = feasible_instance(rng)
            p = 0.1 / inst.n_colluders
            _, grid = build_grid(inst, p)
            sol, master = solve_ll_dense(inst, grid.levels, p)
            assert abs(sol.objective - master.objective) < 1e-7

    def test_renormalization_drift_fails(self, example3):
        col = make_column(example3, make_profile([0.0, 0.0]))
        fake = MasterSolution((col,), (0.9,), DualValues((0.0, 0.0), 0.0), 0.9)
        with pytest.raises(bc.ToleranceError):
            extract_solution(example3, fake, 0.05)

    @pytest.mark.parametrize("raw, levels, p, error, message", [
        pytest.param(
            {
                "mechanism": "gsp",
                "slots": [1.0, 1.0],
                "colluders": [{"v": 1.0, "t": 0.01}, {"v": 1.0, "t": 0.01}],
                "external": {"support": [{"bids": [0.75], "prob": 1.0}]},
            },
            [0.0, 0.0], 0.005, bc.ToleranceError, "participation constraint violated",
            id="participation",
        ),
        pytest.param(
            {
                "mechanism": "gsp",
                "slots": [1.0],
                "colluders": [{"v": 0.1, "t": 0.0}],
                "external": {"support": [{"bids": [0.9], "prob": 1.0}]},
            },
            [1.0], 0.05, bc.InfeasibleError, "cannot cover the agency payment",
            id="budget",
        ),
    ])
    def test_transfer_fill_checks(self, raw, levels, p, error, message):
        # one column at full weight: with both colluders tied at level 0,
        # the second earns nothing against t - p = 0.005, which the master
        # never allows; the lone colluder above the external bid of 0.9
        # earns 0.1 and pays 0.9, which no transfer can cover
        inst = bc.validate_and_normalize(raw)
        col = make_column(inst, make_profile(levels))
        n_c = inst.n_colluders
        fake = MasterSolution((col,), (1.0,), DualValues((0.0,) * n_c, 0.0), 0.0)
        with pytest.raises(error, match=message):
            extract_solution(inst, fake, p)

    def test_duals_have_master_sign_pattern(self):
        rng = random.Random(75)
        for _ in range(10):
            inst = feasible_instance(rng)
            p = 0.1 / inst.n_colluders
            _, grid = build_grid(inst, p)
            _, master = solve_ll_dense(inst, grid.levels, p)
            assert all(y <= 1e-9 for y in master.duals.y)


def assert_sums_from_scratch(instance, sol):
    """The solution's expected revenues and payments and its objective are
    the probability-weighted sums of each played profile's reference
    outcome, computed here and not handed over by the solver."""
    outs = [(ranking_expected_outcome(instance, prof), pr) for prof, pr in sol.distribution]
    for field, stated in (("revenue", sol.expected_revenue), ("payment", sol.expected_payment)):
        sums = tuple(
            sum(pr * getattr(out, field)[i] for out, pr in outs)
            for i in range(instance.n_colluders)
        )
        assert stated == pytest.approx(sums, rel=0, abs=1e-12)
    assert sol.objective == pytest.approx(
        sum(pr * out.cumulative for out, pr in outs), rel=0, abs=1e-12
    )


class TestColumnGenerationAgreement:
    def test_cg_equals_dense_and_oracle(self):
        rng = random.Random(86)
        max_rounds_seen = 0
        for _ in range(15):
            inst = feasible_instance(rng)
            p = 0.1 / inst.n_colluders
            _, grid = build_grid(inst, p)
            dense_sol, dense_master = solve_ll_dense(inst, grid.levels, p)
            cg_sol, cg_master, rounds = solve_ll_cg(inst, grid.levels, p)
            max_rounds_seen = max(max_rounds_seen, rounds)
            assert abs(dense_sol.objective - cg_sol.objective) < 1e-6
            oracle, status = brute_force_ll(inst, grid.levels, p)
            assert status == "optimal"
            assert abs(dense_sol.objective - oracle) < 1e-6
            for sol in (dense_sol, cg_sol):
                assert_sums_from_scratch(inst, sol)
                assert all(q >= 0.0 for q in sol.transfers)
                assert all(s >= -1e-9 for s in sol.ic_slacks)
                assert sol.ir_slack >= -1e-9
                # participation re-checked from the reported numbers
                assert all(
                    r - q >= t - sol.relaxation - 1e-9
                    for r, q, t in zip(sol.expected_revenue, sol.transfers, inst.outside_options)
                )
        assert max_rounds_seen <= 200

    def test_forced_cg_dispatch_matches_dense(self, example3):
        p = 0.01 / example3.n_colluders
        _, grid = build_grid(example3, p)
        via_cg = solve_ll(example3, 0.01)
        via_dense, _ = solve_ll_dense(example3, grid.levels, p)
        assert abs(via_cg.objective - via_dense.objective) < 1e-6

    def test_cg_at_scale_beyond_dense_cap(self):
        # a grid far too large to materialize; with zero outside options the
        # limited-liability optimum must equal the unrestricted one
        rng = random.Random(5150)
        k = 8
        support = [
            {
                "bids": sorted((rng.randrange(0, 257) / 256 for _ in range(2)), reverse=True),
                "prob": 1.0 / k,
            }
            for _ in range(k)
        ]
        raw = {
            "mechanism": "gsp",
            "slots": [1.0, 0.75, 0.5],
            "colluders": [{"v": v, "t": 0.0} for v in (0.9, 0.7, 0.5, 0.3)],
            "external": {"support": support},
        }
        inst = bc.validate_and_normalize(raw)
        eps = 0.08
        _, grid = build_grid(inst, eps / inst.n_colluders)
        assert len(grid.levels) ** inst.n_colluders > 10**6
        ll = solve_ll(inst, eps)
        arb = bc.solve_arbitrary(inst, eps)
        assert abs(ll.objective - arb.objective) < 1e-6

    def test_cg_at_scale_with_baseline_outside_options(self):
        # same shape with calibrated outside options: the feasibility phase
        # prices in what the seeds lack and the result must stay feasible
        inst, base = calibrated_instance(5151)
        eps = 0.08
        _, grid = build_grid(inst, eps / inst.n_colluders)
        assert len(grid.levels) ** inst.n_colluders > 10**5
        sol = solve_ll(inst, eps)
        assert all(s >= -1e-9 for s in sol.ic_slacks)
        assert sol.ir_slack >= -1e-9
        assert all(q >= 0.0 for q in sol.transfers)
        assert sol.objective >= sum(base) - eps - 1e-9

    def test_binding_outside_options_never_scan_the_grid(self, monkeypatch):
        # no single profile covers every outside option here, so a solver
        # that looks for a participation witness would scan all 54^3 grid
        # profiles; column generation needs only a handful of columns
        inst = binding_instance()
        eps = 0.05
        _, grid = build_grid(inst, eps / inst.n_colluders)
        assert len(grid.levels) ** inst.n_colluders == 157_464
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return expected_outcome(*args, **kwargs)

        monkeypatch.setattr(arbitrary, "expected_outcome", counted)
        monkeypatch.setattr(limited, "expected_outcome", counted)
        sol = solve_ll(inst, eps)
        assert len(calls) < 1_000
        assert len(sol.distribution) == 2
        assert abs(sol.objective - 0.481) < 1e-9
        assert all(s >= -1e-9 for s in sol.ic_slacks)
        assert sol.ir_slack >= -1e-9

    def test_weak_duality_sentinel(self):
        rng = random.Random(97)
        for _ in range(10):
            inst = feasible_instance(rng)
            p = 0.1 / inst.n_colluders
            _, grid = build_grid(inst, p)
            _, master = solve_ll_dense(inst, grid.levels, p)
            dual_obj = (
                sum(
                    (t - p) * y
                    for t, y in zip(inst.outside_options, master.duals.y)
                )
                + master.duals.z
            )
            assert dual_obj >= master.objective - 1e-6


def count_master_lps(monkeypatch):
    """Record each cold master LP as ("cold", elastic, status) and each
    warm resume as ("warm", elastic), in call order."""
    calls = []
    cold = limited.lp_solve
    warm = limited.add_master_column

    def counted_cold(objective, rows, senses, rhs):
        result = cold(objective, rows, senses, rhs)
        calls.append(("cold", objective[-1] == -1.0, result.status))
        return result

    def counted_warm(master, column):
        calls.append(("warm", master.relief is not None))
        return warm(master, column)

    monkeypatch.setattr(limited, "lp_solve", counted_cold)
    monkeypatch.setattr(limited, "add_master_column", counted_warm)
    return calls


class TestMasterWork:
    def test_feasible_optimum_takes_no_lp(self, example3, monkeypatch):
        # the utility optimum covers both outside options: column
        # generation closes at round 0 with no master LP at all
        calls = count_master_lps(monkeypatch)
        sol = solve_ll(example3, 0.1)
        assert abs(sol.objective - 1.0) < 1e-9
        assert calls == []

    def test_infeasible_seeds_run_the_feasibility_phase(self, example3, monkeypatch):
        # at eps = 0.01 only a mixture covers both outside options, which
        # the two seeds do not give: round 0's point mass breaks a cap, so
        # the elastic phase starts on the seeds and prices in one column,
        # and the objective phase starts cold on all three
        calls = count_master_lps(monkeypatch)
        p = 0.005
        _, grid = build_grid(example3, p)
        sol, master, rounds = solve_ll_cg(example3, grid.levels, p)
        assert abs(sol.objective - 1.0) < 1e-6
        assert calls == [
            ("cold", True, OPTIMAL),
            ("warm", True),
            ("cold", False, OPTIMAL),
            ("warm", False),
        ]
        assert rounds == 3
        assert len(master.columns) == 4

    def test_objective_rounds_are_warm_resumes(self, monkeypatch):
        # the feasibility phase, then one cold objective LP and one warm
        # resume per priced-in column; the last round prices none
        inst, _ = calibrated_instance(2)
        calls = count_master_lps(monkeypatch)
        p = 0.08 / inst.n_colluders
        _, grid = build_grid(inst, p)
        levels = prune_levels(grid.levels, inst.external)
        sol, master, rounds = solve_ll_cg(inst, levels, p)
        assert [c for c in calls if c[0] == "cold"] == [
            ("cold", True, OPTIMAL),
            ("cold", False, OPTIMAL),
        ]
        start = calls.index(("cold", False, OPTIMAL))
        elastic_rounds = start - 1
        objective_resumes = calls[start + 1 :]
        assert calls[1:start] == [("warm", True)] * elastic_rounds
        assert len(objective_resumes) >= 3
        assert objective_resumes == [("warm", False)] * len(objective_resumes)
        assert rounds == elastic_rounds + len(objective_resumes) + 1
        assert len(master.columns) == 2 + elastic_rounds + len(objective_resumes)
        dense, _ = solve_ll_dense(inst, levels, p)
        assert abs(sol.objective - dense.objective) < 1e-6

    def test_zero_seed_tie_runs_no_master_lp(self, monkeypatch):
        # round 0's point mass is feasible and only ties the zero seed:
        # round 0 closes on it all the same
        calls = count_master_lps(monkeypatch)
        inst = zero_seed_tie(0.8125, [0.8125], 0.75)
        p = inst.threshold(0.05)
        _, _, rounds = solve_ll_cg(inst, pruned_grid(inst, p).levels, p)
        assert (calls, rounds) == ([], 0)

    def test_binding_instance_needs_the_feasibility_phase(self, monkeypatch):
        calls = count_master_lps(monkeypatch)
        sol = solve_ll(binding_instance(), 0.05)
        assert calls[:1] == [("cold", True, OPTIMAL)]
        assert len(sol.distribution) == 2
        assert abs(sol.objective - 0.481) < 1e-9


def seed_columns(instance, tables):
    """The all-zero-level profile's column and the utility optimum's."""
    n_c = instance.n_colluders
    optimum = solve_wup(tables, unit_weights(n_c), instance).profile
    seeds = dict.fromkeys([make_profile([0.0] * n_c), optimum])
    return [make_column(instance, s) for s in seeds]


def point_mass_feasible(instance, column, p):
    """Whether ``column``'s point mass is limited-liability feasible: no
    transfer cap is negative, and the caps cover its payment."""
    caps = transfer_caps(instance, column.revenue, p)
    return min(caps) >= 0.0 and ordered_sum(caps) >= ordered_sum(column.payment)


def seeds_first_path(instance, levels, p):
    """Column generation from ``limited``'s own steps, with no round 0
    and no phase choice: a cold objective master over the seed columns;
    only if it is infeasible, the elastic phase on the seeds and a cold
    objective master over all its columns; then pricing rounds until the
    end rule, then extraction.  Returns (solution, master, rounds)."""
    tables = expected_tables(instance, levels)
    columns = seed_columns(instance, tables)
    rounds = 0

    def price(master):
        # the end rule; the elastic phase also ends once its relief is gone
        nonlocal rounds
        elastic = master.relief is not None
        while not elastic or master.relief > 1e-9:
            rounds += 1
            profile, reduced = pricing(master.duals, tables, instance, elastic)
            if reduced <= PRICING_TOL or profile in {col.profile for col in master.columns}:
                if elastic:
                    raise bc.InfeasibleError(
                        "master infeasible even over the full grid; outside options"
                        f" cannot be covered (residual relief {master.relief!r})"
                    )
                break
            master = add_master_column(master, make_column(instance, profile))
        return master

    master = solve_master(instance, columns, p)
    if master is None:
        columns = price(solve_master(instance, columns, p, elastic=True)).columns
        master = solve_master(instance, columns, p)
    master = price(master)
    return extract_solution(instance, master, p), master, rounds


def zero_seed_tie(v, bids, prob):
    """One GSP colluder against an external bid drawn with ``prob``; at
    v = bid it earns as much bidding 0 as matching the bid it outranks."""
    raw = {
        "mechanism": "gsp",
        "slots": [0.6875],
        "colluders": [{"v": v, "t": 0.0}],
        "external": {"support": [
            {"bids": bids, "prob": prob}, {"bids": [0.0], "prob": 1.0 - prob},
        ]},
    }
    return bc.validate_and_normalize(raw)


def short_of_payment():
    """One GSP colluder whose utility optimum (win the slot above the
    external bid of 0.5) leaves a transfer cap of 0.3 + p against a
    payment of 0.5; losing leaves a negative cap."""
    raw = {
        "mechanism": "gsp",
        "slots": [1.0],
        "colluders": [{"v": 1.0, "t": 0.7}],
        "external": {"support": [{"bids": [0.5], "prob": 1.0}]},
    }
    return bc.validate_and_normalize(raw)


class TestRoundZero:
    """Column generation closes at round 0, with no master LP, exactly
    when the utility optimum's point mass is feasible; the seed query is
    then the pricing round at duals y = 0, z = its utility, and the
    report is that point mass's."""

    @settings(max_examples=500)
    @given(seed=st.integers(0, 2**32 - 1), epsilon=st.sampled_from((0.01, 0.05, 0.1)))
    def test_matches_the_master_path(self, seed, epsilon):
        inst = random_instance(
            random.Random(seed), max_colluders=3, max_external=3,
            max_slots=4, max_support=3, bid_bits=4, feasible_outside=True,
        )
        assert_seeds_first_agrees(inst, inst.threshold(epsilon))

    @pytest.mark.parametrize("v, bids, prob, levels", [
        pytest.param(0.0, [0.25], 0.5, (0.0,), id="zero-utility"),
        pytest.param(0.8125, [0.8125], 0.75, (0.8125,), id="exact-tie"),
        pytest.param(0.8125, [0.8125], 0.7, (0.8125,), id="ulp-tie"),
    ])
    def test_ties_with_the_zero_seed_close_at_round_0(self, v, bids, prob, levels):
        # a colluder that earns nothing, or one that earns as much
        # bidding 0 as matching an external bid it outranks (exactly, or
        # 1 ulp above the zero seed): round 0 reports the optimum's
        # profile, with no master LP to break the tie another way
        inst = zero_seed_tie(v, bids, prob)
        p = inst.threshold(0.05)
        grid = pruned_grid(inst, p).levels
        optimum = solve_wup(expected_tables(inst, grid), unit_weights(1), inst).profile
        with mock.patch.object(limited, "lp_solve", wraps=limited.lp_solve) as lp:
            sol, master, rounds = solve_ll_cg(inst, grid, p)
        assert (lp.call_count, rounds, master.tableau) == (0, 0, None)
        assert [profile for profile, _ in sol.distribution] == [optimum]
        assert optimum.levels == levels
        assert abs(sol.objective - seeds_first_path(inst, grid, p)[0].objective) <= 1e-12

    def test_optimum_short_of_the_agency_payment_goes_to_the_master(self):
        # the objective phase ends at the utility optimum, which cannot
        # cover the payment
        with pytest.raises(bc.InfeasibleError):
            solve_ll(short_of_payment(), 0.05)


BINDING_ROWS = [
    (n_c, 1, m, 1, bits, mechanism, "binding")
    for n_c, m in ((2, 1), (3, 2), (4, 3))
    for bits in (0, 10)
    for mechanism in ("gsp", "vcg")
]


def assert_seeds_first_agrees(instance, p):
    """``solve_ll_cg`` closes at round 0, with no master LP, exactly when
    the utility optimum's point mass is feasible, and then reports that
    point mass, within 1e-12 of ``seeds_first_path``'s objective.  It
    matches ``seeds_first_path`` bit for bit when it runs column
    generation, and when the optimum is the zero-level seed or beats it
    by more than ``PRICING_TOL``, so that no tie leaves the master LP's
    tie-break a choice."""
    levels = pruned_grid(instance, p).levels
    seeds = seed_columns(instance, expected_tables(instance, levels))
    zero, best = seeds[0], seeds[-1]
    feasible = point_mass_feasible(instance, best, p)
    with mock.patch.object(limited, "lp_solve", wraps=limited.lp_solve) as lp:
        try:
            sol, master, rounds = solve_ll_cg(instance, levels, p)
        except bc.InfeasibleError as error:
            assert not feasible
            with pytest.raises(bc.InfeasibleError) as expected:
                seeds_first_path(instance, levels, p)
            assert str(error) == str(expected.value)
            return
    ref_sol, ref_master, ref_rounds = seeds_first_path(instance, levels, p)
    assert (rounds == 0) == (lp.call_count == 0) == feasible
    if not feasible:
        assert (sol, master.columns, rounds) == (ref_sol, ref_master.columns, ref_rounds)
        return
    assert master.tableau is None and master.gammas == (1.0,)
    # every field: objective, transfers, distribution, slacks, ...
    assert sol == certify(instance, ((best, 1.0),), ll_transfers, p)
    assert abs(sol.objective - ref_sol.objective) <= 1e-12
    if best is zero or best.cumulative > zero.cumulative + PRICING_TOL:
        assert sol == ref_sol


class TestPhaseChoice:
    """No phase choice: every solve that round 0 does not close starts in
    the feasibility phase on the seeds, and still matches
    ``seeds_first_path``, which tries the objective master on them
    first, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        feasible_outside=st.booleans(),
        epsilon=st.sampled_from((0.01, 0.05, 0.1)),
    )
    def test_random_instances_match_the_seeds_first_path(self, seed, feasible_outside, epsilon):
        inst = random_instance(
            random.Random(seed), max_colluders=3, max_external=3, max_slots=4,
            max_support=3, bid_bits=4, feasible_outside=feasible_outside,
        )
        assert_seeds_first_agrees(inst, inst.threshold(epsilon))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), row=st.sampled_from(BINDING_ROWS))
    def test_binding_rows_match_the_seeds_first_path(self, seed, row):
        workloads = load_workloads()
        raw = workloads.make_instance(random.Random(seed), workloads.Shape(*row))
        inst = bc.validate_and_normalize(raw)
        with capped_bits_ignored():
            assert_seeds_first_agrees(inst, inst.threshold(workloads.EPSILON))

    @pytest.mark.parametrize("name", ["ll-desk", "ll-cg"])
    def test_pool_instances(self, monkeypatch, name):
        # every variant of every pool slot: round 0 closes exactly when
        # the utility optimum's point mass is feasible, and every other
        # solve's first master LP is the elastic one
        workloads = load_workloads()
        assert workloads.WORKLOADS[name].mode == "limited-liability"
        calls = count_master_lps(monkeypatch)
        with capped_bits_ignored():
            for slot in range(len(workloads.WORKLOADS[name].shapes)):
                for variant in range(workloads.VARIANTS):
                    key = f"{name}/{slot}/{variant}"
                    raw = json.loads(workloads.pool_instance(name, slot, variant))
                    inst = bc.validate_and_normalize(raw)
                    p = inst.threshold(workloads.EPSILON)
                    levels = pruned_grid(inst, p).levels
                    best = seed_columns(inst, expected_tables(inst, levels))[-1]
                    feasible = point_mass_feasible(inst, best, p)
                    calls.clear()
                    try:
                        rounds = solve_ll_cg(inst, levels, p)[2]
                    except bc.InfeasibleError:
                        rounds = None
                    assert (rounds == 0) == feasible == (calls == []), key
                    if not feasible:
                        assert calls[0] == ("cold", True, OPTIMAL), key

    @pytest.mark.parametrize("route", ["short-of-payment", "after-feasibility-phase"])
    def test_infeasible_objective_master_is_a_tolerance_error(self, example3, monkeypatch, route):
        # an objective master that the feasibility phase guarantees
        # feasible but that comes back infeasible is an LP fault, not
        # infeasibility: after a zero-round feasibility phase on the
        # seeds, or after one that priced in a column
        real = limited.lp_solve

        def objective_infeasible(objective, rows, senses, rhs):
            if objective[-1] == -1.0:  # the elastic master's relief
                return real(objective, rows, senses, rhs)
            return LPResult(INFEASIBLE)

        monkeypatch.setattr(limited, "lp_solve", objective_infeasible)
        if route == "short-of-payment":
            inst = short_of_payment()
            p = inst.threshold(0.05)
            levels, columns = pruned_grid(inst, p).levels, 2
        else:
            inst, p = example3, 0.005
            levels, columns = build_grid(inst, p)[1].levels, 3
        with pytest.raises(bc.ToleranceError, match=f"objective master on {columns} columns"):
            solve_ll_cg(inst, levels, p)


class TestSandwich:
    """ROADMAP item 13's sandwich: limited liability never beats
    arbitrary transfers, and ties them, bit for bit, whenever the
    arbitrary solution is itself limited-liability feasible."""

    def test_random_small_instances(self):
        rng = random.Random(13)
        kinds = [
            assert_sandwich(
                random_instance(
                    rng, max_colluders=4, max_external=3,
                    bid_bits=rng.choice((4, 10)), feasible_outside=True,
                ),
                rng.choice((0.01, 0.05, 0.1)),
            )
            for _ in range(40)
        ]
        assert {"equal", "at most"} <= set(kinds)

    @pytest.mark.parametrize("n_c, n_e, m, k, bits, mechanism, outside, kind", [
        (4, 10, 10, 50, 0, "gsp", "calibrated", "equal"),
        (4, 10, 10, 50, 10, "vcg", "zero", "equal"),
        (8, 10, 10, 50, 10, "gsp", "zero", "equal"),
        (8, 10, 10, 50, 0, "vcg", "calibrated", "equal"),
        # fewer slots than colluders: some colluder's outside option
        # goes uncovered by any single profile
        (4, 1, 3, 1, 0, "gsp", "binding", "at most"),
        (8, 1, 5, 1, 10, "vcg", "binding", "at most"),
    ])
    def test_ladder_rows(self, n_c, n_e, m, k, bits, mechanism, outside, kind):
        workloads = load_workloads()
        shape = workloads.Shape(n_c, n_e, m, k, bits, mechanism, outside)
        for seed in range(2):
            raw = workloads.make_instance(random.Random(seed), shape)
            with capped_bits_ignored():
                found = assert_sandwich(bc.validate_and_normalize(raw), workloads.EPSILON)
            assert found == kind


class TestBruteForceVerdicts:
    """The master has no transfer columns and no budget row; the payment
    is checked on its optimum.  ``oracles.brute_force_ll`` keeps both and
    runs on scipy, so it is an independent formulation of the same LP."""

    def test_statuses_and_objectives_match(self):
        # outside options from 0 up to twice the truthful utilities: the
        # loop meets every verdict, and each infeasible one on its grounds
        rng = random.Random(32)
        kinds = set()
        for _ in range(60):
            inst = random_instance(
                rng, max_colluders=3, max_external=2, max_slots=3, max_support=2, bid_bits=4
            )
            raw = bc.instance_to_raw(inst)
            scale = rng.uniform(0.0, 2.0)
            for colluder, utility in zip(raw["colluders"], individual_baseline(inst)):
                colluder["t"] = min(1.0, scale * utility)
            inst = bc.validate_and_normalize(raw)
            p = inst.threshold(rng.choice((0.01, 0.05, 0.1)))
            levels = pruned_grid(inst, p).levels
            value, status = brute_force_ll(inst, levels, p)
            try:
                sol, _, _ = solve_ll_cg(inst, levels, p)
            except bc.InfeasibleError as error:
                assert status == "infeasible"
                kinds.add(re.search("residual relief|agency payment", str(error)).group(0))
                continue
            assert status == "optimal"
            assert abs(sol.objective - value) < 1e-9
            kinds.add("feasible")
        assert kinds == {"feasible", "residual relief", "agency payment"}


class TestEndRule:
    """Column generation ends when pricing does, with no round cap."""

    @pytest.mark.parametrize("mechanism", ["gsp", "vcg"])
    def test_cent_bid_binding_case_at_32_colluders(self, tmp_path, capsys, mechanism):
        # a valid instance that needs 275 (GSP) or 230 (VCG) pricing rounds
        workloads = load_workloads()
        shape = workloads.Shape(32, 10, 10, 50, 0, mechanism, workloads.BINDING)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(workloads.make_instance(random.Random(7), shape)))
        started = time.perf_counter()
        code = main(["solve", str(path), "--mode", "limited-liability"])
        elapsed = time.perf_counter() - started
        assert code == 0
        solution = json.loads(capsys.readouterr().out)["solution"]
        assert all(s >= -1e-9 for s in solution["slacks"]["ic"])
        assert solution["slacks"]["ir"] >= -1e-9
        probs = [entry["probability"] for entry in solution["distribution"]]
        assert abs(sum(probs) - 1.0) < 1e-9
        # 0.6-0.75 s on a 2-core machine; over twice that absorbs a busy scheduler
        assert elapsed < 2.0

    @pytest.mark.parametrize("elastic_phase, reduced, error", [
        pytest.param(True, 0.5, bc.ToleranceError, id="elastic"),
        pytest.param(False, 0.5, bc.ToleranceError, id="objective"),
        pytest.param(True, 1e-6, bc.InfeasibleError, id="elastic-within-tolerance"),
    ])
    def test_held_profile_proposed_again(
        self, example3, monkeypatch, elastic_phase, reduced, error
    ):
        # at p = 0.005 both phases run; the stub proposes the all-zero seed
        # column in one of them.  Above 1e-5 that is a pricing error in
        # either phase, not a certificate that the relief cannot fall
        real = limited.pricing

        def stub(duals, tables, instance, elastic=False):
            if elastic == elastic_phase:
                return make_profile([0.0, 0.0]), reduced
            return real(duals, tables, instance, elastic)

        monkeypatch.setattr(limited, "pricing", stub)
        p = 0.005
        _, grid = build_grid(example3, p)
        with pytest.raises(error):
            solve_ll_cg(example3, grid.levels, p)
