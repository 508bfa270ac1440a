import random

import pytest

import bidcoord as bc
from bidcoord.arbitrary import check_assumption1, solve_arbitrary
from bidcoord.core import ordered_sum
from bidcoord.discretize import build_grid
from bidcoord.limited import solve_ll
from bidcoord.mechanisms import expected_outcome, individual_baseline
from conftest import example3_raw, random_instance
from oracles import brute_force_arbitrary

FINE_LEVELS = [k / 64 for k in range(65)]


def instance_with(mechanism="vcg", slots=(1.0,), colluders=((0.6, 0.1), (0.5, 0.0)),
                  support=((0.0,),)):
    raw = {
        "mechanism": mechanism,
        "slots": list(slots),
        "colluders": [{"v": v, "t": t} for v, t in colluders],
        "external": {"support": [{"bids": list(b), "prob": 1.0 / len(support)} for b in support]},
    }
    return bc.validate_and_normalize(raw)


class TestParams:
    def test_p_is_epsilon_over_colluders(self, example1):
        assert solve_arbitrary(example1, 0.05).relaxation == 0.025

    def test_epsilon_range(self, example1):
        with pytest.raises(ValueError):
            solve_arbitrary(example1, 0.0)
        with pytest.raises(ValueError):
            solve_arbitrary(example1, 1.5)


class TestExample1Golden:
    def test_objective_and_ratio(self, example1):
        sol = solve_arbitrary(example1, 0.05)
        assert abs(sol.objective - 0.6) < 1e-9
        base = individual_baseline(example1)
        assert abs(sum(base) - 0.1) < 1e-9
        assert abs(sol.objective / sum(base) - 6.0) < 1e-6

    def test_transfers_and_slacks(self, example1):
        sol = solve_arbitrary(example1, 0.05)
        p = sol.relaxation
        assert abs(sol.transfers[0] - (0.6 - 0.1 + p)) < 1e-9
        assert abs(sol.transfers[1] - (0.0 - 0.0 + p)) < 1e-9
        assert all(s == 0.0 for s in sol.ic_slacks)
        assert sol.ir_slack >= -1e-9
        assert not sol.assumption_violated

    def test_deterministic_point_mass(self, example1):
        sol = solve_arbitrary(example1, 0.05)
        assert len(sol.distribution) == 1
        assert sol.distribution[0][1] == 1.0


class TestSingleColluder:
    def test_no_externals_zero_outside(self):
        inst = instance_with(slots=(0.8,), colluders=((0.7, 0.0),), support=((),))
        sol = solve_arbitrary(inst, 0.1)
        assert abs(sol.objective - 0.8 * 0.7) < 1e-9
        assert sol.distribution[0][0].levels == (0.0,)
        assert abs(sol.transfers[0] - (0.8 * 0.7 + 0.1)) < 1e-9


class TestCheckAssumption1:
    def test_zero_outside_options_have_witness(self):
        inst = instance_with(colluders=((0.6, 0.0), (0.5, 0.0)))
        _, grid = build_grid(inst, 0.05)
        report = check_assumption1(inst, grid.levels, 0.05)
        assert report.satisfied
        out = expected_outcome(inst, report.witness)
        assert all(r - p >= -1e-9 for r, p in zip(out.revenue, out.payment))

    def test_unreachable_outside_options(self):
        inst = instance_with(slots=(0.5,), colluders=((1.0, 1.0),), support=((),))
        _, grid = build_grid(inst, 0.05)
        report = check_assumption1(inst, grid.levels, 0.05)
        assert not report.satisfied
        assert report.witness is None

    def test_example2_small_outside_option(self):
        # second colluder keeps a small outside option; covered within p
        inst = instance_with(colluders=((0.6, 0.1), (0.5, 0.01)))
        _, grid = build_grid(inst, 0.05)
        report = check_assumption1(inst, grid.levels, 0.05)
        assert report.satisfied


class TestGuarantee:
    def test_value_close_to_fine_grid_optimum(self):
        rng = random.Random(515)
        for _ in range(12):
            inst = random_instance(
                rng, max_colluders=2, max_external=2, max_slots=3,
                max_support=2, bid_bits=5, feasible_outside=True,
            )
            eps = 0.1
            sol = solve_arbitrary(inst, eps)
            opt = brute_force_arbitrary(inst, FINE_LEVELS)
            assert sol.objective >= opt - eps - 1e-9
            assert all(s == 0.0 for s in sol.ic_slacks)
            assert sol.ir_slack >= -1e-9

    def test_objective_monotone_in_epsilon(self):
        rng = random.Random(616)
        for _ in range(8):
            inst = random_instance(rng, max_colluders=3, max_external=2, bid_bits=5)
            values = [solve_arbitrary(inst, eps).objective for eps in (0.2, 0.1, 0.05)]
            assert values[0] <= values[1] + 1e-12
            assert values[1] <= values[2] + 1e-12

    def test_recorded_objective_matches_recomputation(self):
        # every certified number of both solvers, bit for bit, against the
        # report's arithmetic recomputed here; a participation slack is its
        # cap r - (t - p) less its transfer
        rng = random.Random(717)
        for _ in range(10):
            inst = random_instance(rng, feasible_outside=True)
            for solve in (solve_arbitrary, solve_ll):
                sol = solve(inst, 0.1)
                n = inst.n_colluders
                rbar = [0.0] * n
                pbar = [0.0] * n
                objective = 0.0
                for prof, prob in sol.distribution:
                    out = expected_outcome(inst, prof)
                    for i in range(n):
                        rbar[i] += prob * out.revenue[i]
                        pbar[i] += prob * out.payment[i]
                    objective += prob * out.cumulative
                p = sol.relaxation
                assert sol.objective == objective
                assert sol.expected_revenue == tuple(rbar)
                assert sol.expected_payment == tuple(pbar)
                caps = [rbar[i] - (inst.outside_options[i] - p) for i in range(n)]
                assert sol.ic_slacks == tuple(caps[i] - sol.transfers[i] for i in range(n))
                assert sol.ir_slack == ordered_sum(sol.transfers) - ordered_sum(pbar)


class TestAssumptionViolationDiagnostic:
    def test_reported_not_raised(self):
        inst = instance_with(slots=(0.5,), colluders=((1.0, 1.0),), support=((),))
        sol = solve_arbitrary(inst, 0.1)
        assert sol.assumption_violated
        assert sol.ir_slack < -1e-9
        # solution still usable: point mass, zero IC slack by construction
        assert len(sol.distribution) == 1
        assert all(s == 0.0 for s in sol.ic_slacks)


class TestExample3Arbitrary:
    def test_unrestricted_transfers_reach_full_value(self):
        inst = bc.validate_and_normalize(example3_raw())
        sol = solve_arbitrary(inst, 0.1)
        assert abs(sol.objective - 1.0) < 1e-9
