import json
import random
import re
import time

import pytest

import bidcoord as bc
from bidcoord import arbitrary, limited
from bidcoord.cli import main
from bidcoord.core import make_profile
from bidcoord.discretize import build_grid, iter_grid_profiles
from bidcoord.limited import (
    DualValues,
    MasterSolution,
    extract_solution,
    make_column,
    pricing,
    solve_ll,
    solve_ll_cg,
)
from bidcoord.mechanisms import expected_outcome, individual_baseline
from bidcoord.oracles import best_deterministic_ll, brute_force_ll, prune_levels, solve_ll_dense
from bidcoord.simplex import INFEASIBLE, OPTIMAL
from bidcoord.wup import expected_tables, solve_wup_expected, unit_weights
from conftest import load_workloads, random_instance


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
        {"v": c.valuation, "t": max(0.0, u)} for c, u in zip(inst.colluders, base)
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
            assert all(abs(a - b) <= 1e-12 for a, b in zip(col.revenue, out.revenue))
            assert all(abs(a - b) <= 1e-12 for a, b in zip(col.payment, out.payment))
            assert abs(col.coefficient - out.cumulative) <= 1e-12


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
            eps = 0.1
            ll = solve_ll(inst, eps)
            arb = bc.solve_arbitrary(inst, eps)
            assert abs(ll.objective - arb.objective) < 1e-6

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
        duals = DualValues((0.0, 0.0), 0.0, 0.25)
        profile, reduced = pricing(duals, expected_tables(example3, grid.levels), example3)
        plain = solve_wup_expected(grid.levels, unit_weights(2), example3)
        assert abs(reduced - (plain.value - 0.25)) < 1e-12
        out = expected_outcome(example3, profile)
        assert abs(out.cumulative - plain.value) < 1e-9

    def test_large_negative_dual_prioritizes_that_colluder(self, example3):
        _, grid = build_grid(example3, 0.05)
        duals = DualValues((0.0, -1000.0), 0.0, 0.0)
        profile, _ = pricing(duals, expected_tables(example3, grid.levels), example3)
        out = expected_outcome(example3, profile)
        best_r1 = max(
            expected_outcome(example3, prof).revenue[1]
            for prof in iter_grid_profiles(grid.levels, 2)
        )
        assert out.revenue[1] >= best_r1 - 1e-9

    def test_negative_payment_weight_raises(self, example3):
        # duals a master would never emit: they are not dual-feasible, so
        # pricing refuses them instead of scanning the grid
        _, grid = build_grid(example3, 0.05)
        duals = DualValues((0.0, 0.0), 2.0, 0.0)  # payment weight 1 - x = -1
        with pytest.raises(bc.ToleranceError):
            pricing(duals, expected_tables(example3, grid.levels), example3)

    def test_budget_dual_noise_is_clamped_not_enumerated(self, example3, monkeypatch):
        # a master can emit a budget dual of order 1e-17 in the feasibility
        # phase; its payment weight is noise, not a reason to scan the grid
        _, grid = build_grid(example3, 0.05)
        tables = expected_tables(example3, grid.levels)

        def no_scan(*args, **kwargs):
            raise AssertionError("pricing enumerated the grid")

        monkeypatch.setattr(limited, "expected_outcome", no_scan)
        for include_objective in (False, True):
            noisy = pricing(DualValues((-0.3, -0.1), 1e-17, 0.2), tables, example3, include_objective)
            clean = pricing(DualValues((-0.3, -0.1), 0.0, 0.2), tables, example3, include_objective)
            assert noisy == clean

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(53)
        for _ in range(15):
            inst = feasible_instance(rng)
            _, grid = build_grid(inst, 0.1)
            duals = DualValues(
                tuple(-rng.random() for _ in range(inst.n_colluders)),
                -rng.random(),
                rng.uniform(-1, 1),
            )
            _, reduced = pricing(duals, expected_tables(inst, grid.levels), inst)
            y_hat = [1.0 - y for y in duals.y]
            x_hat = 1.0 - duals.x
            best = max(
                sum(
                    yh * r - x_hat * pay
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
        fake = MasterSolution(
            (col,), (0.9,), (0.0, 0.0), DualValues((0.0, 0.0), 0.0, 0.0), 0.9
        )
        with pytest.raises(bc.ToleranceError):
            extract_solution(example3, fake, 0.05)

    def test_duals_have_master_sign_pattern(self):
        rng = random.Random(75)
        for _ in range(10):
            inst = feasible_instance(rng)
            p = 0.1 / inst.n_colluders
            _, grid = build_grid(inst, p)
            _, master = solve_ll_dense(inst, grid.levels, p)
            assert all(y <= 1e-9 for y in master.duals.y)
            assert master.duals.x <= 1e-9


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
                assert all(q >= 0.0 for q in sol.transfers)
                assert all(s >= -1e-9 for s in sol.ic_slacks)
                assert sol.ir_slack >= -1e-9
                assert bc.check_delta_ic(sol, inst, sol.relaxation) == (
                    (True,) * inst.n_colluders
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
                    (c.outside_option - p) * y
                    for c, y in zip(inst.colluders, master.duals.y)
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

    def counted_warm(master, column, elastic=False):
        calls.append(("warm", elastic))
        return warm(master, column, elastic)

    monkeypatch.setattr(limited, "lp_solve", counted_cold)
    monkeypatch.setattr(limited, "add_master_column", counted_warm)
    return calls


class TestMasterWork:
    def test_feasible_seeds_take_one_lp(self, example3, monkeypatch):
        # the seed master is feasible and optimal: one LP, no elastic solve
        # confirming zero relief first
        calls = count_master_lps(monkeypatch)
        sol = solve_ll(example3, 0.1)
        assert abs(sol.objective - 1.0) < 1e-9
        assert calls == [("cold", False, OPTIMAL)]

    def test_infeasible_seeds_run_the_feasibility_phase(self, example3, monkeypatch):
        # at eps = 0.01 only a mixture covers both outside options, which
        # the two seeds do not give: the objective master on the seeds is
        # infeasible, the elastic phase prices in one column, and the
        # objective phase starts cold on all three
        calls = count_master_lps(monkeypatch)
        p = 0.005
        _, grid = build_grid(example3, p)
        sol, master, rounds = solve_ll_cg(example3, grid.levels, p)
        assert abs(sol.objective - 1.0) < 1e-6
        assert calls == [
            ("cold", False, INFEASIBLE),
            ("cold", True, OPTIMAL),
            ("warm", True),
            ("cold", False, OPTIMAL),
            ("warm", False),
        ]
        assert rounds == 3
        assert len(master.columns) == 4

    def test_objective_rounds_are_warm_resumes(self, monkeypatch):
        # after the feasibility phase, one cold objective LP and then one
        # warm resume per priced-in column; the last round prices none
        inst, _ = calibrated_instance(2)
        calls = count_master_lps(monkeypatch)
        p = 0.08 / inst.n_colluders
        _, grid = build_grid(inst, p)
        levels = prune_levels(grid.levels, inst.external)
        sol, master, rounds = solve_ll_cg(inst, levels, p)
        assert [c for c in calls if c[0] == "cold"] == [
            ("cold", False, INFEASIBLE),
            ("cold", True, OPTIMAL),
            ("cold", False, OPTIMAL),
        ]
        start = calls.index(("cold", False, OPTIMAL))
        elastic_rounds = start - 2
        objective_resumes = calls[start + 1 :]
        assert calls[2:start] == [("warm", True)] * elastic_rounds
        assert len(objective_resumes) >= 3
        assert objective_resumes == [("warm", False)] * len(objective_resumes)
        assert rounds == elastic_rounds + len(objective_resumes) + 1
        assert len(master.columns) == 2 + elastic_rounds + len(objective_resumes)
        dense, _ = solve_ll_dense(inst, levels, p)
        assert abs(sol.objective - dense.objective) < 1e-6

    def test_binding_instance_needs_the_feasibility_phase(self, monkeypatch):
        calls = count_master_lps(monkeypatch)
        sol = solve_ll(binding_instance(), 0.05)
        assert calls[:2] == [("cold", False, INFEASIBLE), ("cold", True, OPTIMAL)]
        assert len(sol.distribution) == 2
        assert abs(sol.objective - 0.481) < 1e-9


class TestEndRule:
    """Column generation ends when pricing does, with no round cap."""

    @pytest.mark.parametrize("mechanism", ["gsp", "vcg"])
    def test_cent_bid_binding_case_at_32_colluders(self, tmp_path, capsys, mechanism):
        # a valid instance that needs 216-262 pricing rounds
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
        # 0.7-0.9 s on a 2-core machine; twice that absorbs a busy scheduler
        assert elapsed < 2.0

    @pytest.mark.parametrize("elastic, reduced, error", [
        pytest.param(True, 0.5, bc.ToleranceError, id="elastic"),
        pytest.param(False, 0.5, bc.ToleranceError, id="objective"),
        pytest.param(True, 1e-6, bc.InfeasibleError, id="elastic-within-tolerance"),
    ])
    def test_held_profile_proposed_again(self, example3, monkeypatch, elastic, reduced, error):
        # at p = 0.005 both phases run; the stub proposes the all-zero seed
        # column in one of them.  Above 1e-5 that is a pricing error in
        # either phase, not a certificate that the relief cannot fall
        real = limited.pricing

        def stub(duals, tables, instance, include_objective=True):
            if include_objective != elastic:
                return make_profile([0.0, 0.0]), reduced
            return real(duals, tables, instance, include_objective)

        monkeypatch.setattr(limited, "pricing", stub)
        p = 0.005
        _, grid = build_grid(example3, p)
        with pytest.raises(error):
            solve_ll_cg(example3, grid.levels, p)
