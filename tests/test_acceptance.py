"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite is seeded and deterministic.
"""

import itertools
import json
import math
import random
import time
from pathlib import Path

import pytest

import bidcoord as bc
from bidcoord.arbitrary import solve_arbitrary
from bidcoord.cli import canonical_json, main as cli_main
from bidcoord.core import ExternalDistribution, make_profile
from bidcoord.discretize import build_grid, max_bits, project_to_grid
from bidcoord.limited import solve_ll, solve_ll_cg
from bidcoord.mechanisms import expected_outcome, individual_baseline
from bidcoord.wup import WupWeights, build_wup_graph, solve_wup_expected
from conftest import assert_tiles, dyadic, fixed_external, iterative_split, random_instance
from oracles import (
    allocate,
    best_deterministic_ll,
    brute_force_arbitrary,
    brute_force_wup,
    event_probability,
    path_weight,
    payments_vcg,
    solve_ll_dense,
    vcg_externality,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def _wup_family(seed: int, count: int):
    """Random (instance, levels, weights) triples: n_c <= 4, n_e <= 3,
    m <= 5, d <= 6, both mechanisms, random nonnegative weights."""
    rng = random.Random(seed)
    family = []
    for k in range(count):
        inst = random_instance(
            rng,
            max_colluders=4,
            max_external=3,
            max_slots=5,
            max_support=3,
            bid_bits=8,
            mechanism="gsp" if k % 2 == 0 else "vcg",
        )
        d = rng.randint(1, 5)
        levels = sorted({dyadic(rng, 8) for _ in range(d)} | {0.0})
        y = tuple(0.0 if rng.random() < 0.1 else rng.random() * 2 for _ in range(inst.n_colluders))
        x = 0.0 if rng.random() < 0.1 else rng.random() * 2
        family.append((inst, levels, WupWeights(y, x)))
    return family


@pytest.fixture(scope="module")
def wup_family():
    return _wup_family(1001, 1000)


def test_criterion_1_lemma_map_identity(wup_family):
    started = time.perf_counter()
    paths_checked = 0
    for inst, levels, weights in wup_family:
        n_c = inst.n_colluders
        y = weights.revenue_weights
        x = weights.payment_weight
        for ext, _ in inst.external.support:
            fixed = fixed_external(inst, ext)
            graph = build_wup_graph(levels, weights, fixed)
            for path in itertools.combinations_with_replacement(
                range(len(graph.levels)), n_c
            ):
                profile = graph.profile_for_path(path)
                out = expected_outcome(fixed, profile)
                reference = sum(
                    y[i] * out.revenue[i] - x * out.payment[i]
                    for i in range(n_c)
                )
                assert abs(path_weight(graph, path) - reference) <= 1e-9
                paths_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(1, f"{len(wup_family)} instances, {paths_checked} paths, "
               f"both mechanisms, 1e-9 ({elapsed:.1f}s)")


def test_criterion_2_wup_optimality(wup_family):
    started = time.perf_counter()
    for inst, levels, weights in wup_family:
        result = solve_wup_expected(levels, weights, inst)
        _, best = brute_force_wup(levels, weights, inst)
        assert abs(result.value - best) <= 1e-9
        out = expected_outcome(inst, result.profile)
        realized = sum(
            weights.revenue_weights[i] * out.revenue[i]
            - weights.payment_weight * out.payment[i]
            for i in range(inst.n_colluders)
        )
        assert abs(realized - result.value) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(2, f"{len(wup_family)} instances, DP equals exhaustive enumeration, "
               f"1e-9 ({elapsed:.1f}s)")


def test_criterion_3_vcg_closed_form_and_truthfulness():
    rng = random.Random(3003)
    for _ in range(1000):
        inst = random_instance(rng, max_colluders=3, max_external=3, max_slots=5)
        profile = make_profile([rng.random() for _ in range(inst.n_colluders)])
        for ext, _ in inst.external.support:
            ranking = allocate(profile, ext)
            closed = payments_vcg(ranking, inst.slots)
            oracle = vcg_externality(ranking, inst.slots)
            assert all(abs(a - b) <= 1e-12 for a, b in zip(closed, oracle))

    deviation_levels = [i / 7 for i in range(8)]
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, n)
        lambdas = sorted((rng.random() for _ in range(m)), reverse=True)
        values = [rng.random() for _ in range(n)]

        def utility(bids, agent):
            ranking = allocate(make_profile(bids), [])
            pays = payments_vcg(ranking, lambdas)
            for k, entry in enumerate(ranking):
                if entry.index == agent:
                    if k >= m:
                        return 0.0
                    return lambdas[k] * values[agent] - pays[k]

        for agent in range(n):
            honest = utility(list(values), agent)
            for deviation in deviation_levels:
                bids = list(values)
                bids[agent] = deviation
                assert utility(bids, agent) <= honest + 1e-9
                checked += 1
    _report(3, f"closed form == externality oracle (1e-12) on 1000 instances; "
               f"no profitable deviation in {checked} checks (1e-9)")


def test_criterion_4_rec_guarantees():
    rng = random.Random(4004)
    for _ in range(100):
        n_e = rng.randint(1, 4)
        bits = rng.randint(1, 8)
        k = rng.randint(1, 8)
        probs = [rng.random() for _ in range(k)]
        total = sum(probs)
        dist = ExternalDistribution(
            tuple(
                (tuple(sorted((dyadic(rng, bits) for _ in range(n_e)), reverse=True)), p / total)
                for p in probs
            )
        )
        p = rng.choice([0.05, 0.1, 0.2, 0.3, 0.5])
        eta = 2.0 ** -max_bits(dist)
        leaves, calls = iterative_split(dist, p, eta)
        assert_tiles(leaves)
        assert leaves[0][0] == 0.0
        assert leaves[-1][1] == 1.0
        for lower, upper in leaves:
            assert (
                event_probability(dist, lower, upper) <= p + 1e-15
                or upper - lower <= eta + 1e-15
            )
        if max_bits(dist) > 0:
            assert len(leaves) <= (2 * n_e / p) * math.log2(1.0 / eta)
        assert calls <= 2 * len(leaves)
    _report(4, "100 distributions: cover, disjunction, interval bound, call count")


def test_criterion_5_discretized_bid_lemma():
    rng = random.Random(5005)
    for _ in range(200):
        inst = random_instance(rng, max_colluders=4, max_external=3, bid_bits=6)
        p = rng.choice([0.1, 0.25, 0.5])
        _, grid = build_grid(inst, p)
        continuous = make_profile([rng.random() for _ in range(inst.n_colluders)])
        projected = project_to_grid(continuous, grid.levels)
        before = expected_outcome(inst, continuous)
        after = expected_outcome(inst, projected)
        for i in range(inst.n_colluders):
            assert after.payment[i] <= before.payment[i] + 1e-9
            assert after.revenue[i] >= before.revenue[i] - p - 1e-9
    _report(5, "200 projections: payments never rise, revenue loss <= p (1e-9)")


def test_criterion_6_arbitrary_fptas():
    rng = random.Random(6006)
    fine_levels = [k / 64 for k in range(65)]
    epsilon = 0.1
    for _ in range(50):
        inst = random_instance(
            rng,
            max_colluders=2,
            max_external=2,
            max_slots=3,
            max_support=2,
            bid_bits=5,
            feasible_outside=True,
        )
        solution = solve_arbitrary(inst, epsilon)
        fine_opt = brute_force_arbitrary(inst, fine_levels)
        assert solution.objective >= fine_opt - epsilon - 1e-9
        assert all(s == 0.0 for s in solution.ic_slacks)
        assert solution.ir_slack >= -1e-9
    _report(6, "50 instances: value >= fine-grid optimum - 0.1, "
               "zero participation slack, IR holds")


def test_criterion_7_example1_golden():
    raw = json.loads((INSTANCES / "example1.json").read_text())
    inst = bc.validate_and_normalize(raw)
    solution = solve_arbitrary(inst, 0.05)
    baseline = individual_baseline(inst)
    assert abs(solution.objective - 0.6) <= 1e-9
    assert abs(sum(baseline) - 0.1) <= 1e-9
    assert abs(solution.objective / sum(baseline) - 6.0) <= 1e-9
    _report(7, "objective 0.6, baseline 0.1, ratio 6.0 (1e-9)")


def test_criterion_8_example3_golden():
    raw = json.loads((INSTANCES / "example3.json").read_text())
    inst = bc.validate_and_normalize(raw)
    epsilon = 0.01  # keeps p below every outside option, so mixing is forced
    solution = solve_ll(inst, epsilon)
    assert abs(solution.objective - 1.0) <= 1e-6
    assert len(solution.distribution) >= 2
    _, grid = build_grid(inst, epsilon / inst.n_colluders)
    deterministic = best_deterministic_ll(inst, grid.levels)
    assert abs(deterministic - 0.5) <= 1e-6
    _report(8, "randomized value 1.0 over >= 2 columns; best deterministic 0.5")


def test_criterion_9_column_generation_vs_dense():
    rng = random.Random(9009)
    max_rounds = 0
    for trial in range(50):
        if trial % 5 == 0:
            # symmetric instances whose optimum genuinely mixes
            e = rng.choice([0.5, 0.75])
            t = rng.choice([0.01, 0.02])
            raw = {
                "mechanism": rng.choice(["gsp", "vcg"]),
                "slots": [1.0, 1.0],
                "colluders": [{"v": 1.0, "t": t}, {"v": 1.0, "t": t}],
                "external": {"support": [{"bids": [e], "prob": 1.0}]},
            }
            inst = bc.validate_and_normalize(raw)
            p = 0.005
        else:
            inst = random_instance(
                rng,
                max_colluders=3,
                max_external=2,
                max_slots=4,
                max_support=3,
                bid_bits=4,
                feasible_outside=True,
            )
            p = 0.1 / inst.n_colluders
        _, grid = build_grid(inst, p)
        dense_solution, _ = solve_ll_dense(inst, grid.levels, p)
        cg_solution, _, rounds = solve_ll_cg(inst, grid.levels, p)
        max_rounds = max(max_rounds, rounds)
        assert rounds <= 200
        assert abs(dense_solution.objective - cg_solution.objective) <= 1e-6
    _report(9, f"50 instances: CG == dense (1e-6), max pricing rounds {max_rounds}")


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    runs = [
        ("example1.json", "arbitrary", "0.05"),
        ("example3.json", "limited-liability", "0.01"),
        ("example3.json", "limited-liability", "0.1"),
    ]
    for name, mode, eps in runs:
        reports = []
        for attempt in range(2):
            out_path = tmp_path / f"{name}.{mode}.{attempt}.json"
            code = cli_main([
                "solve", str(INSTANCES / name),
                "--mode", mode, "--epsilon", eps, "--out", str(out_path),
            ])
            assert code == 0
            doc = json.loads(out_path.read_text())
            doc.pop("timings")
            reports.append(canonical_json(doc))
        assert reports[0] == reports[1]
    capsys.readouterr()
    _report(10, "repeated solves of every golden instance byte-identical "
                "(timings excluded)")
