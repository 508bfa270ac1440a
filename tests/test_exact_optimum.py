"""The exact optimum lives on {0} and the support bids (ROADMAP item 16).

``oracles.support_levels`` gives those levels, C.  Today's solvers on C
give the exact, unrelaxed optimum OPT0: ``solve_arbitrary(..., levels=C)``
and ``solve_ll_cg(instance, C, 0.0)``.  So the paper's bi-criteria
guarantee is checked on every benchmark pool instance with no
enumeration: the approximation scheme's objective is at least OPT0 - eps,
and each participation constraint holds relaxed by p = eps/n_c.
"""

import json
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidcoord as bc
from bidcoord.arbitrary import solve_arbitrary
from bidcoord.limited import PRICING_TOL, solve_ll, solve_ll_cg
from conftest import load_workloads, random_instance, random_levels
from oracles import support_levels

workloads = load_workloads()


def feasible_or_none(solve):
    """``solve()``'s solution; None if the instance is infeasible."""
    try:
        return solve()
    except bc.InfeasibleError:
        return None


def test_support_levels():
    raw = {
        "mechanism": "gsp",
        "slots": [1.0, 0.5],
        "colluders": [{"v": 0.9, "t": 0.0}],
        "external": {"support": [
            {"bids": [0.75, 0.0], "prob": 0.5}, {"bids": [0.25, 0.75], "prob": 0.5},
        ]},
    }
    assert support_levels(bc.validate_and_normalize(raw)) == (0.0, 0.25, 0.75)


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    bits=st.sampled_from((2, 4, 10)),
    feasible_outside=st.booleans(),
)
def test_support_levels_dominate_any_level_set(seed, bits, feasible_outside):
    # the optimum on C is at least the optimum on a 1/32 grid plus random
    # levels: exactly in arbitrary mode, and for the LL master at p = 0
    # up to column generation's pricing tolerance
    rng = random.Random(seed)
    inst = random_instance(
        rng, max_colluders=3, max_external=3, max_slots=4, max_support=3,
        bid_bits=bits, feasible_outside=feasible_outside,
    )
    levels = sorted({k / 32 for k in range(33)} | set(random_levels(rng)))
    exact = support_levels(inst)
    assert (
        solve_arbitrary(inst, 0.05, levels=exact).objective
        >= solve_arbitrary(inst, 0.05, levels=levels).objective - 1e-12
    )
    other = feasible_or_none(lambda: solve_ll_cg(inst, levels, 0.0)[0])
    if other is not None:
        # any column on other levels has one on C with its revenue and no
        # larger payment, so C's master is feasible too
        assert solve_ll_cg(inst, exact, 0.0)[0].objective >= other.objective - PRICING_TOL


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_pool_guarantee(name):
    # every variant of every pool slot: the approximation scheme is
    # within eps of OPT0, feasible wherever OPT0 is, and meets every
    # participation constraint relaxed by p; an LL distribution holds at
    # most n_c + 1 profiles, the master's row count
    epsilon = workloads.EPSILON
    arbitrary = workloads.WORKLOADS[name].mode == "arbitrary"
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "support bid needs .*; capping at 53", UserWarning)
        for slot in range(len(workloads.WORKLOADS[name].shapes)):
            for variant in range(workloads.VARIANTS):
                key = f"{name}/{slot}/{variant}"
                inst = bc.validate_and_normalize(
                    json.loads(workloads.pool_instance(name, slot, variant))
                )
                exact = support_levels(inst)
                if arbitrary:
                    opt0 = solve_arbitrary(inst, epsilon, levels=exact)
                    fptas = solve_arbitrary(inst, epsilon)
                else:
                    opt0 = feasible_or_none(lambda: solve_ll_cg(inst, exact, 0.0)[0])
                    fptas = feasible_or_none(lambda: solve_ll(inst, epsilon))
                if opt0 is not None:
                    assert fptas is not None, key
                    assert fptas.objective >= opt0.objective - epsilon, key
                if fptas is None:
                    continue
                p = fptas.relaxation
                assert p == inst.threshold(epsilon), key
                for r, q, t in zip(fptas.expected_revenue, fptas.transfers, inst.outside_options):
                    assert r - q - t >= -p - 1e-9, key
                assert len(fptas.distribution) <= inst.n_colluders + 1, key
