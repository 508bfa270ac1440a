"""Dominance pruning of the bid grid: the pruned grid against the full one."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidcoord as bc
from bidcoord import arbitrary, cli, limited
from bidcoord.arbitrary import solve_arbitrary
from bidcoord.core import ExternalDistribution, InfeasibleError
from bidcoord.discretize import build_grid
from bidcoord.limited import solve_ll
from bidcoord.oracles import brute_force_arbitrary, brute_force_ll, prune_levels
from bidcoord.wup import WupWeights, expected_tables, solve_wup, solve_wup_expected
from conftest import cent_bids_raw


def point_mass(*bids):
    return ExternalDistribution(((tuple(sorted(bids, reverse=True)), 1.0),))


def support_bids(distribution):
    return {b for bids, _ in distribution.support for b in bids if b > 0.0}


class TestPruneLevels:
    def test_bid_at_lower_end_of_gap_keeps_nothing(self):
        # 0.25 lies in the gap below 0.25, not in (0.25, 0.5]
        assert prune_levels((0.0, 0.25, 0.5), point_mass(0.25)) == (0.0, 0.25)

    def test_bid_at_upper_end_of_gap_keeps_level(self):
        assert prune_levels((0.0, 0.25, 0.5), point_mass(0.5)) == (0.0, 0.5)

    def test_bid_inside_gap_keeps_level(self):
        assert prune_levels((0.0, 0.25, 0.5), point_mass(0.3)) == (0.0, 0.5)

    def test_bid_above_top_level_keeps_nothing(self):
        assert prune_levels((0.0, 0.25, 0.5), point_mass(1.0)) == (0.0,)

    def test_no_externals_leaves_zero(self):
        assert prune_levels((0.0, 0.25, 0.5, 0.75), point_mass()) == (0.0,)

    def test_zero_bids_keep_nothing(self):
        assert prune_levels((0.0, 0.5), point_mass(0.0, 0.0)) == (0.0,)

    def test_bids_across_entries_and_duplicates(self):
        dist = ExternalDistribution((((0.75, 0.3), 0.5), ((0.75, 0.75), 0.5)))
        assert prune_levels((0.0, 0.25, 0.5, 0.75, 0.875), dist) == (0.0, 0.5, 0.75)

    def test_example3_grid(self, example3):
        _, grid = build_grid(example3, 0.5)
        assert grid.levels == (0.0, 0.5, 0.75)
        assert prune_levels(grid.levels, example3.external) == (0.0, 0.75)

    def test_levels_must_start_at_zero(self):
        with pytest.raises(ValueError):
            prune_levels((0.25, 0.5), point_mass(0.5))
        with pytest.raises(ValueError):
            prune_levels((), point_mass(0.5))


# Cent bids, dyadic levels and both ends of [0, 1] from one short pool, so
# bids repeat and equal grid levels often; any cent value adds the rest.
_POOL = (0.0, 0.01, 0.07, 0.25, 0.33, 0.5, 0.51, 0.75, 0.99, 1.0)
_VALUE = st.one_of(st.sampled_from(_POOL), st.integers(0, 100).map(lambda c: c / 100))
_WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 2.0))


@st.composite
def instances(draw):
    """Up to 3 colluders, 3 externals and 3 support entries, zero-probability
    entries allowed, and up to n_c + n_e slots (so m > n_c occurs)."""
    n_c = draw(st.integers(1, 3))
    n_e = draw(st.integers(0, 3))
    m = draw(st.integers(1, min(4, n_c + n_e)))
    k = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    outside = st.sampled_from([0.0, 0.0, 0.02, 0.1, 0.3])
    raw = {
        "mechanism": draw(st.sampled_from(["gsp", "vcg"])),
        "slots": draw(st.lists(_VALUE, min_size=m, max_size=m)),
        "colluders": [
            {"v": draw(_VALUE), "t": draw(outside)} for _ in range(n_c)
        ],
        "external": {
            "support": [
                {"bids": draw(st.lists(_VALUE, min_size=n_e, max_size=n_e)), "prob": w / sum(weights)}
                for w in weights
            ]
        },
    }
    return bc.validate_and_normalize(raw)


@st.composite
def small_grids(draw, max_levels=5):
    """An instance and an ascending level list starting at 0, small enough
    for the exhaustive references; levels often equal external bids."""
    inst = draw(instances())
    bids = sorted(support_bids(inst.external))
    level = st.one_of(_VALUE, st.sampled_from(bids)) if bids else _VALUE
    extra = draw(
        st.lists(level.filter(lambda x: x > 0.0), min_size=1, max_size=max_levels - 1, unique=True)
    )
    return inst, (0.0, *sorted(extra))


@st.composite
def wup_cases(draw):
    """Small grids, or the grid ``build_grid`` makes (deep for cent bids),
    with weights and one support entry's bids as a fixed external profile."""
    if draw(st.booleans()):
        inst, levels = draw(small_grids())
    else:
        inst = draw(instances())
        p = draw(st.sampled_from([0.02, 0.1, 0.5, 1.0]))
        levels = build_grid(inst, p)[1].levels
    y = tuple(draw(_WEIGHT) for _ in range(inst.n_colluders))
    weights = WupWeights(y, draw(_WEIGHT))
    external = draw(st.sampled_from(inst.external.support))[0]
    return inst, levels, weights, external


@pytest.mark.filterwarnings("ignore:support bid needs")
class TestPrunedEqualsFullGrid:
    @settings(max_examples=200)
    @given(small_grids())
    def test_merge_matches_gap_definition(self, case):
        inst, levels = case
        bids = support_bids(inst.external)
        expected = (0.0,) + tuple(
            hi for lo, hi in zip(levels, levels[1:]) if any(lo < b <= hi for b in bids)
        )
        pruned = prune_levels(levels, inst.external)
        assert pruned == expected
        assert len(pruned) <= 1 + len(bids)

    @settings(max_examples=200)
    @given(wup_cases())
    def test_wup_value(self, case):
        # in expectation, and for a fixed external profile: its bids are
        # support bids, so the pruned levels keep its optimum as well
        inst, levels, weights, external = case
        kept = prune_levels(levels, inst.external)
        full = solve_wup_expected(levels, weights, inst)
        pruned = solve_wup_expected(kept, weights, inst)
        assert abs(pruned.value - full.value) <= 1e-12
        full = solve_wup(expected_tables(inst, levels, external), weights, inst)
        pruned = solve_wup(expected_tables(inst, kept, external), weights, inst)
        assert abs(pruned.value - full.value) <= 1e-12

    @settings(max_examples=150)
    @given(small_grids(), st.sampled_from([0.05, 0.5, 1.0]))
    def test_arbitrary_against_full_grid_oracle(self, case, eps):
        inst, levels = case
        sol = solve_arbitrary(inst, eps, levels=prune_levels(levels, inst.external))
        assert abs(sol.objective - brute_force_arbitrary(inst, levels)) <= 1e-12

    @settings(max_examples=150)
    @given(small_grids(max_levels=4), st.sampled_from([0.05, 0.5, 1.0]))
    def test_ll_against_full_grid_oracle(self, case, eps):
        inst, levels = case
        value, status = brute_force_ll(inst, levels, eps / inst.n_colluders)
        try:
            sol = solve_ll(inst, eps, levels=prune_levels(levels, inst.external))
        except InfeasibleError:
            assert status == "infeasible"
            return
        assert status == "optimal"
        assert abs(sol.objective - value) <= 1e-9


def test_cent_bid_solvers_see_only_pruned_levels(monkeypatch, tmp_path):
    # called without levels, a solver (or ``wup --p``) optimizes the
    # pruned grid; called with levels, exactly those, pruned or not
    raw = cent_bids_raw()
    inst = bc.validate_and_normalize(raw)
    eps = 0.05
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(json.dumps(raw), encoding="utf-8")
    weights_path = tmp_path / "weights.json"
    weights = {"revenue_weights": [1.0] * inst.n_colluders, "payment_weight": 1.0}

    def wup(**extra):
        weights_path.write_text(json.dumps(dict(weights, **extra)), encoding="utf-8")
        argv = ["wup", str(instance_path), "--weights-file", str(weights_path)]
        assert cli.main(argv + ["--p", str(eps / inst.n_colluders)]) == 0

    with pytest.warns(UserWarning, match="fractional bits"):
        _, grid = build_grid(inst, eps / inst.n_colluders)
    assert len(grid.levels) > 1000
    bound = 1 + len(support_bids(inst.external))
    seen = []

    def counting(original, levels_at):
        def wrapper(*args, **kwargs):
            seen.append(len(args[levels_at]))
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(arbitrary, "solve_wup_expected", counting(arbitrary.solve_wup_expected, 0))
    monkeypatch.setattr(limited, "expected_tables", counting(limited.expected_tables, 1))
    monkeypatch.setattr(cli, "expected_tables", counting(cli.expected_tables, 1))
    with pytest.warns(UserWarning, match="fractional bits"):
        solve_arbitrary(inst, eps)
    with pytest.warns(UserWarning, match="fractional bits"):
        solve_ll(inst, eps)
    wup()
    assert len(seen) == 3
    assert all(d <= bound for d in seen), (seen, bound)

    levels = grid.levels[::20]
    assert len(levels) > bound
    seen.clear()
    solve_arbitrary(inst, eps, levels=levels)
    solve_ll(inst, eps, levels=levels)
    wup(levels=list(levels))
    assert seen == [len(levels)] * 3
