import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidcoord as bc
from bidcoord.core import ExternalDistribution, make_profile
from bidcoord.discretize import (
    Interval,
    build_grid,
    build_intervals,
    event_probability,
    iter_grid_profiles,
    max_bits,
    project_to_grid,
    rec_split,
)
from bidcoord.mechanisms import expected_outcome
from bidcoord.oracles import recursive_split
from conftest import dyadic, random_instance


def point_mass(*bids):
    return ExternalDistribution(((tuple(sorted(bids, reverse=True)), 1.0),))


def random_distribution(rng, n_e=None, bits=None, max_support=8):
    n_e = n_e or rng.randint(1, 4)
    bits = bits or rng.randint(1, 8)
    k = rng.randint(1, max_support)
    probs = [rng.random() for _ in range(k)]
    total = sum(probs)
    return ExternalDistribution(
        tuple(
            (tuple(sorted((dyadic(rng, bits) for _ in range(n_e)), reverse=True)), p / total)
            for p in probs
        )
    )


class TestRecSplit:
    def test_threshold_one_returns_root(self):
        dist = point_mass(0.3, 0.7)
        assert rec_split(Interval(0.0, 1.0), 1.0, 2**-8, dist) == [Interval(0.0, 1.0)]

    def test_single_split(self):
        dist = ExternalDistribution((((0.25,), 0.5), ((0.75,), 0.5)))
        got = rec_split(Interval(0.0, 1.0), 0.6, 2**-8, dist)
        assert got == [Interval(0.0, 0.5), Interval(0.5, 1.0)]
        for iv in got:
            assert event_probability(dist, iv.lower, iv.upper) <= 0.6

    def test_point_mass_bottoms_out_at_eta(self):
        dist = point_mass(0.5)
        eta = 0.25
        got = rec_split(Interval(0.0, 1.0), 0.4, eta, dist)
        for iv in got:
            pr = event_probability(dist, iv.lower, iv.upper)
            assert pr <= 0.4 or iv.width <= eta
        hot = [iv for iv in got if iv.contains(0.5)]
        assert len(hot) == 1 and hot[0].width <= eta


# Cents are non-dyadic (eta = 2^-53); a short pool makes duplicate bids
# within and across entries common, and 0 and 1 sit on the endpoints.
_BID = st.sampled_from([0.0, 1.0, 0.01, 0.1, 0.37, 0.5, 0.99, 0.125, 0.25, 0.75])


@st.composite
def split_cases(draw):
    n_e = draw(st.integers(0, 4))
    k = draw(st.integers(1, 5))
    # Zero weights give zero-probability entries; sevenths round.
    weights = draw(st.lists(st.integers(0, 7), min_size=k, max_size=k).filter(any))
    entries = [sorted(draw(st.lists(_BID, min_size=n_e, max_size=n_e)), reverse=True)]
    for _ in range(k - 1):
        entries.append(entries[0] if draw(st.booleans()) else
                       sorted(draw(st.lists(_BID, min_size=n_e, max_size=n_e)), reverse=True))
    probs = [w / sum(weights) for w in weights]
    dist = ExternalDistribution(tuple((tuple(b), q) for b, q in zip(entries, probs)))
    # A running sum of the entry probabilities, as the split adds them,
    # puts an interval's probability exactly on p.
    prefix, total = [], 0.0
    for q in probs:
        total += q
        prefix.append(total)
    p = draw(st.one_of(
        st.sampled_from([1.0, 1e-12, 5e-324]),
        st.floats(1e-6, 1.0),
        st.sampled_from(prefix).filter(lambda q: 0.0 < q <= 1.0),
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eta = 2.0 ** -max_bits(dist)
    lo, hi = draw(st.sampled_from([(0, 8), (0, 3), (1, 8), (2, 6), (5, 6)]))
    return dist, p, eta, Interval(lo / 8, hi / 8)


class TestSplitVsRecursiveReference:
    """The iterative split against the recursive definition in ``oracles``.

    Three mutants of ``discretize._split`` fail here: adding the entry
    probabilities with ``math.fsum`` (exactly rounded, as ``sum`` is
    compensated from Python 3.12 on) or in bid order instead of support
    order, and making a child whose bids equal its parent's a leaf
    without its width test.  Adding them with ``sum`` passes: before
    Python 3.12 ``sum`` adds floats left to right exactly as the loop
    does, so that mutant is equivalent there.
    """

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(split_cases())
    def test_intervals_and_calls_match(self, case):
        dist, p, eta, start = case
        intervals, calls = recursive_split(0.0, 1.0, p, eta, dist)
        got = build_intervals(dist, p, eta)
        assert list(got.intervals) == intervals
        assert got.rec_calls == calls
        leaves, _ = recursive_split(start.lower, start.upper, p, eta, dist)
        assert rec_split(start, p, eta, dist) == leaves


class TestMaxBits:
    def test_simple_dyadics(self):
        assert max_bits(point_mass(0.5, 0.25)) == 2

    def test_integral_bid_contributes_nothing(self):
        assert max_bits(point_mass(0.0)) == 0
        assert max_bits(point_mass(1.0)) == 0

    def test_three_bits(self):
        assert max_bits(point_mass(0.625)) == 3

    def test_non_dyadic_capped_with_warning(self):
        with pytest.warns(UserWarning):
            assert max_bits(point_mass(1 / 3)) == 53


class TestBuildGrid:
    def _instance(self, support, mechanism="gsp"):
        raw = {
            "mechanism": mechanism,
            "slots": [1.0],
            "colluders": [{"v": 0.5, "t": 0.0}, {"v": 0.4, "t": 0.0}],
            "external": {
                "support": [{"bids": list(b), "prob": 1.0 / len(support)} for b in support]
            },
        }
        return bc.validate_and_normalize(raw)

    def test_no_externals(self):
        inst = self._instance([()])
        interval_set, grid = build_grid(inst, 0.5)
        assert [(iv.lower, iv.upper) for iv in interval_set.intervals] == [(0.0, 1.0)]
        assert grid.levels == (0.0,)
        assert grid.n_ranks == 2
        assert grid.flat_size == 2

    def test_example3_point_mass(self):
        inst = self._instance([(0.75,)])
        interval_set, grid = build_grid(inst, 0.5)
        assert interval_set.eta == 0.25
        assert grid.levels == (0.0, 0.5, 0.75)

    def test_p_zero_rejected(self):
        inst = self._instance([(0.75,)])
        with pytest.raises(ValueError):
            build_grid(inst, 0.0)

    def test_open_interior_probability_bounded(self):
        rng = random.Random(77)
        for _ in range(40):
            dist = random_distribution(rng)
            p = rng.choice([0.1, 0.3, 0.5])
            eta = 2.0 ** -max_bits(dist)
            for iv in build_intervals(dist, p, eta).intervals:
                open_pr = sum(
                    prob
                    for bids, prob in dist.support
                    if any(iv.lower < b < iv.upper for b in bids)
                )
                assert open_pr <= p + 1e-15


class TestIntervalProperties:
    def test_coverage_disjunction_bound_and_calls(self):
        rng = random.Random(88)
        for _ in range(60):
            dist = random_distribution(rng)
            n_e = dist.n_external
            p = rng.choice([0.05, 0.1, 0.25, 0.5])
            eta = 2.0 ** -max_bits(dist)
            ivs = build_intervals(dist, p, eta)
            # IntervalSet construction already asserts coverage and tiling
            for iv in ivs.intervals:
                ok = (
                    event_probability(dist, iv.lower, iv.upper) <= p + 1e-15
                    or iv.width <= eta + 1e-15
                )
                assert ok
            if max_bits(dist) > 0:
                assert len(ivs) <= (2 * n_e / p) * math.log2(1.0 / eta)
            assert ivs.rec_calls <= 2 * len(ivs)

    def test_refining_p_only_adds_levels(self):
        rng = random.Random(99)
        for _ in range(20):
            inst = random_instance(rng, max_external=3, bid_bits=5)
            coarse = build_grid(inst, 0.5)[1].levels
            fine = build_grid(inst, 0.1)[1].levels
            assert set(coarse) <= set(fine)


class TestProjection:
    def test_rounds_down_and_keeps_order(self):
        prof = make_profile([0.8, 0.3, 0.3])
        proj = project_to_grid(prof, [0.0, 0.25, 0.75])
        assert proj.levels == (0.75, 0.25, 0.25)
        # original order: colluder 1 above colluder 2 (equal levels)
        assert proj.bids[1] > proj.bids[2]

    def test_projection_lemma(self):
        rng = random.Random(111)
        for _ in range(60):
            inst = random_instance(rng, max_external=3, bid_bits=6)
            p = rng.choice([0.1, 0.25, 0.5])
            _, grid = build_grid(inst, p)
            cont = make_profile([rng.random() for _ in range(inst.n_colluders)])
            proj = project_to_grid(cont, grid.levels)
            before = expected_outcome(inst, cont)
            after = expected_outcome(inst, proj)
            for i in range(inst.n_colluders):
                assert after.payment[i] <= before.payment[i] + 1e-9
                assert after.revenue[i] >= before.revenue[i] - p - 1e-9


class TestIterGridProfiles:
    def test_counts_with_tie_orders(self):
        profiles = list(iter_grid_profiles([0.0, 0.5], 2))
        # 4 level assignments, the 2 tied ones doubled
        assert len(profiles) == 6
        assert len(set(profiles)) == 6

    def test_without_tie_orders(self):
        profiles = list(iter_grid_profiles([0.0, 0.5], 2, tie_orders=False))
        assert len(profiles) == 4

    def test_deterministic(self):
        a = list(iter_grid_profiles([0.0, 0.25, 0.5], 3))
        b = list(iter_grid_profiles([0.0, 0.25, 0.5], 3))
        assert a == b
