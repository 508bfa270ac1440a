import linecache
import math
import random
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidcoord as bc
from bidcoord.arbitrary import solve_arbitrary
from bidcoord.core import ExternalDistribution, make_profile
from bidcoord.discretize import (
    build_grid,
    iter_grid_profiles,
    max_bits,
    project_to_grid,
    pruned_grid,
)
from bidcoord.mechanisms import expected_outcome
from bidcoord.oracles import event_probability, prune_levels, recursive_split
from conftest import (
    assert_tiles,
    cent_bids_raw,
    dyadic,
    example3_raw,
    iterative_split,
    random_instance,
)


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


_EXAMPLE3 = bc.validate_and_normalize(example3_raw())


class TestRecSplit:
    def test_threshold_one_returns_root(self):
        dist = point_mass(0.3, 0.7)
        assert iterative_split(dist, 1.0, 2**-8)[0] == [(0.0, 1.0)]

    def test_single_split(self):
        dist = ExternalDistribution((((0.25,), 0.5), ((0.75,), 0.5)))
        got, _ = iterative_split(dist, 0.6, 2**-8)
        assert got == [(0.0, 0.5), (0.5, 1.0)]
        for lower, upper in got:
            assert event_probability(dist, lower, upper) <= 0.6

    def test_point_mass_bottoms_out_at_eta(self):
        dist = point_mass(0.5)
        eta = 0.25
        got, _ = iterative_split(dist, 0.4, eta)
        for lower, upper in got:
            pr = event_probability(dist, lower, upper)
            assert pr <= 0.4 or upper - lower <= eta
        hot = [(lower, upper) for lower, upper in got if lower < 0.5 <= upper]
        assert len(hot) == 1 and hot[0][1] - hot[0][0] <= eta


# Cents are non-dyadic (eta = 2^-53); a short pool makes duplicate bids
# within and across entries common, and 0 and 1 sit on the endpoints.
_BID = st.sampled_from([0.0, 1.0, 0.01, 0.1, 0.37, 0.5, 0.99, 0.125, 0.25, 0.75])
# Bids that end a chain of bisections (one distinct bid in an interval)
# where it can go wrong: dyadic midpoints exactly on the upper endpoint,
# 2^-53 and 0.5 + 2^-53 one ulp past the lower one, 1.0 on the last
# leaf, and cents inside a leaf.
_CHAIN_BID = st.sampled_from(
    [0.25, 0.375, 0.5, 0.75, 1.0, 2.0**-53, 0.5 + 2.0**-53, 0.01, 0.37, 0.99]
)


@st.composite
def split_cases(draw, bid=_BID, shared=False):
    """A distribution, p and eta = 2^-max_bits; with ``shared``, one bid
    is repeated across every entry."""
    n_e = draw(st.integers(0, 4))
    k = draw(st.integers(1, 5))
    # Zero weights give zero-probability entries; sevenths round.
    weights = draw(st.lists(st.integers(0, 7), min_size=k, max_size=k).filter(any))
    entries = [sorted(draw(st.lists(bid, min_size=n_e, max_size=n_e)), reverse=True)]
    for _ in range(k - 1):
        entries.append(entries[0] if draw(st.booleans()) else
                       sorted(draw(st.lists(bid, min_size=n_e, max_size=n_e)), reverse=True))
    if shared:
        common = draw(bid)
        entries = [sorted(e + [common], reverse=True) for e in entries]
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
    return dist, p, eta


# Many distinct bids, on a 2^-10 grid or in cents, so that an interval
# holding only heavy points spans many eta cells.
_MANY_BIDS = st.one_of(
    st.integers(1, 2**10).map(lambda i: i / 2**10),
    st.integers(1, 100).map(lambda c: c / 100),
)


@st.composite
def heavy_point_cases(draw, rule):
    """A distribution with many distinct bids, p and eta = 2^-max_bits,
    with p placed by ``rule`` against the entries' probabilities: below
    all of them (every point heavy), at one of them but the largest
    (light and heavy entries), or at or above all of them with one bid
    in every entry (that point heavy only as a sum)."""
    k = draw(st.integers(1 if rule == "heavy" else 2, 5))
    n_e = draw(st.integers(1, 8))
    weights = draw(st.lists(st.integers(1, 7), min_size=k, max_size=k))
    entries = [sorted(draw(st.lists(_MANY_BIDS, min_size=n_e, max_size=n_e)), reverse=True)
               for _ in range(k)]
    if rule == "summed":
        common = draw(_MANY_BIDS)
        entries = [sorted(e + [common], reverse=True) for e in entries]
    probs = [w / sum(weights) for w in weights]
    dist = ExternalDistribution(tuple((tuple(b), q) for b, q in zip(entries, probs)))
    low, high = min(probs), max(probs)
    if rule == "heavy":
        p = draw(st.floats(0.0, low, exclude_min=True, exclude_max=True))
    elif rule == "mixed":
        p = draw(st.sampled_from(sorted(probs)[:-1]))
    else:
        p = draw(st.floats(high, 1.0, exclude_max=True))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eta = 2.0 ** -max_bits(dist)
    return dist, p, eta


_HEAVY_POINT_CASES = st.one_of(
    heavy_point_cases("heavy"), heavy_point_cases("mixed"), heavy_point_cases("summed")
)


class TestSplitVsRecursiveReference:
    """The iterative split against the recursive definition in ``oracles``.

    Three mutants of ``discretize._split`` fail here: adding the entry
    probabilities with ``math.fsum`` (exactly rounded, as ``sum`` is
    compensated from Python 3.12 on) or in bid order instead of support
    order, and making a child whose bids equal its parent's a leaf
    without its width test.  Adding them with ``sum`` passes: before
    Python 3.12 ``sum`` adds floats left to right exactly as the loop
    does, so that mutant is equivalent there.

    Mutants of the closed-form subtrees fail too: one halving more or
    fewer, a branch point's depth without its -1, a bid's cell rounded
    down (``floor``) instead of up, closing an interval that holds one
    light point, and ``pruned_grid`` keeping a leaf upper endpoint of 1.
    Two mutants pass, being equivalent: a cell taken as
    ceil((b - lower)/eta) - 1, as b - lower is a double without rounding,
    and cells XORed from 0 rather than from the interval's lower
    endpoint, as every interval of the walk starts at a multiple of its
    width.
    """

    @settings(max_examples=300)
    @given(split_cases())
    def test_intervals_and_calls_match(self, case):
        dist, p, eta = case
        assert iterative_split(dist, p, eta) == recursive_split(0.0, 1.0, p, eta, dist)

    @settings(max_examples=300)
    @given(split_cases(_CHAIN_BID, shared=True))
    def test_chains_match(self, case):
        dist, p, eta = case
        assert iterative_split(dist, p, eta) == recursive_split(0.0, 1.0, p, eta, dist)

    @settings(max_examples=300)
    @given(_HEAVY_POINT_CASES)
    def test_heavy_point_subtrees_match(self, case):
        dist, p, eta = case
        assert iterative_split(dist, p, eta) == recursive_split(0.0, 1.0, p, eta, dist)

    def test_chain_ending_right_of_its_last_split_matches(self):
        # 2^-52 + 2^-55 ends a chain on the right of its last split
        dist = point_mass(2.0**-52 + 2.0**-55, 0.9)
        p, eta = 0.01, 2.0**-53
        assert iterative_split(dist, p, eta) == recursive_split(0.0, 1.0, p, eta, dist)

    @pytest.mark.parametrize("bids, eta", [
        ((0.3,), 2.0**-60),
        ((0.5 + 2.0**-53,), 2.0**-54),
        ((0.75, 0.3), 2.0**-54),  # rounds a midpoint up to its upper end
    ])
    def test_eta_below_double_spacing_raises(self, bids, eta):
        # below the spacing of doubles near a bid, bisection cannot go on
        with pytest.raises(ValueError):
            iterative_split(point_mass(*bids), 0.01, eta)
        with pytest.raises(ValueError):
            recursive_split(0.0, 1.0, 0.01, eta, point_mass(*bids))

    @settings(max_examples=300)
    @given(st.one_of(split_cases(), split_cases(_CHAIN_BID, shared=True), _HEAVY_POINT_CASES))
    def test_pruned_grid_matches_full_split(self, case):
        dist, p, eta = case
        leaves, calls = iterative_split(dist, p, eta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = pruned_grid(replace(_EXAMPLE3, external=dist), p)
        assert (got.p, got.eta) == (p, eta)
        assert (got.k_star, got.rec_calls) == (len(leaves), calls)
        assert got.levels == prune_levels([lower for lower, _ in leaves], dist)
        assert_tiles(leaves)
        assert got.full_levels() == tuple(lower for lower, _ in leaves)


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

    def test_cap_warning_names_the_library_caller(self):
        # the warning points at the caller's own line, however deep in
        # the package the bits are counted
        instance = bc.validate_and_normalize(cent_bids_raw())
        with pytest.warns(UserWarning, match="needs 55 fractional bits") as direct:
            max_bits(instance.external)
        with pytest.warns(UserWarning, match="needs 55 fractional bits") as solved:
            solve_arbitrary(instance, 0.05)
        named = [(w.filename, linecache.getline(w.filename, w.lineno).strip())
                 for w in [*direct, *solved]]
        assert named == [
            (__file__, "max_bits(instance.external)"),
            (__file__, "solve_arbitrary(instance, 0.05)"),
        ]


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
        pruned, grid = build_grid(inst, 0.5)
        assert pruned.k_star == 1
        assert grid.levels == (0.0,)

    def test_example3_point_mass(self):
        inst = self._instance([(0.75,)])
        pruned, grid = build_grid(inst, 0.5)
        assert pruned.eta == 0.25
        assert grid.levels == (0.0, 0.5, 0.75)

    @settings(max_examples=200)
    @given(split_cases(), st.one_of(st.sampled_from([1e-12, 1.0]), st.floats(1e-12, 1.0)))
    def test_intervals_restate_levels(self, case, p):
        # the split's lower endpoints are the levels and each upper one is
        # the next level or 1, so a report that keeps the levels loses nothing
        dist = case[0]
        inst = replace(self._instance([(0.75,)]), external=dist)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eta = 2.0 ** -max_bits(dist)
            levels = build_grid(inst, p)[1].levels
        intervals, _ = iterative_split(dist, p, eta)
        assert intervals == list(zip(levels, levels[1:] + (1.0,)))

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
            for lower, upper in iterative_split(dist, p, eta)[0]:
                open_pr = sum(
                    prob
                    for bids, prob in dist.support
                    if any(lower < b < upper for b in bids)
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
            leaves, calls = iterative_split(dist, p, eta)
            assert_tiles(leaves)
            for lower, upper in leaves:
                ok = (
                    event_probability(dist, lower, upper) <= p + 1e-15
                    or upper - lower <= eta + 1e-15
                )
                assert ok
            if max_bits(dist) > 0:
                assert len(leaves) <= (2 * n_e / p) * math.log2(1.0 / eta)
            assert calls <= 2 * len(leaves)

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
        assert proj.ranking() == [0, 1, 2]

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

    def test_deterministic(self):
        a = list(iter_grid_profiles([0.0, 0.25, 0.5], 3))
        b = list(iter_grid_profiles([0.0, 0.25, 0.5], 3))
        assert a == b
