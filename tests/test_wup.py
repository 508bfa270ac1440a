import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidcoord as bc
from bidcoord.core import make_profile
from bidcoord.mechanisms import expected_outcome
from bidcoord.oracles import (
    arc_weight,
    brute_force_wup,
    dense_arcs,
    dense_best_path,
    entrywise_expected_tables,
    path_weight,
)
from bidcoord.wup import (
    WupWeights,
    _normalize_levels,
    build_wup_graph,
    expected_tables,
    solve_graph,
    solve_wup,
    solve_wup_expected,
    unit_weights,
    wup_colluder_order,
)
from conftest import fixed_external, random_instance, random_levels


def solve_fixed(levels, weights, inst, external):
    """The weighted-utility query against one fixed external profile."""
    fixed = fixed_external(inst, external)
    return solve_wup(expected_tables(fixed, levels), weights, fixed)


def make_instance(mechanism, slots, valuations, support=((),)):
    raw = {
        "mechanism": mechanism,
        "slots": list(slots),
        "colluders": [{"v": v, "t": 0.0} for v in valuations],
        "external": {"support": [{"bids": list(b), "prob": 1.0 / len(support)} for b in support]},
    }
    return bc.validate_and_normalize(raw)


class TestWeights:
    def test_nonnegativity_enforced(self):
        with pytest.raises(ValueError):
            WupWeights((-0.1,), 1.0)
        with pytest.raises(ValueError):
            WupWeights((1.0,), -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WupWeights((bad,), 1.0)
        with pytest.raises(ValueError, match="finite"):
            WupWeights((1.0,), bad)

    def test_order_sorts_by_weighted_valuation(self):
        inst = make_instance("gsp", [1.0], [0.6, 0.5], support=((0.0,),))
        assert wup_colluder_order(inst, WupWeights((1.0, 2.0), 1.0)) == (1, 0)
        # ties broken by original index
        assert wup_colluder_order(inst, WupWeights((0.5, 0.6), 1.0)) == (0, 1)


class TestArcWeightGsp:
    def test_hand_evaluated_no_externals(self):
        inst = make_instance("gsp", [1.0, 0.9], [0.7, 0.4])
        w = unit_weights(2)
        got = arc_weight(1, 0.5, 0.2, (), w, inst)
        assert abs(got - 1.0 * (0.7 - 0.2)) < 1e-12

    def test_zero_payment_weight_gives_pure_revenue(self):
        inst = make_instance("gsp", [1.0, 0.9], [0.7, 0.4], support=((0.3,),))
        w = WupWeights((1.0, 1.0), 0.0)
        got = arc_weight(1, 0.5, 0.2, (0.3,), w, inst)
        assert abs(got - 1.0 * 0.7) < 1e-12

    def test_slot_beyond_last_is_worthless(self):
        inst = make_instance("gsp", [1.0], [0.7, 0.4], support=((0.3,),))
        w = unit_weights(2)
        # second colluder below one external: slot index 3 > m = 1
        assert arc_weight(2, 0.2, 0.0, (0.3,), w, inst) == 0.0


class TestArcWeightVcg:
    def test_first_colluder_has_no_upper_externality(self):
        inst = make_instance("vcg", [1.0, 0.5], [0.7, 0.4], support=((),))
        w = unit_weights(2)
        # no externals in (next, cur] either, so the weight is pure revenue
        got = arc_weight(1, 0.8, 0.0, (), w, inst)
        assert abs(got - 0.7) < 1e-12

    def test_empty_interval_no_external_terms(self):
        inst = make_instance("vcg", [1.0, 0.5], [0.7, 0.4], support=((0.9,),))
        w = unit_weights(2)
        # external above the bid: revenue shifts a slot, no interval terms
        got = arc_weight(1, 0.8, 0.5, (0.9,), w, inst)
        assert abs(got - 0.5 * 0.7) < 1e-12

    def test_path_sum_matches_mechanism(self):
        inst = make_instance("vcg", [1.0, 0.5], [0.9, 0.6], support=((0.4,),))
        w = unit_weights(2)
        total = arc_weight(1, 0.8, 0.2, (0.4,), w, inst) + arc_weight(
            2, 0.2, 0.0, (0.4,), w, inst
        )
        prof = make_profile([0.8, 0.2])
        out = expected_outcome(fixed_external(inst, (0.4,)), prof)
        ref = sum(out.revenue) - sum(out.payment)
        assert abs(total - ref) < 1e-9


class TestSolveFixed:
    def test_single_level_grid(self):
        inst = make_instance("gsp", [1.0, 0.5], [0.9, 0.6], support=((0.4,),))
        res = solve_fixed([0.25], unit_weights(2), inst, (0.4,))
        assert res.profile.levels == (0.25, 0.25)
        out = expected_outcome(fixed_external(inst, (0.4,)), res.profile)
        assert abs(res.value - (sum(out.revenue) - sum(out.payment))) < 1e-9

    def test_example1_grid(self):
        inst = make_instance("vcg", [1.0], [0.6, 0.5], support=((0.0,),))
        res = solve_fixed([0.6, 0.0], unit_weights(2), inst, (0.0,))
        assert abs(res.value - 0.6) < 1e-9
        assert res.profile.levels == (0.6, 0.0)
        assert res.profile.ranking() == [0, 1]
        # exhaustive check over the three ordered profiles
        fixed = fixed_external(inst, (0.0,))
        outs = [
            expected_outcome(fixed, make_profile(list(levels)))
            for levels in [(0.6, 0.6), (0.6, 0.0), (0.0, 0.0)]
        ]
        best = max(sum(out.revenue) - sum(out.payment) for out in outs)
        assert abs(res.value - best) < 1e-9

    def test_random_matches_brute_force(self):
        rng = random.Random(101)
        for _ in range(60):
            inst = random_instance(rng)
            levels = random_levels(rng)
            y = tuple(rng.random() * 2 for _ in range(inst.n_colluders))
            w = WupWeights(y, rng.random() * 2)
            ext = inst.external.support[0][0]
            res = solve_fixed(levels, w, inst, ext)
            _, best = brute_force_wup(levels, w, fixed_external(inst, ext))
            assert abs(res.value - best) < 1e-9

    def test_empty_grid_rejected(self):
        inst = make_instance("gsp", [1.0], [0.5], support=((),))
        with pytest.raises(ValueError):
            solve_fixed([], unit_weights(1), inst, ())


class TestLevelNormalization:
    @settings(max_examples=200)
    @given(st.lists(st.sampled_from([0, 1, 0.0, -0.0, 0.3, 0.5, 0.25, 1.0]), min_size=1))
    def test_distinct_levels_descending_from_any_order(self, levels):
        # any order, repeats and -0.0 included, gives one descending tuple
        expected = tuple(sorted({float(x) for x in levels}, reverse=True))
        assert _normalize_levels(levels) == expected
        assert _normalize_levels(sorted(set(levels))) == expected

    @pytest.mark.parametrize("levels, named", [
        ([0.5, 1.5, 2.0], "2.0"), ([2.0, 0.5, 1.5], "2.0"), ([-0.5, 0.5], "-0.5"),
        ([0.0, float("nan")], "nan"),
    ])
    def test_out_of_range_named(self, levels, named):
        # the first bad level in descending order is named, ascending or not
        with pytest.raises(ValueError, match=f"grid level {named} outside"):
            _normalize_levels(levels)


class TestSolveExpected:
    def test_point_mass_equals_fixed(self):
        inst = make_instance("gsp", [1.0, 0.5], [0.9, 0.6], support=((0.4,),))
        w = unit_weights(2)
        exp = solve_wup_expected([0.0, 0.25, 0.5], w, inst)
        fix = solve_fixed([0.0, 0.25, 0.5], w, inst, (0.4,))
        assert exp.value == fix.value
        assert exp.profile == fix.profile

    def test_mixture_arc_weights_are_convex_combinations(self):
        inst = make_instance("gsp", [1.0, 0.5], [0.9, 0.6], support=((0.2,), (0.8,)))
        w = unit_weights(2)
        levels = [0.0, 0.25, 0.5, 0.75]
        arcs, sink = dense_arcs(build_wup_graph(levels, w, inst))
        arcs_a, sink_a = dense_arcs(build_wup_graph(levels, w, fixed_external(inst, (0.2,))))
        arcs_b, sink_b = dense_arcs(build_wup_graph(levels, w, fixed_external(inst, (0.8,))))
        for pos in range(1):
            for jc in range(4):
                for jn in range(jc, 4):
                    mix = 0.5 * arcs_a[pos][jc][jn] + 0.5 * arcs_b[pos][jc][jn]
                    assert abs(arcs[pos][jc][jn] - mix) < 1e-12
        for jc in range(4):
            assert abs(sink[jc] - (0.5 * sink_a[jc] + 0.5 * sink_b[jc])) < 1e-12

    def test_random_matches_brute_force(self):
        rng = random.Random(202)
        for _ in range(60):
            inst = random_instance(rng)
            levels = random_levels(rng)
            y = tuple(rng.random() * 2 for _ in range(inst.n_colluders))
            w = WupWeights(y, rng.random() * 2)
            res = solve_wup_expected(levels, w, inst)
            _, best = brute_force_wup(levels, w, inst)
            assert abs(res.value - best) < 1e-9


class TestGraphProperties:
    def test_lemma_map_every_path(self):
        rng = random.Random(303)
        for _ in range(40):
            inst = random_instance(rng)
            n_c = inst.n_colluders
            levels = random_levels(rng)
            y = tuple(rng.random() * 2 for _ in range(n_c))
            w = WupWeights(y, rng.random() * 2)
            for ext, _ in inst.external.support:
                fixed = fixed_external(inst, ext)
                g = build_wup_graph(levels, w, fixed)
                for path in itertools.combinations_with_replacement(range(len(g.levels)), n_c):
                    prof = g.profile_for_path(path)
                    out = expected_outcome(fixed, prof)
                    ref = sum(
                        y[i] * out.revenue[i] - w.payment_weight * out.payment[i]
                        for i in range(n_c)
                    )
                    assert abs(path_weight(g, path) - ref) < 1e-9

    def test_canonical_tie_priority_never_beaten(self):
        # among profiles sharing a level assignment, ranking the heavier
        # weighted-valuation colluder higher is optimal
        rng = random.Random(404)
        for _ in range(25):
            inst = random_instance(rng, max_colluders=3, max_external=2)
            n_c = inst.n_colluders
            levels = sorted({0.0, rng.random(), rng.random()})
            y = tuple(rng.choice([0.5, 1.0]) for _ in range(n_c))
            w = WupWeights(y, rng.random())
            res = solve_wup_expected(levels, w, inst)
            best_any = res.value
            for assignment in itertools.product(levels, repeat=n_c):
                for perm in itertools.permutations(range(n_c)):
                    priority = [0] * n_c
                    for pos, i in enumerate(perm):
                        priority[i] = pos
                    prof = make_profile(assignment, priority)
                    out = bc.expected_outcome(inst, prof)
                    val = sum(
                        y[i] * out.revenue[i] - w.payment_weight * out.payment[i]
                        for i in range(n_c)
                    )
                    assert val <= best_any + 1e-9

    def test_scaling_covariance(self):
        rng = random.Random(505)
        for _ in range(20):
            inst = random_instance(rng)
            levels = random_levels(rng)
            y = tuple(rng.random() for _ in range(inst.n_colluders))
            x = rng.random()
            c = rng.choice([0.5, 2.0, 7.5])
            base = solve_wup_expected(levels, WupWeights(y, x), inst)
            scaled = solve_wup_expected(
                levels, WupWeights(tuple(c * yi for yi in y), c * x), inst
            )
            assert abs(scaled.value - c * base.value) < 1e-9
            assert scaled.profile == base.profile

    def test_unit_weights_value_is_cumulative_utility(self):
        rng = random.Random(606)
        for _ in range(20):
            inst = random_instance(rng)
            levels = random_levels(rng)
            res = solve_wup_expected(levels, unit_weights(inst.n_colluders), inst)
            out = bc.expected_outcome(inst, res.profile)
            assert abs(res.value - out.cumulative) < 1e-9

    def test_solve_graph_deterministic(self):
        inst = make_instance("gsp", [1.0, 1.0], [0.5, 0.5], support=((0.0, 0.0),))
        g = build_wup_graph([0.0, 0.5], unit_weights(2), inst)
        v1, p1 = solve_graph(g)
        v2, p2 = solve_graph(g)
        assert v1 == v2 and p1 == p2


# Levels, bids and valuations share a small pool, so external bids equal
# grid levels and each other often; free floats add non-dyadic values.
_VALUE = st.one_of(
    st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)
)


@st.composite
def wup_cases(draw, n_c=st.integers(1, 3), d=st.integers(1, 4)):
    n_c = draw(n_c)
    n_e = draw(st.integers(0, 3))
    m = draw(st.integers(1, min(4, n_c + n_e)))
    k = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    raw = {
        "mechanism": draw(st.sampled_from(["gsp", "vcg"])),
        "slots": draw(st.lists(_VALUE, min_size=m, max_size=m)),
        "colluders": [{"v": v, "t": 0.0} for v in draw(st.lists(_VALUE, min_size=n_c, max_size=n_c))],
        "external": {
            "support": [
                {"bids": draw(st.lists(_VALUE, min_size=n_e, max_size=n_e)), "prob": w / sum(weights)}
                for w in weights
            ]
        },
    }
    inst = bc.validate_and_normalize(raw)
    d = draw(d)
    levels = draw(st.lists(_VALUE, min_size=d, max_size=d, unique=True))
    y = tuple(draw(st.lists(st.floats(0.0, 2.0), min_size=n_c, max_size=n_c)))
    return inst, levels, WupWeights(y, draw(st.floats(0.0, 2.0)))


def _reference_graph(inst, levels, w, support):
    """Arc and sink weights summed over the support from the scalar reference."""
    n = inst.n_colluders
    d = len(levels)
    arcs = {}
    sink = [0.0] * d
    for ext, prob in support:
        for pos in range(n - 1):
            for jc in range(d):
                for jn in range(jc, d):
                    wt = arc_weight(pos + 1, levels[jc], levels[jn], ext, w, inst)
                    arcs[pos, jc, jn] = arcs.get((pos, jc, jn), 0.0) + prob * wt
        for jc in range(d):
            sink[jc] += prob * arc_weight(n, levels[jc], 0.0, ext, w, inst)
    return arcs, sink


class TestTablesVsScalarReference:
    @settings(max_examples=150)
    @given(wup_cases())
    def test_every_arc_and_sink_entry(self, case):
        inst, levels, w = case
        support = inst.external.support
        for graph, entries in (
            (build_wup_graph(levels, w, inst), support),
            (build_wup_graph(levels, w, fixed_external(inst, support[-1][0])),
             ((support[-1][0], 1.0),)),
        ):
            arcs, sink = _reference_graph(inst, graph.levels, w, entries)
            dense, dense_sink = dense_arcs(graph)
            for (pos, jc, jn), ref in arcs.items():
                assert abs(dense[pos, jc, jn] - ref) < 1e-12
            for jc, ref in enumerate(sink):
                assert abs(dense_sink[jc] - ref) < 1e-12

    @settings(max_examples=150)
    @given(wup_cases())
    def test_dp_value_matches_brute_force(self, case):
        inst, levels, w = case
        res = solve_wup_expected(levels, w, inst)
        _, best = brute_force_wup(levels, w, inst)
        assert abs(res.value - best) < 1e-9

    def test_tables_are_read_only(self):
        inst = make_instance("vcg", [1.0, 0.5], [0.9, 0.6], support=((0.4,),))
        tables = expected_tables(inst, [0.0, 0.5])
        for array in (tables.revenue, tables.payment, tables.sink_payment, tables.below_diagonal):
            with pytest.raises(ValueError):
                array[...] = 0.0


def _zeroed(weights, zero):
    """``weights`` with the revenue weights and, last, the payment weight
    set to 0 where ``zero`` is true."""
    y = tuple(0.0 if z else v for v, z in zip(weights.revenue_weights, zero))
    return WupWeights(y, 0.0 if zero[-1] else weights.payment_weight)


class TestSolveGraphVsDenseReference:
    """``solve_graph``, one layer's arcs at a time, against the DP over
    every arc at once in ``oracles``: the value's bits and the path."""

    def check(self, case, zero):
        inst, levels, w = case
        w = _zeroed(w, zero)
        for query in (inst, fixed_external(inst, inst.external.support[-1][0])):
            graph = build_wup_graph(levels, w, query)
            value, path = solve_graph(graph)
            ref_value, ref_path = dense_best_path(graph)
            assert (value.hex(), path) == (ref_value.hex(), ref_path)

    @settings(max_examples=300)
    @given(wup_cases(), st.lists(st.booleans(), min_size=4, max_size=4))
    def test_value_bits_and_path(self, case, zero):
        self.check(case, zero)

    @settings(max_examples=60)
    @given(wup_cases(n_c=st.just(1)), st.lists(st.booleans(), min_size=2, max_size=2))
    def test_one_colluder(self, case, zero):
        self.check(case, zero)

    @settings(max_examples=60)
    @given(wup_cases(d=st.just(1)), st.lists(st.booleans(), min_size=4, max_size=4))
    def test_one_level(self, case, zero):
        self.check(case, zero)


def test_query_allocates_no_arc_tensor():
    """A query over prebuilt tables holds one layer's d x d arcs at a
    time, not all (n - 1) x d x d of them."""
    n_c, d = 8, 200
    inst = make_instance(
        "gsp", [1.0, 0.75, 0.5, 0.25], [1.0 - c / 16 for c in range(n_c)],
        support=((0.5, 0.25), (0.75, 0.125)),
    )
    tables = expected_tables(inst, [j / 256 for j in range(d)])
    weights = WupWeights(tuple(1.0 - c / 32 for c in range(n_c)), 0.5)
    solve_wup(tables, weights, inst)  # warm caches, such as the tables' mask
    tracemalloc.start()
    try:
        solve_wup(tables, weights, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * d * d * 8, peak


#: Few values, so bids repeat and sit on grid levels; 0.3 and 0.1 are not
#: dyadic, so products and sums round; -0.0 is the bottom of the range.
TABLE_VALUES = (1.0, 0.75, 0.5, 0.3, 0.125, 0.1, 0.0, -0.0)


@st.composite
def table_cases(
    draw,
    n_c=st.integers(1, 4),
    n_e=st.integers(0, 4),
    bid=st.sampled_from(TABLE_VALUES),
    n_levels=st.integers(1, 6),
    k=st.integers(1, 12),
):
    """An instance, grid levels and a fixed external profile.  Support
    weights are drawn from [0, 1], 0 often, so some entries have
    probability 0 and their shares can be -0.0."""
    n, size = draw(n_c), draw(n_e)
    m = draw(st.integers(1, n + size))
    entries = draw(k)
    weights = draw(
        st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=entries, max_size=entries)
        .filter(any)
    )
    total = sum(weights)
    bids = st.lists(bid, min_size=size, max_size=size)
    raw = {
        "mechanism": draw(st.sampled_from(("gsp", "vcg"))),
        "slots": draw(st.lists(st.sampled_from((1.0, 0.7, 0.5, 0.3, 0.1, 0.0)),
                               min_size=m, max_size=m)),
        "colluders": [{"v": 0.5, "t": 0.0}] * n,
        "external": {"support": [{"bids": draw(bids), "prob": w / total} for w in weights]},
    }
    levels = draw(st.lists(st.sampled_from(TABLE_VALUES), min_size=1, max_size=draw(n_levels)))
    return bc.validate_and_normalize(raw), levels, draw(bids)


def hexed_tables(tables):
    return tables.levels, [
        (array.shape, [v.hex() for v in array.ravel().tolist()])
        for array in (tables.revenue, tables.payment, tables.sink_payment)
    ]


class TestTablesVsEntrywiseReference:
    """``expected_tables`` against the loop over support entries in
    ``oracles``, bit for bit: every cell is compared by ``float.hex``, so
    ``-0.0`` differs from ``0.0`` and a sum in another order shows."""

    def check(self, case):
        instance, levels, fixed = case
        for query in (instance, fixed_external(instance, fixed)):
            got = expected_tables(query, levels)
            ref = entrywise_expected_tables(query, levels)
            assert hexed_tables(got) == hexed_tables(ref)

    @settings(max_examples=300)
    @given(table_cases())
    def test_every_cell(self, case):
        self.check(case)

    @settings(max_examples=100)
    @given(table_cases(n_c=st.just(1), n_e=st.sampled_from((0, 2)), bid=st.just(0.0),
                       n_levels=st.just(1), k=st.integers(9, 20)))
    def test_one_cell_per_table_and_a_long_support(self, case):
        # tables of shape (1, 1), where a sum over the support axis that is
        # not done in order (numpy's pairwise sum) rounds differently
        self.check(case)
