import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bidcoord as bc
from bidcoord.core import make_profile
from bidcoord.mechanisms import expected_outcome, individual_baseline
from bidcoord.oracles import (
    allocate,
    payments_gsp,
    payments_vcg,
    ranking_expected_outcome,
    vcg_externality,
)
from conftest import fixed_external, random_instance


def simple_instance(mechanism="gsp", slots=(1.0, 0.5), colluders=((0.9, 0.0), (0.3, 0.0)),
                    external=((0.5,),)):
    raw = {
        "mechanism": mechanism,
        "slots": list(slots),
        "colluders": [{"v": v, "t": t} for v, t in colluders],
        "external": {"support": [{"bids": list(b), "prob": 1.0 / len(external)} for b in external]},
    }
    return bc.validate_and_normalize(raw)


class TestAllocate:
    def test_direct_sort(self):
        prof = make_profile([0.9, 0.3])
        ranking = allocate(prof, [0.5])
        assert [(a.kind, a.index) for a in ranking] == [("c", 0), ("e", 0), ("c", 1)]

    def test_tie_favors_colluder(self):
        prof = make_profile([0.5])
        ranking = allocate(prof, [0.5])
        assert ranking[0].kind == "c"

    def test_single_colluder_no_externals(self):
        ranking = allocate(make_profile([0.4]), [])
        assert [(a.kind, a.index) for a in ranking] == [("c", 0)]


class TestPaymentsGsp:
    def test_hand_evaluated(self):
        ranking = allocate(make_profile([0.5, 0.3]), [])
        assert payments_gsp(ranking, [1.0, 0.5]) == [0.3, 0.0]

    def test_single_bidder_pays_zero(self):
        ranking = allocate(make_profile([0.7]), [])
        assert payments_gsp(ranking, [1.0]) == [0.0]

    def test_example1_agency_profile_pays_zero(self):
        inst = simple_instance("gsp", slots=(1.0,), colluders=((0.6, 0.1), (0.5, 0.0)),
                               external=((0.0,),))
        out = expected_outcome(inst, make_profile([0.6, 0.0]))
        assert out.revenue == (0.6, 0.0)
        assert out.payment == (0.0, 0.0)


class TestPaymentsVcg:
    def test_hand_evaluated(self):
        ranking = allocate(make_profile([0.5, 0.3]), [])
        pays = payments_vcg(ranking, [1.0, 0.5])
        assert abs(pays[0] - 0.15) < 1e-12
        assert pays[1] == 0.0

    def test_one_slot_matches_gsp(self):
        rng = random.Random(1)
        for _ in range(50):
            prof = make_profile([rng.random() for _ in range(rng.randint(1, 3))])
            ext = sorted((rng.random() for _ in range(rng.randint(0, 2))), reverse=True)
            ranking = allocate(prof, ext)
            assert payments_vcg(ranking, [1.0]) == payments_gsp(ranking, [1.0])

    def test_equal_rates_match_externality_oracle(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randint(1, 5)
            m = rng.randint(1, n)
            lam = [0.6] * m
            ranking = allocate(make_profile([rng.random() for _ in range(n)]), [])
            closed = payments_vcg(ranking, lam)
            oracle = vcg_externality(ranking, lam)
            assert all(abs(a - b) < 1e-12 for a, b in zip(closed, oracle))


class TestExpectedOutcome:
    def test_point_mass_equals_single(self):
        # the one-entry distribution gives the single profile's outcome,
        # evaluated by hand: colluder 1 at 0.9, the external at 0.5,
        # colluder 2 at 0.3 without a slot; slot 1 pays rate 1.0 times 0.5
        inst = fixed_external(simple_instance(external=((0.2,), (0.8,))), (0.5,))
        exp = expected_outcome(inst, make_profile([0.9, 0.3]))
        assert exp.revenue == (0.9, 0.0)
        assert exp.payment == (0.5, 0.0)

    def test_two_support_mean(self):
        inst = simple_instance(external=((0.2,), (0.8,)))
        prof = make_profile([0.9, 0.3])
        exp = expected_outcome(inst, prof)
        a = expected_outcome(fixed_external(inst, (0.2,)), prof)
        b = expected_outcome(fixed_external(inst, (0.8,)), prof)
        for i in range(2):
            assert abs(exp.revenue[i] - (a.revenue[i] + b.revenue[i]) / 2) < 1e-12
            assert abs(exp.payment[i] - (a.payment[i] + b.payment[i]) / 2) < 1e-12

    def test_example3_profile(self, example3):
        prof = make_profile([0.0, 0.0])  # ranks (2, 1)
        assert prof.tie_ranks == (2, 1)
        exp = expected_outcome(example3, prof)
        assert exp.revenue == (1.0, 0.0)
        assert exp.payment == (0.0, 0.0)

    def test_linearity_over_mixtures(self):
        rng = random.Random(9)
        for _ in range(30):
            inst = random_instance(rng, max_support=4)
            prof = make_profile([rng.random() for _ in range(inst.n_colluders)])
            support = inst.external.support
            if len(support) < 2:
                continue
            exp = expected_outcome(inst, prof)
            parts = [expected_outcome(fixed_external(inst, bids), prof) for bids, _ in support]
            for i in range(inst.n_colluders):
                mixed_r = sum(pr * part.revenue[i] for (_, pr), part in zip(support, parts))
                mixed_p = sum(pr * part.payment[i] for (_, pr), part in zip(support, parts))
                assert abs(exp.revenue[i] - mixed_r) < 1e-12
                assert abs(exp.payment[i] - mixed_p) < 1e-12


class TestIndividualBaseline:
    def test_example1(self, example1):
        base = individual_baseline(example1)
        assert abs(base[0] - 0.1) < 1e-9
        assert base[1] == 0.0

    def test_single_colluder_no_competition(self):
        inst = simple_instance("vcg", slots=(0.8,), colluders=((0.7, 0.0),), external=((),))
        base = individual_baseline(inst)
        assert abs(base[0] - 0.8 * 0.7) < 1e-12

    def test_symmetric_duplicates_equal(self):
        inst = simple_instance("vcg", slots=(1.0, 1.0), colluders=((0.5, 0.0), (0.5, 0.0)),
                               external=((0.25,),))
        base = individual_baseline(inst)
        assert abs(base[0] - base[1]) < 1e-12


class TestMechanismInvariants:
    def test_vcg_never_exceeds_gsp(self):
        rng = random.Random(13)
        for _ in range(200):
            inst = random_instance(rng)
            prof = make_profile([rng.random() for _ in range(inst.n_colluders)])
            for ext, _ in inst.external.support:
                ranking = allocate(prof, ext)
                gsp = payments_gsp(ranking, inst.slots)
                vcg = payments_vcg(ranking, inst.slots)
                assert all(v <= g + 1e-12 for v, g in zip(vcg, gsp))

    def test_vcg_closed_form_matches_externality(self):
        rng = random.Random(14)
        for _ in range(300):
            inst = random_instance(rng)
            prof = make_profile([rng.random() for _ in range(inst.n_colluders)])
            for ext, _ in inst.external.support:
                ranking = allocate(prof, ext)
                closed = payments_vcg(ranking, inst.slots)
                oracle = vcg_externality(ranking, inst.slots)
                assert all(abs(a - b) < 1e-12 for a, b in zip(closed, oracle))

    def test_unallocated_pay_nothing(self):
        inst = simple_instance(slots=(1.0,))
        out = expected_outcome(inst, make_profile([0.9, 0.3]))
        assert out.payment[1] == 0.0
        assert out.revenue[1] == 0.0


def kernel_case(mechanism, slots, values, support, levels, priority):
    """An instance and a colluder profile; ``support`` holds (bids, weight)
    pairs, normalized to probabilities."""
    total = sum(w for _, w in support)
    raw = {
        "mechanism": mechanism,
        "slots": list(slots),
        "colluders": [{"v": v, "t": 0.0} for v in values],
        "external": {"support": [{"bids": list(b), "prob": w / total} for b, w in support]},
    }
    return bc.validate_and_normalize(raw), make_profile(levels, priority)


#: Few levels, so colluders tie with each other and with externals;
#: 0, -0.0 and 1 are the ends of the bid range.
LEVELS = (1.0, 0.75, 0.5, 0.3, 0.125, 0.0, -0.0)


@st.composite
def kernel_cases(draw):
    level = st.sampled_from(LEVELS)
    n_c = draw(st.integers(1, 4))
    n_e = draw(st.integers(0, 4))
    m = draw(st.integers(1, n_c + n_e))
    support = draw(st.lists(
        st.tuples(st.lists(level, min_size=n_e, max_size=n_e), st.integers(0, 3)),
        min_size=1, max_size=4,
    ).filter(lambda entries: any(w for _, w in entries)))
    return kernel_case(
        draw(st.sampled_from(("gsp", "vcg"))),
        draw(st.lists(st.sampled_from((1.0, 0.7, 0.5, 0.3, 0.1, 0.0)), min_size=m, max_size=m)),
        draw(st.lists(st.sampled_from((1.0, 0.9, 0.6, 0.3, 0.0)), min_size=n_c, max_size=n_c)),
        support,
        draw(st.lists(level, min_size=n_c, max_size=n_c)),
        draw(st.permutations(range(n_c))),
    )


def hexed(values):
    return [v.hex() for v in values]


class TestOutcomeKernelVsRanking:
    """The merge kernel against the ranking-sort reference, bit for bit:
    floats are compared by ``float.hex``, so ``-0.0`` differs from ``0.0``."""

    @settings(max_examples=400)
    @given(kernel_cases())
    # a colluder at an external's level, with the externals tied
    @example(kernel_case("gsp", (1.0, 0.5, 0.2), (0.9, 0.6), [((0.5, 0.5), 1)],
                         (0.5, 0.3), (0, 1)))
    @example(kernel_case("vcg", (1.0, 0.5, 0.2), (0.9, 0.6), [((0.5, 0.5), 1)],
                         (0.5, 0.5), (1, 0)))
    # no externals, colluders tied
    @example(kernel_case("vcg", (1.0, 0.7), (0.9, 0.6), [((), 1)], (0.75, 0.75), (1, 0)))
    # more slots than colluders
    @example(kernel_case("vcg", (1.0, 0.7, 0.4), (0.9,), [((0.5, 0.25), 1)], (0.3,), (0,)))
    # a zero-probability entry, and bids at 0 and 1
    @example(kernel_case("gsp", (1.0, 0.7, 0.3), (1.0, 0.5),
                         [((1.0, 0.0), 0), ((0.0, -0.0), 2), ((1.0, 1.0), 1)],
                         (1.0, 0.0), (0, 1)))
    def test_matches_ranking_reference(self, case):
        instance, profile = case
        exp = expected_outcome(instance, profile)
        ref = ranking_expected_outcome(instance, profile)
        assert hexed(exp.revenue) == hexed(ref.revenue)
        assert hexed(exp.payment) == hexed(ref.payment)
        # each support entry alone: a fixed profile's one-entry instance
        for bids, _ in instance.external.support:
            one = fixed_external(instance, bids)
            out = expected_outcome(one, profile)
            ref = ranking_expected_outcome(one, profile)
            assert hexed(out.revenue) == hexed(ref.revenue)
            assert hexed(out.payment) == hexed(ref.payment)
