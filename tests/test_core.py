import ast
import builtins
import dataclasses
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidcoord as bc
from bidcoord.core import BidProfile, make_profile, ordered_sum
from conftest import compensated_sum, example1_raw, random_instance
from oracles import allocate

NAN = float("nan")
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bidcoord"
#: numpy's matrix products, as functions or methods: each adds its
#: terms in an order the BLAS kernel picks.
PRODUCT_CALLS = {"dot", "matmul", "inner", "vdot", "einsum", "tensordot"}


def minimal_raw(**overrides):
    raw = {
        "mechanism": "gsp",
        "slots": [0.5, 1.0],
        "colluders": [{"v": 0.3, "t": 0.0}, {"v": 0.9, "t": 0.1}],
        "external": {"support": [{"bids": [0.25], "prob": 0.5}, {"bids": [0.75], "prob": 0.5}]},
    }
    raw.update(overrides)
    return raw


class TestValidateAndNormalize:
    def test_slots_sorted_descending(self):
        inst = bc.validate_and_normalize(minimal_raw(slots=[0.5, 1.0]))
        assert inst.slots == (1.0, 0.5)

    def test_colluders_sorted_by_valuation(self):
        inst = bc.validate_and_normalize(minimal_raw())
        assert inst.valuations == (0.9, 0.3)
        assert inst.outside_options == (0.1, 0.0)

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(bc.InstanceError) as err:
            bc.validate_and_normalize(minimal_raw(slots=[1.2]))
        assert "slots[0]" in str(err.value)

    def test_empty_slots_rejected(self):
        with pytest.raises(bc.InstanceError):
            bc.validate_and_normalize(minimal_raw(slots=[]))

    def test_probabilities_kept_when_exact(self):
        inst = bc.validate_and_normalize(minimal_raw())
        assert [prob for _, prob in inst.external.support] == [0.5, 0.5]

    def test_probability_drift_renormalized(self):
        raw = minimal_raw()
        raw["external"]["support"][0]["prob"] = 0.5 + 4e-10
        inst = bc.validate_and_normalize(raw)
        assert abs(sum(p for _, p in inst.external.support) - 1.0) < 1e-12

    def test_probability_drift_too_large(self):
        raw = minimal_raw()
        raw["external"]["support"][0]["prob"] = 0.6
        with pytest.raises(bc.InstanceError) as err:
            bc.validate_and_normalize(raw)
        assert "external.support" in str(err.value)

    def test_support_bids_sorted_descending(self):
        raw = minimal_raw()
        raw["external"]["support"] = [{"bids": [0.2, 0.8, 0.5], "prob": 1.0}]
        inst = bc.validate_and_normalize(raw)
        assert inst.external.support[0][0] == (0.8, 0.5, 0.2)

    def test_ragged_support_rejected(self):
        raw = minimal_raw()
        raw["external"]["support"] = [
            {"bids": [0.2, 0.8], "prob": 0.5},
            {"bids": [0.1], "prob": 0.5},
        ]
        with pytest.raises(bc.InstanceError):
            bc.validate_and_normalize(raw)

    def test_more_slots_than_agents_rejected(self):
        raw = minimal_raw(slots=[1.0, 0.9, 0.8, 0.7])
        with pytest.raises(bc.InstanceError):
            bc.validate_and_normalize(raw)

    def test_idempotent(self):
        rng = random.Random(42)
        for _ in range(50):
            inst = random_instance(rng)
            once = bc.validate_and_normalize(bc.instance_to_raw(inst))
            assert once == inst

    def test_example1_parses(self):
        inst = bc.validate_and_normalize(example1_raw())
        assert inst.valuations == (0.6, 0.5)
        assert inst.outside_options == (0.1, 0.0)


# a 2-bit grid, so colluders tie with each other and with externals often
_LEVELS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def profiles(draw):
    n = draw(st.integers(1, 6))
    levels = draw(st.lists(_LEVELS, min_size=n, max_size=n))
    if draw(st.booleans()):
        priority = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        return make_profile(levels, priority)
    ranks = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n, unique=True))
    return BidProfile(tuple(levels), tuple(ranks))


class TestBidOrder:
    def test_level_dominates(self):
        assert BidProfile((0.4, 0.5), (9, 1)).ranking() == [1, 0]

    def test_colluder_beats_external_at_same_level(self):
        ranked = allocate(BidProfile((0.5,), (1,)), [0.5])
        assert [a.kind for a in ranked] == ["c", "e"]

    @settings(max_examples=300)
    @given(profiles(), st.lists(_LEVELS, max_size=4))
    def test_ranking_matches_allocate(self, profile, externals):
        ranked = allocate(profile, externals)
        assert profile.ranking() == [a.index for a in ranked if a.kind == "c"]
        position = {(a.kind, a.index): k for k, a in enumerate(ranked)}
        for i, level in enumerate(profile.levels):
            for j, external in enumerate(externals):
                if external == level:
                    assert position["c", i] < position["e", j]


class TestBidProfile:
    @pytest.mark.parametrize(
        "levels, tie_ranks, message",
        [
            ((-0.1,), (1,), "outside \\[0, 1\\]"),
            ((1.5,), (1,), "outside \\[0, 1\\]"),
            ((NAN,), (1,), "outside \\[0, 1\\]"),
            ((0.5,), (0,), "must be >= 1"),
            ((0.5,), (-1,), "must be >= 1"),
            ((0.5, 0.5), (1, 1), "duplicate"),
            ((0.5, 0.25), (1,), "differ in length"),
        ],
        ids=[
            "level-negative", "level-above-one", "level-nan", "rank-zero",
            "rank-negative", "duplicate-pair", "unequal-lengths",
        ],
    )
    def test_rejected(self, levels, tie_ranks, message):
        with pytest.raises(ValueError, match=message):
            BidProfile(levels, tie_ranks)

    def test_make_profile_default_priority(self):
        prof = make_profile([0.5, 0.5, 0.2])
        # equal levels: earlier colluder gets the higher rank
        assert prof.tie_ranks == (3, 2, 1)
        assert prof.ranking() == [0, 1, 2]
        assert prof.levels == (0.5, 0.5, 0.2)

    def test_make_profile_explicit_priority(self):
        prof = make_profile([0.5, 0.5], priority=[1, 0])
        assert prof.tie_ranks == (1, 2)
        assert prof.ranking() == [1, 0]

    def test_make_profile_matches_sort(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 5)
            levels = [rng.choice([0.0, 0.25, 0.5]) for _ in range(n)]
            prof = make_profile(levels)
            by_rule = sorted(range(n), key=lambda i: (-levels[i], i))
            assert prof.ranking() == by_rule


class TestAgencySolution:
    def test_negative_probability_rejected(self):
        prof = make_profile([0.0])
        with pytest.raises(ValueError):
            bc.AgencySolution(
                ((prof, -0.1), (prof, 1.1)), (0.0,), 0.0, (0.0,), 0.0, 0.0, (0.0,), (0.0,)
            )

    def test_mass_must_sum_to_one(self):
        prof = make_profile([0.0])
        with pytest.raises(ValueError):
            bc.AgencySolution(((prof, 0.5),), (0.0,), 0.0, (0.0,), 0.0, 0.0, (0.0,), (0.0,))

    def test_nan_probability_rejected(self):
        # nan < 0 and abs(nan - 1) > tol are both False
        prof = make_profile([0.0])
        with pytest.raises(ValueError, match="probability nan"):
            bc.AgencySolution(
                ((prof, NAN), (prof, 1.0)), (0.0,), 0.0, (0.0,), 0.0, 0.0, (0.0,), (0.0,)
            )


class TestExternalDistribution:
    @pytest.mark.parametrize(
        "support, message",
        [
            ((), "support must be nonempty"),
            ((((0.5,), 0.5), ((0.5, 0.25), 0.5)), "equal length"),
            ((((0.5,), -0.5), ((0.25,), 1.5)), "probability -0.5 is not >= 0"),
            ((((0.5,), NAN), ((0.25,), 1.0)), "probability nan is not >= 0"),
            ((((0.5,), 0.5), ((0.25,), 0.25)), "sum to 0.75, not 1"),
            ((((0.25, 0.5), 1.0),), "sorted descending"),
            # unchecked, -0.2 would give a colluder a negative GSP payment
            ((((-0.2,), 1.0),), "outside \\[0, 1\\]"),
            ((((1.5,), 1.0),), "outside \\[0, 1\\]"),
            ((((NAN,), 1.0),), "outside \\[0, 1\\]"),
        ],
        ids=[
            "empty", "unequal-lengths", "negative-prob", "nan-prob", "sum-not-one",
            "unsorted", "bid-negative", "bid-above-one", "bid-nan",
        ],
    )
    def test_rejected(self, support, message):
        with pytest.raises(ValueError, match=message):
            bc.ExternalDistribution(support)


class TestAuctionInstance:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"valuations": (NAN, 0.3)}, "valuation nan outside"),
            ({"valuations": (1.5, 0.3)}, "valuation 1.5 outside"),
            ({"outside_options": (-0.1, 0.0)}, "outside option -0.1 outside"),
            ({"valuations": (0.3, 0.9)}, "sorted by valuation descending"),
            ({"outside_options": (0.1,)}, "differ in length"),
            ({"valuations": (), "outside_options": ()}, "at least one colluder"),
            ({"slots": ()}, "at least one slot"),
            ({"slots": (1.2, 0.5)}, "click-through rate 1.2 outside"),
            ({"slots": (0.5, 1.0)}, "sorted by rate descending"),
            ({"mechanism": "fpa"}, "unknown mechanism"),
            ({"slots": (1.0, 0.75, 0.5, 0.25)}, "more slots than participating agents"),
        ],
        ids=[
            "valuation-nan", "valuation-above-one", "outside-option-negative",
            "valuations-ascending", "unequal-lengths", "no-colluders", "no-slots",
            "rate-above-one", "slots-ascending", "unknown-mechanism", "more-slots-than-agents",
        ],
    )
    def test_rejected(self, changes, message):
        # built through the Python API, as for a fixed external profile,
        # an instance is checked only by its constructor
        inst = bc.validate_and_normalize(minimal_raw())
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(inst, **changes)


class TestThreshold:
    def test_is_epsilon_over_colluders(self, example1):
        assert example1.threshold(0.05) == 0.05 / 2
        assert example1.threshold(1.0) == 0.5

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.5, float("nan")])
    def test_epsilon_out_of_range(self, example1, epsilon):
        with pytest.raises(ValueError, match="epsilon must be in"):
            example1.threshold(epsilon)

    @pytest.mark.parametrize("solve", [bc.solve_arbitrary, bc.solve_ll])
    def test_underflowing_p_names_epsilon(self, example1, solve):
        # 5e-324 lies in (0, 1], but 5e-324 / 2 rounds to 0.0
        with pytest.raises(ValueError, match="epsilon 5e-324 over 2 colluders"):
            solve(example1, 5e-324)
        with pytest.raises(ValueError, match="epsilon 5e-324 over 2 colluders"):
            solve(example1, 5e-324, levels=[0.0, 0.5])

    def test_smallest_epsilon_for_one_colluder(self):
        inst = bc.validate_and_normalize(minimal_raw(
            slots=[1.0], colluders=[{"v": 0.9, "t": 0.0}]
        ))
        assert inst.threshold(5e-324) == 5e-324


#: (values, their total added left to right, builtin ``sum`` on CPython
#: 3.12.1 and 3.13.0): the two differ from Python 3.12 on.
SUM_CASES = [
    ([0.1] * 10, 0.9999999999999999, 1.0),
    ([1e100, 1.0, -1e100], 0.0, 1.0),
    ([0.1, 0.2, 0.3], 0.6000000000000001, 0.6),
    ([1.0, 1e-16, 1e-16], 1.0, 1.0000000000000002),
    # an infinite total takes no compensation, which is NaN here
    ([1e308, 1e308, -1e308], float("inf"), float("inf")),
    ([-0.0], 0.0, 0.0),
]


def matrix_products(source):
    """(line, operator or function name) of each matrix product in
    ``source``: an ``@`` operator, or a call named in PRODUCT_CALLS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in PRODUCT_CALLS:
                found.append((node.lineno, name))
    return sorted(found)


class TestOrderedSum:
    @pytest.mark.parametrize("values, ordered, compensated", SUM_CASES)
    def test_adds_left_to_right_where_python_312_compensates(self, values, ordered, compensated):
        assert ordered_sum(values).hex() == ordered.hex()
        assert compensated_sum(values).hex() == compensated.hex()

    @settings(max_examples=300)
    @given(st.lists(st.floats(allow_nan=False), max_size=12))
    def test_is_the_plain_loop(self, values):
        total = 0.0
        for value in values:
            total += value
        assert ordered_sum(values).hex() == total.hex()

    def test_package_forms_no_matrix_product(self):
        found = [
            f"{path.name}:{line} {what}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for line, what in matrix_products(path.read_text(encoding="utf-8"))
        ]
        assert found == []

    def test_matrix_product_finder(self):
        source = (
            "@dataclass\nclass T:\n    pass\n"
            "a @ b\na @= b\nnp.dot(a, b)\na.dot(b)\nmatmul(a, b)\nnp.linalg.inv(a)\n"
        )
        assert matrix_products(source) == [
            (4, "@"), (5, "@"), (6, "dot"), (7, "dot"), (8, "matmul")
        ]

    @pytest.mark.skipif(sys.version_info < (3, 12), reason="builtin sum compensates from 3.12")
    @settings(max_examples=300)
    @given(st.lists(st.floats() | st.integers(-(2**64), 2**64), max_size=12))
    def test_compensated_sum_is_builtin_sum(self, values):
        assert repr(builtins.sum(values)) == repr(compensated_sum(values))
