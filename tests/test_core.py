import random

import pytest

import bidcoord as bc
from bidcoord.core import Bid, BidProfile, make_profile
from bidcoord.mechanisms import certify
from conftest import example1_raw, random_instance


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
        assert [c.original_index for c in inst.colluders] == [1, 0]

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
            # one round-trip may relabel original indices (they refer to the
            # serialized order), but the content is unchanged ...
            assert once.slots == inst.slots
            assert once.valuations == inst.valuations
            assert once.outside_options == inst.outside_options
            assert once.external == inst.external
            assert once.mechanism == inst.mechanism
            # ... and from the normalized form onward it is a fixed point
            twice = bc.validate_and_normalize(bc.instance_to_raw(once))
            assert twice == once

    def test_example1_parses(self):
        inst = bc.validate_and_normalize(example1_raw())
        assert inst.valuations == (0.6, 0.5)
        assert inst.outside_options == (0.1, 0.0)


class TestBidOrder:
    def test_level_dominates(self):
        assert Bid(0.5, 1) > Bid(0.4, 9)

    def test_colluder_beats_external_at_same_level(self):
        assert Bid(0.5, 1) > Bid(0.5, 0)

    def test_strict_total_order_on_distinct_pairs(self):
        rng = random.Random(7)
        bids = [Bid(rng.choice([0.0, 0.25, 0.5]), rng.randint(0, 4)) for _ in range(30)]
        distinct = list({(b.level, b.tie_rank): b for b in bids}.values())
        ordered = sorted(distinct)
        for a, b in zip(ordered, ordered[1:]):
            assert a < b
            assert not b < a

    def test_range_validation(self):
        with pytest.raises(ValueError):
            Bid(1.5, 0)
        with pytest.raises(ValueError):
            Bid(0.5, -1)


class TestBidProfile:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError):
            BidProfile((Bid(0.5, 1), Bid(0.5, 1)))

    def test_external_rank_rejected(self):
        with pytest.raises(ValueError):
            BidProfile((Bid(0.5, 0),))

    def test_make_profile_default_priority(self):
        prof = make_profile([0.5, 0.5, 0.2])
        # equal levels: earlier colluder gets the higher rank
        assert prof.bids[0].tie_rank > prof.bids[1].tie_rank
        assert prof.levels == (0.5, 0.5, 0.2)

    def test_make_profile_explicit_priority(self):
        prof = make_profile([0.5, 0.5], priority=[1, 0])
        assert prof.bids[1].tie_rank > prof.bids[0].tie_rank

    def test_make_profile_matches_sort(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 5)
            levels = [rng.choice([0.0, 0.25, 0.5]) for _ in range(n)]
            prof = make_profile(levels)
            by_bid = sorted(range(n), key=lambda i: prof.bids[i], reverse=True)
            by_rule = sorted(range(n), key=lambda i: (-levels[i], i))
            assert by_bid == by_rule


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


class TestCheckDeltaIC:
    def _solution(self, instance, transfers, relaxation):
        profile = make_profile([0.0] * instance.n_colluders)
        return certify(instance, ((profile, 1.0),), lambda rbar: transfers, relaxation)

    def test_equality_by_construction(self, example1):
        p = 0.05
        out = bc.expected_outcome(example1, make_profile([0.0, 0.0]))
        q = [r - c.outside_option + p for r, c in zip(out.revenue, example1.colluders)]
        sol = self._solution(example1, q, p)
        assert bc.check_delta_ic(sol, example1, p) == (True, True)

    def test_half_delta_fails(self, example1):
        p = 0.05
        out = bc.expected_outcome(example1, make_profile([0.0, 0.0]))
        q = [r - c.outside_option + p for r, c in zip(out.revenue, example1.colluders)]
        sol = self._solution(example1, q, p)
        assert bc.check_delta_ic(sol, example1, p / 2) == (False, False)

    def test_delta_one_always_passes(self, example1):
        out = bc.expected_outcome(example1, make_profile([0.0, 0.0]))
        sol = self._solution(example1, list(out.revenue), 0.0)
        assert bc.check_delta_ic(sol, example1, 1.0) == (True, True)


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
