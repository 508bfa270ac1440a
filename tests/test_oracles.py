import random

import pytest

import bidcoord as bc
from bidcoord.core import make_profile
from bidcoord.discretize import build_grid
from bidcoord.oracles import (
    allocate,
    best_deterministic_ll,
    brute_force_arbitrary,
    brute_force_ll,
    brute_force_wup,
    payments_gsp,
    payments_vcg,
    vcg_externality,
)
from bidcoord.wup import WupWeights, unit_weights
from conftest import random_instance, random_levels


class TestVcgExternality:
    def test_matches_closed_form(self):
        rng = random.Random(500)
        for _ in range(500):
            inst = random_instance(rng, max_colluders=3, max_external=3)
            prof = make_profile([rng.random() for _ in range(inst.n_colluders)])
            ranking = allocate(prof, inst.external.support[0][0])
            closed = payments_vcg(ranking, inst.slots)
            oracle = vcg_externality(ranking, inst.slots)
            assert all(abs(a - b) < 1e-12 for a, b in zip(closed, oracle))

    def test_unallocated_agent_exerts_no_externality(self):
        ranking = allocate(make_profile([0.9, 0.1]), [0.5])
        pays = vcg_externality(ranking, [1.0, 0.6])
        assert pays[2] == 0.0

    def test_one_slot_equals_gsp(self):
        rng = random.Random(501)
        for _ in range(50):
            prof = make_profile([rng.random() for _ in range(rng.randint(1, 4))])
            ranking = allocate(prof, [rng.random()])
            oracle = vcg_externality(ranking, [0.7])
            gsp = payments_gsp(ranking, [0.7])
            assert all(abs(a - b) < 1e-12 for a, b in zip(oracle, gsp))

    def test_agent_cap(self):
        prof = make_profile([0.5] * 4)
        ranking = allocate(prof, [0.1] * 17)
        with pytest.raises(ValueError):
            vcg_externality(ranking, [1.0])


class TestBruteForceWup:
    def test_single_assignment(self):
        inst = random_instance(random.Random(1), max_colluders=2)
        prof, value = brute_force_wup([0.25], unit_weights(inst.n_colluders), inst)
        assert set(prof.levels) == {0.25}

    def test_pure_revenue_tops_out_heaviest_colluder(self):
        raw = {
            "mechanism": "gsp",
            "slots": [1.0, 0.4],
            "colluders": [{"v": 0.5, "t": 0.0}, {"v": 0.9, "t": 0.0}],
            "external": {"support": [{"bids": [], "prob": 1.0}]},
        }
        inst = bc.validate_and_normalize(raw)
        # normalized order: v = (0.9, 0.5); weights favor the second listed
        weights = WupWeights((1.0, 0.2), 0.0)
        prof, _ = brute_force_wup([0.0, 0.5, 1.0], weights, inst)
        top = prof.ranking()[0]
        assert top == 0  # heaviest weighted valuation takes the top bid

    def test_size_cap(self):
        inst = random_instance(random.Random(2), max_colluders=4)
        levels = [k / 100 for k in range(max(40, 10 ** (6 // inst.n_colluders) + 1))]
        if len(levels) ** inst.n_colluders > 10**6:
            with pytest.raises(ValueError):
                brute_force_wup(levels, unit_weights(inst.n_colluders), inst)


class TestBruteForceLl:
    def test_example3_value(self, example3):
        p = 0.005
        _, grid = build_grid(example3, p)
        value, status = brute_force_ll(example3, grid.levels, p)
        assert status == "optimal"
        assert abs(value - 1.0) < 1e-9

    def test_zero_outside_matches_arbitrary_oracle(self):
        rng = random.Random(3)
        for _ in range(8):
            inst = random_instance(rng, max_colluders=2, max_external=2, bid_bits=4)
            levels = random_levels(rng, max_levels=4, bits=4)
            value, status = brute_force_ll(inst, levels, 0.05)
            assert status == "optimal"
            assert abs(value - brute_force_arbitrary(inst, levels)) < 1e-9

    def test_infeasible_status(self):
        raw = {
            "mechanism": "gsp",
            "slots": [0.5],
            "colluders": [{"v": 1.0, "t": 1.0}],
            "external": {"support": [{"bids": [], "prob": 1.0}]},
        }
        inst = bc.validate_and_normalize(raw)
        value, status = brute_force_ll(inst, [0.0], 0.05)
        assert status == "infeasible"
        assert value is None


class TestBestDeterministic:
    def test_example3(self, example3):
        _, grid = build_grid(example3, 0.005)
        assert abs(best_deterministic_ll(example3, grid.levels) - 0.5) < 1e-9

    def test_none_when_unreachable(self):
        raw = {
            "mechanism": "gsp",
            "slots": [0.5],
            "colluders": [{"v": 1.0, "t": 1.0}],
            "external": {"support": [{"bids": [], "prob": 1.0}]},
        }
        inst = bc.validate_and_normalize(raw)
        assert best_deterministic_ll(inst, [0.0]) is None
