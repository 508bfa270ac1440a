"""Shared builders for randomized desk-scale test instances."""

import dataclasses
import importlib.util
import itertools
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import bidcoord as bc
from bidcoord.discretize import _leaves, _split
from bidcoord.mechanisms import individual_baseline

# Every property test runs the same examples on every run, with no time
# limit per example; a test's own @settings only sets its example count.
settings.register_profile("bidcoord", derandomize=True, deadline=None)
settings.load_profile("bidcoord")


def dyadic(rng: random.Random, bits: int) -> float:
    """A uniform dyadic rational in [0, 1] with at most `bits` fractional bits."""
    return rng.randrange(0, 2**bits + 1) / 2**bits


def random_instance(
    rng: random.Random,
    max_colluders: int = 4,
    max_external: int = 3,
    max_slots: int = 5,
    max_support: int = 3,
    bid_bits: int = 10,
    mechanism: str = None,
    feasible_outside: bool = False,
) -> bc.AuctionInstance:
    """A random normalized instance.

    With ``feasible_outside`` the outside options are a random downscaling
    of the truthful-bidding utilities, which keeps the participation
    system satisfiable by at least one (continuous) profile.
    """
    n_c = rng.randint(1, max_colluders)
    n_e = rng.randint(0, max_external)
    m = rng.randint(1, min(max_slots, n_c + n_e))
    k = rng.randint(1, max_support)
    probs = [rng.random() for _ in range(k)]
    total = sum(probs)
    raw = {
        "mechanism": mechanism or rng.choice(["gsp", "vcg"]),
        "slots": sorted((dyadic(rng, bid_bits) for _ in range(m)), reverse=True),
        "colluders": [{"v": dyadic(rng, bid_bits), "t": 0.0} for _ in range(n_c)],
        "external": {
            "support": [
                {"bids": [dyadic(rng, bid_bits) for _ in range(n_e)], "prob": p / total}
                for p in probs
            ]
        },
    }
    instance = bc.validate_and_normalize(raw)
    if feasible_outside:
        base = individual_baseline(instance)
        scale = rng.random()
        raw["colluders"] = [
            {"v": v, "t": min(1.0, max(0.0, scale * u))}
            for v, u in zip(instance.valuations, base)
        ]
        instance = bc.validate_and_normalize(raw)
    return instance


def fixed_external(instance: bc.AuctionInstance, bids) -> bc.AuctionInstance:
    """The instance against one fixed external profile: its distribution
    replaced by the one-entry distribution of ``bids`` at probability 1."""
    point_mass = bc.ExternalDistribution(((tuple(sorted(bids, reverse=True)), 1.0),))
    return dataclasses.replace(instance, external=point_mass)


def iterative_split(distribution, p: float, eta: float):
    """The discretizer's iterative split of (0, 1] as ((lower, upper)
    leaves, call count): the form of ``oracles.recursive_split``.  Each
    leaf runs from its lower endpoint to the next one, or to 1."""
    pieces, calls = _split(p, eta, distribution)
    levels = _leaves(pieces)
    return list(zip(levels, levels[1:] + [1.0])), calls


def assert_tiles(leaves) -> None:
    """Assert that (lower, upper) leaves tile (0, 1] in order: the first
    lower endpoint is 0, each upper endpoint is the next lower one, the
    last upper endpoint is 1, and no leaf is empty."""
    assert leaves and leaves[0][0] == 0.0 and leaves[-1][1] == 1.0
    for (_, upper), (lower, _) in itertools.pairwise(leaves):
        assert upper == lower
    for lower, upper in leaves:
        assert lower < upper


def random_levels(rng: random.Random, max_levels: int = 6, bits: int = 10) -> list[float]:
    """A random grid of distinct levels always containing 0."""
    d = rng.randint(1, max_levels)
    levels = {dyadic(rng, bits) for _ in range(d)} | {0.0}
    return sorted(levels)


def _is_long(value: int) -> bool:
    """Whether an int fits a C long, as builtin ``sum``'s int paths need."""
    return -(2**63) <= value < 2**63


def compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` as CPython 3.12 and later compute it.

    Exact ints add exactly while the total fits a C long.  From the
    first exact float on, exact floats add with Neumaier's compensation
    and machine-size ints add as floats; the compensation is added to
    the total at the end if it is nonzero and finite.  Any other item
    first adds the compensation to the total, and every item from it on
    adds with plain ``+``.  Patched over ``builtins.sum``, it shows which
    reported numbers depend on the interpreter's ``sum``.
    """
    items = iter(iterable)
    total = start
    if type(total) is int and _is_long(total):
        for item in items:
            if type(item) in (int, bool) and _is_long(item) and _is_long(total + item):
                total += item
                continue
            total = total + item
            break
    if type(total) is float:
        c = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    c += (total - t) + item
                else:
                    c += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and _is_long(item):
                total += float(item)
                continue
            if c and math.isfinite(c):
                total += c
            total = total + item
            break
        else:
            if c and math.isfinite(c):
                total += c
            return total
    for item in items:
        total = total + item
    return total


def load_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # perfbench/ stays as it is
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240 + 1)


def example1_raw() -> dict:
    return {
        "mechanism": "vcg",
        "slots": [1.0],
        "colluders": [{"v": 0.6, "t": 0.1}, {"v": 0.5, "t": 0.0}],
        "external": {"support": [{"bids": [0.0], "prob": 1.0}]},
    }


def example3_raw() -> dict:
    return {
        "mechanism": "gsp",
        "slots": [1.0, 1.0],
        "colluders": [{"v": 1.0, "t": 0.01}, {"v": 1.0, "t": 0.01}],
        "external": {"support": [{"bids": [0.75], "prob": 1.0}]},
    }


def cent_bids_raw() -> dict:
    """GSP with 25 distinct cent bids: eta = 2^-53, so each bid is isolated
    by a chain of bisections and the full grid exceeds 1000 levels."""
    return {
        "mechanism": "gsp",
        "slots": [1.0, 0.6, 0.3],
        "colluders": [{"v": 0.9, "t": 0.0}, {"v": 0.7, "t": 0.0}],
        "external": {
            "support": [
                {"bids": [3 * (5 * k + j + 1) / 100 for j in reversed(range(5))], "prob": 0.2}
                for k in range(5)
            ]
        },
    }


@pytest.fixture
def example1() -> bc.AuctionInstance:
    return bc.validate_and_normalize(example1_raw())


@pytest.fixture
def example3() -> bc.AuctionInstance:
    return bc.validate_and_normalize(example3_raw())
