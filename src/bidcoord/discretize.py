"""Interval splitting and the discretized bid grid.

The bid space (0, 1] is bisected until each interval either carries at
most probability ``p`` of containing an external bid or is narrower than
the minimum step ``eta``.  With ``eta`` one ulp of the external bids
(2^-M for M fractional bits), every narrow interval traps its support
bids at the right endpoint, so bidding an interval's lower endpoint
loses at most probability ``p`` of the revenue.  Interval lower
endpoints, combined with symbolic tie ranks, form the finite bid set the
solvers optimize over.

The split is defined recursively (``oracles.recursive_split`` keeps that
form as the test reference) but runs as an iterative depth-first loop
over the support bids, sorted once, so each interval is decided from one
slice of them instead of a scan of the whole support.  It yields the
same intervals in the same order and the same call count.

``prune_levels`` then drops every level whose gap below it holds no
external bid; the solvers optimize over what is left, at most one level
more than there are distinct support bids, with the same optimum.
"""

from __future__ import annotations

import itertools
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import AuctionInstance, BidProfile, ExternalDistribution, make_profile

#: Fractional bits available in a double; bids needing more are capped.
MAX_BITS_CAP = 53


@dataclass(frozen=True)
class Interval:
    """Half-open interval (lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower < self.upper <= 1.0:
            raise ValueError(f"invalid interval ({self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower < value <= self.upper


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint intervals covering (0, 1], sorted by lower endpoint."""

    intervals: tuple[Interval, ...]
    p: float
    eta: float
    rec_calls: int

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("empty interval set")
        if self.intervals[0].lower != 0.0 or self.intervals[-1].upper != 1.0:
            raise ValueError("intervals must cover (0, 1]")
        for a, b in itertools.pairwise(self.intervals):
            if a.upper != b.lower:
                raise ValueError("intervals must tile (0, 1] without gaps")

    def __len__(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class BidGrid:
    """Interval lower endpoints crossed with colluder tie ranks.

    ``levels`` is ascending and always starts at 0; ranks 1..n_ranks are
    assigned by the solvers so that intended colluder orderings at equal
    levels are realized symbolically.
    """

    levels: tuple[float, ...]
    n_ranks: int

    def __post_init__(self):
        if not self.levels or self.levels[0] != 0.0:
            raise ValueError("grid levels must start at 0")
        if any(b <= a for a, b in itertools.pairwise(self.levels)):
            raise ValueError("grid levels must be strictly ascending")
        if self.n_ranks < 1:
            raise ValueError("need at least one rank")

    @property
    def flat_size(self) -> int:
        """Number of distinct (level, rank) bids the grid induces."""
        return len(self.levels) * self.n_ranks


def event_probability(distribution: ExternalDistribution, lower: float, upper: float) -> float:
    """Probability that any external bid lands in (lower, upper]."""
    total = 0.0
    for bids, prob in distribution.support:
        if any(lower < b <= upper for b in bids):
            total += prob
    return total


def _split(
    lower: float, upper: float, p: float, eta: float, distribution: ExternalDistribution
) -> tuple[list[Interval], int]:
    """Bisect (lower, upper] depth first, left child before right, and
    return the leaf intervals in ascending order with the number of
    intervals decided (the recursive definition's call count).

    The positive support bids are sorted once as (bid, entry) pairs, so
    an interval's bids are one slice of them and a child's slice is one
    bisection of its parent's.  A child whose slice equals its parent's
    carries the parent's probability, which exceeded ``p``, so only the
    width test remains.  Otherwise the distinct entries' probabilities
    are added in support order with a plain loop, exactly as
    ``event_probability`` adds them, so every decision, and hence every
    interval and the call count, equals the recursive definition's.
    """
    pairs = sorted(
        (b, k) for k, (bids, _) in enumerate(distribution.support) for b in bids if b > 0.0
    )
    keys = [b for b, _ in pairs]
    owners = [k for _, k in pairs]
    probs = [prob for _, prob in distribution.support]
    leaves: list[Interval] = []
    calls = 0
    lo = bisect_right(keys, lower)
    # (lower, upper, slice start, slice end, slice equals the parent's)
    stack = [(lower, upper, lo, bisect_right(keys, upper, lo), False)]
    while stack:
        lower, upper, lo, hi, same_as_parent = stack.pop()
        calls += 1
        if same_as_parent:
            split = upper - lower > eta
        else:
            total = 0.0
            for k in sorted(set(owners[lo:hi])):
                total += probs[k]
            split = not (total <= p or upper - lower <= eta)
        if not split:
            leaves.append(Interval(lower, upper))
            continue
        mid = (lower + upper) / 2.0
        cut = bisect_right(keys, mid, lo, hi)
        stack.append((mid, upper, cut, hi, cut == lo))
        stack.append((lower, mid, lo, cut, cut == hi))
    return leaves, calls


def rec_split(
    interval: Interval, p: float, eta: float, distribution: ExternalDistribution
) -> list[Interval]:
    """Bisect an interval until each piece carries external-bid
    probability at most p or has width at most eta."""
    return _split(interval.lower, interval.upper, p, eta, distribution)[0]


def max_bits(distribution: ExternalDistribution) -> int:
    """Fractional bits needed to represent every support bid exactly.

    Bids that are not dyadic within 53 bits are capped with a warning;
    integral bids (0 or 1) contribute zero bits.
    """
    worst = 0
    for bids, _ in distribution.support:
        for b in bids:
            _, den = float(b).as_integer_ratio()
            worst = max(worst, den.bit_length() - 1)
    if worst > MAX_BITS_CAP:
        warnings.warn(
            f"support bid needs {worst} fractional bits; capping at {MAX_BITS_CAP}",
            stacklevel=2,
        )
        worst = MAX_BITS_CAP
    return worst


def build_intervals(distribution: ExternalDistribution, p: float, eta: float) -> IntervalSet:
    """Split (0, 1] and record the recursive definition's call count."""
    intervals, calls = _split(0.0, 1.0, p, eta, distribution)
    return IntervalSet(tuple(intervals), p, eta, calls)


def build_grid(instance: AuctionInstance, p: float) -> tuple[IntervalSet, BidGrid]:
    """Construct the discretized bid set for this instance.

    The minimum step is one ulp of the external support (eta = 2^-M), so
    every interval's open interior carries probability at most p.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p!r}")
    eta = 2.0 ** (-max_bits(instance.external))
    interval_set = build_intervals(instance.external, p, eta)
    levels = tuple(iv.lower for iv in interval_set.intervals)
    return interval_set, BidGrid(levels, instance.n_colluders)


def prune_levels(
    levels: Sequence[float], distribution: ExternalDistribution
) -> tuple[float, ...]:
    """Drop the grid levels no optimum needs.

    Keeps level 0 and each level l_k whose gap (l_{k-1}, l_k] holds a
    positive support bid.  A colluder bidding a dropped l_k can move down
    to the highest kept level below it, with tie ranks keeping every
    colluder's order: no external bid lies in the levels it passes and
    colluders win level ties, so it passes no external agent and no
    allocation changes.  Every bid only falls or stays, so every GSP
    price (the next bid below) and every VCG payment (a weighted sum of
    the bids below) falls or stays equal.  Hence for any revenue weights
    y >= 0 and payment weight x >= 0, and for the limited-liability
    master, whose columns keep their revenue and lose payment, the
    optimum over the kept levels equals the optimum over all of them.
    So at most 1 + (number of distinct positive support bids) remain.

    ``levels`` is ascending and starts at 0, as in ``BidGrid``; one
    merge pass over it and the sorted distinct bids decides every level.
    """
    if not levels or levels[0] != 0.0:
        raise ValueError("grid levels must start at 0")
    bids = sorted({b for entry, _ in distribution.support for b in entry if b > 0.0})
    kept = [levels[0]]
    j = 0
    for below, level in itertools.pairwise(levels):
        while j < len(bids) and bids[j] <= below:
            j += 1
        if j < len(bids) and bids[j] <= level:
            kept.append(level)
    return tuple(kept)


def project_to_grid(profile: BidProfile, grid_levels: Sequence[float]) -> BidProfile:
    """Round each bid down to the nearest grid level, preserving order.

    Tie ranks are reassigned so the projected bids keep exactly the
    original profile's relative ordering, including original level ties.
    """
    levels = sorted(grid_levels)
    if not levels or levels[0] != 0.0:
        raise ValueError("grid levels must include 0")
    new_levels = []
    for b in profile.bids:
        k = bisect_right(levels, b.level) - 1
        new_levels.append(levels[k])
    by_original = sorted(range(len(profile)), key=lambda i: profile.bids[i], reverse=True)
    priority = [0] * len(profile)
    for pos, i in enumerate(by_original):
        priority[i] = pos
    return make_profile(new_levels, priority)


def iter_grid_profiles(
    grid_levels: Sequence[float], n_colluders: int, tie_orders: bool = True
) -> Iterator[BidProfile]:
    """Enumerate grid profiles: every level assignment, and optionally every
    relative ordering of colluders sharing a level.

    Deterministic: assignments in ascending-level lexicographic order,
    tie orderings in permutation order per tied group.
    """
    levels = sorted(set(grid_levels))
    indices = range(n_colluders)
    for assignment in itertools.product(levels, repeat=n_colluders):
        groups: dict[float, list[int]] = {}
        for i in indices:
            groups.setdefault(assignment[i], []).append(i)
        tied = [g for g in groups.values() if len(g) > 1]
        if not tie_orders or not tied:
            yield make_profile(assignment)
            continue
        for perm_combo in itertools.product(*(itertools.permutations(g) for g in tied)):
            # Priority only matters between colluders at the same level, so
            # positions within each permuted tied group are enough.
            priority = list(indices)
            for perm in perm_combo:
                for pos, i in enumerate(perm):
                    priority[i] = pos
            yield make_profile(assignment, priority)
