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
form as the test reference, with ``oracles.event_probability``) but runs
as an iterative depth-first loop over the support bids, sorted once, so
each interval is decided from one slice of them instead of a scan of the
whole support.  It yields the same intervals in the same order and the
same call count.  The package only splits (0, 1] with eta = 2^-M, in
``pruned_grid``; the tests split other intervals, and with other eta,
through ``_split`` and ``_leaves``.

An interval that splits while its bids share one value b starts a
chain: each child holding b has the same bids, so only the width test
decides it, and each sibling holds none and is a leaf.  The loop closes
such a chain in closed form.  With width W = 2^-a and eta = 2^-M it
takes t = M - a halvings, adds 2t calls and t + 1 leaves (t of them
empty siblings), and the leaf holding b ends at lower + ceil((b -
lower)/eta)*eta, which is ceil(b/eta)*eta as lower is a multiple of
eta.  This is exact, not a float approximation: every endpoint is a
multiple of eta >= 2^-53 in [0, 1], so every midpoint and width the
recursion would compute is a double without rounding.  The
cent bids' eta = 2^-53 makes such chains about 50 halvings long, nearly
all of the paper's grid.

The solvers optimize over the dominance-pruned levels: 0 and the upper
endpoint, below 1, of each leaf holding a support bid.  Every other
level's gap below it holds no external bid, so a colluder bidding it can
move down to the kept level below without changing any allocation or
raising any payment, and the optimum stays the full grid's with at most
one level more than there are distinct support bids
(``oracles.prune_levels`` states this on a given grid and is the test
reference).  A fixed external profile's bids are support bids, so the
same levels keep its optimum too.  ``pruned_grid`` reads those levels
off the loop's chains without building an interval, and every
optimizer works over them.  It keeps the pieces, so ``discretize`` can
expand the same walk into the full split (``PrunedGrid.intervals``,
which ``build_grid`` wraps).
"""

from __future__ import annotations

import itertools
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .core import AuctionInstance, BidProfile, ExternalDistribution, make_profile

#: Fractional bits available in a double; bids needing more are capped.
MAX_BITS_CAP = 53

#: A piece of the split: (lower, upper, hit, t); see ``_split``.
_Piece = tuple[float, float, float | None, int]


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
    """The full grid: the split's interval lower endpoints, ascending
    from 0.  Colluders at an equal level are ordered by symbolic tie
    ranks, which the solvers assign."""

    levels: tuple[float, ...]

    def __post_init__(self):
        if not self.levels or self.levels[0] != 0.0:
            raise ValueError("grid levels must start at 0")
        if any(b <= a for a, b in itertools.pairwise(self.levels)):
            raise ValueError("grid levels must be strictly ascending")


@dataclass(frozen=True)
class PrunedGrid:
    """One walk of the split of (0, 1]: its scalars, its grid's pruned
    levels, and the walk's pieces for expanding it.

    ``k_star`` is the number of intervals (the full grid's level count),
    ``rec_calls`` the recursive definition's call count, and ``levels``
    0 and the upper endpoint, below 1, of each interval holding a support
    bid: the levels the solvers optimize over.
    """

    p: float
    eta: float
    k_star: int
    rec_calls: int
    levels: tuple[float, ...]
    pieces: tuple[_Piece, ...] = field(compare=False, repr=False)

    def intervals(self) -> IntervalSet:
        """The split's intervals, expanded from the walk's pieces."""
        return IntervalSet(tuple(_leaves(self.pieces)), self.p, self.eta, self.rec_calls)


def _split(
    lower: float, upper: float, p: float, eta: float, distribution: ExternalDistribution
) -> tuple[list[_Piece], int]:
    """Bisect (lower, upper] depth first, left child before right, and
    return its pieces in ascending order with the number of intervals
    decided (the recursive definition's call count).

    A piece (lower, upper, hit, t) is one leaf when t is 0, and ``hit``
    is its upper endpoint if it holds a support bid, else None.  When
    t > 0 it is a chain of t halvings (see the module docstring): t + 1
    leaves tiling (lower, upper], of which the one holding the bid ends
    at ``hit``; ``_leaves`` expands it.

    The positive support bids are sorted once as (bid, entry) pairs, so
    an interval's bids are one slice of them and a child's slice is one
    bisection of its parent's.  A child whose slice equals its parent's
    carries the parent's probability, which exceeded ``p``, so only the
    width test remains.  Otherwise the distinct entries' probabilities
    are added in support order with a plain loop, exactly as
    ``oracles.event_probability`` adds them, so every decision, and hence
    every interval and the call count, equals the recursive definition's.
    """
    pairs = sorted(
        (b, k) for k, (bids, _) in enumerate(distribution.support) for b in bids if b > 0.0
    )
    keys = [b for b, _ in pairs]
    owners = [k for _, k in pairs]
    probs = [prob for _, prob in distribution.support]
    # Chains close in closed form only where bisection is exact: eta is
    # 2^-M with M <= MAX_BITS_CAP, the width a power of two and ``lower``
    # a multiple of eta, so every endpoint is a multiple of eta in [0, 1];
    # and an empty interval is a leaf (p >= 0).  The walk of (0, 1] that
    # ``pruned_grid`` makes is always such a walk.
    closes = (
        p >= 0.0
        and 2.0**-MAX_BITS_CAP <= eta <= 1.0
        and eta.as_integer_ratio()[0] == 1
        and (upper - lower).as_integer_ratio()[0] == 1
        and lower % eta == 0.0
    )
    eta_bits = eta.as_integer_ratio()[1].bit_length() if closes else 0
    pieces: list[_Piece] = []
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
            pieces.append((lower, upper, upper if hi > lo else None, 0))
        elif closes and keys[lo] == keys[hi - 1]:
            t = eta_bits - (upper - lower).as_integer_ratio()[1].bit_length()
            calls += 2 * t
            pieces.append((lower, upper, -(-keys[lo] // eta) * eta, t))
        else:
            mid = (lower + upper) / 2.0
            if not lower < mid < upper:
                # eta is below the doubles' spacing here; a child would
                # repeat its parent forever
                raise ValueError(f"cannot bisect ({lower!r}, {upper!r}] down to eta {eta!r}")
            cut = bisect_right(keys, mid, lo, hi)
            stack.append((mid, upper, cut, hi, cut == lo))
            stack.append((lower, mid, lo, cut, cut == hi))
    return pieces, calls


def _leaves(pieces: Sequence[_Piece]) -> list[Interval]:
    """Expand ``_split``'s pieces into its leaf intervals, ascending.  A
    chain is bisected t times toward the leaf ending at ``hit``; the
    siblings passed on its left precede that leaf and those on its right
    follow it, innermost first."""
    leaves: list[Interval] = []
    for lower, upper, hit, t in pieces:
        above = []
        for _ in range(t):
            mid = (lower + upper) / 2.0
            if hit <= mid:
                above.append(Interval(mid, upper))
                upper = mid
            else:
                leaves.append(Interval(lower, mid))
                lower = mid
        leaves.append(Interval(lower, upper))
        leaves.extend(reversed(above))
    return leaves


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
        _warn_caller(f"support bid needs {worst} fractional bits; capping at {MAX_BITS_CAP}")
        worst = MAX_BITS_CAP
    return worst


def _warn_caller(message: str) -> None:
    """Warn, naming the first calling frame outside this package."""
    import sys  # for the frame walk, on this rare path only

    package = __name__.partition(".")[0]
    frame = sys._getframe(1)
    level = 2  # the stacklevel that names ``frame``
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == package:
        frame = frame.f_back
        level += 1
    warnings.warn(message, stacklevel=level)


def _grid_eta(instance: AuctionInstance, p: float) -> float:
    """The minimum step for threshold p: one ulp of the external
    support, eta = 2^-M."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p!r}")
    return 2.0 ** (-max_bits(instance.external))


def pruned_grid(instance: AuctionInstance, p: float) -> PrunedGrid:
    """Walk the split of (0, 1] for threshold p once, without building
    an interval.

    The minimum step is one ulp of the external support (eta = 2^-M), so
    every interval's open interior carries probability at most p.
    """
    eta = _grid_eta(instance, p)
    pieces, calls = _split(0.0, 1.0, p, eta, instance.external)
    levels = [0.0]
    levels += [hit for _, _, hit, _ in pieces if hit is not None and hit < 1.0]
    k_star = len(pieces) + sum(t for _, _, _, t in pieces)
    return PrunedGrid(p, eta, k_star, calls, tuple(levels), tuple(pieces))


def build_grid(instance: AuctionInstance, p: float) -> tuple[IntervalSet, BidGrid]:
    """The full split for threshold p and its grid of interval lower
    endpoints."""
    interval_set = pruned_grid(instance, p).intervals()
    levels = tuple(iv.lower for iv in interval_set.intervals)
    return interval_set, BidGrid(levels)


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


def iter_grid_profiles(grid_levels: Sequence[float], n_colluders: int) -> Iterator[BidProfile]:
    """Enumerate grid profiles: every level assignment crossed with every
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
        if not tied:
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
