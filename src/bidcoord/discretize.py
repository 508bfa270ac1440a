"""Interval splitting and the discretized bid grid.

The bid space (0, 1] is bisected until each interval either carries at
most probability ``p`` of containing an external bid or is narrower than
the minimum step ``eta``.  With ``eta`` one ulp of the external bids
(2^-M for M fractional bits), every narrow interval traps its support
bids at the right endpoint, so bidding an interval's lower endpoint
loses at most probability ``p`` of the revenue.  Interval lower
endpoints, combined with symbolic tie ranks, form the finite bid set the
solvers optimize over.

The split is defined recursively (``recursive_split`` in
``tests/oracles.py`` keeps that form as the test reference, with
``event_probability``) but runs as an iterative depth-first loop over
the support bids, sorted once, so each interval is decided from one
slice of them instead of a scan of the whole support.  It yields the
same intervals in the same order and the same call count.  It only
splits (0, 1], with eta = 2^-M, for ``pruned_grid``.

Each distinct positive support bid is a point, and its total is the sum,
in support order, of the probabilities of the distinct entries bidding
it.  A point is heavy when its total exceeds p, as every point is when
each entry alone carries more than p.  Float sums of nonnegative terms
only grow as terms are added, so every interval holding a heavy point
carries more than p and splits until it is eta wide.  The loop therefore
closes each interval that splits while holding only heavy points in
closed form: its subtree is the binary trie of the eta-wide cells that
hold a bid.  With width W = 2^-a and eta = 2^-M the interval has 2^t
cells, t = M - a, and a bid b lies in cell

    c = ceil(b/eta) - 1 - lower/eta.

Cell c_i leaves the path to the cell c_{i-1} before it at their highest
differing bit, so the distinct cells c_1 < ... < c_m make

    I = t + sum_i (bit_length(c_{i-1} XOR c_i) - 1)

splits: the subtree adds 2I + 1 calls and I + 1 leaves, and the leaf of
cell c_i ends at ceil(b/eta)*eta.  This is exact, not a float
approximation: every endpoint is a multiple of eta >= 2^-53 in [0, 1],
so every midpoint and width the recursion would compute is a double
without rounding.  The one-cell case is a chain of t halvings; cent
bids' eta = 2^-53 makes those about 50 halvings long, nearly all of the
paper's grid.  An interval holding a light point is summed and bisected
as above.

The solvers optimize over the dominance-pruned levels: 0 and the upper
endpoint, below 1, of each leaf holding a support bid.  Every other
level's gap below it holds no external bid, so a colluder bidding it can
move down to the kept level below without changing any allocation or
raising any payment, and the optimum stays the full grid's with at most
one level more than there are distinct support bids
(``prune_levels`` in ``tests/oracles.py`` states this on a given grid
and is the test reference).  A fixed external profile's bids are support
bids, so the same levels keep its optimum too.  ``pruned_grid`` reads
those levels off the loop's pieces without building an interval, and
every optimizer works over them.  It keeps the pieces, so ``discretize``
can expand the same walk into the full grid (``PrunedGrid.full_levels``,
which ``build_grid`` wraps): the split is its lower endpoints, each
interval running from its level to the next one, or to 1.
"""

from __future__ import annotations

import itertools
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .core import AuctionInstance, BidProfile, ExternalDistribution, make_profile, ordered_sum

#: Fractional bits available in a double; bids needing more are capped.
MAX_BITS_CAP = 53

#: A piece of the split: (lower, upper, t, hits); see ``_split``.
_Piece = tuple[float, float, int, tuple[float, ...]]


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

    def full_levels(self) -> tuple[float, ...]:
        """The full grid, expanded from the walk's pieces: each interval's
        lower endpoint, ascending from 0.  An interval runs from its level
        to the next one, or to 1."""
        return tuple(_leaves(self.pieces))


def _split(p: float, eta: float, distribution: ExternalDistribution) -> tuple[list[_Piece], int]:
    """Bisect (0, 1] depth first, left child before right, and return its
    pieces in ascending order with the number of intervals decided (the
    recursive definition's call count).

    The contract is ``pruned_grid``'s walk: p > 0, and eta = 2^-M with
    0 <= M <= 53, so every endpoint is a multiple of eta in [0, 1] and
    every midpoint is exact.

    A piece (lower, upper, t, hits) is one leaf when t is 0, and ``hits``
    holds its upper endpoint if it holds a support bid, else nothing.
    When t > 0 it is an all-heavy subtree closed in closed form (see the
    module docstring): bisected t times toward each eta-wide cell in
    ``hits``, which gives the upper endpoint of each cell holding a
    support bid, ascending; ``_leaves`` expands it.

    The positive support bids are sorted once as (bid, entry) pairs, so
    an interval's bids are one slice of them and a child's slice is one
    bisection of its parent's.  An interval holding only heavy points
    carries more than ``p``, so only the width test remains.  Otherwise
    the distinct entries' probabilities are added in support order by
    ``core.ordered_sum``, exactly as the test reference's
    ``event_probability`` adds them, so every decision, and hence every
    interval and the call count, equals the recursive definition's.
    """
    pairs = sorted(
        (b, k) for k, (bids, _) in enumerate(distribution.support) for b in bids if b > 0.0
    )
    keys = [b for b, _ in pairs]
    owners = [k for _, k in pairs]
    probs = [prob for _, prob in distribution.support]
    # light[i]: how many of the first i pairs bid a light point; None when
    # each entry alone carries more than p, so that every point is heavy
    light = None if min(probs) > p else _light_counts(keys, owners, probs, p)
    eta_bits = eta.as_integer_ratio()[1].bit_length()
    pieces: list[_Piece] = []
    calls = 0
    # (lower, upper, slice start, slice end); every positive bid is at
    # most 1, so (0, 1] holds them all
    stack = [(0.0, 1.0, 0, len(keys))]
    while stack:
        lower, upper, lo, hi = stack.pop()
        calls += 1
        heavy = hi > lo and (light is None or light[lo] == light[hi])
        if heavy:
            split = upper - lower > eta
        else:
            total = ordered_sum(probs[k] for k in sorted(set(owners[lo:hi])))
            split = not (total <= p or upper - lower <= eta)
        if not split:
            pieces.append((lower, upper, 0, (upper,) if hi > lo else ()))
        elif heavy:
            t = eta_bits - (upper - lower).as_integer_ratio()[1].bit_length()
            # cell c of this interval is (lower + c*eta, lower + (c+1)*eta];
            # a bid b lies in cell ceil(b/eta) - 1 - lower/eta, all exact,
            # and the sorted bids give the cells in ascending order
            base = int(lower / eta) + 1
            splits = t
            hits = []
            last = None
            for b in keys[lo:hi]:
                cell = math.ceil(b / eta) - base
                if cell != last:
                    if last is not None:
                        splits += (last ^ cell).bit_length() - 1
                    hits.append((cell + base) * eta)
                    last = cell
            calls += 2 * splits
            pieces.append((lower, upper, t, tuple(hits)))
        else:
            mid = (lower + upper) / 2.0
            cut = bisect_right(keys, mid, lo, hi)
            stack.append((mid, upper, cut, hi))
            stack.append((lower, mid, lo, cut))
    return pieces, calls


def _light_counts(
    keys: Sequence[float], owners: Sequence[int], probs: Sequence[float], p: float
) -> list[int]:
    """Prefix counts of the sorted (bid, entry) pairs whose bid is a light
    point: one whose entries' probabilities, added in support order as
    ``_split`` adds them, total at most p."""
    counts = [0]
    lo = 0
    while lo < len(keys):
        hi = bisect_right(keys, keys[lo], lo)
        total = ordered_sum(probs[k] for k in sorted(set(owners[lo:hi])))
        counts += [counts[-1] + (total <= p)] * (hi - lo)
        lo = hi
    return counts


def _leaves(pieces: Sequence[_Piece]) -> list[float]:
    """Expand ``_split``'s pieces into its leaves' lower endpoints,
    ascending.  A piece of t halvings bisects each interval that holds
    one of its ``hits`` until t halvings are spent; an interval holding
    none is a leaf.

    A leaf must be nonempty: with eta below the spacing of doubles near
    a bid, a midpoint rounds onto an endpoint, and that is a ValueError.
    """
    levels: list[float] = []
    for lower, upper, t, hits in pieces:
        stack = [(lower, upper, t, 0, len(hits))]
        while stack:
            lower, upper, t, lo, hi = stack.pop()
            if t == 0 or lo == hi:
                if not lower < upper:
                    raise ValueError(f"empty interval ({lower}, {upper}]")
                levels.append(lower)
            else:
                mid = (lower + upper) / 2.0
                cut = bisect_right(hits, mid, lo, hi)
                stack.append((mid, upper, t - 1, cut, hi))
                stack.append((lower, mid, t - 1, lo, cut))
    return levels


def max_bits(distribution: ExternalDistribution) -> int:
    """Fractional bits needed to represent every support bid exactly.

    Bids that are not dyadic within 53 bits are capped with a warning;
    integral bids (0 or 1) contribute zero bits.
    """
    # a double's denominator is a power of two, so the largest one has
    # the most fractional bits
    worst = max(
        (float(b).as_integer_ratio()[1] for bids, _ in distribution.support for b in bids),
        default=1,
    ).bit_length() - 1
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


def pruned_grid(instance: AuctionInstance, p: float) -> PrunedGrid:
    """Walk the split of (0, 1] for threshold p once, without building
    an interval.

    The minimum step is one ulp of the external support (eta = 2^-M), so
    every interval's open interior carries probability at most p.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p!r}")
    eta = 2.0 ** -max_bits(instance.external)
    pieces, calls = _split(p, eta, instance.external)
    levels = [0.0]
    for *_, hits in pieces:
        levels += hits
    if levels[-1] == 1.0:  # the last leaf's upper endpoint is no level
        levels.pop()
    # every split has two children, so there is one more leaf than splits
    k_star = (calls + 1) // 2
    return PrunedGrid(p, eta, k_star, calls, tuple(levels), tuple(pieces))


def build_grid(instance: AuctionInstance, p: float) -> tuple[PrunedGrid, BidGrid]:
    """The walk of the split for threshold p and its full grid of
    interval lower endpoints."""
    grid = pruned_grid(instance, p)
    return grid, BidGrid(grid.full_levels())


def project_to_grid(profile: BidProfile, grid_levels: Sequence[float]) -> BidProfile:
    """Round each bid down to the nearest grid level, preserving order.

    Tie ranks are reassigned so the projected bids keep exactly the
    original profile's relative ordering, including original level ties.
    """
    levels = sorted(grid_levels)
    if not levels or levels[0] != 0.0:
        raise ValueError("grid levels must include 0")
    new_levels = [levels[bisect_right(levels, level) - 1] for level in profile.levels]
    priority = [0] * len(profile)
    for pos, i in enumerate(profile.ranking()):
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
