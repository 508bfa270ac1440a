"""Weighted-utility bid optimization over a finite grid of bid levels.

The problem: choose one grid level per colluder maximizing
``sum_i y_i * revenue_i - x * payment_i`` with nonnegative weights.  Bid
profiles that are non-increasing along the y*v-sorted colluder order are
provably sufficient, which turns the search into a longest-path problem
on a layered DAG with one layer per colluder and one node per grid
level.  Arc weights account, per colluder, for that colluder's slice of
the mechanism's revenue and payment, given only the adjacent pair of bid
levels; the per-path sum then reproduces the full mechanism accounting.

Only ``y`` and ``v`` depend on which colluder sits at position i of the
order, so the arc weight factors as ``y_c * v_c * L_i(j) - x * P_i(j, j')``
with ``L_i(j)`` the expected click-through rate of position i bidding
level j and ``P_i(j, j')`` its expected payment share when the next
position bids level j' (the sink uses next level 0).  Neither table
depends on the weights: :func:`expected_tables` builds them once per
(instance, grid) in numpy.  A query, such as each pricing round of
limited-liability column generation, weighs only L (n x d cells), and
:func:`solve_graph` forms each layer's arcs from P in one d x d buffer
as its DP reaches the layer, so no query holds all (n - 1) x d x d arcs.

:func:`expected_tables` covers the whole external support in one pass of
array operations, one row per support entry, instead of a loop of small
array operations per entry (``entrywise_expected_tables`` in
``tests/oracles.py``, its reference).  It still adds the entries' shares
in support order, starting from +0.0, the loop's running sums: a
pairwise sum, which ``.sum(axis=0)`` switches to when the support axis
is innermost, can move a cell's last bit, and every reported number is
meant to keep its bits.  Only GSP's payment table, d x d per position,
is still summed one entry at a time, so no temporary grows with
K * d * d.

:func:`solve_wup` over :func:`expected_tables` is the one query.  A
fixed external profile is the one-entry case of the distribution: an
instance whose support is that profile at probability 1.
``solve_wup_expected`` is the same query for the arbitrary solver,
split into ``build_wup_graph`` and ``solve_graph`` at the layer
boundaries that the benchmark's tracer (``perfbench/tracing.py``) times
by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import GSP, AuctionInstance, BidProfile, make_profile

NEG_INF = float("-inf")


@dataclass(frozen=True)
class WupWeights:
    """Finite nonnegative revenue weights (one per colluder) and payment
    weight."""

    revenue_weights: tuple[float, ...]
    payment_weight: float

    def __post_init__(self):
        if not all(math.isfinite(y) and y >= 0.0 for y in self.revenue_weights):
            raise ValueError("revenue weights must be finite and nonnegative")
        if not (math.isfinite(self.payment_weight) and self.payment_weight >= 0.0):
            raise ValueError("payment weight must be finite and nonnegative")


def unit_weights(n_colluders: int) -> WupWeights:
    """Weights that make the objective the plain cumulative utility."""
    return WupWeights((1.0,) * n_colluders, 1.0)


def wup_colluder_order(instance: AuctionInstance, weights: WupWeights) -> tuple[int, ...]:
    """Colluder indices sorted by weighted valuation descending, ties by index."""
    n = instance.n_colluders
    if len(weights.revenue_weights) != n:
        raise ValueError("one revenue weight per colluder required")
    return tuple(
        sorted(
            range(n),
            key=lambda i: (-weights.revenue_weights[i] * instance.valuations[i], i),
        )
    )


def _normalize_levels(grid_levels: Sequence[float]) -> tuple[float, ...]:
    levels = sorted(set(map(float, grid_levels)), reverse=True)
    if not levels:
        raise ValueError("empty bid grid")
    for lvl in levels:
        if not 0.0 <= lvl <= 1.0:
            raise ValueError(f"grid level {lvl!r} outside [0, 1]")
    return tuple(levels)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class WupTables:
    """Weight-independent expected arc tables over descending grid levels.

    For the colluder at 0-based position ``pos`` of any weighted order
    bidding ``levels[j]``:

    - ``revenue[pos, j]`` is its expected click-through rate;
    - ``payment[pos, j, j']`` (``pos < n - 1``, ``j' >= j``) is its
      expected payment share when the next position bids ``levels[j']``;
    - ``sink_payment[j]`` is that share for the last position, whose
      next level is 0.

    Entries below the diagonal of ``payment`` belong to no arc.
    """

    levels: tuple[float, ...]
    revenue: np.ndarray
    payment: np.ndarray
    sink_payment: np.ndarray

    @cached_property
    def below_diagonal(self) -> np.ndarray:
        """Mask of the (j, j') cells with j' < j, which belong to no arc;
        built once per tables and shared by every query over them."""
        return _read_only(np.tri(len(self.levels), k=-1, dtype=bool))


def _support_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of ``terms`` over its first (support) axis, bit for bit the
    running sum that starts at +0.0 and adds the entries in support order.

    ``np.add.accumulate`` (``np.cumsum``) adds in order along any axis.
    A running sum from +0.0 is never -0.0 and otherwise equals the one
    from the first entry, so adding +0.0 to the last partial sum
    supplies the starting zero.
    """
    return np.add.accumulate(terms, axis=0)[-1] + 0.0


def expected_tables(instance: AuctionInstance, grid_levels: Sequence[float]) -> WupTables:
    """Tables in expectation over the instance's external distribution."""
    levels = _normalize_levels(grid_levels)
    support = instance.external.support
    # lv ends with an extra level 0, the sink's next bid
    lv = np.array(levels + (0.0,))
    d = len(levels)
    n = instance.n_colluders
    n_e = len(support[0][0])
    pos = np.arange(1, n + 1)
    # lam[s]: click-through rate of slot s (1-based), 0 off the slot list;
    # an instance never has more slots than agents
    lam = np.zeros(n + n_e + 1)
    lam[1 : instance.n_slots + 1] = instance.slots
    # Row k of each array below belongs to support entry k.  bids: the
    # entry's bids descending, then a 0 that is above no level;
    # above[k, j]: the index of its first bid not above lv[j], which is
    # the count of its bids strictly above lv[j]
    entry = np.arange(len(support))[:, None]
    prob = np.array([p for _, p in support])[:, None, None]
    bids = np.array([ext + (0.0,) for ext, _ in support])
    above = (bids[:, None, :] > lv[:, None]).argmin(axis=2)
    slot = pos[:, None] + above[:, None, :d]
    share = prob * lam[slot]
    revenue = _support_sum(share)
    if instance.mechanism == GSP:
        # price: the larger of the next level and the highest external
        # at or below this level (colluders win ties); it is built and
        # added one entry at a time, since all at once it would hold
        # K * d * d cells
        below = bids[entry, above[:, :d]]
        payment = np.zeros((n - 1, d, d))
        price = np.empty((d, d))
        term = np.empty((n - 1, d, d))
        for share_k, below_k in zip(share[:, :-1, :, None], below[:, :, None]):
            np.maximum(lv[:d], below_k, out=price)
            np.multiply(share_k, price, out=term)
            payment += term
        sink_payment = _support_sum(share[:, -1] * below)
    else:
        # VCG's share separates as G(j) + H(j'), H(j') counting the
        # externals above the next bid.  drop[s] = lam[s] - lam[s + 1];
        # steps[i-1, h-1] = drop[i + h - 1]: weight of the h-th external's
        # bid in the telescoping payment when exactly i colluders sit
        # above it; prefix[k, i-1, a]: i times the payment terms of entry
        # k's top a externals, at[k, i-1, j] the ones above lv[j]
        drop = lam[:-1] - lam[1:]
        steps = drop[pos[:, None] + np.arange(n_e)]
        prefix = np.zeros((len(support), n, n_e + 1))
        np.cumsum(bids[:, None, :n_e] * steps, axis=2, out=prefix[:, :, 1:])
        prefix *= pos[:, None]
        at = prefix[entry[:, :, None], pos[:, None] - 1, above[:, None, :]]
        own = (pos - 1)[:, None] * lv[None, :d] * drop[slot - 1]
        g_cur = _support_sum(prob * (own - at[:, :, :d]))
        h_next = _support_sum(prob * at[:, :-1, :d])
        # column d of at: the last position's sink, next level 0
        h_sink = _support_sum(prob[:, 0, 0] * at[:, -1, d])
        payment = g_cur[:-1, :, None] + h_next[:, None, :]
        sink_payment = g_cur[-1] + h_sink
    return WupTables(
        levels, _read_only(revenue), _read_only(payment), _read_only(sink_payment)
    )


@dataclass(frozen=True, eq=False)
class WupGraph:
    """One query's layered DAG over the tables' levels, arcs implicit:
    ``revenue[pos]`` is ``y_c * v_c * L_pos`` for the colluder ``c`` at
    0-based position ``pos`` of ``order`` and, with x = ``payment_weight``,
    the arc (pos, j, j' >= j) weighs ``revenue[pos, j] - x *
    tables.payment[pos, j, j']``, the last position's sink arc
    ``revenue[-1, j] - x * tables.sink_payment[j]``.
    """

    tables: WupTables
    order: tuple[int, ...]
    revenue: np.ndarray
    payment_weight: float

    @property
    def levels(self) -> tuple[float, ...]:
        return self.tables.levels

    def profile_for_path(self, level_indices: Sequence[int]) -> BidProfile:
        """Bid profile realizing a path, with ranks decreasing along it."""
        n = len(self.order)
        levels = [0.0] * n
        priority = [0] * n
        for pos, c in enumerate(self.order):
            levels[c] = self.levels[level_indices[pos]]
            priority[c] = pos
        return make_profile(levels, priority)


def _query_graph(tables: WupTables, weights: WupWeights, instance: AuctionInstance) -> WupGraph:
    order = wup_colluder_order(instance, weights)
    yv = np.array([weights.revenue_weights[c] * instance.valuations[c] for c in order])
    return WupGraph(tables, order, yv[:, None] * tables.revenue, weights.payment_weight)


def build_wup_graph(
    grid_levels: Sequence[float], weights: WupWeights, instance: AuctionInstance
) -> WupGraph:
    """Build the layered graph with arc weights in expectation."""
    return _query_graph(expected_tables(instance, grid_levels), weights, instance)


def solve_graph(graph: WupGraph) -> tuple[float, tuple[int, ...]]:
    """Best path by forward DP over layers, one masked max per layer,
    each layer's arcs formed in one reused d x d buffer by the float
    operations of the test reference ``dense_best_path`` in its order,
    so value and path keep its bits.  Ties prefer the smaller level
    index (higher bid).
    """
    tables, revenue, x = graph.tables, graph.revenue, graph.payment_weight
    d = len(tables.levels)
    columns = np.arange(d)
    value = np.zeros(d)
    cand = np.empty((d, d))
    parents = []
    for pos, payment in enumerate(tables.payment):
        np.multiply(payment, -x, out=cand)
        cand += revenue[pos, :, None]
        np.copyto(cand, NEG_INF, where=tables.below_diagonal)
        cand += value[:, None]
        par = cand.argmax(axis=0)  # first maximum: the smallest level index
        value = cand[par, columns]
        parents.append(par)
    total = value + (revenue[-1] - x * tables.sink_payment)
    best_j = int(total.argmax())
    path = [best_j]
    for par in reversed(parents):
        path.append(int(par[path[-1]]))
    path.reverse()
    return float(total[best_j]), tuple(path)


@dataclass(frozen=True)
class WupResult:
    profile: BidProfile
    value: float
    order: tuple[int, ...]


def _best_path(graph: WupGraph) -> WupResult:
    value, path = solve_graph(graph)
    return WupResult(graph.profile_for_path(path), value, graph.order)


def solve_wup(tables: WupTables, weights: WupWeights, instance: AuctionInstance) -> WupResult:
    """Maximize the weighted utility over prebuilt tables."""
    return _best_path(_query_graph(tables, weights, instance))


def solve_wup_expected(
    grid_levels: Sequence[float],
    weights: WupWeights,
    instance: AuctionInstance,
) -> WupResult:
    """Maximize the expected weighted utility over the external distribution."""
    return _best_path(build_wup_graph(grid_levels, weights, instance))
