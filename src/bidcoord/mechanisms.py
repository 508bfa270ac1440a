"""GSP and VCG outcomes, exact expected outcomes, and the certifier of
every reported solution number.

Everything here is a pure function; expectations enumerate the external
distribution's finite support in a fixed order, so results are
deterministic.  A fixed external profile is the one-entry distribution
of its bids at probability 1; its outcome is that instance's expected
outcome.  ``expected_outcome`` ranks the profile's colluders once per
call, then merges them with each support entry's external bids, which
are already descending.  Its float operations and their order are those
of ranking every agent with one sort and paying every rank, the
reference kept in ``oracles``, so both give the same bits.  ``certify``
is the only code that turns a distribution over profiles' outcomes into
expected revenues and payments, the objective and the
participation/budget slacks; the solvers contribute only the outcomes
they computed, their probabilities, and the rule that maps the transfer
caps of ``transfer_caps`` and the expected payments to transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    GSP,
    AgencySolution,
    AuctionInstance,
    BidProfile,
    make_profile,
    ordered_sum,
)


@dataclass(frozen=True)
class ExpectedOutcome:
    """Per-colluder expected revenue and payment over the external draw,
    of the ``profile`` they were computed for."""

    revenue: tuple[float, ...]
    payment: tuple[float, ...]
    profile: BidProfile

    @property
    def cumulative(self) -> float:
        return ordered_sum(r - p for r, p in zip(self.revenue, self.payment))

    def weighted(self, revenue_weights: Sequence[float], payment_weight: float) -> float:
        """The weighted utility sum_i (y_i * r_i - x * p_i); at unit weights
        it is ``cumulative``, bit for bit."""
        terms = zip(revenue_weights, self.revenue, self.payment)
        return ordered_sum(y * r - payment_weight * p for y, r, p in terms)


def _ranked_colluders(profile: BidProfile) -> tuple[list[int], list[float]]:
    """The profile's colluders in ranking order, ``profile.ranking()``,
    and their levels in that order."""
    order = profile.ranking()
    return order, [profile.levels[i] for i in order]


def _rate_gaps(lambdas: Sequence[float]) -> list[float]:
    """lambda_k - lambda_{k+1} for k = 1..m, with lambda_{m+1} = 0."""
    m = len(lambdas)
    return [lambdas[k - 1] - (lambdas[k] if k < m else 0.0) for k in range(1, m + 1)]


def _winners(
    instance: AuctionInstance,
    order: Sequence[int],
    c_levels: Sequence[float],
    gaps: Sequence[float],
    external_levels: Sequence[float],
) -> list[tuple[int, int, float]]:
    """(colluder, 0-based slot, payment) of each colluder that wins a slot
    against one external bid profile, in slot order.

    Merges the ranked colluders with the external bids, which are
    descending.  At an equal level the colluder goes first: its tie rank
    is at least 1 and an external's is 0.  Only the first m + 1 agents
    are placed, the slot holders and the bid below the last slot.  Under
    GSP slot k pays lambda_k times the (k+1)-th level.  Under VCG the agent
    in slot k pays sum_{j=k+1}^{m+1} b_j (lambda_{j-1} - lambda_j), with
    b_j = 0 beyond the last agent, summed from the bottom rank up.
    """
    lambdas = instance.slots
    m = len(lambdas)
    n_c = len(c_levels)
    n_e = len(external_levels)
    top = min(n_c + n_e, m + 1)
    levels: list[float] = []
    holders: list[tuple[int, int]] = []  # (slot, colluder)
    ci = ej = 0
    for k in range(top):
        if ci == n_c:
            levels += external_levels[ej : ej + top - k]
            break
        if ej == n_e or c_levels[ci] >= external_levels[ej]:
            if k < m:
                holders.append((k, order[ci]))
            levels.append(c_levels[ci])
            ci += 1
        else:
            levels.append(external_levels[ej])
            ej += 1
    if not holders:
        return []
    if instance.mechanism == GSP:
        return [(i, k, lambdas[k] * (levels[k + 1] if k + 1 < top else 0.0)) for k, i in holders]
    pays = [0.0] * m
    acc = 0.0
    for k in range(min(top, m), holders[0][0], -1):
        acc += (levels[k] if k < top else 0.0) * gaps[k - 1]
        pays[k - 1] = acc
    return [(i, k, pays[k]) for k, i in holders]


def expected_outcome(instance: AuctionInstance, profile: BidProfile) -> ExpectedOutcome:
    """Exact expectation over the external support, linear in support size.

    Each support entry adds prob * r_i and prob * p_i to colluder i's sums,
    in support order.  A colluder without a slot adds nothing: every term
    is nonnegative, so no sum is ever -0.0, and adding prob * 0.0 would
    leave it as it is.
    """
    order, c_levels = _ranked_colluders(profile)
    gaps = _rate_gaps(instance.slots)
    slots = instance.slots
    values = instance.valuations
    rev = [0.0] * len(values)
    pay = [0.0] * len(values)
    for levels, prob in instance.external.support:
        for i, k, price in _winners(instance, order, c_levels, gaps, levels):
            rev[i] += prob * (slots[k] * values[i])
            pay[i] += prob * price
    return ExpectedOutcome(tuple(rev), tuple(pay), profile)


def transfer_caps(instance: AuctionInstance, rbar: Sequence[float], p: float) -> list[float]:
    """The most each colluder can pay the agency and still participate:
    r_i - (t_i - p), revenue ``rbar`` less the master LP's row bound."""
    return [r - (t - p) for r, t in zip(rbar, instance.outside_options)]


def certify(
    instance: AuctionInstance,
    outcomes: Sequence[tuple[ExpectedOutcome, float]],
    transfer_rule: Callable[[list[float], list[float]], Sequence[float]],
    relaxation: float,
) -> AgencySolution:
    """The solution that plays each outcome's profile at its probability.

    Each outcome is the ``expected_outcome`` its solver computed once;
    the expected revenues rbar and payments pbar, and the objective, are
    their probability-weighted sums.  ``transfer_rule(caps, pbar)`` maps
    the caps ``transfer_caps(instance, rbar, relaxation)`` to transfers q.
    Colluder i's participation slack is cap_i - q_i, exactly 0.0 at its
    cap, and the budget slack is sum(q) - sum(pbar).
    """
    colluders = range(instance.n_colluders)
    rbar = [ordered_sum(prob * out.revenue[i] for out, prob in outcomes) for i in colluders]
    pbar = [ordered_sum(prob * out.payment[i] for out, prob in outcomes) for i in colluders]
    caps = transfer_caps(instance, rbar, relaxation)
    transfers = tuple(transfer_rule(caps, pbar))
    ic_slacks = tuple(cap - q for cap, q in zip(caps, transfers))
    return AgencySolution(
        distribution=tuple((out.profile, prob) for out, prob in outcomes),
        transfers=transfers,
        objective=ordered_sum(prob * out.cumulative for out, prob in outcomes),
        ic_slacks=ic_slacks,
        ir_slack=ordered_sum(transfers) - ordered_sum(pbar),
        relaxation=relaxation,
        expected_revenue=tuple(rbar),
        expected_payment=tuple(pbar),
    )


def individual_baseline(instance: AuctionInstance) -> tuple[float, ...]:
    """Expected utility of each colluder when every agent bids truthfully.

    Under VCG truthful bidding is dominant, so this is the natural value
    of leaving the agency.  For GSP the same truthful profile is used as
    a documented simplification (no equilibrium bidding model).
    """
    profile = make_profile(instance.valuations)
    out = expected_outcome(instance, profile)
    return tuple(r - p for r, p in zip(out.revenue, out.payment))
