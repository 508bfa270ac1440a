"""GSP and VCG allocation, payments, exact expected outcomes, and the
certifier of every reported solution number.

Everything here is a pure function; expectations enumerate the external
distribution's finite support in a fixed order, so results are
deterministic.  ``certify`` is the only code that turns a distribution
over bid profiles into expected revenues and payments, the objective
and the participation/budget slacks; the solvers contribute only the
distribution and the rule that maps expected revenues to transfers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import GSP, AgencySolution, AuctionInstance, Bid, BidProfile, make_profile

#: One entry of a merged ranking: kind is "c" (colluder) or "e" (external),
#: index points into the respective group.
RankedAgent = namedtuple("RankedAgent", ["kind", "index", "bid"])


def allocate(profile: BidProfile, external_levels: Sequence[float]) -> list[RankedAgent]:
    """Merge colluder and external bids into a descending ranking.

    The agent at rank k (1-based) occupies slot k while slots last.
    External agents carry tie rank 0, so colluders win level ties; equal
    external bids keep their profile order.
    """
    entries = [RankedAgent("c", i, b) for i, b in enumerate(profile.bids)]
    entries += [RankedAgent("e", j, Bid(lvl, 0)) for j, lvl in enumerate(external_levels)]
    entries.sort(key=lambda a: (-a.bid.level, -a.bid.tie_rank))
    return entries


def payments_gsp(ranking: Sequence[RankedAgent], lambdas: Sequence[float]) -> list[float]:
    """Next-bid-level payments: slot k pays lambda_k times the (k+1)-th level."""
    n = len(ranking)
    pays = [0.0] * n
    for k in range(min(n, len(lambdas))):
        nxt = ranking[k + 1].bid.level if k + 1 < n else 0.0
        pays[k] = lambdas[k] * nxt
    return pays


def payments_vcg(ranking: Sequence[RankedAgent], lambdas: Sequence[float]) -> list[float]:
    """Closed-form VCG payments over the merged ranking.

    The agent in slot k pays sum_{j=k+1}^{m+1} b_j (lambda_{j-1} - lambda_j)
    with lambda extended by 0 beyond the last slot and b_j = 0 beyond the
    last agent.
    """
    n = len(ranking)
    m = len(lambdas)
    pays = [0.0] * n

    def lam(j: int) -> float:
        return lambdas[j - 1] if 1 <= j <= m else 0.0

    acc = 0.0
    for k in range(min(n, m), 0, -1):
        nxt = ranking[k].bid.level if k < n else 0.0
        acc += nxt * (lam(k) - lam(k + 1))
        pays[k - 1] = acc
    return pays


@dataclass(frozen=True)
class Outcome:
    """Per-colluder result of one auction realization.

    Slots are 1-based; ``None`` marks an unallocated colluder.
    """

    colluder_slot: tuple[Optional[int], ...]
    colluder_revenue: tuple[float, ...]
    colluder_payment: tuple[float, ...]


@dataclass(frozen=True)
class ExpectedOutcome:
    """Per-colluder expected revenue and payment over the external draw."""

    revenue: tuple[float, ...]
    payment: tuple[float, ...]

    @property
    def cumulative(self) -> float:
        return sum(r - p for r, p in zip(self.revenue, self.payment))


def single_outcome(
    instance: AuctionInstance, profile: BidProfile, external_levels: Sequence[float]
) -> Outcome:
    """Outcome of one fixed external bid profile."""
    ranking = allocate(profile, external_levels)
    if instance.mechanism == GSP:
        pays = payments_gsp(ranking, instance.slots)
    else:
        pays = payments_vcg(ranking, instance.slots)
    n_c = instance.n_colluders
    c_slot: list[Optional[int]] = [None] * n_c
    c_rev = [0.0] * n_c
    c_pay = [0.0] * n_c
    for k, agent in enumerate(ranking[: instance.n_slots]):
        if agent.kind == "c":
            c_slot[agent.index] = k + 1
            c_rev[agent.index] = instance.slots[k] * instance.colluders[agent.index].valuation
            c_pay[agent.index] = pays[k]
    return Outcome(tuple(c_slot), tuple(c_rev), tuple(c_pay))


def expected_outcome(instance: AuctionInstance, profile: BidProfile) -> ExpectedOutcome:
    """Exact expectation over the external support, linear in support size."""
    n_c = instance.n_colluders
    rev = [0.0] * n_c
    pay = [0.0] * n_c
    for levels, prob in instance.external.support:
        out = single_outcome(instance, profile, levels)
        for i in range(n_c):
            rev[i] += prob * out.colluder_revenue[i]
            pay[i] += prob * out.colluder_payment[i]
    return ExpectedOutcome(tuple(rev), tuple(pay))


def certify(
    instance: AuctionInstance,
    distribution: Sequence[tuple[BidProfile, float]],
    transfer_rule: Callable[[list[float]], Sequence[float]],
    relaxation: float,
) -> AgencySolution:
    """The solution that plays ``distribution``, with every number exact.

    Each profile's outcome is computed once with ``expected_outcome``;
    the expected revenues rbar and payments pbar, and the objective, are
    their probability-weighted sums.  ``transfer_rule(rbar)`` gives the
    transfers q.  With p = ``relaxation``, colluder i's participation
    slack is rbar_i - q_i - (t_i - p) and the budget slack is
    sum(q) - sum(pbar).
    """
    n = instance.n_colluders
    rbar = [0.0] * n
    pbar = [0.0] * n
    objective = 0.0
    for profile, prob in distribution:
        out = expected_outcome(instance, profile)
        for i in range(n):
            rbar[i] += prob * out.revenue[i]
            pbar[i] += prob * out.payment[i]
        objective += prob * out.cumulative
    transfers = tuple(transfer_rule(rbar))
    ic_slacks = tuple(
        rbar[i] - transfers[i] - (instance.colluders[i].outside_option - relaxation)
        for i in range(n)
    )
    return AgencySolution(
        distribution=tuple(distribution),
        transfers=transfers,
        objective=objective,
        ic_slacks=ic_slacks,
        ir_slack=sum(transfers) - sum(pbar),
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
