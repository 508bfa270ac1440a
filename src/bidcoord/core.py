"""Domain model for agency-coordinated bidding in position auctions.

All types are immutable after construction and safe to share across
threads.  Monetary quantities are plain doubles in [0, 1]; equality
assertions throughout the package use a 1e-9 tolerance.  An instance
holds each colluder's valuation and outside option, two tuples indexed
in the normalized colluder order.  A bid profile is each colluder's
level and symbolic tie rank, two tuples, and ``BidProfile.ranking`` is
the one statement of how colluders rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

GSP = "gsp"
VCG = "vcg"
MECHANISMS = (GSP, VCG)

#: Tolerance for monetary equality assertions.
EQ_TOL = 1e-9
#: Maximum probability-mass drift accepted before renormalisation fails.
PROB_DRIFT_TOL = 1e-9
#: Probabilities are kept exact to this tolerance after normalisation.
PROB_EXACT_TOL = 1e-12


class InstanceError(ValueError):
    """A raw instance failed validation; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class InfeasibleError(RuntimeError):
    """A solver's constraint system admits no solution for this instance."""


class ToleranceError(RuntimeError):
    """An internal numerical consistency check failed beyond tolerance."""


@dataclass(frozen=True)
class BidProfile:
    """One bid per colluder, indexed like the instance's colluder list:
    ``levels[i]`` is colluder i's monetary level and ``tie_ranks[i]`` its
    symbolic tie rank (>= 1), with no (level, tie rank) pair repeated."""

    levels: tuple[float, ...]
    tie_ranks: tuple[int, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.tie_ranks):
            raise ValueError("levels and tie_ranks differ in length")
        for level, rank in zip(self.levels, self.tie_ranks):
            if not 0.0 <= level <= 1.0:
                raise ValueError(f"bid level {level!r} outside [0, 1]")
            if rank < 1:
                raise ValueError(f"colluder tie_rank {rank!r} must be >= 1 (0 is external)")
        if len(set(zip(self.levels, self.tie_ranks))) != len(self.levels):
            raise ValueError("duplicate (level, tie_rank) pair")

    def __len__(self) -> int:
        return len(self.levels)

    def ranking(self) -> list[int]:
        """The colluder indices ordered by (level, tie rank), highest first.

        Rank 0 is reserved for external agents, so a colluder bidding at
        the same level as an external agent ranks strictly above it; ranks
        encode symbolically what an infinitesimal bid increment would do,
        without ever perturbing the monetary level.
        """
        levels, ranks = self.levels, self.tie_ranks
        return sorted(range(len(levels)), key=lambda i: (-levels[i], -ranks[i]))


def make_profile(levels: Sequence[float], priority: Optional[Sequence[int]] = None) -> BidProfile:
    """Build a profile from per-colluder levels, assigning tie ranks.

    Ranks are chosen so that ``ranking()`` reproduces sorting by
    (level descending, priority ascending).  ``priority[i]`` defaults to
    ``i``: at equal levels the lower-indexed colluder outranks the higher.
    """
    n = len(levels)
    if priority is None:
        priority = range(n)
    order = sorted(range(n), key=lambda i: (-levels[i], priority[i]))
    ranks = [0] * n
    for pos, i in enumerate(order):
        ranks[i] = n - pos
    return BidProfile(tuple(levels), tuple(ranks))


@dataclass(frozen=True)
class ExternalDistribution:
    """Finite-support distribution over external-agent bid profiles.

    Each support entry is (bid levels sorted descending, probability).
    All profiles have the same number of external agents.
    """

    support: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        if not self.support:
            raise ValueError("support must be nonempty")
        n_e = len(self.support[0][0])
        total = 0.0
        for bids, prob in self.support:
            if len(bids) != n_e:
                raise ValueError("all support profiles must have equal length")
            if not prob >= 0.0:
                raise ValueError(f"probability {prob!r} is not >= 0")
            total += prob
            for j, b in enumerate(bids):
                if not 0.0 <= b <= 1.0:
                    raise ValueError(f"external bid {b!r} outside [0, 1]")
                if j > 0 and bids[j - 1] < b:
                    raise ValueError("support bids must be sorted descending")
        if not abs(total - 1.0) <= PROB_EXACT_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @property
    def n_external(self) -> int:
        return len(self.support[0][0])


@dataclass(frozen=True)
class AuctionInstance:
    """A normalized coordinated-bidding instance.

    Colluder i is ``valuations[i]`` and ``outside_options[i]``.  Slots are
    sorted by click-through rate descending and colluders by valuation
    descending; construct through :func:`validate_and_normalize`.
    """

    slots: tuple[float, ...]
    valuations: tuple[float, ...]
    outside_options: tuple[float, ...]
    external: ExternalDistribution
    mechanism: str

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if not self.slots:
            raise ValueError("need at least one slot")
        if not self.valuations:
            raise ValueError("need at least one colluder")
        if len(self.valuations) != len(self.outside_options):
            raise ValueError("valuations and outside_options differ in length")
        for j, lam in enumerate(self.slots):
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"click-through rate {lam!r} outside [0, 1]")
            if j > 0 and self.slots[j - 1] < lam:
                raise ValueError("slots must be sorted by rate descending")
        for i, (v, t) in enumerate(zip(self.valuations, self.outside_options)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"valuation {v!r} outside [0, 1]")
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"outside option {t!r} outside [0, 1]")
            if i > 0 and self.valuations[i - 1] < v:
                raise ValueError("colluders must be sorted by valuation descending")
        if len(self.slots) > len(self.valuations) + self.external.n_external:
            raise ValueError("more slots than participating agents")

    @property
    def n_colluders(self) -> int:
        return len(self.valuations)

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    def threshold(self, epsilon: float) -> float:
        """The threshold p = eps/n_c of an eps-approximate solve; ValueError
        for an eps outside (0, 1] or one so small that p underflows to 0."""
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon!r}")
        p = epsilon / self.n_colluders
        if p == 0.0:
            raise ValueError(f"epsilon {epsilon!r} over {self.n_colluders} colluders rounds p to 0")
        return p


@dataclass(frozen=True)
class AgencySolution:
    """A distribution over bid profiles and a transfer vector, with the
    numbers ``mechanisms.certify`` computes from them.

    Transfers follow the convention that ``transfers[i] > 0`` moves money
    from colluder i to the agency.  ``relaxation`` is the additive slack
    applied to the participation constraints when the solution was built.
    ``expected_revenue`` and ``expected_payment`` are each colluder's
    expectation under the distribution.
    """

    distribution: tuple[tuple[BidProfile, float], ...]
    transfers: tuple[float, ...]
    objective: float
    ic_slacks: tuple[float, ...]
    ir_slack: float
    relaxation: float
    expected_revenue: tuple[float, ...]
    expected_payment: tuple[float, ...]

    def __post_init__(self):
        if not self.distribution:
            raise ValueError("distribution must be nonempty")
        total = 0.0
        for _, prob in self.distribution:
            if not prob >= -PROB_EXACT_TOL:
                raise ValueError(f"probability {prob!r} is not >= 0")
            total += prob
        if not abs(total - 1.0) <= PROB_DRIFT_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @property
    def assumption_violated(self) -> bool:
        """True when the participation/IR system failed beyond tolerance."""
        return self.ir_slack < -EQ_TOL


def _number(raw, path: str, *index, lo: float = 0.0, hi: float = 1.0) -> float:
    """``raw`` as a float in [lo, hi].  The field is named ``path % index``
    in the error, formatted only when the value is rejected."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InstanceError(path % index, f"expected a number, got {type(raw).__name__}")
    try:
        value = float(raw)
    except OverflowError:
        raise InstanceError(path % index, "integer too large for a double") from None
    if not lo <= value <= hi:
        raise InstanceError(path % index, f"value {value} outside [{lo}, {hi}]")
    return value


def validate_and_normalize(raw: dict) -> AuctionInstance:
    """Parse and normalize a raw instance dictionary.

    Slots are sorted by rate descending and colluders by valuation
    descending, equal valuations kept in input order; support
    probabilities are renormalized when their drift from 1 is below 1e-9
    and rejected beyond that.  Applying this twice gives the same
    instance as once.
    """
    if not isinstance(raw, dict):
        raise InstanceError("$", "instance must be a JSON object")

    mechanism = raw.get("mechanism")
    if mechanism not in MECHANISMS:
        raise InstanceError("mechanism", f"must be one of {MECHANISMS}, got {mechanism!r}")

    slots_raw = raw.get("slots")
    if not isinstance(slots_raw, list) or not slots_raw:
        raise InstanceError("slots", "must be a nonempty list of click-through rates")
    slots = sorted(
        (_number(lam, "slots[%d]", j) for j, lam in enumerate(slots_raw)), reverse=True
    )

    colluders_raw = raw.get("colluders")
    if not isinstance(colluders_raw, list) or not colluders_raw:
        raise InstanceError("colluders", "must be a nonempty list")
    parsed = []
    for i, entry in enumerate(colluders_raw):
        if not isinstance(entry, dict):
            raise InstanceError(f"colluders[{i}]", "must be an object with 'v' and 't'")
        v = _number(entry.get("v"), "colluders[%d].v", i)
        t = _number(entry.get("t"), "colluders[%d].t", i)
        parsed.append((v, t, i))
    parsed.sort(key=lambda c: (-c[0], c[2]))
    valuations = tuple(v for v, _, _ in parsed)
    outside_options = tuple(t for _, t, _ in parsed)

    external_raw = raw.get("external")
    if not isinstance(external_raw, dict) or "support" not in external_raw:
        raise InstanceError("external", "must be an object with a 'support' list")
    support_raw = external_raw["support"]
    if not isinstance(support_raw, list) or not support_raw:
        raise InstanceError("external.support", "must be a nonempty list")
    entries = []
    total = 0.0
    for k, entry in enumerate(support_raw):
        if not isinstance(entry, dict):
            raise InstanceError(f"external.support[{k}]", "must be an object")
        bids_raw = entry.get("bids")
        if not isinstance(bids_raw, list):
            raise InstanceError(f"external.support[{k}].bids", "must be a list")
        bids = sorted(
            (_number(b, "external.support[%d].bids[%d]", k, j) for j, b in enumerate(bids_raw)),
            reverse=True,
        )
        prob = _number(entry.get("prob"), "external.support[%d].prob", k)
        entries.append((tuple(bids), prob))
        total += prob
    if abs(total - 1.0) > PROB_DRIFT_TOL:
        raise InstanceError("external.support", f"probabilities sum to {total}, drift exceeds 1e-9")
    if abs(total - 1.0) > PROB_EXACT_TOL:
        entries = [(bids, prob / total) for bids, prob in entries]
    n_e = len(entries[0][0])
    for k, (bids, _) in enumerate(entries):
        if len(bids) != n_e:
            raise InstanceError(
                f"external.support[{k}].bids", f"expected {n_e} bids, got {len(bids)}"
            )
    external = ExternalDistribution(tuple(entries))

    if len(slots) > len(parsed) + n_e:
        raise InstanceError("slots", "more slots than participating agents")

    return AuctionInstance(tuple(slots), valuations, outside_options, external, mechanism)


def instance_to_raw(instance: AuctionInstance) -> dict:
    """Serialize an instance back to the raw dictionary schema."""
    return {
        "mechanism": instance.mechanism,
        "slots": list(instance.slots),
        "colluders": [
            {"v": v, "t": t} for v, t in zip(instance.valuations, instance.outside_options)
        ],
        "external": {
            "support": [
                {"bids": list(bids), "prob": prob}
                for bids, prob in instance.external.support
            ]
        },
    }
