"""Seeded instance sets for the benchmark workloads.

Every workload is a fixed schedule of instance shapes (colluders,
externals, slots, support size, bid resolution, mechanism, kind of
outside option).  Each schedule slot has a pool of ``VARIANTS`` seeded
instances of its shape, and the run's seed picks one per slot, so the
amount of work per run stays close across seeds while the inputs
differ.  Generation is pure Python over ``random.Random`` and does not
import the package under test, so the bytes of an instance file depend
only on the workload, the slot and the variant.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

#: Outside-option kinds.  ``calibrated`` scales each colluder's
#: truthful-bidding utility by a factor below one, so the projected
#: truthful profile is a participation witness.  ``binding`` gives every
#: colluder a positive outside option while there are fewer slots than
#: colluders, so no single bid profile covers all of them and
#: participation binds; only a randomized strategy can.  ``zero`` sets
#: every outside option to 0.
CALIBRATED = "calibrated"
BINDING = "binding"
ZERO = "zero"


@dataclass(frozen=True)
class Shape:
    """One slot of a workload's schedule."""

    n_c: int
    n_e: int
    m: int
    k: int
    bits: int  # fractional bits of dyadic bids; 0 means cent-denominated bids
    mechanism: str
    outside: str


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # the ``solve --mode`` value
    shapes: tuple[Shape, ...]


def _shapes(*rows) -> tuple[Shape, ...]:
    return tuple(Shape(*row) for row in rows)


# ll-cg lists each calibrated shape twice (the second copy has its own
# slot and pool), so each run meets two independent instances of it.
# Column generation's time varies widely between instances of one shape,
# and with one copy the seed alone moved the median and the tail of a
# run by 13 % and 21 % (IQR over median, 400 seeds).  Binding shapes are
# listed once: each costs seconds of witness scan.
def _twice_calibrated(shapes: tuple[Shape, ...]) -> tuple[Shape, ...]:
    return shapes + tuple(s for s in shapes if s.outside != BINDING)


WORKLOADS = {
    w.name: w
    for w in (
        # Arbitrary transfers on wide grids: building the expected arc
        # tables (wup.build_wup_graph) is nearly all of a solve.
        Workload(
            "arb-grid",
            "arbitrary",
            _shapes(
                *(
                    (n_c, n_e, m, k, bits, mech, ZERO)
                    for mech in ("gsp", "vcg")
                    for n_c, n_e, m, k, bits in (
                        (2, 10, 4, 5, 10),
                        (2, 8, 4, 8, 9),
                        (2, 1, 2, 20, 8),
                        (3, 10, 4, 3, 10),
                        (3, 6, 3, 10, 8),
                        (4, 10, 5, 4, 10),
                        (4, 5, 3, 4, 10),
                        (4, 3, 4, 6, 8),
                        (5, 6, 4, 6, 9),
                        (6, 2, 4, 4, 10),
                        (6, 8, 5, 3, 10),
                        (7, 3, 4, 3, 10),
                        (8, 2, 5, 2, 10),
                        (8, 4, 6, 3, 9),
                        (2, 2, 2, 2, 0),
                        (2, 4, 3, 2, 0),
                        (3, 2, 2, 2, 0),
                        (4, 1, 2, 2, 0),
                        (4, 2, 3, 2, 0),
                        (3, 8, 4, 2, 10),
                    )
                )
            ),
        ),
        # Limited liability at desk scale: every grid takes the dense
        # master, so wup never runs.
        Workload(
            "ll-desk",
            "limited-liability",
            _shapes(
                *(
                    (n_c, n_e, m, k, 10, mech, CALIBRATED)
                    for mech in ("gsp", "vcg")
                    for n_c, n_e, m, k in (
                        # one-column grids (no externals) and single colluders:
                        # fixed per-call costs, the lower half of the set
                        (1, 0, 1, 1), (1, 0, 1, 2), (2, 0, 1, 1), (2, 0, 2, 3),
                        (3, 0, 1, 1), (3, 0, 2, 2), (3, 0, 3, 3), (4, 0, 2, 1),
                        (4, 0, 3, 3), (4, 0, 4, 2), (1, 1, 1, 1), (1, 2, 2, 3),
                        # one 10-bit external bid: d = 11 exactly
                        (3, 1, 2, 1), (3, 1, 3, 1), (3, 1, 4, 1), (3, 1, 3, 1),
                        # the dense master's heavy end
                        (4, 1, 4, 1), (4, 1, 5, 1), (2, 3, 4, 3), (2, 2, 3, 3),
                    )
                )
            ),
        ),
        # Limited liability above the dense cap: column generation and,
        # where participation binds, the witness scan.
        Workload(
            "ll-cg",
            "limited-liability",
            _twice_calibrated(_shapes(
                *(
                    (n_c, n_e, m, k, bits, mech, outside)
                    for mech in ("gsp", "vcg")
                    for n_c, n_e, m, k, bits, outside in (
                        (3, 1, 2, 1, 0, BINDING),
                        (4, 1, 3, 1, 0, BINDING),
                        (3, 8, 4, 4, 10, CALIBRATED),
                        (4, 6, 4, 3, 10, CALIBRATED),
                        (3, 2, 3, 2, 0, CALIBRATED),
                        (4, 4, 4, 4, 9, CALIBRATED),
                        (5, 4, 4, 3, 10, CALIBRATED),
                        (6, 3, 5, 3, 10, CALIBRATED),
                        (4, 3, 3, 1, 0, CALIBRATED),
                        (3, 10, 5, 2, 10, CALIBRATED),
                        (5, 6, 5, 2, 9, CALIBRATED),
                        (4, 8, 5, 2, 10, CALIBRATED),
                        (8, 3, 5, 2, 10, CALIBRATED),
                        (3, 4, 3, 6, 10, CALIBRATED),
                    )
                )
            )),
        ),
    )
}

#: The ``solve --epsilon`` default; binding outside options exceed the
#: relaxation p = EPSILON / n_c it allows.
EPSILON = 0.05


def dyadic(rng: random.Random, bits: int) -> float:
    """A bid in (0, 1) with exactly ``bits`` fractional bits, or, when
    ``bits`` is 0, a whole number of cents that is not dyadic."""
    if bits == 0:
        return rng.choice([c for c in range(1, 100) if c % 25]) / 100
    return rng.randrange(1, 2**bits, 2) / 2**bits


def _truthful_utilities(raw: dict) -> list[float]:
    """Expected utility of each colluder (raw order) when all bid truthfully.

    A standalone restatement of the auction rules, so instance generation
    does not depend on the code being measured: colluders outrank
    externals at equal bids, and among colluders the higher valuation,
    then the lower index, ranks first.
    """
    slots = sorted(raw["slots"], reverse=True)
    m = len(slots)
    vals = [c["v"] for c in raw["colluders"]]
    n_c = len(vals)
    lam = lambda j: slots[j - 1] if 1 <= j <= m else 0.0  # noqa: E731
    util = [0.0] * n_c
    for entry in raw["external"]["support"]:
        agents = [(-v, 0, i, v) for i, v in enumerate(vals)]
        agents += [(-b, 1, n_c + j, b) for j, b in enumerate(entry["bids"])]
        agents.sort()
        levels = [a[3] for a in agents]
        n = len(agents)
        for k in range(min(n, m)):
            idx = agents[k][2]
            if idx >= n_c:
                continue
            if raw["mechanism"] == "gsp":
                pay = slots[k] * (levels[k + 1] if k + 1 < n else 0.0)
            else:
                pay = sum(
                    (levels[j] if j < n else 0.0) * (lam(j) - lam(j + 1))
                    for j in range(k + 1, m + 1)
                )
            util[idx] += entry["prob"] * (slots[k] * vals[idx] - pay)
    return util


def make_instance(rng: random.Random, shape: Shape) -> dict:
    """Draw one raw instance document of the given shape."""
    bits = shape.bits
    value_bits = bits or 10
    weights = [rng.randint(1, 8) for _ in range(shape.k)]
    total = sum(weights)
    raw = {
        "mechanism": shape.mechanism,
        "slots": sorted(
            (rng.randrange(1, 2**value_bits + 1) / 2**value_bits for _ in range(shape.m)),
            reverse=True,
        ),
        "colluders": [
            {"v": rng.randrange(1, 2**value_bits + 1) / 2**value_bits, "t": 0.0}
            for _ in range(shape.n_c)
        ],
        "external": {
            "support": [
                {"bids": [dyadic(rng, bits) for _ in range(shape.n_e)], "prob": w / total}
                for w in weights
            ]
        },
    }
    if shape.outside == CALIBRATED:
        scale = rng.uniform(0.3, 0.9)
        for c, u in zip(raw["colluders"], _truthful_utilities(raw)):
            c["t"] = min(1.0, max(0.0, scale * u))
    elif shape.outside == BINDING:
        # With one support entry and fewer slots than colluders, some
        # colluder goes without a slot under every profile, and every
        # outside option exceeds the relaxation p.
        top = raw["slots"][0]
        for c in raw["colluders"]:
            c["t"] = (EPSILON + rng.uniform(0.2, 0.5) * top * c["v"]) / shape.n_c
    return raw


def instance_bytes(raw: dict) -> bytes:
    return (json.dumps(raw, indent=2, sort_keys=True) + "\n").encode()


#: Instances drawn per schedule slot.  Each run picks one of them per slot,
#: so every instance a run can meet has a recorded expected result.
VARIANTS = 8


def pool_instance(workload: str, slot: int, variant: int) -> bytes:
    """Instance file bytes of one pool entry."""
    shape = WORKLOADS[workload].shapes[slot]
    rng = random.Random(f"{workload}/{slot}/{variant}")
    return instance_bytes(make_instance(rng, shape))


def _draw(workload: str, seed: int) -> list[int]:
    rng = random.Random(f"{workload}/seed/{seed}")
    return [rng.randrange(VARIANTS) for _ in WORKLOADS[workload].shapes]


def choose_variants(workload: str, seed: int) -> list[int]:
    """The pool variant each schedule slot uses under this seed.

    Binding slots take the draw of seed 0 under every seed.  Each of
    them costs seconds of witness scan, and some of their pool instances
    run into the exhaustive pricing scan until the solve cap; a panel
    that changed with the seed would move the run's time by whole
    seconds from one seed to the next.
    """
    shapes = WORKLOADS[workload].shapes
    fixed = _draw(workload, 0)
    return [
        fixed[slot] if shape.outside == BINDING else variant
        for slot, (shape, variant) in enumerate(zip(shapes, _draw(workload, seed)))
    ]
