"""Command-line interface: instance validation, discretization inspection,
solving, weighted-utility queries, and baseline comparison.

All reports are JSON (sorted keys, round-tripping doubles) and fully
deterministic for a fixed input; wall-clock timings are the only
non-reproducible fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import Optional, Sequence

from .arbitrary import solve_arbitrary
from .core import (
    AgencySolution,
    AuctionInstance,
    InfeasibleError,
    InstanceError,
    ToleranceError,
    instance_to_raw,
    validate_and_normalize,
)
from .discretize import BidGrid, IntervalSet, build_grid, prune_levels
from .limited import solve_ll
from .mechanisms import expected_outcome, individual_baseline
from .wup import WupWeights, solve_wup_expected, solve_wup_fixed

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_TOLERANCE = 3


class OptionError(ValueError):
    """A command-line option value outside its range."""


def _check_unit_interval(option: str, value: float) -> None:
    """Reject an option value outside (0, 1] before any work starts."""
    if not 0.0 < value <= 1.0:
        raise OptionError(f"{option} must be in (0, 1], got {value!r}")


def canonical_json(doc) -> str:
    """Canonical serialization: sorted keys, indent 2, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise InstanceError(path, f"cannot read file: {err}") from err
    except json.JSONDecodeError as err:
        raise InstanceError(path, f"not valid JSON: {err}") from err


def _load_instance(path: str, mechanism: Optional[str]) -> AuctionInstance:
    raw = _load_json(path)
    if mechanism is not None and isinstance(raw, dict):
        raw = dict(raw)
        raw["mechanism"] = mechanism
    return validate_and_normalize(raw)


def _emit(doc, out_path: Optional[str], text: Optional[str] = None) -> None:
    payload = text if text is not None else canonical_json(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _profile_doc(profile) -> dict:
    return {
        "levels": list(profile.levels),
        "tie_ranks": list(profile.tie_ranks),
    }


def _solution_doc(instance: AuctionInstance, solution: AgencySolution) -> dict:
    """Recompute every reported number from the distribution itself."""
    n = instance.n_colluders
    rbar = [0.0] * n
    pbar = [0.0] * n
    objective = 0.0
    dist_doc = []
    for profile, prob in solution.distribution:
        out = expected_outcome(instance, profile)
        for i in range(n):
            rbar[i] += prob * out.revenue[i]
            pbar[i] += prob * out.payment[i]
        objective += prob * out.cumulative
        entry = _profile_doc(profile)
        entry["probability"] = prob
        dist_doc.append(entry)
    p = solution.relaxation
    ic_slacks = [
        rbar[i] - solution.transfers[i] - (instance.colluders[i].outside_option - p)
        for i in range(n)
    ]
    ir_slack = sum(solution.transfers) - sum(pbar)
    return {
        "distribution": dist_doc,
        "transfers": list(solution.transfers),
        "objective": objective,
        "relaxation": p,
        "slacks": {"ic": ic_slacks, "ir": ir_slack},
        "expected_revenue": rbar,
        "expected_payment": pbar,
    }


def _grid_doc(instance: AuctionInstance, interval_set: IntervalSet, grid: BidGrid) -> dict:
    """The full grid as ``build_grid`` made it, plus the number of levels
    the solvers keep after pruning.  ``eta`` is exactly 2^-max_bits, so
    the bit count is read off it rather than recomputed (and rewarned)."""
    return {
        "p": interval_set.p,
        "eta": interval_set.eta,
        "max_bits": 1 - math.frexp(interval_set.eta)[1],
        "k_star": len(interval_set),
        "rec_calls": interval_set.rec_calls,
        "levels": list(grid.levels),
        "pruned_size": len(prune_levels(grid.levels, instance.external)),
        "flat_size": grid.flat_size,
        "intervals": [
            {"lower": iv.lower, "upper": iv.upper} for iv in interval_set.intervals
        ],
    }


def _baseline_doc(instance: AuctionInstance, objective: Optional[float]) -> dict:
    utilities = individual_baseline(instance)
    cumulative = sum(utilities)
    doc = {
        "individual_utilities": list(utilities),
        "cumulative": cumulative,
    }
    if objective is not None:
        doc["ratio"] = objective / cumulative if cumulative > 0.0 else None
    return doc


def cmd_validate(args) -> int:
    try:
        instance = _load_instance(args.instance, None)
    except InstanceError as err:
        _emit({"valid": False, "error": {"path": err.path, "message": err.message}}, None)
        return EXIT_INVALID
    _emit(
        {
            "valid": True,
            "n_colluders": instance.n_colluders,
            "n_external": instance.external.n_external,
            "n_slots": instance.n_slots,
            "mechanism": instance.mechanism,
            "normalized": instance_to_raw(instance),
        },
        None,
    )
    return EXIT_OK


def cmd_discretize(args) -> int:
    _check_unit_interval("--p", args.p)
    instance = _load_instance(args.instance, None)
    _emit(_grid_doc(instance, *build_grid(instance, args.p)), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    epsilon = args.epsilon
    _check_unit_interval("--epsilon", epsilon)
    instance = _load_instance(args.instance, args.mechanism)
    p = epsilon / instance.n_colluders
    started = time.perf_counter()
    interval_set, grid = build_grid(instance, p)
    if args.mode == "arbitrary":
        solution = solve_arbitrary(instance, epsilon, grid=grid)
    else:
        try:
            solution = solve_ll(instance, epsilon, grid=grid)
        except InfeasibleError as err:
            _emit(
                {
                    "mode": args.mode,
                    "epsilon": epsilon,
                    "p": p,
                    "error": {"kind": "infeasible", "message": str(err)},
                },
                args.out,
            )
            return EXIT_INFEASIBLE
    solve_seconds = time.perf_counter() - started

    solution_doc = _solution_doc(instance, solution)
    report = {
        "mode": args.mode,
        "mechanism": instance.mechanism,
        "epsilon": epsilon,
        "p": p,
        "grid": _grid_doc(instance, interval_set, grid),
        "solution": solution_doc,
        "baseline": _baseline_doc(instance, solution_doc["objective"]),
        "checks": {
            "assumption_violated": solution.assumption_violated,
        },
        "timings": {"solve_seconds": solve_seconds},
    }
    if args.format == "text":
        lines = [
            f"mode: {args.mode}  mechanism: {instance.mechanism}  epsilon: {epsilon}",
            f"objective: {solution_doc['objective']!r}",
            f"transfers: {solution_doc['transfers']!r}",
            f"ir slack: {solution_doc['slacks']['ir']!r}",
            f"baseline cumulative: {report['baseline']['cumulative']!r}",
            f"ratio: {report['baseline'].get('ratio')!r}",
        ]
        _emit(None, args.out, text="\n".join(lines) + "\n")
    else:
        _emit(report, args.out)
    return EXIT_INFEASIBLE if solution.assumption_violated else EXIT_OK


def _load_weights(path: str, n_colluders: int) -> tuple[WupWeights, Optional[list[float]]]:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "revenue_weights" not in doc or "payment_weight" not in doc:
        raise InstanceError(
            path, "weights file needs 'revenue_weights' and 'payment_weight'"
        )
    revenue = doc["revenue_weights"]
    if not isinstance(revenue, list) or len(revenue) != n_colluders:
        raise InstanceError(
            f"{path}:revenue_weights", f"expected {n_colluders} entries"
        )
    try:
        weights = WupWeights(
            tuple(float(y) for y in revenue), float(doc["payment_weight"])
        )
    except (TypeError, ValueError) as err:
        raise InstanceError(path, str(err)) from err
    levels = doc.get("levels")
    if levels is not None and (
        not isinstance(levels, list) or not all(isinstance(x, (int, float)) for x in levels)
    ):
        raise InstanceError(f"{path}:levels", "must be a list of numbers")
    return weights, levels


def cmd_wup(args) -> int:
    instance = _load_instance(args.instance, None)
    weights, levels = _load_weights(args.weights_file, instance.n_colluders)
    if levels is not None:
        levels = [float(x) for x in levels]
        grid_doc = {"levels": sorted(set(levels))}
    else:
        _check_unit_interval("--p", args.p)
        grid_doc = _grid_doc(instance, *build_grid(instance, args.p))
        levels = grid_doc["levels"]
    if args.external_index is not None:
        support = instance.external.support
        if not 0 <= args.external_index < len(support):
            raise InstanceError(
                "external-index", f"must be in [0, {len(support) - 1}]"
            )
        result = solve_wup_fixed(levels, weights, instance, support[args.external_index][0])
        mode = {"fixed_external_index": args.external_index}
    else:
        result = solve_wup_expected(levels, weights, instance)
        mode = {"expected": True}
    _emit(
        {
            "profile": _profile_doc(result.profile),
            "value": result.value,
            "colluder_order": list(result.order),
            "grid": grid_doc,
            **mode,
        },
        args.out,
    )
    return EXIT_OK


def cmd_baseline(args) -> int:
    _check_unit_interval("--epsilon", args.epsilon)
    instance = _load_instance(args.instance, None)
    solution = solve_arbitrary(instance, args.epsilon)
    solution_doc = _solution_doc(instance, solution)
    doc = {
        "mechanism": instance.mechanism,
        "baseline": _baseline_doc(instance, solution_doc["objective"]),
        "with_agency": {
            "mode": "arbitrary",
            "epsilon": args.epsilon,
            "objective": solution_doc["objective"],
        },
    }
    _emit(doc, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="bidcoord",
        description="Coordinated-bidding solvers for GSP/VCG position auctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate and normalize an instance file")
    p_validate.add_argument("instance", help="instance path, or - for stdin")

    p_disc = sub.add_parser("discretize", help="show the interval split and bid grid")
    p_disc.add_argument("instance")
    p_disc.add_argument("--p", type=float, default=0.05, help="probability threshold")
    p_disc.add_argument("--out", default=None)

    p_solve = sub.add_parser("solve", help="solve the coordination problem")
    p_solve.add_argument("instance")
    p_solve.add_argument(
        "--mode",
        choices=("arbitrary", "limited-liability"),
        default="arbitrary",
    )
    p_solve.add_argument("--epsilon", type=float, default=0.05)
    p_solve.add_argument("--mechanism", choices=("gsp", "vcg"), default=None)
    p_solve.add_argument("--format", choices=("json", "text"), default="json")
    p_solve.add_argument("--out", default=None)

    p_wup = sub.add_parser("wup", help="solve one weighted-utility query")
    p_wup.add_argument("instance")
    p_wup.add_argument("--weights-file", required=True)
    p_wup.add_argument("--p", type=float, default=0.05)
    group = p_wup.add_mutually_exclusive_group()
    group.add_argument("--external-index", type=int, default=None)
    group.add_argument("--expected", action="store_true")
    p_wup.add_argument("--out", default=None)

    p_base = sub.add_parser("baseline", help="individual-bidding utilities")
    p_base.add_argument("instance")
    p_base.add_argument("--epsilon", type=float, default=0.05)
    p_base.add_argument("--out", default=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, not stored in the cached parser, so a command
    # function rebound on this module (a wrapper or a test double) runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except OptionError as err:
        print(f"invalid option: {err}", file=sys.stderr)
        return EXIT_INVALID
    except InstanceError as err:
        print(f"invalid instance: {err}", file=sys.stderr)
        return EXIT_INVALID
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ToleranceError as err:
        print(f"tolerance breach: {err}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
