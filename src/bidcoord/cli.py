"""Command-line interface: instance validation, discretization inspection,
solving, weighted-utility queries, and baseline comparison.

All reports are JSON (sorted keys, round-tripping doubles) and fully
deterministic for a fixed input; wall-clock timings are the only
non-reproducible fields.  A report's solution numbers are the ones
``mechanisms.certify`` computed for the solution; the CLI only formats
them.  ``canonical_json`` writes them: exactly the bytes of
``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline, with less
work than the standard library's pure-Python indenting encoder.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import replace
from typing import Optional, Sequence

from .arbitrary import solve_arbitrary
from .core import (
    AgencySolution,
    AuctionInstance,
    ExternalDistribution,
    InfeasibleError,
    InstanceError,
    ToleranceError,
    _number,
    instance_to_raw,
    validate_and_normalize,
)
from .discretize import PrunedGrid, pruned_grid
from .limited import solve_ll
from .mechanisms import individual_baseline
from .wup import WupWeights, expected_tables, solve_wup

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


def _threshold(instance: AuctionInstance, epsilon: float) -> float:
    """p = eps/n_c for an in-range ``--epsilon``; a p that underflows to 0
    is an option error (the message, on epsilon, gains the dashes)."""
    try:
        return instance.threshold(epsilon)
    except ValueError as err:
        raise OptionError(f"--{err}") from err


def canonical_json(doc) -> str:
    """Canonical serialization: sorted keys, indent 2, trailing newline.

    The text is exactly ``json.dumps(doc, indent=2, sort_keys=True)``
    plus the newline.  CPython's C encoder takes no indent, so with one
    ``json.dumps`` runs its pure-Python encoder; this one writes the same
    bytes with less work per value: a list of floats or of ints in one
    ``join``, and a string, int or finite float dict value on its key's
    line without a call of its own.  Dict keys must be strings.
    """
    out: list[str] = []
    _encode(doc, "\n", out)
    return "".join(out) + "\n"


_encode_str = json.encoder.encode_basestring_ascii
#: JSON's constants, as every encoder spells them.
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _encode(value, newline: str, out: list[str]) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` is a line
    break and the indent of the line the text starts on."""
    inner = newline + "  "
    if isinstance(value, dict) and value:
        prefix = "{"
        for key in sorted(value):
            item = value[key]
            kind = type(item)
            head = prefix + inner + _encode_str(key) + ": "
            prefix = ","
            if kind is str:
                out.append(head + _encode_str(item))
            elif kind is int:
                out.append(head + int.__repr__(item))
            elif kind is float and math.isfinite(item):
                out.append(head + float.__repr__(item))
            else:
                out.append(head)
                _encode(item, inner, out)
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        kinds = set(map(type, value))
        text = None
        if kinds == {float}:
            text = ("," + inner).join(map(float.__repr__, value))
            # of the floats, float.__repr__ spells only nan and inf with an "n"
            if "n" in text:
                text = None
        elif kinds == {int}:
            text = ("," + inner).join(map(int.__repr__, value))
        if text is not None:
            out.append("[" + inner + text)
        else:
            prefix = "["
            for item in value:
                out.append(prefix + inner)
                _encode(item, inner, out)
                prefix = ","
        out.append(newline + "]")
    elif type(value) is float and math.isfinite(value):
        out.append(float.__repr__(value))
    elif type(value) is int:
        out.append(int.__repr__(value))
    elif type(value) is str:
        out.append(_encode_str(value))
    elif value is None or value is True or value is False:
        out.append(_CONSTANTS[value])
    else:
        # non-finite floats, empty containers, subclasses and other
        # types: the C encoder writes them as the indenting one does
        out.append(json.dumps(value))


def _load_json(path: str):
    """The JSON document in a UTF-8 file, or on stdin for ``-``: bytes,
    decoded explicitly in any locale (``json.loads`` given bytes would
    also take UTF-16/32; a UTF-8 BOM is an error), then parsed once.
    Too deep a nesting or too long an integer is not valid JSON either."""
    try:
        if path == "-":
            if sys.stdin is None:  # fd 0 was closed when the interpreter started
                raise OSError("stdin is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb", buffering=0) as fh:
                data = fh.read()
        return json.loads(data.decode("utf-8"))
    except OSError as err:
        raise InstanceError(path, f"cannot read file: {err}") from err
    except UnicodeDecodeError as err:
        raise InstanceError(path, f"not valid UTF-8: {err}") from err
    except (ValueError, RecursionError) as err:
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
        try:
            # a buffered writer: a raw write may take only part of the bytes
            with open(out_path, "wb") as fh:
                fh.write(payload.encode())
        except OSError as err:
            raise OptionError(f"--out cannot be written: {err}") from err
    else:
        sys.stdout.write(payload)


def _profile_doc(profile) -> dict:
    return {
        "levels": list(profile.levels),
        "tie_ranks": list(profile.tie_ranks),
    }


def _solution_doc(solution: AgencySolution) -> dict:
    """The certified solution's numbers, as ``mechanisms.certify`` computed them."""
    dist_doc = []
    for profile, prob in solution.distribution:
        entry = _profile_doc(profile)
        entry["probability"] = prob
        dist_doc.append(entry)
    return {
        "distribution": dist_doc,
        "transfers": list(solution.transfers),
        "objective": solution.objective,
        "relaxation": solution.relaxation,
        "slacks": {"ic": list(solution.ic_slacks), "ir": solution.ir_slack},
        "expected_revenue": list(solution.expected_revenue),
        "expected_payment": list(solution.expected_payment),
    }


def _grid_doc(grid: PrunedGrid, n_colluders: int) -> dict:
    """The scalars of the grid split and ``pruned_levels``, the levels
    every optimizer works over, ``wup --p`` included.  The full
    ``levels`` and ``intervals`` are left to ``discretize``: the
    intervals only restate the levels (lower endpoints are the levels,
    upper ones the next level or 1).  ``eta`` is exactly 2^-max_bits, so
    the bit count is read off it rather than recomputed (and rewarned)."""
    return {
        "p": grid.p,
        "eta": grid.eta,
        "max_bits": 1 - math.frexp(grid.eta)[1],
        "k_star": grid.k_star,
        "rec_calls": grid.rec_calls,
        "flat_size": grid.k_star * n_colluders,
        "pruned_size": len(grid.levels),
        "pruned_levels": list(grid.levels),
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
    grid = pruned_grid(instance, args.p)
    levels = list(grid.full_levels())
    doc = _grid_doc(grid, instance.n_colluders)
    doc["levels"] = levels
    doc["intervals"] = [
        {"lower": lower, "upper": upper} for lower, upper in zip(levels, levels[1:] + [1.0])
    ]
    _emit(doc, args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    epsilon = args.epsilon
    _check_unit_interval("--epsilon", epsilon)
    instance = _load_instance(args.instance, args.mechanism)
    p = _threshold(instance, epsilon)
    started = time.perf_counter()
    pruned = pruned_grid(instance, p)
    if args.mode == "arbitrary":
        solution = solve_arbitrary(instance, epsilon, levels=pruned.levels)
    else:
        try:
            solution = solve_ll(instance, epsilon, levels=pruned.levels)
        except InfeasibleError as err:
            error = {"kind": "infeasible", "message": str(err)}
            doc = {"mode": args.mode, "epsilon": epsilon, "p": p, "error": error}
            text = f"infeasible: {err}\n" if args.format == "text" else None
            _emit(doc, args.out, text=text)
            return EXIT_INFEASIBLE
    solve_seconds = time.perf_counter() - started

    solution_doc = _solution_doc(solution)
    report = {
        "mode": args.mode,
        "mechanism": instance.mechanism,
        "epsilon": epsilon,
        "p": p,
        "grid": _grid_doc(pruned, instance.n_colluders),
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


def _weight(raw, path: str) -> float:
    """A weight: a finite nonnegative number, not a bool."""
    value = _number(raw, "%s", path, hi=math.inf)
    if value == math.inf:
        raise InstanceError(path, "expected a finite number, got inf")
    return value


def _load_weights(path: str, n_colluders: int) -> tuple[WupWeights, Optional[list[float]]]:
    """The weights file's weights and its optional ``levels``, each
    checked like an instance field and named by its path on failure.

    Revenues and payments are at most 1 per colluder, so a query's value
    and every partial sum of it are at most sum(y) + n_c*x in magnitude;
    weights whose bound, doubled for rounding, is not finite are
    rejected rather than reported as an infinite value."""
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
    weights = WupWeights(
        tuple(_weight(y, f"{path}:revenue_weights[{i}]") for i, y in enumerate(revenue)),
        _weight(doc["payment_weight"], f"{path}:payment_weight"),
    )
    bound = 2.0 * (sum(weights.revenue_weights) + n_colluders * weights.payment_weight)
    if not math.isfinite(bound):
        raise InstanceError(path, "weights too large: 2*(sum(y) + n_c*x) is not finite")
    levels = doc.get("levels")
    if levels is not None:
        if not isinstance(levels, list) or not levels:
            raise InstanceError(f"{path}:levels", "must be a nonempty list of numbers")
        levels = [_number(x, "%s:levels[%d]", path, j) for j, x in enumerate(levels)]
    return weights, levels


def cmd_wup(args) -> int:
    _check_unit_interval("--p", args.p)
    instance = _load_instance(args.instance, None)
    weights, levels = _load_weights(args.weights_file, instance.n_colluders)
    if levels is not None:
        grid_doc = {"levels": sorted(set(levels))}
    else:
        grid = pruned_grid(instance, args.p)
        levels = grid.levels
        grid_doc = _grid_doc(grid, instance.n_colluders)
    mode = {"expected": True}
    if args.external_index is not None:
        support = instance.external.support
        if not 0 <= args.external_index < len(support):
            raise InstanceError(
                "external-index", f"must be in [0, {len(support) - 1}]"
            )
        # the one-entry distribution of that profile, for the query only:
        # the --p grid above comes from the whole distribution
        point_mass = ExternalDistribution(((support[args.external_index][0], 1.0),))
        instance = replace(instance, external=point_mass)
        mode = {"fixed_external_index": args.external_index}
    result = solve_wup(expected_tables(instance, levels), weights, instance)
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
    _threshold(instance, args.epsilon)
    solution = solve_arbitrary(instance, args.epsilon)
    solution_doc = _solution_doc(solution)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are option errors: they exit
    1 with one line, as an out-of-range value does, since argparse's 2
    would read as infeasible.  Command parsers inherit the class."""

    def error(self, message):
        raise OptionError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the
    process.  Its ``commands`` maps each command name to that command's
    own parser."""
    parser = _Parser(
        prog="bidcoord",
        description="Coordinated-bidding solvers for GSP/VCG position auctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

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
    p_wup.add_argument("--external-index", type=int, default=None)
    p_wup.add_argument("--out", default=None)

    p_base = sub.add_parser("baseline", help="individual-bidding utilities")
    p_base.add_argument("instance")
    p_base.add_argument("--epsilon", type=float, default=0.05)
    p_base.add_argument("--out", default=None)

    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The namespace ``build_parser().parse_args(argv)`` gives, in one
    parser pass: a known command word hands the rest of ``argv`` straight
    to its own parser.  Anything else (no words, ``-h``, an unknown
    command) goes to the top-level parser for its help or error text."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv: Optional[Sequence[str]] = None) -> int:
    import warnings

    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            args = _parse_args(sys.argv[1:] if argv is None else argv)
            # Looked up per call, not stored in the cached parser, so a command
            # function rebound on this module (a wrapper or a test double) runs.
            return globals()[f"cmd_{args.command}"](args)
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


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one stderr line of the command's own, without
    the source line it was raised for."""
    print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
