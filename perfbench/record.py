#!/usr/bin/env python3
"""Record the expected result of every pool instance into ``expected.json``.

    python3 perfbench/record.py [--workload NAME ...]

Each instance of each workload's pool (every schedule slot crossed with
every variant) is solved once through ``cli.main``; its exit code,
status and objective become the expected result the benchmark checks
against, keyed by "<slot>/<variant>" and tied to the file's sha256.
Where the grid is small enough, the result is also checked once against
the brute-force references in ``bidcoord.oracles``; the outcome of that
check is stored with the entry.  Entries whose instance bytes are
unchanged are kept as they are.  Run it again only when the workload
definitions change, and only on a commit whose results are trusted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings

from run import EXPECTED, OUT, Instance, load_program, outcome, slack_problems, solve_once
from workloads import EPSILON, VARIANTS, WORKLOADS, pool_instance

#: Largest brute-force job (grid profiles times support entries) checked.
ORACLE_WORK = 400_000
ARBITRARY_TOL = 1e-9
#: Tolerance of the dense LP check in the acceptance suite (criterion 9).
LL_TOL = 1e-6


def oracle_check(mode: str, raw: dict, status: str, objective) -> dict:
    """Compare one solve with the brute-force reference, when it fits."""
    from bidcoord.core import validate_and_normalize
    from bidcoord.discretize import build_grid
    from bidcoord.oracles import brute_force_arbitrary, brute_force_ll

    instance = validate_and_normalize(raw)
    p = EPSILON / instance.n_colluders
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, grid = build_grid(instance, p)
    d = len(grid.levels)
    n_c = instance.n_colluders
    dense = d**n_c <= 100_000
    doc = {"d": d, "path": None if mode == "arbitrary" else ("dense" if dense else "cg")}
    work = d**n_c * len(instance.external.support)
    if work > ORACLE_WORK or (mode != "arbitrary" and not dense):
        doc["oracle"] = "skipped: grid too large"
        return doc
    if mode == "arbitrary":
        value, ref_status, tol = brute_force_arbitrary(instance, grid.levels), "optimal", ARBITRARY_TOL
    else:
        try:
            value, ref_status = brute_force_ll(instance, grid.levels, p)
        except ValueError as err:  # over the oracle's own column cap
            doc["oracle"] = f"skipped: {err}"
            return doc
        tol = LL_TOL
    agrees = ref_status == status and (
        value is None or (objective is not None and abs(objective - value) <= tol)
    )
    doc["oracle"] = {"status": ref_status, "objective": value, "agrees": agrees}
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    cli, _ = load_program()
    previous = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    work = OUT / "record"
    work.mkdir(parents=True, exist_ok=True)
    disagreements = 0
    for name in args.workload or sorted(WORKLOADS):
        spec = WORKLOADS[name]
        entries = {}
        for slot, shape in enumerate(spec.shapes):
            for variant in range(VARIANTS):
                data = pool_instance(name, slot, variant)
                digest = hashlib.sha256(data).hexdigest()
                kept = previous.get(name, {}).get(f"{slot}/{variant}")
                if kept is not None and kept["sha256"] == digest:
                    entries[f"{slot}/{variant}"] = kept  # same bytes: already recorded
                    continue
                path = work / f"{name}-{slot:02d}-{variant}.json"
                path.write_bytes(data)
                raw = json.loads(data)
                inst = Instance(f"{slot}/{variant}", shape, path, path.with_suffix(".out.json"), raw, None)
                seconds, code, kind, detail = solve_once(cli, inst, spec.mode)
                if kind == "timeout":
                    # recorded as such; the run counts it as a failure
                    code, status, objective, report = None, "timeout", None, None
                elif kind is not None:
                    raise SystemExit(f"{name} {inst.id}: {kind}: {detail}")
                else:
                    status, objective, report = outcome(code, inst.out)
                if status == "optimal" and slack_problems(raw, report):
                    raise SystemExit(f"{name} {inst.id}: {slack_problems(raw, report)}")
                entry = {
                    "sha256": digest,
                    "exit": code,
                    "status": status,
                    "objective": objective,
                    **oracle_check(spec.mode, raw, status, objective),
                }
                if isinstance(entry["oracle"], dict) and not entry["oracle"]["agrees"]:
                    disagreements += 1
                entries[inst.id] = entry
                print(f"{name} {inst.id} {status} {objective!r} {seconds:.3f}s d={entry['d']} "
                      f"{entry['path']} oracle={entry['oracle']}", flush=True)
        doc = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        doc[name] = entries
        EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"oracle disagreements: {disagreements}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
