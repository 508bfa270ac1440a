"""The report-change list: every golden and pool report of two source
trees, compared.

    python tests/report_diff.py OLD_TREE NEW_TREE

Each tree's reports come from one subprocess with that tree's ``src``
first on the path.  They are the golden commands of ``test_cli.py`` on
the golden instances, and ``solve`` on every variant of every benchmark
pool slot, each with ``timings`` removed.  For each report that differs
it prints the key, both exit codes, both certified objectives and their
difference, and the names of the fields that changed: a section such as
``solution``, ``grid`` or ``baseline`` is named by its changed keys
(``solution.slacks``), any other field by its own name.  A summary
follows the list: the changed reports counted per workload and per set
of changed fields, and the largest |diff| of every changed numeric field
(``solution.slacks.ic``), taken over all its list entries.  It exits 1
if an exit code changed or an objective moved by more than
``OBJECTIVE_TOL``, else 0; two trees with the same reports print nothing.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

#: The most a certified objective may move in a report change.
OBJECTIVE_TOL = 1e-12


def run(argv: list[str]) -> dict:
    """Exit code and report of one command, ``timings`` removed."""
    from bidcoord.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")  # cent bids warn about their bit count
        code = main(argv)
    report = json.loads(out.getvalue())
    report.pop("timings", None)
    return {"code": code, "report": report}


def collect() -> dict:
    """Every report of the ``bidcoord`` on the path, by key."""
    from conftest import load_workloads
    from test_cli import GOLDEN_COMMANDS, GOLDEN_INSTANCES, golden_argv

    workloads = load_workloads()
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for instance in GOLDEN_INSTANCES:
            for command in GOLDEN_COMMANDS:
                reports[f"golden/{instance}/{command}"] = run(golden_argv(scratch, instance, command))
        path = scratch / "pool.json"
        for name, workload in workloads.WORKLOADS.items():
            for slot in range(len(workload.shapes)):
                for variant in range(workloads.VARIANTS):
                    path.write_bytes(workloads.pool_instance(name, slot, variant))
                    argv = ["solve", str(path), "--mode", workload.mode,
                            "--epsilon", repr(workloads.EPSILON)]
                    reports[f"{name}/{slot}/{variant}"] = run(argv)
    return reports


def start(tree: str) -> subprocess.Popen:
    """The subprocess that collects ``tree``'s reports."""
    src = Path(tree).resolve() / "src"
    if not (src / "bidcoord").is_dir():
        raise SystemExit(f"{tree}: no src/bidcoord")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(
        [sys.executable, __file__, "--collect", str(src)], env=env, stdout=subprocess.PIPE
    )


def objective(entry: dict):
    solution = entry["report"].get("solution")
    return solution["objective"] if isinstance(solution, dict) else None


def changed_fields(before: dict, after: dict) -> list[str]:
    """The changed fields of two reports, a section's one level down."""
    fields = []
    for name in sorted(before.keys() | after.keys()):
        a, b = before.get(name), after.get(name)
        if a == b:
            continue
        if isinstance(a, dict) and isinstance(b, dict):
            fields += [f"{name}.{key}" for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
        else:
            fields.append(name)
    return fields


def numeric_diffs(path: str, a, b, largest: dict) -> None:
    """Fold into ``largest`` the largest |b - a| of each changed field
    under ``path``, list entries under their list's path; a change that
    is not between two numbers maps to None."""
    if a == b:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() | b.keys():
            numeric_diffs(f"{path}.{key}", a.get(key), b.get(key), largest)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            numeric_diffs(path, x, y, largest)
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        if path not in largest or largest[path] is not None:
            largest[path] = max(largest.get(path, 0.0), abs(b - a))
    else:
        largest[path] = None


def summarize(changes: list[tuple[str, list[str]]], largest: dict) -> None:
    """Print the counts of the changed reports and each field's largest |diff|."""
    print(f"summary: {len(changes)} changed reports")
    workloads = Counter(key.split("/")[0] for key, _ in changes)
    print("  by workload: " + ", ".join(f"{name} {n}" for name, n in sorted(workloads.items())))
    print("  by changed fields:")
    for fields, n in sorted(Counter(", ".join(f) for _, f in changes).items()):
        print(f"    {n:5d}  {fields or '(none)'}")
    print("  largest |diff| per field:")
    for path, diff in sorted(largest.items()):
        print(f"    {path}: {'not numeric' if diff is None else repr(diff)}")


def compare(old: dict, new: dict) -> bool:
    """Print each changed report, then the summary; True if any change
    breaks the rule."""
    broken = False
    changes = []
    largest = {}
    for key, after in new.items():
        before = old[key]
        if before == after:
            continue
        fields = changed_fields(before["report"], after["report"])
        changes.append((key, fields))
        for name in before["report"].keys() | after["report"].keys():
            numeric_diffs(name, before["report"].get(name), after["report"].get(name), largest)
        a, b = objective(before), objective(after)
        moved = abs(b - a) if a is not None and b is not None else None
        line = f"{key}: exit {before['code']} -> {after['code']}, objective {a!r} -> {b!r}"
        if moved is not None:
            line += f" (diff {b - a:+.3g})"
        print(f"{line}, changed {', '.join(fields) or '(none)'}")
        if before["code"] != after["code"] or (moved is not None and moved > OBJECTIVE_TOL):
            broken = True
    if changes:
        summarize(changes, largest)
    return broken


def main(argv: list[str]) -> int:
    if argv[:1] == ["--collect"]:
        import bidcoord

        # the tree's own package, not one installed elsewhere
        assert Path(bidcoord.__file__).resolve().parent.parent == Path(argv[1])
        json.dump(collect(), sys.stdout)
        return 0
    if len(argv) != 2:
        print("usage: python tests/report_diff.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    procs = [start(tree) for tree in argv]
    outputs = [proc.communicate()[0] for proc in procs]
    for tree, proc in zip(argv, procs):
        if proc.returncode != 0:
            raise SystemExit(f"{tree}: collecting its reports failed")
    old, new = (json.loads(out) for out in outputs)
    return 1 if compare(old, new) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
