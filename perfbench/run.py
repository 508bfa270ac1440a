#!/usr/bin/env python3
"""Benchmark of the ``bidcoord solve`` path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's instance files
are generated from the seed (see ``workloads.py``) and solved one at a
time, in this process, through ``cli.main(["solve", ...])``: a closed
loop with one client and no threads, pinned to one CPU.  One pass solves
every instance; then, while ``--seconds`` last, ``run_until`` solves
again the instances that still fit, cheap ones more often.  An
instance's time is the mean of its solves, and every reported time is
scaled to the reference machine by a probe timed through the run (see
``probe``), which takes out part of the machine's drift in speed.
Every report is checked against the expected result recorded in
``expected.json``; a mismatch, an exception or an expired per-instance
cap counts the instance as failed.

With ``--trace 0`` the last output line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced pass, taken from
outside the package by ``tracing.Tracer``.  Lines before it give every
metric by name and unit, the failure list and the run manifest; a full
record goes to ``perfbench/out/``.  The exit code is 0 when every
report is correct, 1 otherwise, and 2 when the program cannot be
loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# One process and no threads: BLAS gets one thread (it would start one
# per core), set before numpy is first imported here or in the fresh
# processes that time the import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
sys.path.insert(1, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Shape, choose_variants, pool_instance  # noqa: E402

#: Wall-clock cap on one solve call: twice the slowest instance that
#: completes (about 5 s on a 2-vCPU virtual machine).  It bounds what an
#: instance caught in a near-endless search, such as the exhaustive
#: pricing scan, adds to a run.
SOLVE_CAP_S = 10.0
#: A run starts no solve after this many seconds, so it ends well
#: inside the 180 s a run may take; instances left are timeouts.
RUN_BUDGET_S = 150.0
#: Fresh processes that time the package import besides this one.  They
#: are spread over the run, so their median does not rest on one moment
#: of the machine.
SETUP_SAMPLES = 16
#: After the first pass, each round of solves gives every instance at
#: least SHARE_S and at most LONG_S of solve time, and one solve where
#: that lies between: tiny instances get enough samples for a steady
#: mean, and the seconds-long witness scans of ll-cg do not crowd out
#: the instances around its median and tail.
SHARE_S = 0.05
LONG_S = 1.0
#: The machine-speed probe (see ``probe``): its size, how often it runs,
#: and its mean time on the reference machine, the fast phase of the
#: 2-vCPU virtual machine the bounds were set on.
PROBE_ITEMS = 20_000
PROBE_FLOATS = 1_000_000
PROBE_EVERY_S = 0.25
PROBE_REF_S = 7e-3
#: Instances that must lie beyond the tail percentile.
TAIL_BEYOND = 10
OBJECTIVE_TOL = 1e-9
SLACK_TOL = 1e-9

IMPORT_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import bidcoord.cli\n"
    "print(time.perf_counter() - start)\n"
)


class SolveTimeout(BaseException):
    """Raised by the alarm when a solve outlives its cap.  It derives from
    BaseException so no ``except Exception`` in the program swallows it."""


def _on_alarm(signum, frame):
    raise SolveTimeout()


@dataclass
class Instance:
    id: str  # "<slot>/<variant>"
    shape: Shape
    path: Path
    out: Path
    raw: dict
    expected: dict | None
    times: list[float] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)  # (kind, detail)
    spent: float = 0.0  # sum of ``times``
    capped: int = 0  # solves that outlived the cap; not in ``times``

    def estimate(self) -> float:
        """Expected seconds of the next solve: the mean so far."""
        return self.spent / len(self.times) if self.times else SOLVE_CAP_S

    def seconds(self, scale: float) -> float:
        """Mean seconds of one solve, scaled to the reference machine.  A
        solve cut at the cap counts as the cap, unscaled: it measured
        nothing but the cap."""
        return (scale * self.spent + SOLVE_CAP_S * self.capped) / (
            len(self.times) + self.capped
        )


def load_program():
    """Import ``bidcoord.cli`` from the checkout; returns (module, seconds)."""
    if not (SRC / "bidcoord" / "cli.py").is_file():
        print(f"error: no bidcoord sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import bidcoord.cli as cli

    seconds = perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: bidcoord imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return cli, seconds


def setup_sample(samples: list[float], upto: int) -> None:
    """Time the import of ``bidcoord.cli`` in one fresh process, unless
    ``samples`` already holds ``upto`` of them."""
    if len(samples) >= upto:
        return
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    samples.append(float(done.stdout.strip()))


def solve_once(cli, inst: Instance, mode: str) -> tuple[float, int | None, str | None, str]:
    """One timed ``solve`` call: (seconds, exit code, failure kind, detail)."""
    inst.out.unlink(missing_ok=True)
    err = io.StringIO()
    argv = ["solve", str(inst.path), "--mode", mode, "--out", str(inst.out)]
    signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, SOLVE_CAP_S)
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except SolveTimeout:
        return perf_counter() - start, None, "timeout", f"cap of {SOLVE_CAP_S} s expired"
    except Exception:  # the benchmark must go on and report the failure
        return perf_counter() - start, None, "exception", traceback.format_exc(limit=-3)
    return perf_counter() - start, code, None, err.getvalue()


def outcome(code: int, out: Path) -> tuple[str, float | None, dict | None]:
    """Status, objective and report of a finished solve."""
    report = json.loads(out.read_text()) if out.is_file() else None
    if report is not None and "error" in report:
        return report["error"]["kind"], None, report
    if report is None:
        return f"exit-{code}", None, None
    status = "optimal" if code == 0 else "assumption-violated"
    return status, report["solution"]["objective"], report


def slack_problems(raw: dict, report: dict) -> list[str]:
    """Recompute the participation and budget slacks from the report."""
    colluders = sorted(
        enumerate(raw["colluders"]), key=lambda ic: (-ic[1]["v"], ic[0])
    )
    sol = report["solution"]
    p = sol["relaxation"]
    problems = []
    for i, (_, c) in enumerate(colluders):
        ic = sol["expected_revenue"][i] - sol["transfers"][i] - (c["t"] - p)
        if ic < -SLACK_TOL or sol["slacks"]["ic"][i] < -SLACK_TOL:
            problems.append(f"slacks.ic[{i}] = {ic!r}")
    ir = sum(sol["transfers"]) - sum(sol["expected_payment"])
    if ir < -SLACK_TOL or sol["slacks"]["ir"] < -SLACK_TOL:
        problems.append(f"slacks.ir = {ir!r}")
    return problems


def check(inst: Instance, code: int) -> list[str]:
    """Differences between a finished solve and its expected result."""
    status, objective, report = outcome(code, inst.out)
    exp = inst.expected
    if exp is None:
        return ["no expected result recorded for this instance"]
    problems = []
    if exp["status"] == "timeout":
        # Recorded while it outlived the cap, so there is no objective to
        # compare; a solve that now finishes is checked on its slacks.
        return slack_problems(inst.raw, report) if status == "optimal" else []
    if code != exp["exit"] or status != exp["status"]:
        problems.append(f"exit {code}/{status}, expected {exp['exit']}/{exp['status']}")
    if exp["objective"] is not None and (
        objective is None or abs(objective - exp["objective"]) > OBJECTIVE_TOL
    ):
        problems.append(f"objective {objective!r}, expected {exp['objective']!r}")
    if status == "optimal":
        problems += slack_problems(inst.raw, report)
    return problems


def probe() -> float:
    """Seconds of a fixed piece of work, to follow how fast the machine
    runs.  The work builds and drops a dict of strings and makes and sums
    a numpy array of 8 MB: allocation and cache misses, which slow down
    with the machine's load much as a solve does.  A tight integer loop
    does not: it stays in the CPU's own cache."""
    import numpy as np

    start = perf_counter()
    table = {i: str(i) for i in range(PROBE_ITEMS)}
    float(np.ones(PROBE_FLOATS).sum())
    del table
    return perf_counter() - start


class Every:
    """Calls ``fn`` when called, at most once every ``seconds``."""

    def __init__(self, seconds: float, fn):
        self.seconds = seconds
        self.fn = fn
        self.due = 0.0

    def __call__(self) -> None:
        if perf_counter() >= self.due:
            self.fn()
            self.due = perf_counter() + self.seconds


def pin_to_one_cpu() -> None:
    """Keep this process, and the ones it starts, on one CPU, so the probe
    times the CPU that the solves and the setup imports run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def solve_checked(cli, inst: Instance, mode: str, deadline: float,
                  tracer=None, between=None) -> float:
    """Solve one instance and check the report; untraced solves record
    their time.  Returns the solve's seconds."""
    if tracer is not None:
        tracer.instance = inst.id
    if perf_counter() > deadline:
        seconds, code, kind, detail = SOLVE_CAP_S, None, "timeout", "run budget spent"
    else:
        if between is not None:
            between()
        seconds, code, kind, detail = solve_once(cli, inst, mode)
    if tracer is None and kind == "timeout":
        inst.capped += 1
    elif tracer is None:
        inst.times.append(seconds)
        inst.spent += seconds
    if kind is None:
        problems = check(inst, code)
        if problems:
            kind, detail = "mismatch", "; ".join(problems)
    if kind is not None:
        inst.failures.append((kind, detail))
    return seconds


def run_pass(cli, instances: list[Instance], mode: str, deadline: float,
             tracer=None, between=None) -> float:
    """Solve every instance once, in schedule order; returns the summed
    solve time."""
    return sum(solve_checked(cli, inst, mode, deadline, tracer, between) for inst in instances)


def run_until(cli, instances: list[Instance], mode: str, until: float, deadline: float,
              between) -> None:
    """Solve again, one instance at a time, until ``until``.

    Each step solves, among the instances whose mean time still fits,
    the one with the least solve time so far per its mean time clamped to
    [SHARE_S, LONG_S].  Extra solves of cheap instances so spread over the
    whole run rather than run back to back.  An instance that outlived the
    cap is not solved again.
    """
    while True:
        now = perf_counter()
        fits = [
            inst for inst in instances
            if not inst.capped and now + inst.estimate() <= until
        ]
        if not fits:
            return
        inst = min(fits, key=lambda i: i.spent / min(max(i.estimate(), SHARE_S), LONG_S))
        solve_checked(cli, inst, mode, deadline, between=between)


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest order statistic with at
    least TAIL_BEYOND values beyond it (the last one when n is smaller)."""
    return n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bidcoord").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def package_version(name: str) -> str:
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "absent"


def manifest(args, instances: list[Instance], solves: int) -> dict:
    n = len(instances)
    shapes = [inst.shape for inst in instances]
    paths = [(inst.expected or {}).get("path") for inst in instances]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "nproc": os.cpu_count(),
        "instances": n,
        "solves": solves,
        "variants": [inst.id for inst in instances],
        "tail_percentile": round(100.0 * (tail_index(n) + 1) / n, 2),
        "solve_cap_s": SOLVE_CAP_S,
        "share": {
            "non_dyadic_bids": sum(s.bits == 0 for s in shapes) / n,
            "binding_outside_options": sum(s.outside == "binding" for s in shapes) / n,
            "dense_master": paths.count("dense") / n,
            "column_generation": paths.count("cg") / n,
        },
    }


def span_totals(tracer, ids) -> tuple[dict[str, int], dict[str, float]]:
    """Calls and self seconds per layer, summed over the given instances."""
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    for iid in ids:
        for name, (c, _, s) in tracer.spans.get(iid, {}).items():
            calls[name] = calls.get(name, 0) + c
            selfs[name] = selfs.get(name, 0.0) + s
    return calls, selfs


def per_layer(tracer, traced_walls: list[float], plain_walls: list[float]) -> dict:
    """Per-layer metrics summed over the traced pass's instances."""
    calls, selfs = span_totals(tracer, tracer.spans)
    counts: dict[str, int] = {}
    for counter in tracer.counts.values():
        for name, value in counter.items():
            counts[name] = counts.get(name, 0) + value

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return selfs.get(name, 0.0)

    m = {
        "wup.build_graph.calls": (c("wup.build_graph"), "count"),
        "wup.build_graph.self_s": (s("wup.build_graph"), "s"),
        "wup.table_cells": (counts.get("wup.table_cells", 0), "count"),
        "wup.solve_graph.calls": (c("wup.solve_graph"), "count"),
        "wup.solve_graph.self_s": (s("wup.solve_graph"), "s"),
        "wup.dp_cells": (counts.get("wup.dp_cells", 0), "count"),
        "mechanisms.expected_outcome.calls": (c("mechanisms.expected_outcome"), "count"),
        "mechanisms.expected_outcome.self_s": (s("mechanisms.expected_outcome"), "s"),
        "mechanisms.support_evals": (counts.get("mechanisms.support_evals", 0), "count"),
        "simplex.lp_solve.calls": (c("simplex.lp_solve"), "count"),
        "simplex.lp_solve.self_s": (s("simplex.lp_solve"), "s"),
        "simplex.lp_cells": (counts.get("simplex.lp_cells", 0), "count"),
        "limited.solve_master.calls": (c("limited.solve_master"), "count"),
        "limited.solve_master.self_s": (s("limited.solve_master"), "s"),
        "limited.pricing.calls": (c("limited.pricing"), "count"),
        "limited.pricing.self_s": (s("limited.pricing"), "s"),
        "limited.make_column.calls": (c("limited.make_column"), "count"),
        "limited.extract_solution.self_s": (s("limited.extract_solution"), "s"),
        "arbitrary.check_assumption1.calls": (c("arbitrary.check_assumption1"), "count"),
        "arbitrary.check_assumption1.self_s": (s("arbitrary.check_assumption1"), "s"),
        "arbitrary.witness_profiles": (counts.get("arbitrary.witness_profiles", 0), "count"),
        "arbitrary.witness_found_ratio": (
            counts.get("arbitrary.witness_found", 0) / c("arbitrary.check_assumption1")
            if c("arbitrary.check_assumption1")
            else 0.0,
            "ratio",
        ),
        "arbitrary.solve_arbitrary.self_s": (s("arbitrary.solve_arbitrary"), "s"),
        "discretize.build_grid.calls": (c("discretize.build_grid"), "count"),
        "discretize.build_grid.self_s": (s("discretize.build_grid"), "s"),
        "discretize.levels": (counts.get("discretize.levels", 0), "count"),
        "core.validate.calls": (c("core.validate"), "count"),
        "core.validate.self_s": (s("core.validate"), "s"),
        "cli.solve.self_s": (s("cli.solve"), "s"),
        "trace.overhead_s": (
            statistics.median(traced_walls) - statistics.median(plain_walls),
            "s",
        ),
        "trace.unattributed_s": (traced_walls[0] - tracer.root_seconds, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def predictions(workload: str, tracer, instances: list[Instance], layers: dict) -> list[dict]:
    """Where the issue expects each workload to spend its time."""
    if workload == "arb-grid":
        solve = sum(spans["cli.solve"][1] for spans in tracer.spans.values())
        share = layers["wup.build_graph.self_s"]["value"] / solve
        claim, value, held = "wup.build_graph.self_s >= 90% of solve time", share, share >= 0.9
    elif workload == "ll-desk":
        calls = layers["wup.build_graph.calls"]["value"]
        claim, value, held = "wup.build_graph.calls == 0", calls, calls == 0
    else:
        _, spent = span_totals(tracer, [i.id for i in instances if i.shape.outside == "binding"])
        top = sorted(spent, key=spent.get, reverse=True)[:3]
        claim = "on binding instances arbitrary.check_assumption1 has the largest self time"
        value = {k: spent[k] for k in top}
        held = bool(top) and top[0] == "arbitrary.check_assumption1"
    return [{"claim": claim, "value": value, "held": held}]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    cli, first_import = load_program()
    setup = [first_import]
    setup_total = 1 + SETUP_SAMPLES
    expected = json.loads(EXPECTED.read_text()).get(args.workload, {}) if EXPECTED.is_file() else {}

    spec = WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    instances = []
    for slot, variant in enumerate(choose_variants(args.workload, args.seed)):
        data = pool_instance(args.workload, slot, variant)
        iid = f"{slot}/{variant}"
        exp = expected.get(iid)
        if exp is not None and exp["sha256"] != hashlib.sha256(data).hexdigest():
            exp = None  # the recorded result belongs to other bytes
        path = work / f"{slot:02d}-{variant}.json"
        path.write_bytes(data)
        instances.append(
            Instance(iid, spec.shapes[slot], path, path.with_suffix(".out.json"),
                     json.loads(data), exp)
        )

    started = perf_counter()
    deadline = started + RUN_BUDGET_S
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    tracers = []
    # Before solves of untraced passes: the probe, and the setup samples
    # spread over the run.
    probes: list[float] = []
    take_probe = Every(PROBE_EVERY_S, lambda: probes.append(probe()))
    take_setup = Every(args.seconds / (SETUP_SAMPLES + 1),
                       lambda: setup_sample(setup, setup_total))

    def between():
        take_probe()
        take_setup()

    if args.trace:
        # Whole passes only, so the traced counts cover the whole set.
        while True:
            plain_walls.append(run_pass(cli, instances, spec.mode, deadline, between=between))
            tracer = Tracer()
            tracer.install()
            try:
                traced_walls.append(run_pass(cli, instances, spec.mode, deadline, tracer))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
            elapsed = perf_counter() - started
            if elapsed * (len(tracers) + 1) / len(tracers) > args.seconds:
                break
    else:
        # One whole pass, then further solves while the seconds last.
        plain_walls.append(run_pass(cli, instances, spec.mode, deadline, between=between))
        run_until(cli, instances, spec.mode, min(started + args.seconds, deadline), deadline,
                  between)
    while len(setup) < setup_total:
        setup_sample(setup, setup_total)

    failed = [inst for inst in instances if inst.failures]
    wrong = [inst for inst in failed if any(k != "timeout" for k, _ in inst.failures)]
    problems = []
    snapshots = [{k: dict(v) for k, v in t.counts.items()} for t in tracers]
    if any(snap != snapshots[0] for snap in snapshots):
        problems.append("work counts differ between traced passes")

    # Times are scaled to the reference machine by the run's mean probe.
    scale = PROBE_REF_S / statistics.mean(probes)
    per_instance = [inst.seconds(scale) for inst in instances]
    ordered = sorted(per_instance)
    n = len(instances)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": {"value": scale * statistics.median(setup), "unit": "s"},
        "wall_s": {"value": sum(per_instance), "unit": "s"},
        "solve_s.p50": {"value": statistics.median(per_instance), "unit": "s"},
        "solve_s.tail": {"value": ordered[tail_index(n)], "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    raw = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(inst.seconds(1.0) for inst in instances),
        "probe_s.mean": statistics.mean(probes),
        "probe_s.p50": statistics.median(probes),
    }
    info = manifest(args, instances, sum(len(inst.times) + inst.capped for inst in instances))
    info["scale"] = scale
    record = {
        "manifest": info,
        "end_to_end": end_to_end,
        "unscaled": raw,
        "failed_ratio": len(failed) / n,
        "setup_samples_s": setup,
        "pass_walls_s": plain_walls,
        "instances": [
            {"id": inst.id, "times_s": inst.times, "capped": inst.capped,
             "failures": inst.failures}
            for inst in instances
        ],
        "problems": problems,
    }
    if args.trace:
        first = tracers[0]
        layers = per_layer(first, traced_walls, plain_walls)
        record["traced_pass_walls_s"] = traced_walls
        record["per_layer"] = layers
        record["predictions"] = predictions(args.workload, first, instances, layers)
        record["spans"] = {iid: dict(spans) for iid, spans in first.spans.items()}
        record["counts"] = snapshots[0]
        metrics = layers
    else:
        metrics = end_to_end
    (OUT / f"{work.name}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("manifest " + json.dumps(info, sort_keys=True))
    for name, m in {**end_to_end, **(record.get("per_layer") or {})}.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, value in raw.items():
        print(f"unscaled {name} {value!r} s")
    print(f"scale {scale!r} (reference probe {PROBE_REF_S} s / mean probe)")
    print(f"failed_ratio {len(failed) / n!r} ratio ({len(failed)} of {n} instances)")
    for inst in failed:
        kind, detail = inst.failures[0]
        last = detail.strip().splitlines()[-1] if detail.strip() else ""
        solves = len(inst.times) + inst.capped + len(traced_walls)
        print(f"failure {inst.id} {kind} in {len(inst.failures)} of {solves} solves: {last}")
    for pred in record.get("predictions", []):
        print(f"prediction {'held' if pred['held'] else 'FAILED'}: {pred['claim']} ({pred['value']})")
    for problem in problems:
        print(f"problem {problem}")
    correct = not wrong and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
