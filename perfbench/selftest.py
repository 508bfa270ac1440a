"""Checks of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

The file is not named ``test_*.py``, so the package's own test run does
not collect it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, choose_variants, pool_instance  # noqa: E402

#: A few quick instances per workload; ll-cg slot 0 has binding outside
#: options, so the witness-scan counters are exercised.
SAMPLE_SLOTS = {"arb-grid": (2, 18), "ll-desk": (5, 11), "ll-cg": (0, 3)}


def _instances(workload: str, seed: int) -> list[run.Instance]:
    expected = json.loads(run.EXPECTED.read_text())[workload]
    work = run.OUT / "selftest" / workload
    work.mkdir(parents=True, exist_ok=True)
    variants = choose_variants(workload, seed)
    out = []
    for slot in SAMPLE_SLOTS[workload]:
        iid = f"{slot}/{variants[slot]}"
        data = pool_instance(workload, slot, variants[slot])
        path = work / f"{slot:02d}.json"
        path.write_bytes(data)
        out.append(run.Instance(iid, WORKLOADS[workload].shapes[slot], path,
                                path.with_suffix(".out.json"), json.loads(data), expected[iid]))
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_instance_files(workload):
    expected = json.loads(run.EXPECTED.read_text())[workload]
    for seed in (0, 1, 12345):
        variants = choose_variants(workload, seed)
        assert variants == choose_variants(workload, seed)
        for slot, variant in enumerate(variants):
            data = pool_instance(workload, slot, variant)
            assert data == pool_instance(workload, slot, variant)
            # and the bytes are the ones the expected results were recorded for
            assert hashlib.sha256(data).hexdigest() == expected[f"{slot}/{variant}"]["sha256"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_passes_give_identical_counts(workload):
    cli, _ = run.load_program()
    instances = _instances(workload, seed=3)
    snapshots = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run.run_pass(cli, instances, WORKLOADS[workload].mode, float("inf"), tracer)
        finally:
            tracer.uninstall()
        snapshots.append(
            ({i: dict(c) for i, c in tracer.counts.items()},
             {i: {n: agg[0] for n, agg in spans.items()} for i, spans in tracer.spans.items()})
        )
    assert all(not inst.failures for inst in instances)
    assert snapshots[0] == snapshots[1]
    assert snapshots[0][1]  # spans were recorded
    # the tracer leaves the package as it found it
    assert cli.cmd_solve.__module__ == "bidcoord.cli" and not hasattr(cli.cmd_solve, "__wrapped__")


def test_expired_cap_is_a_timeout(monkeypatch):
    cli, _ = run.load_program()
    inst = _instances("ll-cg", seed=3)[0]  # binding: seconds of witness scan
    monkeypatch.setattr(run, "SOLVE_CAP_S", 0.05)
    spent = run.run_pass(cli, [inst], WORKLOADS["ll-cg"].mode, float("inf"))
    assert [kind for kind, _ in inst.failures] == ["timeout"]
    assert inst.capped == 1 and not inst.times
    assert 0.05 <= spent < 1.0


def test_fails_without_the_program():
    bare = run.OUT / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ll-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
