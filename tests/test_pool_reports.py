"""The ``solve`` report of variant 0 of every benchmark pool slot, pinned
by digest.

Each entry of ``golden/pool-digests.json`` is the exit code and the
sha256 of the canonical report, ``timings`` removed, of one
``"<workload>/<slot>"``.  Together they cover both modes, both
mechanisms, cent and dyadic bids, column generation and infeasible
instances, so a change meant to leave every reported bit alone fails
here if it moves one.

Reports are hashed as ``json.dumps(indent=2, sort_keys=True)`` writes
them, not by the CLI's own encoder, and the CLI's stdout must be exactly
that text of its own parse: a change to the encoder cannot move the
digests and the bytes together.
"""

import builtins
import contextlib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest

from bidcoord.cli import main
from bidcoord.core import validate_and_normalize
from conftest import compensated_sum, load_workloads

workloads = load_workloads()
DIGESTS = Path(__file__).resolve().parent / "golden" / "pool-digests.json"


def reference_json(doc) -> str:
    """The canonical report text, written by the standard library."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def solve(directory: Path, name: str, slot: int, variant: int) -> tuple[int, str]:
    """Exit code and stdout of ``solve`` on one pool instance."""
    path = directory / f"{name}-{slot}.json"
    path.write_bytes(workloads.pool_instance(name, slot, variant))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # cent bids warn about their bit count
        code = main(["solve", str(path), "--mode", workloads.WORKLOADS[name].mode,
                     "--epsilon", repr(workloads.EPSILON)])
    return code, out.getvalue()


def digest(directory: Path, name: str, slot: int) -> dict:
    """Exit code and report digest of ``solve`` on the slot's variant 0."""
    code, text = solve(directory, name, slot, 0)
    doc = json.loads(text)
    assert text == reference_json(doc)
    doc.pop("timings", None)
    return {"code": code, "sha256": hashlib.sha256(reference_json(doc).encode()).hexdigest()}


def workload_digests(directory: Path, name: str) -> dict:
    return {
        f"{name}/{slot}": digest(directory, name, slot)
        for slot in range(len(workloads.WORKLOADS[name].shapes))
    }


def assert_recorded_digests(directory: Path, name: str) -> None:
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    recorded = {key: value for key, value in expected.items() if key.startswith(f"{name}/")}
    assert workload_digests(directory, name) == recorded


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_pool_report_digests(tmp_path, name):
    assert_recorded_digests(tmp_path, name)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_pool_report_digests_under_python_312_sum(tmp_path, monkeypatch, name):
    # the package's ``sum`` is Python 3.12's compensated one, so a report
    # whose bits depend on the interpreter's ``sum`` fails here; the pool's
    # instances are still drawn with the running interpreter's own
    monkeypatch.setattr(workloads, "sum", sum, raising=False)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert_recorded_digests(tmp_path, name)


def workload_names(mode: str) -> list[str]:
    return [name for name, w in workloads.WORKLOADS.items() if w.mode == mode]


def pool_solutions(directory: Path, name: str):
    """(key, exit code, caps, solution) of every variant of every slot.

    The caps r_i - (t_i - p) are recomputed from the report's expected
    revenues and relaxation p and the normalized instance's outside
    options; an infeasible report has no solution and no caps.
    """
    for slot in range(len(workloads.WORKLOADS[name].shapes)):
        for variant in range(workloads.VARIANTS):
            code, text = solve(directory, name, slot, variant)
            solution = json.loads(text).get("solution")
            caps = None
            if solution is not None:
                raw = json.loads(workloads.pool_instance(name, slot, variant))
                t = validate_and_normalize(raw).outside_options
                p = solution["relaxation"]
                caps = [r - (ti - p) for r, ti in zip(solution["expected_revenue"], t)]
            yield f"{name}/{slot}/{variant}", code, caps, solution


def check_participation_slacks(key: str, caps: list, solution: dict) -> None:
    """Each participation slack is its cap less its transfer, bit for bit:
    0.0 for a transfer at its cap, and negative only where the cap is."""
    slacks = solution["slacks"]["ic"]
    assert slacks == [cap - q for cap, q in zip(caps, solution["transfers"])], key
    for cap, q, slack in zip(caps, solution["transfers"], slacks):
        if q == cap:
            assert slack == 0.0, key
        if slack < 0:
            assert slack == cap < 0, key


@pytest.mark.parametrize("name", workload_names("limited-liability"))
def test_ll_transfers_cover_the_stated_payment(tmp_path, name):
    # every variant: the transfers are filled against the expected payment
    # the report states, so a feasible report's budget slack is exactly 0
    for key, code, caps, solution in pool_solutions(tmp_path, name):
        if code != 2:  # infeasible
            assert (code, solution["slacks"]["ir"]) == (0, 0.0), key
            check_participation_slacks(key, caps, solution)


@pytest.mark.parametrize("name", workload_names("arbitrary"))
def test_arbitrary_transfers_are_the_caps(tmp_path, name):
    # every variant: each transfer is its cap, so every participation
    # slack is exactly 0.0
    for key, _, caps, solution in pool_solutions(tmp_path, name):
        assert solution["transfers"] == caps, key
        assert all(slack == 0.0 for slack in solution["slacks"]["ic"]), key


if __name__ == "__main__":
    # Re-record golden/pool-digests.json after a deliberate change to a report:
    #   PYTHONPATH=src python tests/test_pool_reports.py
    with tempfile.TemporaryDirectory() as scratch:
        digests = {}
        for name in workloads.WORKLOADS:
            digests.update(workload_digests(Path(scratch), name))
    DIGESTS.write_text(reference_json(digests), encoding="utf-8")
