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

import contextlib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest

from bidcoord.cli import main
from conftest import load_workloads

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


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_pool_report_digests(tmp_path, name):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    recorded = {key: value for key, value in expected.items() if key.startswith(f"{name}/")}
    assert workload_digests(tmp_path, name) == recorded


@pytest.mark.parametrize(
    "name", [name for name, w in workloads.WORKLOADS.items() if w.mode == "limited-liability"]
)
def test_ll_transfers_cover_the_stated_payment(tmp_path, name):
    # every variant: the transfers are filled against the expected payment
    # the report states, so a feasible report's budget slack is exactly 0
    for slot in range(len(workloads.WORKLOADS[name].shapes)):
        for variant in range(workloads.VARIANTS):
            code, text = solve(tmp_path, name, slot, variant)
            if code != 2:  # infeasible
                assert (code, json.loads(text)["solution"]["slacks"]["ir"]) == (0, 0.0), \
                    f"{name}/{slot}/{variant}"


if __name__ == "__main__":
    # Re-record golden/pool-digests.json after a deliberate change to a report:
    #   PYTHONPATH=src python tests/test_pool_reports.py
    with tempfile.TemporaryDirectory() as scratch:
        digests = {}
        for name in workloads.WORKLOADS:
            digests.update(workload_digests(Path(scratch), name))
    DIGESTS.write_text(reference_json(digests), encoding="utf-8")
