"""The numpy-free layers give the same bits on every Python present.

``core``, ``discretize`` and ``mechanisms`` import nothing outside the
standard library, and together they produce every number a ``solve``
report states once its distribution is chosen: the ``grid`` section,
the ``solution`` section through ``mechanisms.certify`` and the
package's own transfer rules, and the ``baseline`` section.  Each pyenv
interpreter present (3.10, 3.12, 3.13) recomputes those sections from
the instance bytes and the reported distribution of variant 0 of every
benchmark pool slot, and every number must match the report made here
by ``float.hex``.  The running interpreter does the same, so the check
holds where no other one is installed.

The instance bytes are made here and handed over: under Python 3.12 and
later the pool generator writes other bytes for two of its instances.
``bidcoord/__init__`` imports numpy, so the subprocess registers a bare
``bidcoord`` package module and loads the three modules on their own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_pool_reports import solve, workloads

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bidcoord"
PYENV_VERSIONS = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"

#: Run as ``python -c RECOMPUTE`` with [package path, cases] on stdin;
#: prints {key: sections} as JSON, whose floats read back bit for bit.
RECOMPUTE = r"""
import json, math, sys, types, warnings

path, cases = json.load(sys.stdin)
package = types.ModuleType("bidcoord")
package.__path__ = [path]
sys.modules["bidcoord"] = package
from bidcoord.core import BidProfile, ordered_sum, validate_and_normalize
from bidcoord.discretize import pruned_grid
from bidcoord.mechanisms import (
    arbitrary_transfers, certify, expected_outcome, individual_baseline, ll_transfers,
)

RULES = {"arbitrary": arbitrary_transfers, "limited-liability": ll_transfers}

warnings.simplefilter("ignore")  # cent bids warn about their bit count
sections = {}
for key, raw, mode, epsilon, distribution in cases:
    instance = validate_and_normalize(json.loads(raw))
    p = instance.threshold(epsilon)
    grid = pruned_grid(instance, p)
    outcomes = [
        (expected_outcome(instance, BidProfile(tuple(e["levels"]), tuple(e["tie_ranks"]))),
         e["probability"])
        for e in distribution
    ]
    solution = certify(instance, outcomes, RULES[mode], p)
    utilities = individual_baseline(instance)
    cumulative = ordered_sum(utilities)
    sections[key] = {
        "grid": {
            "p": grid.p,
            "eta": grid.eta,
            "max_bits": 1 - math.frexp(grid.eta)[1],
            "k_star": grid.k_star,
            "rec_calls": grid.rec_calls,
            "flat_size": grid.k_star * instance.n_colluders,
            "pruned_size": len(grid.levels),
            "pruned_levels": grid.levels,
        },
        "solution": {
            "distribution": [
                {"levels": profile.levels, "tie_ranks": profile.tie_ranks, "probability": prob}
                for profile, prob in solution.distribution
            ],
            "transfers": solution.transfers,
            "objective": solution.objective,
            "relaxation": solution.relaxation,
            "slacks": {"ic": solution.ic_slacks, "ir": solution.ir_slack},
            "expected_revenue": solution.expected_revenue,
            "expected_payment": solution.expected_payment,
        },
        "baseline": {
            "individual_utilities": utilities,
            "cumulative": cumulative,
            "ratio": solution.objective / cumulative if cumulative > 0.0 else None,
        },
    }
assert not [name for name in sys.modules if name.split(".")[0] == "numpy"]
json.dump(sections, sys.stdout)
"""


def hexed(value):
    """A parsed JSON value with every float as its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [hexed(item) for item in value]
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    return value


@pytest.fixture(scope="module")
def pool_reports(tmp_path_factory) -> tuple[list, dict]:
    """The recomputation cases of every variant-0 pool report, all of
    them feasible, and the reports' sections with every float hexed, by
    key."""
    directory = tmp_path_factory.mktemp("pool")
    cases, expected = [], {}
    for name, workload in workloads.WORKLOADS.items():
        for slot in range(len(workload.shapes)):
            report = json.loads(solve(directory, name, slot, 0)[1])
            key = f"{name}/{slot}"
            raw = workloads.pool_instance(name, slot, 0).decode()
            distribution = report["solution"]["distribution"]
            cases.append([key, raw, workload.mode, workloads.EPSILON, distribution])
            expected[key] = hexed({s: report[s] for s in ("grid", "solution", "baseline")})
    return cases, expected


@pytest.mark.parametrize("minor", ["running", "3.10", "3.12", "3.13"])
def test_numpy_free_layers_agree(pool_reports, minor):
    # the pyenv shims of absent versions fail, and a bare python3.13 on
    # PATH may be another build, so each version's own binary runs
    if minor == "running":
        found = [Path(sys.executable)]
    else:
        found = sorted(PYENV_VERSIONS.glob(f"{minor}.*/bin/python3"))
    if not found:
        pytest.skip(f"no Python {minor} under {PYENV_VERSIONS}")
    cases, expected = pool_reports
    stdin = json.dumps([str(PACKAGE), cases])
    for python in found:
        done = subprocess.run(
            [str(python), "-I", "-c", RECOMPUTE], input=stdin, capture_output=True, text=True
        )
        assert done.returncode == 0, (python, done.stderr)
        assert hexed(json.loads(done.stdout)) == expected, python
