"""The ``solve`` grid section of the benchmark's cent-bid pool instances,
against the one formatted from the full grid.

Cent bids are not dyadic, so eta = 2^-53 and nearly every interval of
the full split lies on a chain of bisections that ``pruned_grid``
closes in closed form; ``build_grid`` still builds them one by one.
"""

import json
import warnings

import pytest

from bidcoord.cli import main
from bidcoord.core import validate_and_normalize
from bidcoord.discretize import build_grid, max_bits
from bidcoord.oracles import prune_levels
from conftest import load_workloads

workloads = load_workloads()
CENT_SLOTS = [
    (name, slot)
    for name in ("arb-grid", "ll-cg")
    for slot, shape in enumerate(workloads.WORKLOADS[name].shapes)
    if shape.bits == 0
]


def full_grid_section(raw: dict, p: float) -> dict:
    instance = validate_and_normalize(raw)
    walk, grid = build_grid(instance, p)
    pruned = list(prune_levels(grid.levels, instance.external))
    return {
        "p": p,
        "eta": walk.eta,
        "max_bits": max_bits(instance.external),
        "k_star": len(grid.levels),
        "rec_calls": walk.rec_calls,
        "flat_size": len(grid.levels) * instance.n_colluders,
        "pruned_size": len(pruned),
        "pruned_levels": pruned,
    }


@pytest.mark.parametrize("name, slot", CENT_SLOTS)
def test_cent_bid_grid_sections(tmp_path, capsys, name, slot):
    mode = workloads.WORKLOADS[name].mode
    for variant in range(workloads.VARIANTS):
        data = workloads.pool_instance(name, slot, variant)
        path = tmp_path / f"{variant}.json"
        path.write_bytes(data)
        raw = json.loads(data)
        p = workloads.EPSILON / len(raw["colluders"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["solve", str(path), "--mode", mode,
                         "--epsilon", repr(workloads.EPSILON)])
            expected = full_grid_section(raw, p)
        report = json.loads(capsys.readouterr().out)
        assert code in (0, 2), (variant, code)
        if "error" in report:  # an infeasible LL instance reports no grid
            assert report["error"]["kind"] == "infeasible"
            continue
        assert report["grid"] == expected, variant
