"""The expected arc tables of every benchmark pool instance, all
variants, against the loop over support entries in ``oracles``, bit for
bit.

``golden/pool-digests.json`` pins the reports of variant 0 only; this
covers the tables behind all eight variants of every slot, in
expectation and for a fixed external profile, on the grid ``solve``
builds for them.
"""

import json
import warnings

import pytest

from bidcoord.core import validate_and_normalize
from bidcoord.discretize import pruned_grid
from bidcoord.wup import expected_tables
from conftest import fixed_external, load_workloads
from oracles import entrywise_expected_tables

workloads = load_workloads()


def table_bytes(tables):
    return tables.levels, [
        (array.shape, array.tobytes())
        for array in (tables.revenue, tables.payment, tables.sink_payment)
    ]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_pool_tables_match_entrywise_reference(name):
    for slot in range(len(workloads.WORKLOADS[name].shapes)):
        for variant in range(workloads.VARIANTS):
            raw = json.loads(workloads.pool_instance(name, slot, variant))
            instance = validate_and_normalize(raw)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # cent bids warn about their bit count
                levels = pruned_grid(instance, workloads.EPSILON / instance.n_colluders).levels
            fixed = fixed_external(instance, instance.external.support[-1][0])
            for query in (instance, fixed):
                got = expected_tables(query, levels)
                ref = entrywise_expected_tables(query, levels)
                assert table_bytes(got) == table_bytes(ref), (slot, variant, query is fixed)
