"""The package's top-level names, pinned: adding or dropping one is a
decision made here, not a side effect of a refactor."""

import dataclasses
import inspect

import bidcoord
import bidcoord.arbitrary
import bidcoord.discretize
import bidcoord.mechanisms
import bidcoord.wup

PUBLIC = [
    "GSP",
    "VCG",
    "AgencySolution",
    "AuctionInstance",
    "BidGrid",
    "BidProfile",
    "DualValues",
    "ExternalDistribution",
    "InfeasibleError",
    "InstanceError",
    "ToleranceError",
    "WupWeights",
    "build_grid",
    "expected_outcome",
    "individual_baseline",
    "instance_to_raw",
    "make_profile",
    "project_to_grid",
    "solve_arbitrary",
    "solve_ll",
    "solve_wup_expected",
    "validate_and_normalize",
]


def test_all_is_pinned():
    assert bidcoord.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(bidcoord, name), name
    # dropped from the top level; the witness search stays in its module
    for name in ("solve_wup_fixed", "check_assumption1", "Assumption1Report"):
        assert not hasattr(bidcoord, name), name
    # deleted: ``mechanisms.certify`` computes the participation slacks
    assert not hasattr(bidcoord, "check_delta_ic")
    assert not hasattr(bidcoord.core, "check_delta_ic")
    assert callable(bidcoord.arbitrary.check_assumption1)
    # deleted: a fixed external profile's outcome is ``expected_outcome``
    # on its one-entry distribution
    assert not hasattr(bidcoord, "single_outcome")
    assert not hasattr(bidcoord.mechanisms, "Outcome")
    assert not hasattr(bidcoord.wup, "solve_wup_fixed")
    # deleted: the full split is its levels, each interval running to the
    # next level or to 1 (``PrunedGrid.full_levels``)
    for name in ("Interval", "IntervalSet"):
        assert not hasattr(bidcoord, name), name
        assert not hasattr(bidcoord.discretize, name), name
    assert not hasattr(bidcoord.discretize.PrunedGrid, "intervals")
    # deleted: a bid profile is its levels and tie ranks, and
    # ``BidProfile.ranking`` states the ranking rule
    assert not hasattr(bidcoord, "Bid")
    assert not hasattr(bidcoord.core, "Bid")
    profile = bidcoord.make_profile([0.5])
    assert not hasattr(profile, "bids")
    assert [f.name for f in dataclasses.fields(profile)] == ["levels", "tie_ranks"]
    # deleted: an instance is its valuation and outside-option tuples,
    # indexed in the normalized colluder order
    assert not hasattr(bidcoord, "Colluder")
    assert not hasattr(bidcoord.core, "Colluder")
    assert [f.name for f in dataclasses.fields(bidcoord.AuctionInstance)] == [
        "slots", "valuations", "outside_options", "external", "mechanism"
    ]
    # deleted: the master has no transfer columns and no budget row, so
    # no budget dual
    assert [f.name for f in dataclasses.fields(bidcoord.DualValues)] == ["y", "z"]
    # deleted: an outcome carries its profile, so a master column is its
    # profile's ``ExpectedOutcome``; ``make_column`` stays its own
    # function, since perfbench's tracer wraps the two by identity
    assert not hasattr(bidcoord.limited, "Column")
    assert [f.name for f in dataclasses.fields(bidcoord.mechanisms.ExpectedOutcome)] == [
        "revenue", "payment", "profile"
    ]
    assert bidcoord.limited.make_column is not bidcoord.mechanisms.expected_outcome


def test_one_query_form():
    # a fixed external profile is a one-entry distribution on the
    # instance, not an extra argument of the table builders
    def params(func):
        return list(inspect.signature(func).parameters)

    assert params(bidcoord.wup.expected_tables) == ["instance", "grid_levels"]
    assert params(bidcoord.wup.build_wup_graph) == ["grid_levels", "weights", "instance"]
