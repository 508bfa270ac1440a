"""Coordinated-bidding solver toolkit for GSP/VCG position auctions.

An agency managing a group of advertisers picks their bids jointly and
settles up through monetary transfers, subject to each advertiser's
outside option and the agency's budget.  This package provides exact
mechanism accounting, a graph-based weighted-utility optimizer over
discretized bids, and approximation solvers for both the unrestricted
and the no-payout (limited-liability) transfer regimes.
"""

from .arbitrary import solve_arbitrary
from .core import (
    GSP,
    VCG,
    AgencySolution,
    AuctionInstance,
    BidProfile,
    ExternalDistribution,
    InfeasibleError,
    InstanceError,
    ToleranceError,
    instance_to_raw,
    make_profile,
    validate_and_normalize,
)
from .discretize import BidGrid, build_grid, project_to_grid
from .limited import DualValues, solve_ll
from .mechanisms import expected_outcome, individual_baseline
from .wup import WupWeights, solve_wup_expected

__version__ = "0.1.0"

__all__ = [
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
