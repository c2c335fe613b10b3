"""overseer: supervisor synthesis for safe Petri nets.

Given a plant model and a description of what must never happen, the
toolkit partitions the reachable states, reduces the forbidden border
to a minimal set of token-sum constraints, realizes each constraint as
a control place, and verifies that the closed loop reproduces exactly
the authorized behavior.
"""

from .cover import (
    CoverTable,
    build_cover_table,
    check_final_coverage,
    select_final_cover,
)
from .errors import (
    ForbiddenInitialMarking,
    InitialMarkingViolation,
    NonBinaryController,
    OverseerError,
    OverseerWarning,
    PnetError,
    PnetSyntaxError,
    SafenessViolation,
    StageFailure,
    StateBudgetExceeded,
    UncoverableState,
    UnknownPlaceName,
    VerificationFailure,
)
from .net import (
    DEFAULT_STATE_BUDGET,
    Marking,
    PetriNet,
    ReachabilityGraph,
    build_reachability_graph,
    canonical_order,
)
from .overstates import overstate_union
from .partition import (
    BadStateSpec,
    StatePartition,
    deadlocks,
    partition_states,
)
from .pipeline import PipelineResult, run_pipeline
from .pnet import NetDocument, parse_net, parse_net_file, serialize_net
from .predicate import parse_predicate, predicate_places
from .report import SynthesisReport, canonical_digest
from .synthesis import (
    ClosedLoopReport,
    Controller,
    assemble_controlled_net,
    build_constraint_matrix,
    empty_controller,
    synthesize,
    verify_closed_loop,
)

__version__ = "1.0.0"

__all__ = [
    "BadStateSpec",
    "ClosedLoopReport",
    "Controller",
    "CoverTable",
    "DEFAULT_STATE_BUDGET",
    "ForbiddenInitialMarking",
    "InitialMarkingViolation",
    "Marking",
    "NetDocument",
    "NonBinaryController",
    "OverseerError",
    "OverseerWarning",
    "PetriNet",
    "PipelineResult",
    "PnetError",
    "PnetSyntaxError",
    "ReachabilityGraph",
    "SafenessViolation",
    "StageFailure",
    "StateBudgetExceeded",
    "StatePartition",
    "SynthesisReport",
    "UncoverableState",
    "UnknownPlaceName",
    "VerificationFailure",
    "assemble_controlled_net",
    "build_constraint_matrix",
    "build_cover_table",
    "build_reachability_graph",
    "canonical_digest",
    "canonical_order",
    "check_final_coverage",
    "deadlocks",
    "empty_controller",
    "overstate_union",
    "parse_net",
    "parse_net_file",
    "parse_predicate",
    "partition_states",
    "predicate_places",
    "run_pipeline",
    "select_final_cover",
    "serialize_net",
    "synthesize",
    "verify_closed_loop",
]
