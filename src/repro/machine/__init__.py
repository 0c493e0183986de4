"""The coarse-grained parallel machine substrate (paper Section 2).

This subpackage is the simulated CM-5: an SPMD launcher (:mod:`.engine`)
over pluggable execution backends (:mod:`.backends` — ``serial`` /
``threaded`` / ``process`` / ``pool``), the six communication primitives
lowered onto per-round schedules by pluggable machine shapes
(:mod:`.topology` — ``crossbar`` / ``binomial-tree`` / ``hypercube`` /
``two-level``) via :mod:`.collectives` / :mod:`.comm`, logical clocks with a
compute/comm/balance breakdown (:mod:`.clock`), and the calibrated —
optionally hierarchical — cost model itself (:mod:`.cost_model`).
"""

from .backends import (
    BACKENDS,
    ExecutionBackend,
    available_backends,
    default_backend_name,
    get_backend,
    resolve_backend,
)
from .barrier import AbortableBarrier
from .clock import Category, LogicalClock, TimeBreakdown
from .collectives import CollectiveEngine, SharedRendezvous, payload_words
from .comm import Comm
from .cost_model import (
    CM5,
    ComputeCosts,
    CostModel,
    cm5,
    cm5_fast_network,
    cm5_two_level,
    zero_cost_model,
)
from .engine import ProcContext, SPMDResult, SPMDRuntime, run_spmd
from .topology import (
    TOPOLOGIES,
    BinomialTreeTopology,
    CrossbarTopology,
    HypercubeTopology,
    Schedule,
    Topology,
    Transfer,
    TwoLevelTopology,
    available_topologies,
    default_topology_spec,
    hypercube_dimensions,
    hypercube_partner,
    hypercube_rounds,
    is_power_of_two,
    log2_ceil,
    next_power_of_two,
    resolve_topology,
    validate_topology_spec,
)
from .trace import NullTracer, TraceEvent, Tracer

__all__ = [
    "AbortableBarrier",
    "BACKENDS",
    "ExecutionBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "resolve_backend",
    "Category",
    "LogicalClock",
    "TimeBreakdown",
    "CollectiveEngine",
    "SharedRendezvous",
    "payload_words",
    "Comm",
    "CM5",
    "ComputeCosts",
    "CostModel",
    "cm5",
    "cm5_fast_network",
    "cm5_two_level",
    "zero_cost_model",
    "ProcContext",
    "SPMDResult",
    "SPMDRuntime",
    "run_spmd",
    "TOPOLOGIES",
    "BinomialTreeTopology",
    "CrossbarTopology",
    "HypercubeTopology",
    "Schedule",
    "Topology",
    "Transfer",
    "TwoLevelTopology",
    "available_topologies",
    "default_topology_spec",
    "hypercube_dimensions",
    "hypercube_partner",
    "hypercube_rounds",
    "is_power_of_two",
    "log2_ceil",
    "next_power_of_two",
    "resolve_topology",
    "validate_topology_spec",
    "NullTracer",
    "TraceEvent",
    "Tracer",
]
