"""The four parallel selection algorithms (paper Section 3) + hybrids.

All of them share the contraction engine of :mod:`repro.selection.engine`
(iterate-shrink-endgame with pluggable pivot strategies); each algorithm
module contributes only its pivot rule. One launch program,
:class:`SelectionProgram`, runs every selection: one target rank is the
``q = 1`` case of multiple selection.

Registry keys (used by :class:`~repro.core.plan.SelectionPlan` and the
bench harness):

=========================  ==============================================
``median_of_medians``      Algorithm 1 (deterministic; needs balancing)
``bucket_based``           Algorithm 2 (deterministic; no balancing)
``randomized``             Algorithm 3 (expected O(log n) iterations)
``fast_randomized``        Algorithm 4 (O(log log n) iterations w.h.p.)
``hybrid_median_of_medians``  Section 5 hybrid of Algorithm 1
``hybrid_bucket_based``       Section 5 hybrid of Algorithm 2
``sort_based``                related-work baseline: full sort + index
=========================  ==============================================

:data:`ALGORITHM_SPECS` holds each key's facts; :data:`ALGORITHMS` names
every key and :data:`STRATEGIES` the keys that run the contraction engine
(all but ``sort_based``, where one full sort answers every rank).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..kernels.select import SelectMethod
from ..machine.engine import ProcContext
from .base import IterationRecord, SelectionConfig, SelectionStats, endgame_threshold
from .bucket_based import BucketStrategy
from .engine import (
    ContractionEngine,
    MultiSelectionStats,
    PivotStrategy,
    contract_multi_select,
)
from .fast_randomized import FastRandomizedParams, FastRandomizedStrategy
from .median_of_medians import MedianOfMediansStrategy
from .randomized import RandomizedStrategy
from .sort_based import sort_based_multi_select


class AlgorithmSpec(NamedTuple):
    """What the launch program and the plan need to know of one algorithm."""

    #: ``fast_params -> PivotStrategy`` for the contraction engine; ``None``
    #: for ``sort_based``.
    strategy: Callable[[FastRandomizedParams | None], PivotStrategy] | None
    #: The paper's sequential kernel for local medians and the endgame.
    sequential_method: SelectMethod
    #: Pivot guarantee assumes near-equal local counts: the plan's
    #: ``balancer="default"`` pairs it with global exchange.
    needs_balancing: bool


#: name -> per-algorithm facts.
ALGORITHM_SPECS: dict[str, AlgorithmSpec] = {
    "median_of_medians": AlgorithmSpec(
        lambda fast_params: MedianOfMediansStrategy(), "deterministic", True),
    "bucket_based": AlgorithmSpec(
        lambda fast_params: BucketStrategy(), "deterministic", False),
    "randomized": AlgorithmSpec(
        lambda fast_params: RandomizedStrategy(), "randomized", False),
    "fast_randomized": AlgorithmSpec(FastRandomizedStrategy, "randomized",
                                     False),
    # Section 5's hybrids split each deterministic algorithm into its
    # parallel part (combine local results across processors) and its
    # sequential part (local selections), and swap the sequential kernels
    # for randomized ones to see where the randomized algorithms' advantage
    # comes from. They land between the two families: for large n most of
    # the gap is sequential, for large p it is parallel. A hybrid is its
    # parent's strategy with the randomized kernel whatever the plan asks
    # (SelectionPlan.resolve forces it).
    "hybrid_median_of_medians": AlgorithmSpec(
        lambda fast_params: MedianOfMediansStrategy(), "randomized", True),
    "hybrid_bucket_based": AlgorithmSpec(
        lambda fast_params: BucketStrategy(), "randomized", False),
    "sort_based": AlgorithmSpec(None, "randomized", False),
}

#: Every algorithm name a plan accepts.
ALGORITHMS: tuple[str, ...] = tuple(ALGORITHM_SPECS)

#: The algorithms that run the contraction engine (all but ``sort_based``).
STRATEGIES: tuple[str, ...] = tuple(
    name for name, spec in ALGORITHM_SPECS.items() if spec.strategy is not None
)


@dataclass(frozen=True)
class SelectionProgram:
    """The one SPMD selection program: every launch, one target or many.

    ``program(ctx, shard, ks_sorted, cfg)`` answers every rank in
    ``ks_sorted`` (ascending, distinct) over this rank's ``shard`` and
    returns ``(values, MultiSelectionStats)`` on every rank. It carries the
    algorithm *name* and resolves the strategy on the executing rank (the
    factories are lambdas, which cannot cross a process boundary), so the
    ``pool`` backend can ship it to its running workers.
    """

    algorithm: str
    fast_params: FastRandomizedParams | None = None

    def __call__(self, ctx: ProcContext, shard, ks_sorted: list[int],
                 cfg: SelectionConfig) -> tuple[list, MultiSelectionStats]:
        factory = ALGORITHM_SPECS[self.algorithm].strategy
        if factory is None:
            return sort_based_multi_select(ctx, shard, ks_sorted, cfg)
        return contract_multi_select(
            ctx, shard, ks_sorted, cfg, factory(self.fast_params),
            algorithm=self.algorithm,
        )


__all__ = [
    "ALGORITHMS",
    "ALGORITHM_SPECS",
    "STRATEGIES",
    "AlgorithmSpec",
    "ContractionEngine",
    "IterationRecord",
    "MultiSelectionStats",
    "PivotStrategy",
    "SelectionConfig",
    "SelectionProgram",
    "SelectionStats",
    "contract_multi_select",
    "endgame_threshold",
    "BucketStrategy",
    "FastRandomizedParams",
    "FastRandomizedStrategy",
    "MedianOfMediansStrategy",
    "RandomizedStrategy",
    "sort_based_multi_select",
]
