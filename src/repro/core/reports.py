"""Report types every selection launch produces.

A *report* is the caller-facing record of one answered query: the value(s),
the target rank(s), and the launch evidence (simulated-time breakdown,
per-iteration statistics and, on a fresh launch, the raw
:class:`~repro.machine.engine.SPMDResult`).
Three shapes exist:

* :class:`SelectionReport` — one rank, one value (``select`` / ``median``
  and every per-quantile view);
* :class:`MultiSelectionReport` — a whole set of ranks answered by one
  batched contraction (``multi_select`` and coalesced Session flushes);
* :class:`_RunReport` — the shared base carrying the launch metrics.

Reports served from a :class:`~repro.core.session.Session` result cache set
``cached=True``: the values and simulated metrics are those of the
originating launch (selection is deterministic per plan), but no new SPMD
launch was paid for them. A cached report equals the originating one on
every field but ``cached`` and ``result`` (``None``: the cache keeps the
answer and one rank's evidence, never the launch's per-rank
``SPMDResult``). ``balance_time`` and :meth:`_RunReport.collective_rounds`
read fields filled at report assembly, so they answer the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine.clock import TimeBreakdown
from ..machine.engine import SPMDResult
from ..selection import MultiSelectionStats, SelectionStats

__all__ = ["PrefilterStats", "SelectionReport", "MultiSelectionReport"]


@dataclass(frozen=True)
class PrefilterStats:
    """Evidence of one sketch-accelerated pre-filter pass.

    Produced inside the SPMD launch by :mod:`repro.stream.refine` and
    carried on the run's stats (``report.stats.prefilter`` /
    ``report.prefilter``): how small the merged sketch was, what fraction
    of the keys survived into the exact contraction, and roughly how many
    contraction rounds the pre-filter saved.
    """

    #: Sketch accuracy parameter the plan requested.
    eps: float
    #: Stored keys in the merged (cross-rank) sketch.
    sketch_size: int
    #: Total keys in the queried array.
    n: int
    #: Keys that survived the candidate-interval pre-filter globally.
    survivors: int
    #: Disjoint candidate key intervals after merging per-rank bounds.
    intervals: int
    #: Contraction iterations the pre-filter skipped (a ``log2(n /
    #: survivors)`` halving estimate — each skipped iteration is a full
    #: partition pass plus its collectives).
    rounds_saved: int
    #: True when the sketch bounds failed verification against the exact
    #: counts and the launch fell back to the full input (never expected;
    #: kept as a safety valve and visible evidence).
    fallback: bool = False
    #: True when the local sketches were prebuilt at ingest time (a
    #: :class:`~repro.stream.stream.StreamingArray` maintains them per
    #: append) rather than built inside the query launch.
    prebuilt: bool = False

    @property
    def survivor_fraction(self) -> float:
        """Surviving fraction of the input (``1.0`` on fallback)."""
        if self.n <= 0:
            return 1.0
        return self.survivors / self.n


@dataclass
class _RunReport:
    """Metrics every selection launch produces (single- or multi-rank)."""

    n: int
    p: int
    algorithm: str
    balancer: str
    simulated_time: float
    wall_time: float
    breakdown: TimeBreakdown
    #: The launch's raw per-rank evidence (every rank's return value, clock
    #: and breakdown, and the trace); None on reports served from the cache.
    result: SPMDResult | None = field(repr=False, default=None)
    #: True when this report was served from a Session's result cache (the
    #: metrics describe the originating launch; no new launch happened).
    cached: bool = False
    #: Name of the execution backend that ran the launch (``"serial"``,
    #: ``"threaded"`` or ``"process"``; cached reports carry the backend of
    #: the originating launch).
    backend: str = ""
    #: Name of the machine topology the launch's collectives were lowered
    #: onto (``"crossbar"``, ``"binomial-tree"``, ``"hypercube"``,
    #: ``"two-level"``; cached reports carry the originating launch's).
    topology: str = ""
    #: The cost model's closed-form *prediction* of the launch's simulated
    #: time (:func:`repro.selection.cost.predict` on the launch's
    #: topology), attached at report assembly for single-target launches of
    #: the four algorithms with closed forms; ``None`` when no prediction
    #: exists (hybrids, sort-based, multi-target batches, sketch-prefiltered
    #: launches). The predicted-vs-actual residual (:attr:`cost_residual`)
    #: feeds the planner's residual store.
    predicted_time: float | None = None
    #: Simulated seconds spent load balancing (max across ranks).
    balance_time: float = 0.0
    #: The launch's per-collective round summary (see
    #: :meth:`collective_rounds`); empty when the launch was untraced.
    rounds: dict = field(default_factory=dict, repr=False)

    @property
    def cost_residual(self) -> float | None:
        """Actual minus predicted simulated seconds (positive = the model
        under-priced the launch); ``None`` without a prediction."""
        if self.predicted_time is None:
            return None
        return self.simulated_time - self.predicted_time

    @property
    def prefilter(self) -> PrefilterStats | None:
        """Sketch pre-filter evidence (``None`` for plain runs)."""
        return getattr(getattr(self, "stats", None), "prefilter", None)

    def collective_rounds(self) -> dict:
        """Per-collective round evidence of the launch, from the trace.

        ``{op: {"calls", "rounds", "max_congestion"}}`` — how many rounds
        each collective's topology schedule executed and the worst
        per-round message pile-up on one rank. Requires the machine to
        run with ``trace=True``; empty otherwise (and for cached reports
        whose originating launch was untraced)."""
        return {op: dict(row) for op, row in self.rounds.items()}


@dataclass
class SelectionReport(_RunReport):
    """Everything a run of :func:`repro.select` produced."""

    value: object = None
    k: int = 0
    stats: SelectionStats = field(default_factory=SelectionStats)


@dataclass
class MultiSelectionReport(_RunReport):
    """Everything a run of :func:`repro.multi_select` produced.

    ``values`` aligns with the caller's ``ks`` (duplicates included, input
    order preserved); the simulated metrics cover the whole batched run —
    one SPMD launch answered every rank.
    """

    values: list = field(default_factory=list)
    ks: list[int] = field(default_factory=list)
    stats: MultiSelectionStats = field(default_factory=MultiSelectionStats)

    def __len__(self) -> int:
        return len(self.values)
