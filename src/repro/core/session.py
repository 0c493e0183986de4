"""The serving layer: :class:`Session` — query coalescing + result caching.

The paper's algorithms answer one query per SPMD launch; PR 1's contraction
engine already answers a whole *set* of ranks in one launch. A Session is
the API that lets callers exploit that without hand-assembling rank
batches:

* **Deferred queries.** ``session.select(data, k)``, ``.median(data)`` and
  ``.quantiles(data, qs)`` return lightweight futures immediately; nothing
  launches until :meth:`Session.flush` (or context-manager exit, or the
  first ``future.result()``).
* **Coalescing.** ``flush()`` groups every pending rank query by
  ``(array fingerprint, plan)`` and answers each group with ONE
  ``multi_select`` SPMD launch through the batched contraction engine —
  ``q`` same-array queries cost one launch, not ``q``.
* **Result cache.** Answers are cached per ``(array fingerprint, plan,
  rank)``; re-queried ranks are served with ZERO new launches (selection is
  deterministic per plan, so cached values *and* simulated metrics are
  exactly what a relaunch would produce). An entry keeps the answer and a
  slim launch record (:class:`_LaunchMetrics`: the launch-wide metrics, the
  critical rank's breakdown and rank 0's stats), never the launch's
  per-rank ``SPMDResult`` — so a fresh-key workload grows the cache by one
  rank's evidence per query, not ``p``. Reports served from cache set
  ``cached=True`` and ``result=None``; every other field equals the
  originating report's.
* **Immediate paths.** :meth:`run_select` / :meth:`run_multi_select` /
  :meth:`run_quantiles` answer now (still cache-aware). ``run_select`` is
  a one-target launch, so a rank costs the same simulated time whichever
  path asks for it.

Module-level :func:`execute_multi_select` is the uncached launch
primitive: every query, one rank or many, is one launch of the one
selection program (:class:`~repro.selection.SelectionProgram`).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..kernels.select import median_rank
from ..machine.clock import TimeBreakdown
from ..obs import get_recorder
from ..obs.metrics import REGISTRY
from ..selection import MultiSelectionStats, SelectionStats
from ..selection.cost import predict
from .plan import SelectionPlan, as_plan, validate_rank, validate_targets
from .reports import MultiSelectionReport, SelectionReport

if TYPE_CHECKING:
    from .array import DistributedArray, Machine

__all__ = [
    "Session",
    "SessionStats",
    "SelectionFuture",
    "MultiSelectionFuture",
    "execute_multi_select",
]


# --------------------------------------------------------------------------
# Launch primitive (uncached)
# --------------------------------------------------------------------------


# Shared launch plumbing: the plain path below and the sketch-prefiltered
# path of repro.stream.refine differ only in the SPMD program body (and
# its per-rank args); resolution, validation, the empty-set report and the
# report assembly live here ONCE so the two paths cannot drift apart —
# which is what keeps the "bit-identical to plain" contract honest.


def empty_multi_report(
    data: "DistributedArray", plan: SelectionPlan, balancer_name: str
) -> MultiSelectionReport:
    """The historical empty-``ks`` answer: an empty report, no launch."""
    return MultiSelectionReport(
        values=[], ks=[], n=data.n, p=data.p, algorithm=plan.algorithm,
        balancer=balancer_name, simulated_time=0.0, wall_time=0.0,
        breakdown=TimeBreakdown(),
        stats=MultiSelectionStats(algorithm=plan.algorithm, n=data.n,
                                  p=data.p),
        backend=plan.backend or data.machine.backend_name,
        # Reports carry the topology *name* (a plan spec may append a
        # ":<cluster_size>" parameter).
        topology=(plan.topology or data.machine.topology_name).split(":")[0],
    )


def predict_simulated(plan: SelectionPlan, n: int, p: int, model,
                      topology) -> float | None:
    """Closed-form predicted simulated seconds for one launch, or ``None``.

    :func:`repro.selection.cost.predict` on the topology the launch
    resolved against — a spec string, a
    :class:`~repro.machine.topology.Topology` instance, or ``None`` for
    the default. Only the four algorithms with closed forms predict —
    hybrids and sort-based plans return ``None`` rather than a
    knowingly-wrong number, as do sketch-prefiltered launches (they do
    work the closed forms don't model).
    """
    if n <= 0 or plan.prefilter is not None:
        return None
    try:
        return predict(plan.algorithm, n, p, model, topology).total
    except ConfigurationError:
        return None


def observe_launch(data: "DistributedArray", plan: SelectionPlan,
                   ks: Sequence[int], result, stats,
                   predicted: float | None) -> None:
    """Post-launch observability: residual metric + launch-span enrichment.

    Always records the predicted-vs-actual residual histogram (the metrics
    registry is process-wide and cheap); span work only happens when a
    capture is active AND the runtime attached a span to the result. Pure
    bookkeeping — never touches values, RNG or simulated time.
    """
    residual = (result.simulated_time - predicted
                if predicted is not None else None)
    if residual is not None:
        REGISTRY.histogram(
            "repro.launch.cost_residual", algorithm=plan.algorithm
        ).observe(residual)
        # Self-calibration: the planner's residual store learns a
        # per-(algorithm, topology, p-bucket) correction from every
        # predicted launch (lazy import: the planner imports core).
        from ..planner.residuals import default_store

        default_store().observe(plan.algorithm, result.topology, data.p,
                                predicted, result.simulated_time)
    recorder = get_recorder()
    span = getattr(result, "span", None)
    if not recorder.enabled or span is None or not span:
        return
    prefilter = getattr(stats, "prefilter", None)
    span.set(
        algorithm=plan.algorithm,
        n=data.n,
        ks=list(ks),
        iterations=stats.n_iterations,
        predicted_s=predicted,
        residual_s=residual,
        survivor_fraction=(prefilter.survivor_fraction
                           if prefilter is not None else None),
    )
    # Iteration spans from the engine's deterministic sim-clock stamps
    # (rank 0's view), laid onto the launch span's cumulative sim axis.
    base = span.sim_t0 if span.sim_t0 is not None else 0.0
    last = base
    for i, rec in enumerate(stats.iterations):
        recorder.add(
            "iteration", parent=span,
            sim_t0=base + rec.t_sim0, sim_t1=base + rec.t_sim1,
            index=i, n_before=rec.n_before, n_after=rec.n_after,
            balanced=rec.balanced, successful=rec.successful,
        )
        last = base + rec.t_sim1
    if getattr(stats, "endgame_n", 0):
        recorder.add("endgame", parent=span, sim_t0=last,
                     sim_t1=span.sim_t1, endgame_n=stats.endgame_n)


def finish_multi(
    data: "DistributedArray", ks: list[int], unique_ks: list[int],
    plan: SelectionPlan, balancer_name: str, result,
) -> MultiSelectionReport:
    """Unpack one batched launch result into its report (``values`` align
    with the caller's ``ks``, duplicates and input order preserved)."""
    all_values = [v[0] for v in result.values]
    stats: MultiSelectionStats = result.values[0][1]
    first = all_values[0]
    assert all(
        len(v) == len(first) and all(a == b for a, b in zip(v, first))
        for v in all_values
    ), "ranks disagree on the answers"
    by_rank = dict(zip(unique_ks, first))
    # The closed forms price a single-target contraction; batched launches
    # tracking several live intervals have no form, so don't pretend.
    predicted = (
        predict_simulated(
            plan, data.n, data.p, data.machine.cost_model,
            plan.topology if plan.topology is not None
            else data.machine.topology,
        )
        if len(unique_ks) == 1 else None
    )
    observe_launch(data, plan, ks, result, stats, predicted)
    return MultiSelectionReport(
        values=[by_rank[k] for k in ks],
        ks=ks,
        n=data.n,
        p=data.p,
        algorithm=plan.algorithm,
        balancer=balancer_name,
        simulated_time=result.simulated_time,
        wall_time=result.wall_time,
        breakdown=result.breakdown,
        stats=stats,
        result=result,
        backend=result.backend,
        topology=result.topology,
        predicted_time=predicted,
        balance_time=result.balance_time,
        rounds=result.collective_rounds(),
    )


def execute_multi_select(
    data: "DistributedArray", ks: Sequence[int], plan: SelectionPlan
) -> MultiSelectionReport:
    """One launch of the selection program answering every rank in ``ks``.

    Every rank in ``ks`` is answered by ONE contraction: the engine tracks
    the whole target set through a single iterate-shrink pass, forking the
    live set when a pivot lands between two targets, and the endgame costs
    one Gather + Broadcast however many intervals survive. One distinct
    rank is the ``q = 1`` case, priced as the paper's single-rank
    algorithm.

    Plans carrying ``prefilter="sketch"`` route to the sketch-accelerated
    exact path (:mod:`repro.stream.refine`): same answers, same launch
    accounting, smaller live set for the contraction.
    """
    if plan.algorithm == "auto":
        from ..planner.planner import resolve_auto

        plan = resolve_auto(data, plan)
    with get_recorder().span("query", kind="multi_select",
                             algorithm=plan.algorithm, n=data.n, p=data.p,
                             n_ks=len(ks)):
        if plan.prefilter == "sketch":
            from ..stream.refine import execute_sketch_multi_select

            return execute_sketch_multi_select(data, ks, plan)
        ks = validate_targets(ks, data.n)
        program, cfg, balancer_name = plan.resolve()
        if not ks:
            return empty_multi_report(data, plan, balancer_name)
        unique_ks = sorted(set(ks))
        result = data.machine.run(
            program,
            rank_args=[(s,) for s in data.shards],
            args=(unique_ks, cfg),
            backend=plan.backend,
            topology=plan.topology,
            trace=plan.trace,
        )
        return finish_multi(data, ks, unique_ks, plan, balancer_name, result)


def per_rank_view(metrics, k: int, value, cached: bool = False,
                  result=None) -> SelectionReport:
    """A per-rank :class:`SelectionReport` view of shared batched evidence.

    ``metrics`` is anything launch-shaped (a :class:`MultiSelectionReport`
    or a cache entry's :class:`_LaunchMetrics`): the view carries the
    correct target rank, a SelectionStats-shaped stats block, and iteration
    records aliased from the one launch that produced every answer.
    ``result`` is that launch's ``SPMDResult`` on a fresh answer, ``None``
    on a cached one.
    """
    return _report(
        SelectionReport, metrics, result, cached,
        value=value,
        k=k,
        stats=SelectionStats(
            algorithm=metrics.stats.algorithm,
            n=metrics.stats.n,
            p=metrics.stats.p,
            k=k,
            iterations=metrics.stats.iterations,
            endgame_n=metrics.stats.endgame_n,
            found_by_pivot=bool(metrics.stats.found_by_pivot),
            balance_invocations=metrics.stats.balance_invocations,
            unsuccessful_iterations=metrics.stats.unsuccessful_iterations,
            prefilter=metrics.stats.prefilter,
        ),
    )


def quantile_rank(q: float, n: int) -> int:
    """Quantile fraction -> 1-based rank: ``ceil(q * n)`` (``q=0.5`` is the
    paper's median). Raises for ``q`` outside ``(0, 1]``."""
    if not (0.0 < q <= 1.0):
        raise ConfigurationError(f"quantile {q!r} outside (0, 1]")
    return max(1, int(np.ceil(q * n)))


# --------------------------------------------------------------------------
# Session internals
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _LaunchMetrics:
    """The slim record of one launch: exactly what a cached report exposes.

    The launch-wide metrics, the critical rank's breakdown, rank 0's stats,
    the max-across-ranks balance time and the collective-rounds summary —
    never the ``SPMDResult``, whose every-rank values, clocks, breakdowns
    and trace events would cost ``p`` ranks' evidence per cache entry. One
    record is shared by every cache entry its launch answered.
    """

    n: int
    p: int
    algorithm: str
    balancer: str
    simulated_time: float
    wall_time: float
    breakdown: TimeBreakdown
    stats: SelectionStats | MultiSelectionStats
    backend: str
    topology: str
    predicted_time: float | None
    balance_time: float
    rounds: dict

    @classmethod
    def of(cls, report) -> "_LaunchMetrics":
        """The record of the launch that produced ``report``."""
        return cls(**{name: getattr(report, name) for name in _LAUNCH_FIELDS})


_LAUNCH_FIELDS = tuple(f.name for f in dataclasses.fields(_LaunchMetrics))


def _report(cls, metrics, result, cached: bool, **answer):
    """A ``cls`` report carrying launch-shaped ``metrics`` (a report or a
    :class:`_LaunchMetrics`); ``answer`` supplies the value(s), rank(s) and
    any replacement stats."""
    fields = {name: getattr(metrics, name) for name in _LAUNCH_FIELDS}
    fields.update(answer)
    return cls(result=result, cached=cached, **fields)


@dataclass(slots=True)
class _CacheEntry:
    """One answered rank: its value + the record of the launch that
    answered it. The only value type either cache namespace stores."""

    value: object
    metrics: _LaunchMetrics


@dataclass
class SessionStats:
    """Serving counters (what the bench/acceptance assertions read)."""

    #: Rank queries accepted (deferred futures + immediate run_* calls).
    queries: int = 0
    #: SPMD launches this session paid for.
    launches: int = 0
    #: flush() calls that found pending work.
    flushes: int = 0
    #: Deferred queries answered by a shared (coalesced) launch or cache.
    coalesced_queries: int = 0
    #: Individual ranks served from the result cache.
    cache_hits: int = 0
    #: Individual ranks that required launch work.
    cache_misses: int = 0


class _Future:
    """Base future: resolved (or failed) by the owning session's flush."""

    __slots__ = ("_session", "data", "plan", "_report", "_error")

    def __init__(self, session: "Session", data: "DistributedArray",
                 plan: SelectionPlan):
        self._session = session
        self.data = data
        self.plan = plan
        self._report = None
        self._error = None

    @property
    def done(self) -> bool:
        """True once a flush has produced this future's report (or its
        launch failed — ``result()`` then re-raises the launch error)."""
        return self._report is not None or self._error is not None

    def _await(self):
        if self._report is None and self._error is None:
            self._session.flush()
        if self._error is not None:
            raise self._error
        if self._report is None:  # pragma: no cover - internal invariant
            raise RuntimeError("flush did not resolve this future")
        return self._report


class SelectionFuture(_Future):
    """A pending single-rank query; ``result()`` flushes the session."""

    __slots__ = ("k",)

    def __init__(self, session, data, k: int, plan):
        super().__init__(session, data, plan)
        self.k = k

    @property
    def ranks(self) -> tuple[int, ...]:
        return (self.k,)

    def result(self) -> SelectionReport:
        """The :class:`SelectionReport` (coalesced flush on first call)."""
        return self._await()

    @property
    def value(self):
        """Shortcut for ``result().value``."""
        return self.result().value


class MultiSelectionFuture(_Future):
    """A pending multi-rank query; ``result()`` flushes the session."""

    __slots__ = ("ks",)

    def __init__(self, session, data, ks: list[int], plan):
        super().__init__(session, data, plan)
        self.ks = ks

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(self.ks)

    def result(self) -> MultiSelectionReport:
        """The :class:`MultiSelectionReport` (coalesced flush on first
        call)."""
        return self._await()

    @property
    def values(self) -> list:
        """Shortcut for ``result().values``."""
        return self.result().values


class Session:
    """A query-serving session bound to one :class:`Machine`.

    Parameters
    ----------
    machine:
        The machine every query's data must live on.
    plan:
        Default :class:`SelectionPlan` for queries that do not carry one.
    cache:
        Enable the result cache (per ``(array fingerprint, plan, rank)``).
    max_cache_entries:
        LRU bound on cached ranks.

    Usage::

        with machine.session() as s:
            f50 = s.select(data, n // 2)
            f90 = s.select(data, 9 * n // 10)
            f99 = s.select(data, 99 * n // 100)
        # exiting flushed: ONE SPMD launch answered all three
        print(f50.value, f90.value, f99.value)
    """

    def __init__(
        self,
        machine: "Machine",
        plan: SelectionPlan | None = None,
        cache: bool = True,
        max_cache_entries: int = 65536,
    ):
        if plan is not None and not isinstance(plan, SelectionPlan):
            raise ConfigurationError(
                f"plan must be a SelectionPlan or None, "
                f"got {type(plan).__name__}"
            )
        if max_cache_entries < 1:
            raise ConfigurationError(
                f"max_cache_entries must be >= 1, got {max_cache_entries}"
            )
        self.machine = machine
        self.plan = plan if plan is not None else SelectionPlan()
        self.cache_enabled = bool(cache)
        self.max_cache_entries = max_cache_entries
        self.stats = SessionStats()
        self._pending: list[_Future] = []
        self._cache: OrderedDict[tuple, _CacheEntry] = OrderedDict()

    # ----------------------------------------------------------- plumbing

    def _plan_for(self, plan: SelectionPlan | None,
                  overrides: dict) -> SelectionPlan:
        if plan is None and not overrides:
            return self.plan
        if plan is None:
            return self.plan.replace(**overrides)
        return as_plan(plan, overrides)

    def _check_data(self, data: "DistributedArray") -> None:
        if data.machine is not self.machine:
            raise ConfigurationError(
                "query data lives on a different Machine than this session"
            )

    # LRU cache primitives -------------------------------------------------

    def _cache_get(self, key: tuple) -> _CacheEntry | None:
        if not self.cache_enabled:
            return None
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
        return entry

    def _cache_put(self, key: tuple, entry) -> None:
        if not self.cache_enabled:
            return
        self._cache[key] = entry
        self._cache.move_to_end(key)
        while len(self._cache) > self.max_cache_entries:
            self._cache.popitem(last=False)

    def clear_cache(self) -> None:
        """Drop every cached result."""
        self._cache.clear()

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def pending_count(self) -> int:
        """Queries queued but not yet flushed."""
        return len(self._pending)

    # ------------------------------------------------------ deferred queries

    def select(self, data: "DistributedArray", k: int,
               plan: SelectionPlan | None = None,
               **overrides) -> SelectionFuture:
        """Queue a rank-``k`` query; returns a future. Nothing launches
        until :meth:`flush` — same-array queries coalesce into one batched
        launch."""
        self._check_data(data)
        k = validate_rank(k, data.n)
        fut = SelectionFuture(self, data, k, self._plan_for(plan, overrides))
        self._pending.append(fut)
        self.stats.queries += 1
        return fut

    def median(self, data: "DistributedArray",
               plan: SelectionPlan | None = None,
               **overrides) -> SelectionFuture:
        """Queue the rank-``ceil(n/2)`` query."""
        return self.select(data, median_rank(data.n), plan, **overrides)

    def quantiles(self, data: "DistributedArray", qs: Sequence[float],
                  plan: SelectionPlan | None = None,
                  **overrides) -> list[SelectionFuture]:
        """Queue one query per quantile fraction; all of them (plus any
        other pending same-array queries) share one flush launch."""
        self._check_data(data)
        ks = [quantile_rank(q, data.n) for q in qs]
        return [self.select(data, k, plan, **overrides) for k in ks]

    def multi_select(self, data: "DistributedArray", ks: Sequence[int],
                     plan: SelectionPlan | None = None,
                     **overrides) -> MultiSelectionFuture:
        """Queue a whole rank set as one future (``values`` align with
        ``ks``, duplicates and arbitrary order preserved)."""
        self._check_data(data)
        fut = MultiSelectionFuture(
            self, data, validate_targets(ks, data.n),
            self._plan_for(plan, overrides),
        )
        self._pending.append(fut)
        self.stats.queries += 1
        return fut

    # --------------------------------------------------------------- flush

    def flush(self) -> list:
        """Answer every pending query.

        Pending queries are grouped by ``(array fingerprint, plan)``; each
        group's not-yet-cached ranks are answered by ONE batched
        ``multi_select`` SPMD launch, then every future is served from the
        (now warm) result cache. Returns the resolved futures.

        A failing group does not strand the others: every remaining group
        is still served, the failing group's futures record the launch
        error (their ``result()`` re-raises it), and the first error is
        re-raised once all groups have been attempted.
        """
        pending, self._pending = self._pending, []
        if not pending:
            return []
        self.stats.flushes += 1
        groups: OrderedDict[tuple, list[_Future]] = OrderedDict()
        for fut in pending:
            key = (fut.data.fingerprint, fut.plan.cache_key())
            groups.setdefault(key, []).append(fut)
        first_error: BaseException | None = None
        with get_recorder().span("session.flush", queries=len(pending),
                                 groups=len(groups)):
            for (fp, plan_key), futs in groups.items():
                try:
                    self._serve_group(fp, plan_key, futs)
                except Exception as exc:
                    for fut in futs:
                        if fut._report is None:
                            fut._error = exc
                    if first_error is None:
                        first_error = exc
        if first_error is not None:
            raise first_error
        return pending

    def _serve_group(self, fp: str, plan_key: tuple, futs: list[_Future],
                     count_coalesced: bool = True) -> None:
        data, plan = futs[0].data, futs[0].plan
        needed = sorted({k for fut in futs for k in fut.ranks})
        with get_recorder().span("session.group", algorithm=plan.algorithm,
                                 queries=len(futs), ranks=len(needed)):
            self._serve_group_inner(data, plan, fp, plan_key, futs, needed,
                                    count_coalesced)

    def _serve_group_inner(self, data, plan, fp: str, plan_key: tuple,
                           futs: list[_Future], needed: list[int],
                           count_coalesced: bool) -> None:
        entries: dict[int, _CacheEntry] = {}
        hit_ks: set[int] = set()
        missing: list[int] = []
        for k in needed:
            entry = self._cache_get(("multi", fp, plan_key, k))
            if entry is None:
                missing.append(k)
            else:
                entries[k] = entry
                hit_ks.add(k)
        self.stats.cache_hits += len(hit_ks)
        self.stats.cache_misses += len(missing)
        launched: _LaunchMetrics | None = None
        launched_result = None
        if missing:
            multi = execute_multi_select(data, missing, plan)
            self.stats.launches += 1
            launched = _LaunchMetrics.of(multi)
            launched_result = multi.result
            for k, value in zip(missing, multi.values):
                entry = _CacheEntry(value=value, metrics=launched)
                entries[k] = entry
                self._cache_put(("multi", fp, plan_key, k), entry)
        for fut in futs:
            if count_coalesced:
                self.stats.coalesced_queries += 1
            if isinstance(fut, SelectionFuture):
                entry = entries[fut.k]
                cached = fut.k in hit_ks
                fut._report = per_rank_view(
                    entry.metrics, fut.k, entry.value, cached=cached,
                    result=None if cached else launched_result,
                )
            else:
                fut._report = self._multi_report(
                    fut, entries, hit_ks, launched, launched_result
                )

    def _multi_report(self, fut: MultiSelectionFuture,
                      entries: dict[int, _CacheEntry], hit_ks: set[int],
                      launched: _LaunchMetrics | None,
                      launched_result) -> MultiSelectionReport:
        data, plan = fut.data, fut.plan
        if not fut.ks:
            # Historical empty-set behaviour: an empty report, no launch.
            return execute_multi_select(data, [], plan)
        all_cached = all(k in hit_ks for k in fut.ks)
        # A fully-cached report must carry its *originating* launch's
        # metrics (what a relaunch would produce), not those of whatever
        # launch this flush happened to pay for other futures' ranks.
        metrics = entries[fut.ks[0]].metrics if all_cached else launched
        return _report(
            MultiSelectionReport, metrics,
            None if all_cached else launched_result, all_cached,
            values=[entries[k].value for k in fut.ks],
            ks=list(fut.ks),
        )

    # ---------------------------------------------------- immediate queries

    def run_select(self, data: "DistributedArray", k: int,
                   plan: SelectionPlan | None = None,
                   **overrides) -> SelectionReport:
        """Answer rank ``k`` NOW with a one-target launch.

        Cache-aware (namespace ``"select"``): a repeat of an answered
        ``(array, plan, k)`` costs zero launches and returns a report equal
        to the original on every field but ``cached`` (True) and ``result``
        (None: the cache keeps the value and a slim
        :class:`_LaunchMetrics`, not the launch's ``SPMDResult``). The
        namespace is its own because a ``run_select`` report describes a
        launch that answered this one rank alone, while a ``"multi"`` entry
        may carry the metrics of a launch shared with other ranks. This is
        the path the legacy :func:`repro.select` shim and the fluent
        ``data.select(k)`` ride.
        """
        self._check_data(data)
        k = validate_rank(k, data.n)
        plan = self._plan_for(plan, overrides)
        self.stats.queries += 1
        key = None
        if self.cache_enabled:
            key = ("select", data.fingerprint, plan.cache_key(), int(k))
            hit = self._cache_get(key)
            if hit is not None:
                self.stats.cache_hits += 1
                return _report(SelectionReport, hit.metrics, None, True,
                               value=hit.value, k=k)
            self.stats.cache_misses += 1
        multi = execute_multi_select(data, [k], plan)
        report = per_rank_view(multi, k, multi.values[0],
                               result=multi.result)
        self.stats.launches += 1
        if key is not None:
            self._cache_put(key, _CacheEntry(report.value,
                                             _LaunchMetrics.of(report)))
        return report

    def run_median(self, data: "DistributedArray",
                   plan: SelectionPlan | None = None,
                   **overrides) -> SelectionReport:
        """Answer the median NOW (rank ``ceil(n/2)`` via
        :meth:`run_select`)."""
        return self.run_select(data, median_rank(data.n), plan, **overrides)

    def run_multi_select(self, data: "DistributedArray", ks: Sequence[int],
                         plan: SelectionPlan | None = None,
                         **overrides) -> MultiSelectionReport:
        """Answer every rank in ``ks`` NOW: at most one batched launch,
        with cached ranks excluded from the launch entirely."""
        self._check_data(data)
        plan = self._plan_for(plan, overrides)
        self.stats.queries += 1
        if not self.cache_enabled:
            report = execute_multi_select(data, ks, plan)
            if report.result is not None:
                self.stats.launches += 1
            return report
        fut = MultiSelectionFuture(
            self, data, validate_targets(ks, data.n), plan
        )
        # Not a coalesced deferred query: keep it out of that counter.
        self._serve_group(data.fingerprint, plan.cache_key(), [fut],
                          count_coalesced=False)
        return fut._report

    def run_quantiles(self, data: "DistributedArray", qs: Sequence[float],
                      plan: SelectionPlan | None = None,
                      **overrides) -> list[SelectionReport]:
        """Answer exact quantiles NOW via one batched launch.

        Returns one :class:`SelectionReport` per quantile, in input order
        (the historical per-quantile shape); the reports share the batched
        run's simulated metrics, so summing across them would
        double-count.
        """
        self._check_data(data)
        plan = self._plan_for(plan, overrides)
        ks = [quantile_rank(q, data.n) for q in qs]
        if not ks:
            return []
        multi = self.run_multi_select(data, ks, plan)
        return [
            per_rank_view(multi, k, value, cached=multi.cached,
                          result=multi.result)
            for k, value in zip(ks, multi.values)
        ]

    # ------------------------------------------------------ context manager

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Flush pending work on a clean exit. On an exception the queue is
        # left intact: futures stay pending and can still be resolved by a
        # later flush() or future.result().
        if exc_type is None:
            self.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(p={self.machine.n_procs}, pending={self.pending_count}, "
            f"cached={self.cache_size}, launches={self.stats.launches}, "
            f"hits={self.stats.cache_hits})"
        )
