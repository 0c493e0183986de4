"""The multi-tenant serving tier: :class:`SelectionService`.

A :class:`~repro.core.session.Session` coalesces whatever one caller has
queued when *that caller* decides to flush. A **service** turns the same
machinery into a long-running, shared front door: many tenants submit
quantile / rank / multi-rank queries concurrently from asyncio tasks, the
service holds them in a short **coalescing window**, groups everything
pending by ``(array fingerprint, plan)`` exactly like a session flush, and
answers each group with ONE batched SPMD launch on the shared
:class:`~repro.core.array.Machine` — resolving every caller's
``asyncio.Future`` individually.

Life cycle of one query::

    await service.select("prices", k, tenant="alice")
      -> admission control        (AdmissionError / ServiceClosed, no launch)
      -> pre-launch validation    (ConfigurationError, no launch)
      -> queued; coalescing window elapses
      -> one batched launch per (array, plan) group on the shared machine
      -> this query's future resolves with its own SelectionReport

Guarantees (all pinned by ``tests/test_serve.py``):

* **Coalescing.** Queries submitted within one window against the same
  array and plan cost one launch total, however many tenants they came
  from; repeated ranks are served from the session result cache with zero
  launches. ``ServiceStats.launches_saved`` counts the launches a
  query-at-a-time front door would have paid extra.
* **Admission control / fairness.** At most ``max_in_flight`` queries may
  be in flight overall and at most ``max_per_tenant`` per tenant, so one
  hot tenant exhausts its own allowance, not the service
  (:class:`~repro.errors.AdmissionError` is raised *before* anything is
  queued). Queued work is drained round-robin across tenants.
* **Error isolation.** A failing group (e.g. a plan whose launch raises
  :class:`~repro.errors.WorkerError`) fails only its own futures; every
  other group in the same cycle — and the flusher itself — is unaffected.
* **Graceful shutdown.** ``await service.close()`` stops admitting,
  drains every in-flight query, folds the latency buffer into the sketch
  and releases persistent backend workers
  (:meth:`~repro.core.array.Machine.release_workers`); ``drain=False``
  instead cancels *queued* queries with :class:`~repro.errors.ServiceClosed`
  (a launch already executing still completes).
* **Self-observability.** Per-query latencies feed the service's own
  :class:`~repro.stream.sketch.QuantileSketch` — the library's mergeable
  summary, eating its own dog food — and :attr:`stats` reports p50/p99
  from it next to the coalescing counters.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.session import Session, quantile_rank
from ..errors import AdmissionError, ConfigurationError, ServiceClosed
from ..kernels.select import median_rank
from ..stream.sketch import QuantileSketch

if TYPE_CHECKING:
    from ..core.array import DistributedArray, Machine
    from ..core.plan import SelectionPlan

__all__ = ["SelectionService", "ServiceStats"]


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time snapshot of the service's serving counters.

    ``launches_saved`` is the coalescing receipt: queries resolved without
    error minus launches actually paid, i.e. how many SPMD launches a
    query-at-a-time front door would have executed on top. ``p50_s`` /
    ``p99_s`` are read from the service's own latency
    :class:`~repro.stream.sketch.QuantileSketch` (ε-approximate, upper
    bracket key — a reported p99 never understates the true one by more
    than the sketch guarantee).
    """

    #: Queries admitted (select/median/quantile/multi_select submissions).
    queries: int = 0
    #: Submissions refused by admission control (AdmissionError).
    rejected: int = 0
    #: Queries resolved successfully.
    resolved: int = 0
    #: Queries resolved with an in-launch error (WorkerError etc.).
    errors: int = 0
    #: SPMD launches the service paid for.
    launches: int = 0
    #: Launches a query-at-a-time front door would have paid extra.
    launches_saved: int = 0
    #: Flush cycles that found work.
    flush_cycles: int = 0
    #: Individual ranks served from the result cache.
    cache_hits: int = 0
    #: Distinct tenants ever admitted.
    tenants: int = 0
    #: Latency observations folded into the sketch so far.
    latency_count: int = 0
    #: Median / 99th-percentile query latency in seconds (0.0 until the
    #: first observation).
    p50_s: float = 0.0
    p99_s: float = 0.0
    #: The machine's activity counters at snapshot time
    #: (:meth:`repro.core.array.Machine.counters`: launches / forks /
    #: reuses / pinned_bytes).
    machine_counters: dict = field(default_factory=dict)


class _Record:
    """One admitted query: the session future that will carry its answer
    and the asyncio future its submitter awaits."""

    __slots__ = ("tenant", "sess_fut", "async_fut", "t0")

    def __init__(self, tenant: str, sess_fut, async_fut, t0: float):
        self.tenant = tenant
        self.sess_fut = sess_fut
        self.async_fut = async_fut
        self.t0 = t0


class SelectionService:
    """An asyncio front door multiplexing many tenants onto one machine.

    Parameters
    ----------
    machine:
        The shared :class:`~repro.core.array.Machine` every query runs on.
        Any backend works; a ``backend="pool"`` machine gives the service
        its natural production shape (fork once, serve every launch warm —
        watch :attr:`~repro.core.array.Machine.reuse_count` grow while
        :attr:`~repro.core.array.Machine.fork_count` stays put).
    plan:
        Default :class:`~repro.core.plan.SelectionPlan` for queries that
        do not carry one. ``None`` (the default) serves with
        ``SelectionPlan(algorithm="auto")``: the query planner
        (:mod:`repro.planner`) picks the predicted-fastest algorithm per
        (array, machine shape), so serving traffic gets cost-model-driven
        plan choice for free. Pass an explicit plan to pin behaviour.
    window:
        Coalescing window in seconds: how long the flusher holds newly
        arrived queries so concurrent tenants land in the same batched
        launch. ``0`` still coalesces everything submitted in the same
        event-loop tick.
    max_in_flight / max_per_tenant:
        Admission bounds (service-wide / per tenant). ``max_per_tenant``
        defaults to a quarter of ``max_in_flight`` so a single hot tenant
        cannot occupy the whole queue.
    cache / max_cache_entries:
        Forwarded to the internal :class:`~repro.core.session.Session`.
    latency_eps:
        ε of the latency :class:`~repro.stream.sketch.QuantileSketch`.

    Usage::

        async with SelectionService(machine, window=0.002) as svc:
            svc.register("prices", machine.generate(1 << 20))
            p50, p99 = await asyncio.gather(
                svc.quantile("prices", 0.50, tenant="dash"),
                svc.quantile("prices", 0.99, tenant="alerts"),
            )
        # both queries shared ONE SPMD launch
    """

    def __init__(
        self,
        machine: "Machine",
        plan: "SelectionPlan | None" = None,
        *,
        window: float = 0.002,
        max_in_flight: int = 256,
        max_per_tenant: int | None = None,
        cache: bool = True,
        max_cache_entries: int = 65536,
        latency_eps: float = 0.01,
    ):
        if window < 0:
            raise ConfigurationError(
                f"coalescing window must be >= 0, got {window!r}"
            )
        if max_in_flight < 1:
            raise ConfigurationError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        if max_per_tenant is None:
            max_per_tenant = max(1, max_in_flight // 4)
        if max_per_tenant < 1:
            raise ConfigurationError(
                f"max_per_tenant must be >= 1, got {max_per_tenant}"
            )
        self.machine = machine
        self.window = float(window)
        self.max_in_flight = int(max_in_flight)
        self.max_per_tenant = int(max_per_tenant)
        if plan is None:
            # Serving default: let the planner pick per (array, shape).
            from ..core.plan import SelectionPlan

            plan = SelectionPlan(algorithm="auto")
        self._session = Session(
            machine, plan=plan, cache=cache,
            max_cache_entries=max_cache_entries,
        )
        self._arrays: dict[str, "DistributedArray"] = {}
        # Per-tenant FIFO queues, drained round-robin by the flusher.
        self._queues: "OrderedDict[str, deque[_Record]]" = OrderedDict()
        self._queued_total = 0
        self._inflight: dict[str, int] = {}
        self._inflight_total = 0
        self._work = asyncio.Event()
        self._flusher: asyncio.Task | None = None
        self._closed = False
        # Counters behind the ServiceStats snapshot.
        self._queries = 0
        self._rejected = 0
        self._resolved = 0
        self._errors = 0
        self._launches_saved = 0
        self._flush_cycles = 0
        self._tenants_seen: set[str] = set()
        self._latency = QuantileSketch(eps=latency_eps)
        self._lat_buf: list[float] = []

    # ------------------------------------------------------------ registry

    def register(self, name: str, data) -> "DistributedArray":
        """Register an array under ``name`` so tenants can query it by
        name. ``data`` may be a :class:`~repro.core.array.DistributedArray`
        (or :class:`~repro.stream.stream.StreamingArray`) already on this
        service's machine, or any 1-D host array — which is distributed
        for you. Returns the registered distributed array. A name already
        registered raises :class:`ConfigurationError` and replaces
        nothing."""
        from ..core.array import DistributedArray

        if not isinstance(name, str) or not name:
            raise ConfigurationError(
                f"array name must be a non-empty string, got {name!r}"
            )
        if name in self._arrays:
            raise ConfigurationError(
                f"an array is already registered as {name!r} "
                "(unregister it first to replace it)"
            )
        if not hasattr(data, "shards"):
            data = self.machine.distribute(np.asarray(data))
        if data.machine is not self.machine:
            raise ConfigurationError(
                f"array {name!r} lives on a different Machine than this "
                "service"
            )
        self._arrays[name] = data
        return data

    def unregister(self, name: str) -> None:
        """Remove ``name`` from the registry (queries already queued
        against the underlying array still resolve)."""
        if name not in self._arrays:
            raise ConfigurationError(f"no array registered as {name!r}")
        del self._arrays[name]

    @property
    def arrays(self) -> dict:
        """Read-only view of the registered arrays."""
        return dict(self._arrays)

    def _resolve(self, array):
        if isinstance(array, str):
            data = self._arrays.get(array)
            if data is None:
                raise ConfigurationError(
                    f"no array registered as {array!r} "
                    f"(have {sorted(self._arrays)})"
                )
            return data
        if hasattr(array, "shards"):
            return array
        raise ConfigurationError(
            "query target must be a registered name or a distributed "
            f"array, got {type(array).__name__}"
        )

    # ----------------------------------------------------------- admission

    def _admit(self, tenant: str) -> None:
        """All the reasons a submission is refused before anything is
        queued — none of them consumes an SPMD launch."""
        if not isinstance(tenant, str) or not tenant:
            raise ConfigurationError(
                f"tenant must be a non-empty string, got {tenant!r}"
            )
        if self._closed:
            raise ServiceClosed("service is closed to new queries")
        if self._inflight_total >= self.max_in_flight:
            self._rejected += 1
            raise AdmissionError(
                f"service at capacity: {self._inflight_total} queries in "
                f"flight (max_in_flight={self.max_in_flight})"
            )
        if self._inflight.get(tenant, 0) >= self.max_per_tenant:
            self._rejected += 1
            raise AdmissionError(
                f"tenant {tenant!r} at its fairness cap: "
                f"{self._inflight[tenant]} queries in flight "
                f"(max_per_tenant={self.max_per_tenant})"
            )

    async def _submit(self, tenant: str, make_session_future):
        """Admission -> validation -> queue -> await the answer."""
        self._admit(tenant)
        # Pre-launch validation (rank/quantile range, machine identity)
        # happens HERE, inside the session submit — a bad query raises
        # ConfigurationError to its own caller with zero launches and
        # nothing queued.
        sess_fut = make_session_future()
        loop = asyncio.get_running_loop()
        record = _Record(tenant, sess_fut, loop.create_future(), loop.time())
        self._queues.setdefault(tenant, deque()).append(record)
        self._queued_total += 1
        self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
        self._inflight_total += 1
        self._queries += 1
        self._tenants_seen.add(tenant)
        self._ensure_flusher()
        self._work.set()
        return await record.async_fut

    # ------------------------------------------------------------- queries

    async def select(self, array, k: int, *, tenant: str = "default",
                     plan: "SelectionPlan | None" = None, **overrides):
        """Rank-``k`` selection; resolves to a
        :class:`~repro.core.reports.SelectionReport`."""
        data = self._resolve(array)
        return await self._submit(
            tenant, lambda: self._session.select(data, k, plan, **overrides)
        )

    async def median(self, array, *, tenant: str = "default",
                     plan: "SelectionPlan | None" = None, **overrides):
        """The paper's flagship query, rank ``ceil(n/2)``."""
        data = self._resolve(array)
        return await self.select(
            data, median_rank(data.n), tenant=tenant, plan=plan, **overrides
        )

    async def quantile(self, array, q: float, *, tenant: str = "default",
                       plan: "SelectionPlan | None" = None, **overrides):
        """The exact quantile ``q`` in ``(0, 1]`` (rank ``ceil(q * n)``)."""
        data = self._resolve(array)
        return await self.select(
            data, quantile_rank(float(q), data.n), tenant=tenant, plan=plan,
            **overrides,
        )

    async def multi_select(self, array, ks: Sequence[int], *,
                           tenant: str = "default",
                           plan: "SelectionPlan | None" = None, **overrides):
        """A whole rank set as one query; resolves to a
        :class:`~repro.core.reports.MultiSelectionReport` (``values``
        align with ``ks``, duplicates and order preserved)."""
        data = self._resolve(array)
        return await self._submit(
            tenant,
            lambda: self._session.multi_select(data, ks, plan, **overrides),
        )

    # ------------------------------------------------------------- flusher

    def _ensure_flusher(self) -> None:
        if self._flusher is None or self._flusher.done():
            self._flusher = asyncio.get_running_loop().create_task(
                self._run(), name="repro-serve-flusher"
            )

    def _drain_round_robin(self) -> list[_Record]:
        """Everything queued, interleaved one-per-tenant so no tenant's
        burst monopolises the resolution order."""
        out: list[_Record] = []
        queues = [q for q in self._queues.values() if q]
        while queues:
            still = []
            for q in queues:
                out.append(q.popleft())
                if q:
                    still.append(q)
            queues = still
        self._queued_total = 0
        return out

    async def _run(self) -> None:
        while True:
            if self._closed and self._queued_total == 0:
                break
            await self._work.wait()
            if self.window > 0 and not self._closed:
                await asyncio.sleep(self.window)
            await self._cycle()

    async def _cycle(self) -> None:
        """Serve one drained batch. A call of its own, so the batch's
        records (and the reports they carry) are released when it returns
        instead of living in the flusher's frame until the next batch."""
        records = self._drain_round_robin()
        if self._queued_total == 0 and not self._closed:
            self._work.clear()
        if not records:
            return
        self._flush_cycles += 1
        launches_before = self._session.stats.launches
        try:
            # One blocking, batched flush off the event loop. Session
            # flush already isolates failures per (array, plan) group
            # — it records each group's error on its own futures and
            # re-raises the first one, which we swallow here because
            # per-record routing below is the real delivery path.
            await asyncio.to_thread(self._flush_cycle, len(records))
        except Exception:
            pass
        launch_delta = self._session.stats.launches - launches_before
        now = asyncio.get_running_loop().time()
        ok = 0
        for rec in records:
            self._inflight[rec.tenant] -= 1
            self._inflight_total -= 1
            fut = rec.sess_fut
            if fut._error is not None:
                self._errors += 1
                if not rec.async_fut.done():
                    rec.async_fut.set_exception(fut._error)
            elif fut._report is not None:
                ok += 1
                self._resolved += 1
                self._lat_buf.append(now - rec.t0)
                if not rec.async_fut.done():
                    rec.async_fut.set_result(fut._report)
            else:  # pragma: no cover - internal invariant
                err = RuntimeError("flush did not resolve this query")
                if not rec.async_fut.done():
                    rec.async_fut.set_exception(err)
        self._launches_saved += max(0, ok - launch_delta)
        self._fold_latencies()

    def _flush_cycle(self, n_records: int) -> None:
        """One blocking flush, span-wrapped *inside* the worker thread so
        the session's flush/group/query spans nest under ``serve.cycle``
        (span stacks are thread-local)."""
        from ..obs import get_recorder

        with get_recorder().span("serve.cycle", records=n_records):
            self._session.flush()

    def _fold_latencies(self) -> None:
        if self._lat_buf:
            self._latency.update(np.asarray(self._lat_buf))
            self._lat_buf.clear()

    # ------------------------------------------------------------ shutdown

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def in_flight(self) -> int:
        """Admitted queries not yet resolved."""
        return self._inflight_total

    async def close(self, drain: bool = True) -> None:
        """Stop admitting and shut down.

        ``drain=True`` (default) answers every in-flight query first.
        ``drain=False`` cancels *queued* queries with
        :class:`~repro.errors.ServiceClosed`; a batched launch already
        executing still completes and resolves its queries. Either way the
        latency buffer is folded into the sketch and the machine's
        persistent workers are released. Idempotent.
        """
        self._closed = True
        if not drain:
            for rec in self._drain_round_robin():
                self._inflight[rec.tenant] -= 1
                self._inflight_total -= 1
                if not rec.async_fut.done():
                    rec.async_fut.set_exception(
                        ServiceClosed("service closed before this query ran")
                    )
        self._work.set()
        if self._flusher is not None:
            await self._flusher
            self._flusher = None
        self._fold_latencies()
        self.machine.release_workers()

    async def __aenter__(self) -> "SelectionService":
        self._ensure_flusher()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close(drain=exc_type is None)

    # ----------------------------------------------------------- telemetry

    @property
    def latency_sketch(self) -> QuantileSketch:
        """The service's own per-query latency summary (seconds)."""
        self._fold_latencies()
        return self._latency

    @property
    def stats(self) -> ServiceStats:
        """Snapshot the serving counters (see :class:`ServiceStats`)."""
        sk = self.latency_sketch
        return ServiceStats(
            queries=self._queries,
            rejected=self._rejected,
            resolved=self._resolved,
            errors=self._errors,
            launches=self._session.stats.launches,
            launches_saved=self._launches_saved,
            flush_cycles=self._flush_cycles,
            cache_hits=self._session.stats.cache_hits,
            tenants=len(self._tenants_seen),
            latency_count=sk.count,
            p50_s=float(sk.quantile(0.50)) if sk.count else 0.0,
            p99_s=float(sk.quantile(0.99)) if sk.count else 0.0,
            machine_counters=self.machine.counters(),
        )

    @property
    def session(self) -> Session:
        """The internal session (cache inspection / advanced use)."""
        return self._session

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SelectionService(p={self.machine.n_procs}, "
            f"arrays={len(self._arrays)}, in_flight={self._inflight_total}, "
            f"closed={self._closed})"
        )
