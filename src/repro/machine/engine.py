"""The SPMD runtime facade: run one function on ``p`` simulated processors.

A *program* is any callable ``fn(ctx, *args) -> value``. The runtime is a
thin public facade: it remembers the machine configuration (rank count,
cost model, topology, default backend), counts launches, and assembles a
:class:`~repro.machine.backends.base.Launch` — which is where ALL launch
validation lives, once — before handing it to an **execution backend**
(:mod:`repro.machine.backends`): ``serial`` (deterministic cooperative
round-robin — CI and debugging), ``threaded`` (one preemptive OS thread
per rank — the historical simulator) or ``process`` (one forked process
per rank with shared-memory shards — true multi-core past the GIL). Every
backend drives the same :class:`ProcContext`/collectives contract and
charges the same simulated costs, so values, RNG streams and simulated
times are bit-identical across backends; only wall-clock differs.

Two per-launch strategy axes ride the same plumbing:

* the **backend** (how ranks are physically driven) — ``REPRO_BACKEND``
  env default, ``SPMDRuntime(backend=...)`` / ``Machine(backend=...)``,
  or per launch ``run(..., backend=...)``;
* the **topology** (which machine shape the collectives are lowered
  onto; :mod:`repro.machine.topology`) — ``REPRO_TOPOLOGY`` env default,
  ``SPMDRuntime(topology=...)`` / ``Machine(topology=...)``, or per
  launch ``run(..., topology=...)`` (which is how a
  :class:`~repro.core.plan.SelectionPlan` carries both through the
  serving layer). Values are topology-independent; simulated time is not.

Failure semantics (all backends): the first rank to raise aborts the
rendezvous and all mailboxes; sibling ranks unwind with ``WorkerAborted``;
the caller receives a :class:`~repro.errors.WorkerError` chaining the
original exception. No deadlocks, no leaked threads or processes.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Sequence

from ..obs import get_recorder
from ..obs.metrics import REGISTRY
from .backends import resolve_backend
from .backends.base import (
    MAX_RANKS,
    Launch,
    ProcContext,
    SPMDResult,
    validate_n_procs,
)
from .cost_model import CM5, CostModel
from .topology import Topology, resolve_topology
from .trace import NullTracer, Tracer

__all__ = ["ProcContext", "SPMDResult", "SPMDRuntime", "run_spmd"]


class SPMDRuntime:
    """Reusable launcher for SPMD programs on one (p, cost-model, shape)."""

    #: Re-exported launch ceiling (the check itself lives with Launch
    #: validation in :mod:`repro.machine.backends.base`).
    MAX_RANKS = MAX_RANKS

    def __init__(
        self,
        n_procs: int,
        cost_model: CostModel | None = None,
        trace: bool = False,
        join_timeout: float = 120.0,
        backend=None,
        topology=None,
    ):
        self.n_procs = validate_n_procs(n_procs)
        self.cost_model = cost_model if cost_model is not None else CM5
        self.trace = trace
        self.join_timeout = join_timeout
        #: The runtime's default execution backend (name, instance or None
        #: for the ``REPRO_BACKEND``/threaded default).
        self.backend = resolve_backend(backend)
        #: The runtime's default machine shape (spec string, Topology
        #: instance or None for the ``REPRO_TOPOLOGY``/crossbar default).
        self.topology: Topology = resolve_topology(topology, self.n_procs)
        #: SPMD launches executed so far (the serving layer's cost unit:
        #: Session coalescing and caching are asserted against this).
        self.launch_count = 0
        #: Persistent-worker events of this runtime's own launches, failed
        #: ones included (``forks``, ``reuses``, ``pinned_bytes``): a shared
        #: backend's other users never show up here.
        self.counts: Counter = Counter()

    def run(
        self,
        fn: Callable[..., Any],
        rank_args: Sequence[Sequence[Any]] | None = None,
        args: Sequence[Any] = (),
        kwargs: dict | None = None,
        backend=None,
        topology=None,
        trace: bool | None = None,
    ) -> SPMDResult:
        """Execute ``fn(ctx, *rank_args[r], *args, **kwargs)`` on every rank.

        ``rank_args`` supplies per-rank positional arguments (e.g. each
        rank's data shard); ``args``/``kwargs`` are shared by all ranks.
        ``backend``, ``topology`` and ``trace`` override the runtime's
        defaults for this launch only (a
        :class:`~repro.core.plan.SelectionPlan` carrying ``trace=True``
        rides the latter); all launch validation happens inside
        :class:`~repro.machine.backends.base.Launch`.

        When span capture is on (:mod:`repro.obs`), the launch is wrapped
        in a ``spmd.launch`` span, a real tracer is forced so collective
        leaf spans exist, and the span is attached to the result for the
        serving layer to enrich. All of that is driver-side observation:
        values, RNG streams, simulated times and the launch count are
        bit-identical with capture off or on.
        """
        chosen = self.backend if backend is None else resolve_backend(backend)
        recorder = get_recorder()
        want_trace = self.trace if trace is None else bool(trace)
        launch = Launch(
            fn=fn,
            n_procs=self.n_procs,
            cost_model=self.cost_model,
            rank_args=rank_args,
            args=tuple(args),
            kwargs=kwargs or {},
            tracer=Tracer() if (want_trace or recorder.enabled)
            else NullTracer(),
            join_timeout=self.join_timeout,
            topology=self.topology if topology is None else topology,
        )
        self.launch_count += 1
        REGISTRY.counter("repro.spmd.launches", backend=chosen.name).inc()
        try:
            if not recorder.enabled:
                return chosen.execute(launch)
            with recorder.span(
                "spmd.launch", p=self.n_procs, backend=chosen.name,
                topology=launch.topology.name,
            ) as span:
                result = chosen.execute(launch)
        finally:
            self.counts.update(launch.counts)
        sim_base = recorder.advance_sim(result.simulated_time)
        span.sim_t0 = sim_base
        span.sim_t1 = sim_base + result.simulated_time
        span.set(sim_s=result.simulated_time, wall_s=result.wall_time)
        # Collective/round leaf spans synthesize lazily on first read —
        # the launch path pays one append, not thousands of Span objects.
        recorder.defer_trace(result.tracer.events(), span, sim_base)
        result.span = span
        return result

    @property
    def fork_count(self) -> int:
        """Worker spawn events this runtime's launches caused (0 on
        backends without persistent workers). The ``pool`` backend counts
        one per generation fork / fallback launch, so "k launches, one
        fork" is assertable next to :attr:`launch_count`."""
        return self.counts["forks"]

    @property
    def reuse_count(self) -> int:
        """This runtime's launches served by an already-live worker
        generation (0 on backends without persistent workers). A
        long-running service's "fork once, serve many" receipt: on the
        ``pool`` backend this grows with every warm launch while
        :attr:`fork_count` stays put."""
        return self.counts["reuses"]

    def release_workers(self) -> None:
        """Release any persistent worker state the default backend holds
        (pool generations, shared-memory pins). A no-op for stateless
        backends; counters survive, and the next launch transparently
        re-provisions — this is the graceful-shutdown hook a long-running
        service calls when it drains."""
        shutdown = getattr(self.backend, "shutdown", None)
        if shutdown is not None:
            shutdown()


def run_spmd(
    fn: Callable[..., Any],
    n_procs: int,
    rank_args: Sequence[Sequence[Any]] | None = None,
    cost_model: CostModel | None = None,
    trace: bool = False,
    args: Sequence[Any] = (),
    kwargs: dict | None = None,
    backend=None,
    topology=None,
) -> SPMDResult:
    """One-shot convenience wrapper around :class:`SPMDRuntime`."""
    return SPMDRuntime(
        n_procs, cost_model=cost_model, trace=trace, backend=backend,
        topology=topology,
    ).run(fn, rank_args=rank_args, args=args, kwargs=kwargs)
