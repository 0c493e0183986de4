"""The ``threaded`` backend: one preemptive OS thread per rank.

This is the historical runtime vehicle (coarse-grained machines have few,
powerful processors — 2..128 in the paper — so threads are a faithful and
cheap model); each rank blocks in a real barrier at every collective.

Placement: every collective is a rendezvous of all ``p`` ranks, and each
one hands the GIL from rank thread to rank thread. A handoff between
threads on different CPUs costs several times one on the same CPU, and
only large NumPy kernels (which release the GIL) gain from a second CPU.
So the calling thread decides once per launch: when the platform has
``os.sched_setaffinity``, the caller may run on at least 2 CPUs, and the
largest rank's NumPy arguments total at most :data:`CORE_LOCAL_MAX_BYTES`,
each rank thread first pins itself to the lowest CPU the caller may run
on (core-local). Otherwise the OS spreads the threads. Placement is best
effort (a refused pin leaves the thread where it is), never changes the
caller's own affinity, and changes no value, clock or trace event.

Its launch loop is the only thread-per-rank loop: the ``serial`` backend
is this loop with a run token handed between the threads
(:meth:`ThreadedBackend._schedule` is the hook it overrides).

Failure semantics: the first rank to raise aborts the barrier; sibling
ranks unwind with ``WorkerAborted``; the caller receives a
:class:`~repro.errors.WorkerError` chaining the original exception. A rank
that returns departs the barrier, so a rank still waiting at a collective
fails at once with a :class:`~repro.errors.CommunicationError` naming the
returned rank instead of hanging. No leaked threads (joined with a
timeout and asserted dead).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable

import numpy as np

from ...errors import WorkerAborted, WorkerError
from ..barrier import AbortableBarrier
from ..clock import LogicalClock
from ..collectives import CollectiveEngine, SharedRendezvous
from ..comm import Comm
from .base import (
    ExecutionBackend,
    Launch,
    ProcContext,
    SPMDResult,
    raise_worker_failures,
    run_single_rank,
)

__all__ = ["CORE_LOCAL_MAX_BYTES", "ThreadedBackend"]

#: A launch runs core-local when its largest rank's NumPy arguments total
#: at most this many bytes: the largest power of two at which every shape
#: of a p/n sweep ran faster with its rank threads on one CPU (EXPERIMENTS.md,
#: "Repo benchmark: core-local rank threads").
CORE_LOCAL_MAX_BYTES = 2 << 20

#: What a rank thread runs first and last (given its rank).
RankHook = Callable[[int], None]


def _no_hook(rank: int) -> None:
    """OS-scheduled threads need nothing before or after their program."""


def _rank_bytes(launch: Launch) -> int:
    """The largest rank's NumPy argument bytes (0 without ``rank_args``)."""
    if launch.rank_args is None:
        return 0
    return max(
        (sum(a.nbytes for a in row if isinstance(a, np.ndarray))
         for row in launch.rank_args),
        default=0,
    )


def _placement(launch: Launch) -> RankHook:
    """What each rank thread of ``launch`` runs first to place itself.

    Decided once, on the calling thread, before any rank thread starts.
    """
    pin = getattr(os, "sched_setaffinity", None)
    if pin is None or _rank_bytes(launch) > CORE_LOCAL_MAX_BYTES:
        return _no_hook
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        return _no_hook
    cpu = {min(allowed)}

    def core_local(rank: int) -> None:
        try:
            pin(0, cpu)
        except OSError:
            pass  # best effort: the thread stays where the OS put it

    return core_local


class ThreadedBackend(ExecutionBackend):
    """One OS thread per rank, preemptively scheduled by the OS."""

    name = "threaded"

    def _schedule(self, p: int) -> tuple[Any, RankHook, RankHook]:
        """One launch's barrier and the hooks each rank thread runs before
        its program and after it ends (returned or raised)."""
        return AbortableBarrier(p), _no_hook, _no_hook

    def execute(self, launch: Launch) -> SPMDResult:
        p = launch.n_procs
        if p == 1:
            return run_single_rank(launch, self.name)
        place = _placement(launch)
        barrier, start, finish = self._schedule(p)
        engine = CollectiveEngine(
            p, launch.cost_model, launch.tracer,
            rendezvous=SharedRendezvous(p, barrier=barrier),
            topology=launch.topology,
        )
        clocks = [LogicalClock() for _ in range(p)]
        results: list[Any] = [None] * p
        errors: list[BaseException | None] = [None] * p

        def worker(rank: int) -> None:
            place(rank)
            start(rank)
            ctx = ProcContext(
                rank=rank,
                size=p,
                comm=Comm(rank, p, engine, clocks[rank], launch.cost_model),
                clock=clocks[rank],
                model=launch.cost_model,
            )
            try:
                results[rank] = launch.call(ctx)
                barrier.depart(rank)
            except WorkerAborted as exc:
                errors[rank] = exc
            except BaseException as exc:  # noqa: BLE001 - must not leak threads
                errors[rank] = exc
                engine.abort()
            finally:
                finish(rank)

        t0 = time.perf_counter()
        threads = [
            threading.Thread(
                target=worker, args=(r,), name=f"repro-{self.name}-rank-{r}",
                daemon=True,
            )
            for r in range(p)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=launch.join_timeout)
        stuck = [t.name for t in threads if t.is_alive()]
        if stuck:
            engine.abort()
            for t in threads:
                t.join(timeout=5.0)
            still = [t.name for t in threads if t.is_alive()]
            if still:  # pragma: no cover - catastrophic, test-only path
                raise WorkerError(
                    0, RuntimeError(f"threads failed to unwind: {still}")
                )
        wall = time.perf_counter() - t0

        raise_worker_failures(errors)
        return SPMDResult(
            values=results,
            clocks=[c.now for c in clocks],
            breakdowns=[c.breakdown() for c in clocks],
            wall_time=wall,
            tracer=launch.tracer,
            backend=self.name,
            topology=launch.topology.name,
        )
