"""The ``threaded`` backend: one preemptive OS thread per rank.

This is the historical runtime vehicle (coarse-grained machines have few,
powerful processors — 2..128 in the paper — so threads are a faithful and
cheap model); each rank blocks in a real barrier at every collective, and
heavy local work is vectorised NumPy, which releases the GIL for large
arrays, so ranks genuinely overlap where it matters.

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

import threading
import time
from typing import Any, Callable

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

__all__ = ["ThreadedBackend"]

#: What a rank thread runs first and last (given its rank).
RankHook = Callable[[int], None]


def _no_hook(rank: int) -> None:
    """OS-scheduled threads need nothing before or after their program."""


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
