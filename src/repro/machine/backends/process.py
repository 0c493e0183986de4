"""The ``process`` backend: one forked OS process per rank.

Python threads share one GIL; NumPy releases it for large kernels, but the
interpreter-level parts of every iteration still serialise. This backend
forks one worker process per rank so large-``n`` selections get true
multi-core execution:

* **Rank-local data rides shared memory.** Every NumPy array in
  ``rank_args`` is copied once into an anonymous shared-memory buffer
  (``multiprocessing.RawArray``) before the fork; each child wraps its
  buffer as a zero-copy NumPy view, so shards are never pickled.
* **Collectives are message-passing.** A
  :class:`~repro.machine.backends._shm.QueueRendezvous` ships each rank's
  deposit to every peer through per-rank inbox queues and plugs into the
  shared :class:`~repro.machine.collectives.CollectiveEngine`, so the cost
  formulas — and therefore the simulated times — are bit-identical to the
  ``serial`` and ``threaded`` backends.
* **Failures abort cleanly.** A raising rank broadcasts an abort to every
  peer and reports the (pickled) original exception to the parent, which
  terminates stragglers and raises
  :class:`~repro.errors.WorkerError` chaining the cause. No leaked
  processes: every child is joined (or terminated) before ``execute``
  returns.

The shared-memory and queue-transport machinery lives in
:mod:`repro.machine.backends._shm`, shared with the persistent ``pool``
backend (which amortises this backend's per-launch fork cost away).

Requires the ``fork`` start method (POSIX): programs are arbitrary
closures, which only survive into children by inheritance, never by
pickling.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from typing import Any

from ...errors import ConfigurationError, WorkerAborted
from ._shm import (
    RankTransport,
    UnpicklableWorkerFailure,
    build_worker_context,
    picklable_failure,
    resolve_shared,
    share_rank_args,
)
from .base import (
    ExecutionBackend,
    Launch,
    SPMDResult,
    raise_worker_failures,
    run_single_rank,
)

__all__ = ["ProcessBackend", "UnpicklableWorkerFailure"]

def _child_main(launch: Launch, rank: int, shared_rank_args, inboxes,
                result_q) -> None:
    """Entire life of one rank process (runs in the forked child)."""
    p = launch.n_procs
    transport = RankTransport(rank, p, inboxes, launch.join_timeout)
    ctx, clock, tracer = build_worker_context(
        rank, p, launch.cost_model, launch.topology, transport,
        launch.tracer.enabled,
    )
    try:
        extra = (
            resolve_shared(shared_rank_args[rank])
            if shared_rank_args is not None
            else ()
        )
        value = launch.fn(ctx, *extra, *launch.args, **launch.kwargs)
        transport.finish_and_drain()
        events = tracer.events() if tracer.enabled else None
        result_q.put(
            ("done", rank, value, clock.now, clock.breakdown(), events)
        )
    except WorkerAborted:
        result_q.put(("aborted", rank))
    except BaseException as exc:  # noqa: BLE001 - must report, not leak
        transport.broadcast_abort()
        result_q.put(("error", rank, picklable_failure(exc)))


def require_fork(backend_name: str) -> multiprocessing.context.BaseContext:
    """The multi-process backends need ``fork`` (POSIX): programs may be
    arbitrary closures, which only reach children by inheritance."""
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigurationError(
            f"the {backend_name} backend requires the 'fork' start method "
            "(POSIX only); use the 'serial' or 'threaded' backend here"
        )
    return multiprocessing.get_context("fork")


def collect_results(procs, result_q, p: int, join_timeout: float,
                    dead_grace: float, epoch: int | None = None,
                    inboxes=None):
    """Drain worker reports until every rank is accounted for.

    Shared by the per-launch ``process`` collection loop and the pool's
    per-job one. Workers that die without reporting (crash, ``SIGKILL``)
    are detected via liveness polling with a ``dead_grace`` window for
    their final queue message to surface; ``epoch``-tagged messages from a
    previous pool launch are discarded. A dead worker cannot broadcast its
    own abort the way a raising one does, so when ``inboxes`` is given the
    *parent* aborts the surviving ranks (they would otherwise block on the
    dead peer until ``join_timeout``). Returns
    ``(values, clocks, breakdowns, trace_events, errors)``.

    The whole-launch deadline is a *backstop*, not the primary hang
    detector — a genuinely deadlocked worker raises its own per-message
    stall timeout and reports the error here. It therefore scales with
    rank count (many ranks oversubscribing few cores legitimately stretch
    a launch) and extends whenever a rank does report.
    """
    values: list[Any] = [None] * p
    clocks = [0.0] * p
    breakdowns: list[Any] = [None] * p
    trace_events: dict[int, list] = {}
    errors: list[BaseException | None] = [None] * p
    remaining = set(range(p))
    launch_timeout = join_timeout * max(1.0, p / 16.0)
    deadline = time.monotonic() + launch_timeout
    dead_since: dict[int, float] = {}
    while remaining:
        try:
            msg = result_q.get(timeout=0.2)
        except queue_module.Empty:
            now = time.monotonic()
            for r in sorted(remaining):
                if procs[r].is_alive():
                    dead_since.pop(r, None)
                    continue
                # Dead without a report: allow a grace period for its
                # final queue message to surface, then declare a crash.
                if now - dead_since.setdefault(r, now) > dead_grace:
                    errors[r] = RuntimeError(
                        f"rank {r} process died with exit code "
                        f"{procs[r].exitcode} before reporting a result"
                    )
                    remaining.discard(r)
                    if inboxes is not None:
                        for q in inboxes:
                            try:
                                q.put_nowait(("abort",))
                            except Exception:
                                pass
            if now > deadline:
                for r in sorted(remaining):
                    errors[r] = RuntimeError(
                        f"rank {r} did not report within {launch_timeout}s"
                    )
                remaining.clear()
            continue
        if epoch is not None:
            if msg[0] != epoch:  # stale message from a torn-down launch
                continue
            msg = msg[1:]
        deadline = max(deadline, time.monotonic() + join_timeout)
        kind, rank = msg[0], msg[1]
        remaining.discard(rank)
        if kind == "done":
            _, _, value, now_, breakdown, events = msg
            values[rank] = value
            clocks[rank] = now_
            breakdowns[rank] = breakdown
            if events:
                trace_events[rank] = events
        elif kind == "error":
            errors[rank] = msg[2]
        else:  # "aborted"
            errors[rank] = WorkerAborted(f"rank {rank} aborted")
    return values, clocks, breakdowns, trace_events, errors


class ProcessBackend(ExecutionBackend):
    """One forked process per rank; shared-memory shards, queue collectives."""

    name = "process"

    #: Seconds a child may be observed dead without having reported before
    #: the parent declares it crashed (covers the put-then-exit window).
    DEAD_GRACE = 1.0

    def execute(self, launch: Launch) -> SPMDResult:
        p = launch.n_procs
        if p == 1:
            return run_single_rank(launch, self.name)
        ctx = require_fork(self.name)
        inboxes = [ctx.Queue() for _ in range(p)]
        result_q = ctx.Queue()
        shared_rank_args = share_rank_args(launch.rank_args)
        procs = [
            ctx.Process(
                target=_child_main,
                args=(launch, r, shared_rank_args, inboxes, result_q),
                name=f"repro-proc-rank-{r}",
                daemon=True,
            )
            for r in range(p)
        ]
        t0 = time.perf_counter()
        for pr in procs:
            pr.start()

        values, clocks, breakdowns, trace_events, errors = collect_results(
            procs, result_q, p, launch.join_timeout, self.DEAD_GRACE,
            inboxes=inboxes,
        )

        for pr in procs:
            pr.join(timeout=5.0)
        leaked = [pr for pr in procs if pr.is_alive()]
        for pr in leaked:
            pr.terminate()
            pr.join(timeout=5.0)
        for q in [*inboxes, result_q]:
            q.close()
        wall = time.perf_counter() - t0

        raise_worker_failures(errors)
        for rank in sorted(trace_events):
            for event in trace_events[rank]:
                launch.tracer.record(event)
        return SPMDResult(
            values=values,
            clocks=clocks,
            breakdowns=breakdowns,
            wall_time=wall,
            tracer=launch.tracer,
            backend=self.name,
            topology=launch.topology.name,
        )
