"""The ``serial`` backend: deterministic cooperative round-robin execution.

Exactly ONE rank executes at any instant. Each rank runs until it blocks
at a communication point (a collective rendezvous or a mailbox receive),
then hands a run token to the next live rank in round-robin order. The
interleaving is therefore a pure function of the program — bit-identical
runs every time, no preemption, no lock contention — which makes this the
backend of choice for CI and debugging. Values, RNG streams and simulated
times are identical to the ``threaded`` backend (the differential suite in
``tests/test_backend_conformance.py`` pins exactly that).

Ranks need real call stacks, so they are carried by parked OS threads;
"serial" refers to the execution discipline (the scheduler never lets two
ranks run concurrently), not to the absence of threads.

A bonus of cooperative scheduling is *deadlock detection*: if the token
completes a full cycle in which every live rank is blocked and nothing
changed (no message delivered, no barrier arrival), the run cannot ever
progress — the backend raises a clean
:class:`~repro.errors.CommunicationError` naming each rank's blocking
point instead of hanging until a timeout.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from ...errors import CommunicationError, WorkerAborted
from ..barrier import Outcome, close_cohort, cohort_result
from ..channels import Mailbox, MessageBoard
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

__all__ = ["SerialBackend"]


class _TokenScheduler:
    """Round-robin run token over ``n`` cooperating rank threads.

    Only the token holder executes; every blocking primitive calls
    :meth:`yield_blocked`, which passes the token to the next live rank
    and parks until it comes back. ``progress()`` marks any state change a
    blocked rank could be waiting on (message delivered, barrier arrival
    or release, abort, rank finished); a full token cycle with every live
    rank blocked and zero progress is a deadlock.
    """

    def __init__(self, n: int):
        self._n = n
        self._cond = threading.Condition()
        self._turn = 0
        self._alive = [True] * n
        self._blocked: dict[int, str] = {}
        self._stalled_yields = 0
        self._local = threading.local()

    # -- rank threads --------------------------------------------------------

    def register(self, rank: int) -> None:
        """Bind the calling thread to ``rank`` and park until its turn."""
        self._local.rank = rank
        with self._cond:
            while self._turn != rank:
                self._cond.wait()

    def progress(self) -> None:
        """Record a state change some blocked rank may be waiting on."""
        with self._cond:
            self._stalled_yields = 0

    def yield_blocked(self, reason: str) -> None:
        """Hand the token on; return when it comes back to this rank.

        Raises
        ------
        CommunicationError
            When every live rank is blocked and a whole token cycle made
            no progress: the run is deadlocked and can never resume.
        """
        rank = self._local.rank
        with self._cond:
            self._blocked[rank] = reason
            self._stalled_yields += 1
            live = sum(self._alive)
            if self._stalled_yields > live + 1:
                waits = ", ".join(
                    f"rank {r} in {w}" for r, w in sorted(self._blocked.items())
                )
                raise CommunicationError(
                    f"serial backend deadlock: all {live} live ranks are "
                    f"blocked with no possible progress ({waits})"
                )
            self._pass_token(rank)
            while self._turn != rank:
                self._cond.wait()
            self._blocked.pop(rank, None)

    def finish(self, rank: int) -> None:
        """Mark ``rank`` done (returned or raised) and pass the token on."""
        with self._cond:
            self._alive[rank] = False
            self._stalled_yields = 0
            self._pass_token(rank)

    # -- internals -----------------------------------------------------------

    def _pass_token(self, rank: int) -> None:
        """Move the token to the next live rank after ``rank`` (lock held)."""
        for step in range(1, self._n + 1):
            nxt = (rank + step) % self._n
            if self._alive[nxt]:
                self._turn = nxt
                self._cond.notify_all()
                return
        # No live rank left: nothing to schedule (the run is over).


class _CooperativeBarrier:
    """One-crossing barrier that yields the scheduler token while waiting.

    API-compatible with :class:`~repro.machine.barrier.AbortableBarrier`
    (``wait``/``abort``/``aborted``, last arriver runs the cohort action)
    so it slots straight into a
    :class:`~repro.machine.collectives.SharedRendezvous`.
    """

    def __init__(self, scheduler: _TokenScheduler, n_parties: int):
        self._scheduler = scheduler
        self._n = n_parties
        self._arrived = 0
        self._generation = 0
        self._aborted = False
        self._outcome: Outcome = (None, None)

    @property
    def aborted(self) -> bool:
        return self._aborted

    def abort(self) -> None:
        self._aborted = True
        self._scheduler.progress()

    def wait(self, timeout: float | None = None, action=None) -> Any:
        if self._aborted:
            raise WorkerAborted("barrier aborted")
        gen = self._generation
        self._arrived += 1
        self._scheduler.progress()
        if self._arrived == self._n:
            self._arrived = 0
            self._generation += 1
            self._outcome = close_cohort(action, gen)
        else:
            while self._generation == gen and not self._aborted:
                self._scheduler.yield_blocked("barrier")
            if self._generation == gen:
                raise WorkerAborted("barrier aborted")
        return cohort_result(self._outcome)


class _CooperativeMailbox(Mailbox):
    """Mailbox whose receive yields the token instead of blocking.

    ``timeout`` is ignored: a receive that can never be matched surfaces
    through the scheduler's deadlock detection, which is both faster and
    more precise than a wall-clock timeout.
    """

    def __init__(self, owner_rank: int, scheduler: _TokenScheduler):
        super().__init__(owner_rank)
        self._scheduler = scheduler

    def deliver(self, source, tag, payload) -> None:
        super().deliver(source, tag, payload)
        self._scheduler.progress()

    def abort(self) -> None:
        super().abort()
        self._scheduler.progress()

    def recv(self, source, tag, timeout=None):
        key = (source, tag)
        while True:
            if self._aborted:
                raise WorkerAborted("mailbox aborted")
            q = self._queues.get(key)
            if q:
                return q.popleft()
            self._scheduler.yield_blocked(
                f"recv(source={source}, tag={tag!r})"
            )


class SerialBackend(ExecutionBackend):
    """Deterministic cooperative round-robin scheduling of all ranks."""

    name = "serial"

    def execute(self, launch: Launch) -> SPMDResult:
        p = launch.n_procs
        if p == 1:
            return run_single_rank(launch, self.name)
        scheduler = _TokenScheduler(p)
        engine = CollectiveEngine(
            p,
            launch.cost_model,
            launch.tracer,
            rendezvous=SharedRendezvous(
                p, barrier=_CooperativeBarrier(scheduler, p)
            ),
            topology=launch.topology,
        )
        board = MessageBoard(
            p, mailbox_factory=lambda r: _CooperativeMailbox(r, scheduler)
        )
        clocks = [LogicalClock() for _ in range(p)]
        results: list[Any] = [None] * p
        errors: list[BaseException | None] = [None] * p

        def worker(rank: int) -> None:
            scheduler.register(rank)
            ctx = ProcContext(
                rank=rank,
                size=p,
                comm=Comm(
                    rank, p, engine, board, clocks[rank], launch.cost_model
                ),
                clock=clocks[rank],
                model=launch.cost_model,
            )
            try:
                results[rank] = launch.call(ctx)
            except WorkerAborted as exc:
                errors[rank] = exc
            except BaseException as exc:  # noqa: BLE001 - must not leak threads
                errors[rank] = exc
                engine.abort()
                board.abort()
            finally:
                scheduler.finish(rank)

        t0 = time.perf_counter()
        threads = [
            threading.Thread(
                target=worker, args=(r,), name=f"repro-serial-rank-{r}",
                daemon=True,
            )
            for r in range(p)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=launch.join_timeout)
        stuck = [t.name for t in threads if t.is_alive()]
        if stuck:  # pragma: no cover - the scheduler cannot leave waiters
            engine.abort()
            board.abort()
            for t in threads:
                t.join(timeout=5.0)
        wall = time.perf_counter() - t0

        raise_worker_failures(errors)
        board.drain_check()
        return SPMDResult(
            values=results,
            clocks=[c.now for c in clocks],
            breakdowns=[c.breakdown() for c in clocks],
            wall_time=wall,
            tracer=launch.tracer,
            backend=self.name,
            topology=launch.topology.name,
        )
