"""The ``serial`` backend: deterministic cooperative round-robin execution.

Exactly ONE rank executes at any instant. Each rank runs until it blocks
at a collective rendezvous, then hands a run token to the next live rank
in round-robin order. The interleaving is therefore a pure function of
the program — bit-identical runs every time, no preemption, no lock
contention — which makes this the backend of choice for CI and debugging.
Values, RNG streams and simulated times are identical to the ``threaded``
backend (the differential suite in ``tests/test_backend_conformance.py``
pins exactly that).

Ranks need real call stacks, so they are carried by parked OS threads:
this backend *is* the threaded launch loop, with the run token and a
barrier that yields it plugged in through
:meth:`~repro.machine.backends.threaded.ThreadedBackend._schedule`.
"serial" refers to the execution discipline (the scheduler never lets two
ranks run concurrently), not to the absence of threads.

Deadlock diagnosis: collectives are the only blocking points, so a
cohort can only fail to fill when a rank raised (the barrier aborts) or
returned (it departs the barrier). A rank waiting for a returned one
raises a :class:`~repro.errors.CommunicationError` naming both as soon
as the token reaches it, instead of hanging until a timeout.
"""

from __future__ import annotations

import threading
from typing import Any

from ...errors import WorkerAborted
from ..barrier import Outcome, close_cohort, cohort_result, departure_error
from .threaded import ThreadedBackend

__all__ = ["SerialBackend"]


class _TokenScheduler:
    """Round-robin run token over ``n`` cooperating rank threads.

    Only the token holder executes; a rank blocked at the barrier calls
    :meth:`yield_turn`, which passes the token to the next live rank and
    parks until it comes back. Each rank parks on a lock of its own, held
    while the rank waits for the token, so a pass wakes exactly the next
    holder. Only the token holder touches ``_alive``.
    """

    def __init__(self, n: int):
        self._n = n
        self._alive = [True] * n
        self._locks = [threading.Lock() for _ in range(n)]
        for lock in self._locks[1:]:
            lock.acquire()  # rank 0 holds the token first

    def register(self, rank: int) -> None:
        """Park the calling rank thread until its first turn."""
        self._locks[rank].acquire()

    def yield_turn(self, rank: int) -> None:
        """Hand the token on; return when it comes back to ``rank``."""
        self._pass_token(rank)
        self._locks[rank].acquire()

    def finish(self, rank: int) -> None:
        """Mark ``rank`` done (returned or raised) and pass the token on."""
        self._alive[rank] = False
        self._pass_token(rank)

    def _pass_token(self, rank: int) -> None:
        """Wake the next live rank after ``rank`` (``rank`` holds the token)."""
        for step in range(1, self._n + 1):
            nxt = (rank + step) % self._n
            if self._alive[nxt]:
                self._locks[nxt].release()
                return
        # No live rank left: nothing to schedule (the run is over).


class _CooperativeBarrier:
    """One-crossing barrier that yields the scheduler token while waiting.

    API-compatible with :class:`~repro.machine.barrier.AbortableBarrier`
    (``wait``/``abort``/``depart``, last arriver runs the cohort action)
    so it slots straight into a
    :class:`~repro.machine.collectives.SharedRendezvous`. Only the token
    holder touches it, so it needs no lock.
    """

    def __init__(self, scheduler: _TokenScheduler, n_parties: int):
        self._scheduler = scheduler
        self._n = n_parties
        self._arrived = 0
        self._generation = 0
        self._aborted = False
        self._departed: list[int] = []
        self._outcome: Outcome = (None, None)

    def abort(self) -> None:
        self._aborted = True

    def depart(self, party: int) -> None:
        self._departed.append(party)

    def _check(self, party: int) -> None:
        if self._aborted:
            raise WorkerAborted("barrier aborted")
        if self._departed:
            raise departure_error(party, self._departed)

    def wait(self, timeout: float | None = None, action=None, *,
             party: int) -> Any:
        self._check(party)
        gen = self._generation
        self._arrived += 1
        if self._arrived == self._n:
            self._arrived = 0
            self._generation += 1
            self._outcome = close_cohort(action, gen)
        while self._generation == gen:
            # Every live rank keeps the token until it arrives here, so
            # the token comes back to an open cohort only after a rank
            # raised or returned.
            self._scheduler.yield_turn(party)
            if self._generation == gen:
                self._check(party)
        return cohort_result(self._outcome)


class SerialBackend(ThreadedBackend):
    """Deterministic cooperative round-robin scheduling of all ranks."""

    name = "serial"

    def _schedule(self, p: int):
        scheduler = _TokenScheduler(p)
        return (
            _CooperativeBarrier(scheduler, p), scheduler.register,
            scheduler.finish,
        )
