"""A reusable, abortable barrier whose last arriver closes the cohort.

``threading.Barrier`` already supports reuse, abort and an action, but its
abort story is awkward for our use case: once broken it must be explicitly
reset, every waiter gets an opaque ``BrokenBarrierError``, and an action
that raises breaks the barrier for every later cohort. The SPMD runtime
wants richer semantics:

* when any rank *fails* (raises), all ranks currently in — or later arriving
  at — the barrier must raise :class:`~repro.errors.WorkerAborted`
  immediately and permanently (an aborted run never resumes);
* when a rank *returns*, it has issued its last collective, so no later
  cohort can fill: every rank parked at — or later arriving at — the
  barrier raises :class:`~repro.errors.CommunicationError` naming it (a
  desynchronised program fails at once instead of hanging);
* every collective crosses the barrier exactly once, so the crossing must
  also *close* the collective: the last party to arrive runs a cohort
  action once, while every other party is parked, and every party leaves
  with that action's result (or raises its exception);
* barrier waits happen at every collective, so the implementation must be
  cheap and must never deadlock even if ranks race abort with arrival.

Each parked party blocks on a lock of its own. The last arriver claims the
parked set, runs the action outside the barrier's lock, publishes the
outcome and releases each party's lock in turn, so a woken thread never
queues on a shared lock on its way out (a ``Condition`` would make all of
them reacquire one). The outcome needs no per-generation copy: the next
cohort cannot close before every woken party has arrived at it, i.e. read
this one.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

from ..errors import CommunicationError, ConfigurationError, WorkerAborted

__all__ = ["AbortableBarrier", "departure_error"]

#: ``(error, result)`` of one cohort's closing; exactly one side is set.
Outcome = tuple[BaseException | None, Any]


def close_cohort(action: Callable[[], Any] | None, generation: int) -> Outcome:
    """Run a cohort's action once (on the last arriver) and capture it.

    Without an action the result is the generation index. An exception is
    captured, not raised, so that every party of the cohort re-raises it.
    """
    if action is None:
        return None, generation
    try:
        return None, action()
    except BaseException as exc:  # noqa: BLE001 - re-raised by every party
        return exc, None


def departure_error(
    party: int | None, departed: Iterable[int]
) -> CommunicationError:
    """``party`` waits for a collective that returned ranks cannot join."""
    gone = ", ".join(f"rank {r}" for r in sorted(departed))
    return CommunicationError(
        f"rank {party} waits at a collective that can never complete: "
        f"{gone} already returned (desynchronised SPMD program)"
    )


def cohort_result(outcome: Outcome) -> Any:
    """A party's exit from the barrier: the action's result, or its error."""
    error, result = outcome
    if error is not None:
        raise error
    return result


class AbortableBarrier:
    """One-crossing barrier over ``n_parties`` threads with sticky abort."""

    def __init__(self, n_parties: int):
        if n_parties < 1:
            raise ConfigurationError(f"barrier needs >= 1 parties, got {n_parties}")
        self._n = n_parties
        self._lock = threading.Lock()
        #: Locks of the parties parked in the open generation (each held,
        #: released once to wake its owner).
        self._parked: list[Any] = []
        self._generation = 0
        self._aborted = False
        self._departed: list[int] = []
        self._outcome: Outcome = (None, None)

    @property
    def n_parties(self) -> int:
        return self._n

    @property
    def aborted(self) -> bool:
        return self._aborted

    def abort(self) -> None:
        """Permanently break the barrier, waking all current waiters.

        Parties already claimed by a closing cohort are left to it: they
        leave with that cohort's outcome and meet the abort at their next
        wait.
        """
        with self._lock:
            self._aborted = True
            self._release_parked()

    def depart(self, party: int) -> None:
        """``party`` returned from the program and leaves for good.

        No cohort can fill without it, so every party parked now, and
        every later arrival, raises :func:`departure_error`.
        """
        with self._lock:
            self._departed.append(party)
            self._release_parked()

    def _release_parked(self) -> None:
        """Wake the open generation's parties without closing it (lock
        held): each sees the generation unmoved and raises."""
        parked, self._parked = self._parked, []
        for waiter in parked:
            waiter.release()

    def _broken(self, party: int | None) -> Exception:
        if self._aborted:
            return WorkerAborted("barrier aborted")
        return departure_error(party, self._departed)

    def wait(
        self,
        timeout: float | None = None,
        action: Callable[[], Any] | None = None,
        party: int | None = None,
    ) -> Any:
        """Block until all parties arrive; the last arrival closes the cohort.

        The last party to arrive calls ``action()`` exactly once, while every
        other party is parked, and every party returns its result (or
        raises the exception it raised). Without an action every party
        returns the generation index. ``party`` is the waiting rank, named
        in a departure error.

        Raises
        ------
        WorkerAborted
            If the barrier was aborted before or while waiting.
        CommunicationError
            If a party departed before or while waiting.
        TimeoutError
            If ``timeout`` elapses (used only by tests; production waits are
            unbounded because collectives are guaranteed to rendezvous). The
            arrival is withdrawn first, so the barrier still counts only the
            parties actually waiting.
        """
        with self._lock:
            if self._aborted or self._departed:
                raise self._broken(party)
            gen = self._generation
            last = len(self._parked) + 1 == self._n
            if last:
                # Claim the cohort and open the next generation.
                parked, self._parked = self._parked, []
                self._generation = gen + 1
            else:
                waiter = threading.Lock()
                waiter.acquire()
                self._parked.append(waiter)
        if last:
            outcome = close_cohort(action, gen)
            self._outcome = outcome
            for other in parked:
                other.release()
            return cohort_result(outcome)
        if not waiter.acquire(timeout=-1 if timeout is None else timeout):
            with self._lock:
                if waiter in self._parked:
                    self._parked.remove(waiter)
                    raise TimeoutError(
                        f"barrier wait timed out after {timeout}s "
                        f"({len(self._parked) + 1}/{self._n} arrived)"
                    )
            # Claimed by a closing cohort (or an abort or departure) as the
            # timer ran out: its release is already on the way.
            waiter.acquire()
        if self._generation == gen:
            # Woken by an abort or a departure, not by a closing: the
            # generation never moved.
            raise self._broken(party)
        return cohort_result(self._outcome)
