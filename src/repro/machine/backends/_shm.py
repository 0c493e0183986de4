"""Shared worker-process machinery for the ``process`` and ``pool`` backends.

Both multi-process backends drive ranks the same way; what differs is only
the worker *lifetime* (per-launch forks vs a persistent pool). This module
holds the common pieces once so they cannot drift apart:

* :class:`SharedArray` — one rank shard copied into an anonymous
  shared-memory buffer (``multiprocessing.RawArray``) the children inherit
  and wrap as a zero-copy NumPy view; shard bytes cross the process
  boundary exactly once regardless of how many launches scan them. The
  view is exactly as writable as the source array, so a rank sees its
  argument the same way on every backend: a read-only
  :class:`~repro.core.array.DistributedArray` shard stays read-only.
* :class:`RankTransport` / :class:`QueueRendezvous` — the per-rank
  inbox-queue message fabric that plugs the forked ranks into the shared
  :class:`~repro.machine.collectives.CollectiveEngine`, so the cost
  formulas — and therefore the simulated times — are bit-identical to the
  in-process backends. Collective deposits are the only payloads it
  carries.
* :func:`build_worker_context` — assembles one child rank's
  :class:`~repro.machine.backends.base.ProcContext` over the transport.
* :func:`picklable_failure` — exceptions must survive the result queue;
  unpicklable ones are wrapped in :class:`UnpicklableWorkerFailure`.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import pickle
import queue as queue_module
from typing import Any

import numpy as np

from ...errors import CommunicationError, WorkerAborted
from ..barrier import departure_error
from ..clock import LogicalClock
from ..collectives import CollectiveEngine
from ..comm import Comm
from ..trace import NullTracer, Tracer
from .base import ProcContext

__all__ = [
    "QueueRendezvous",
    "RankTransport",
    "SharedArray",
    "UnpicklableWorkerFailure",
    "build_worker_context",
    "picklable_failure",
    "resolve_shared",
    "share_rank_args",
]


class UnpicklableWorkerFailure(RuntimeError):
    """Stand-in for a worker exception whose type cannot cross processes."""


def picklable_failure(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives a pickle round trip, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return UnpicklableWorkerFailure(f"{type(exc).__name__}: {exc}")


class SharedArray:
    """One rank shard copied into an anonymous shared-memory buffer.

    Created in the parent before the fork; children inherit the mapping
    and wrap it as a zero-copy NumPy view, so shard bytes cross the
    process boundary exactly once (the parent-side copy-in) regardless of
    how often ranks scan them. The view carries the source array's
    writeability.
    """

    def __init__(self, arr: np.ndarray):
        self.writeable = bool(arr.flags.writeable)
        arr = np.ascontiguousarray(arr)
        self.dtype = arr.dtype
        self.shape = arr.shape
        self.size = arr.size
        self._raw = multiprocessing.RawArray(ctypes.c_byte, max(arr.nbytes, 1))
        if arr.size:
            self._view()[...] = arr

    @property
    def nbytes(self) -> int:
        return len(self._raw)

    def _view(self) -> np.ndarray:
        return np.frombuffer(
            self._raw, dtype=self.dtype, count=self.size
        ).reshape(self.shape)

    def as_array(self) -> np.ndarray:
        view = self._view()
        view.flags.writeable = self.writeable
        return view


def share_rank_args(rank_args):
    """Replace every NumPy array in per-rank args with a shared buffer."""
    if rank_args is None:
        return None
    return [
        tuple(
            SharedArray(a) if isinstance(a, np.ndarray) else a for a in row
        )
        for row in rank_args
    ]


def resolve_shared(extra):
    return tuple(
        a.as_array() if isinstance(a, SharedArray) else a for a in extra
    )


class RankTransport:
    """One child's view of the inter-rank queues: demux + buffering.

    Every rank owns one inbox queue; peers push ``coll`` (collective
    deposits, sequence-numbered), ``end`` (clean-completion marker) and
    ``abort`` messages into it. Per-producer FIFO order is what makes the
    end marker exact: a peer's deposits all arrive before its ``end``, so
    a rank still waiting for a deposit from a peer that ended waits for
    one that will never come (a desynchronised program).
    """

    def __init__(self, rank: int, n: int, inboxes, timeout: float):
        self.rank = rank
        self.n = n
        self.aborted = False
        self._inboxes = inboxes
        self._timeout = timeout
        self._coll: dict[tuple[int, int], tuple] = {}
        self._ends: set[int] = set()

    # ---------------------------------------------------------------- sends

    def _encode(self, msg: tuple):
        """Pickle collective deposits eagerly, in the sending rank.

        ``multiprocessing.Queue`` serialises on a background feeder
        thread; a payload that cannot pickle dies *there*, the message is
        never delivered, and every peer stalls until the launch timeout.
        Encoding ``coll`` messages here instead turns that into a
        synchronous :class:`CommunicationError` in the offending rank,
        which then takes the normal broadcast-abort + error-report path.
        Control messages (``end``/``abort``) stay plain tuples — they are
        always picklable and the parent injects raw ``abort`` tuples too.
        """
        if msg[0] != "coll":
            return msg
        try:
            return pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CommunicationError(
                f"rank {self.rank}: {msg[0]} payload cannot cross the "
                f"process boundary ({type(exc).__name__}: {exc})"
            ) from exc

    def send_all(self, msg: tuple) -> None:
        wire = self._encode(msg)
        for dest in range(self.n):
            if dest != self.rank:
                self._inboxes[dest].put(wire)

    def broadcast_abort(self) -> None:
        self.aborted = True
        self.send_all(("abort",))

    # --------------------------------------------------------------- receive

    def _pump(self, timeout: float) -> None:
        """Read and dispatch one inbound message (or time out)."""
        try:
            msg = self._inboxes[self.rank].get(timeout=timeout)
        except queue_module.Empty:
            raise CommunicationError(
                f"rank {self.rank}: no inter-rank message within {timeout}s "
                "(peer stalled or desynchronised)"
            ) from None
        if isinstance(msg, bytes):  # an eagerly-encoded coll (see _encode)
            msg = pickle.loads(msg)
        kind = msg[0]
        if kind == "coll":
            _, seq, src, op, value, clock_now = msg
            self._coll[(src, seq)] = (op, value, clock_now)
        elif kind == "end":
            self._ends.add(msg[1])
        else:  # "abort"
            self.aborted = True

    def _check_abort(self) -> None:
        if self.aborted:
            raise WorkerAborted("sibling rank failed")

    def wait_coll(self, src: int, seq: int) -> tuple:
        key = (src, seq)
        while key not in self._coll:
            self._check_abort()
            if src in self._ends:
                raise departure_error(self.rank, self._ends)
            self._pump(self._timeout)
        self._check_abort()
        return self._coll.pop(key)

    # ----------------------------------------------------------------- drain

    def finish_and_drain(self) -> None:
        """End-marker handshake + unread-deposit check.

        Each rank announces completion to every peer, waits for every
        peer's announcement, then verifies no collective deposit is still
        buffered. Per-producer queue FIFO guarantees any message a peer
        sent *before* its end marker has already been dispatched here. A
        side effect the persistent pool relies on: after every rank
        passes, all inbox queues are empty, so they can carry the next
        launch.
        """
        self.send_all(("end", self.rank))
        while len(self._ends) < self.n - 1:
            self._check_abort()
            self._pump(self._timeout)
        if self._coll:
            raise CommunicationError(
                f"rank {self.rank} finished with {len(self._coll)} unread "
                "collective deposit(s)"
            )


class QueueRendezvous:
    """Message-passing rendezvous: deposits cross per-rank inbox queues.

    Process ranks share no memory, so every rank receives all deposits and
    applies the collective's ``close`` itself; ``close`` is a pure
    function of the deposits, so each rank computes the same product the
    shared-memory rendezvous computes once per cohort.
    """

    def __init__(self, transport: RankTransport):
        self._t = transport
        self._seq = 0

    def exchange(self, rank, op, value, clock_now, close):
        t = self._t
        if t.aborted:
            raise WorkerAborted("sibling rank failed")
        seq = self._seq
        self._seq += 1
        t.send_all(("coll", seq, rank, op, value, clock_now))
        ops: list[str] = [""] * t.n
        values: list[Any] = [None] * t.n
        clocks: list[float] = [0.0] * t.n
        ops[rank], values[rank], clocks[rank] = op, value, clock_now
        for src in range(t.n):
            if src != rank:
                ops[src], values[src], clocks[src] = t.wait_coll(src, seq)
        return close(ops, values, max(clocks))

    def abort(self) -> None:
        self._t.broadcast_abort()


def build_worker_context(
    rank: int,
    p: int,
    cost_model,
    topology,
    transport: RankTransport,
    trace_enabled: bool,
):
    """One child rank's execution context over the queue transport.

    Returns ``(ctx, clock, tracer)`` — the same wiring for a per-launch
    ``process`` child and a persistent ``pool`` worker serving one job.
    """
    tracer = Tracer() if trace_enabled else NullTracer()
    clock = LogicalClock()
    engine = CollectiveEngine(
        p, cost_model, tracer, rendezvous=QueueRendezvous(transport),
        topology=topology,
    )
    ctx = ProcContext(
        rank=rank,
        size=p,
        comm=Comm(rank, p, engine, clock, cost_model),
        clock=clock,
        model=cost_model,
    )
    return ctx, clock, tracer
