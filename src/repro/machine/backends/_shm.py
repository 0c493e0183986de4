"""Shared worker-process machinery for the ``process`` and ``pool`` backends.

Both multi-process backends drive ranks the same way; what differs is only
the worker *lifetime* (per-launch forks vs a persistent pool). This module
holds the common pieces once so they cannot drift apart:

* :class:`SharedArray` — one rank shard copied into an anonymous
  shared-memory buffer (``multiprocessing.RawArray``) the children inherit
  and wrap as a zero-copy NumPy view; shard bytes cross the process
  boundary exactly once regardless of how many launches scan them.
* :class:`RankTransport` / :class:`QueueRendezvous` /
  :class:`QueueBoard` — the per-rank inbox-queue message fabric that plugs
  the forked ranks into the shared
  :class:`~repro.machine.collectives.CollectiveEngine`, so the cost
  formulas — and therefore the simulated times — are bit-identical to the
  in-process backends.
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
import time
from collections import deque
from typing import Any

import numpy as np

from ...errors import CommunicationError, WorkerAborted
from ..clock import LogicalClock
from ..collectives import CollectiveEngine
from ..comm import Comm
from ..trace import NullTracer, Tracer
from .base import ProcContext

__all__ = [
    "QueueBoard",
    "QueueMailbox",
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
    how often ranks scan them.
    """

    def __init__(self, arr: np.ndarray):
        arr = np.ascontiguousarray(arr)
        self.dtype = arr.dtype
        self.shape = arr.shape
        self.size = arr.size
        self._raw = multiprocessing.RawArray(ctypes.c_byte, max(arr.nbytes, 1))
        if arr.size:
            self.as_array()[...] = arr

    @property
    def nbytes(self) -> int:
        return len(self._raw)

    def as_array(self) -> np.ndarray:
        return np.frombuffer(
            self._raw, dtype=self.dtype, count=self.size
        ).reshape(self.shape)

    def matches(self, arr: np.ndarray) -> bool:
        """Cheap staleness guard for pinned arrays: shape/dtype plus a
        three-point content probe (first/middle/last element). Pinning is
        by object identity; this catches the common in-place mutations
        without re-hashing the whole buffer every launch."""
        if arr.dtype != self.dtype or arr.shape != self.shape:
            return False
        if not arr.size:
            return True
        view = self.as_array()
        probe = (0, arr.size // 2, arr.size - 1)
        flat, vflat = arr.reshape(-1), view.reshape(-1)
        return all(flat[i] == vflat[i] for i in probe)


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
    deposits, sequence-numbered), ``p2p`` (tagged point-to-point
    payloads), ``end`` (clean-completion marker used by the drain check)
    and ``abort`` messages into it. Per-producer FIFO order is what makes
    the end-marker drain protocol sound.
    """

    def __init__(self, rank: int, n: int, inboxes, timeout: float):
        self.rank = rank
        self.n = n
        self.aborted = False
        self._inboxes = inboxes
        self._timeout = timeout
        self._coll: dict[tuple[int, int], tuple] = {}
        self._p2p: dict[tuple[int, Any], deque] = {}
        self._ends: set[int] = set()

    # ---------------------------------------------------------------- sends

    def _encode(self, msg: tuple):
        """Pickle payload-carrying messages eagerly, in the sending rank.

        ``multiprocessing.Queue`` serialises on a background feeder
        thread; a payload that cannot pickle dies *there*, the message is
        never delivered, and every peer stalls until the launch timeout.
        Encoding ``coll``/``p2p`` messages here instead turns that into a
        synchronous :class:`CommunicationError` in the offending rank,
        which then takes the normal broadcast-abort + error-report path.
        Control messages (``end``/``abort``) stay plain tuples — they are
        always picklable and the parent injects raw ``abort`` tuples too.
        """
        if msg[0] not in ("coll", "p2p"):
            return msg
        try:
            return pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CommunicationError(
                f"rank {self.rank}: {msg[0]} payload cannot cross the "
                f"process boundary ({type(exc).__name__}: {exc})"
            ) from exc

    def send_to(self, dest: int, msg: tuple) -> None:
        self._inboxes[dest].put(self._encode(msg))

    def send_all(self, msg: tuple) -> None:
        wire = self._encode(msg)
        for dest in range(self.n):
            if dest != self.rank:
                self._inboxes[dest].put(wire)

    def broadcast_abort(self) -> None:
        self.aborted = True
        self.send_all(("abort",))

    def deliver_local(self, source: int, tag, payload) -> None:
        """A self-send: never touches a queue."""
        self._p2p.setdefault((source, tag), deque()).append(payload)

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
        if isinstance(msg, bytes):  # eagerly-encoded coll/p2p (see _encode)
            msg = pickle.loads(msg)
        kind = msg[0]
        if kind == "coll":
            _, seq, src, op, value, clock_now = msg
            self._coll[(src, seq)] = (op, value, clock_now)
        elif kind == "p2p":
            _, src, tag, payload = msg
            self._p2p.setdefault((src, tag), deque()).append(payload)
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
            self._pump(self._timeout)
        self._check_abort()
        return self._coll.pop(key)

    def wait_p2p(self, src: int, tag, timeout: float | None):
        key = (src, tag)
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._p2p.get(key):
            self._check_abort()
            remaining = self._timeout
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"rank {self.rank}: recv(source={src}, tag={tag!r}) "
                        f"timed out after {timeout}s"
                    )
                remaining = min(remaining, self._timeout)
            try:
                self._pump(remaining)
            except CommunicationError:
                if deadline is None:
                    raise
                continue  # keep waiting until the caller's own deadline
        self._check_abort()
        return self._p2p[key].popleft()

    # ----------------------------------------------------------------- drain

    def finish_and_drain(self) -> None:
        """End-marker handshake + undelivered-message check.

        Each rank announces completion to every peer, waits for every
        peer's announcement, then verifies nothing tagged for it is still
        buffered. Per-producer queue FIFO guarantees any message a peer
        sent *before* its end marker has already been dispatched here, so
        a clean pass means no unmatched sends anywhere — the
        process-world equivalent of the runtime's ``drain_check``. A side
        effect the persistent pool relies on: after every rank passes, all
        inbox queues are empty, so they can carry the next launch.
        """
        self.send_all(("end", self.rank))
        while len(self._ends) < self.n - 1:
            self._check_abort()
            self._pump(self._timeout)
        pending = sum(len(q) for q in self._p2p.values())
        if pending or self._coll:
            raise CommunicationError(
                f"rank {self.rank} finished with {pending} undelivered "
                f"point-to-point message(s) and {len(self._coll)} unread "
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


class QueueMailbox:
    """Receive side of one rank's point-to-point traffic."""

    def __init__(self, transport: RankTransport):
        self._t = transport

    def recv(self, source: int, tag, timeout: float | None = None):
        return self._t.wait_p2p(source, tag, timeout)


class QueueBoard:
    """MessageBoard-compatible facade over the queue transport."""

    def __init__(self, transport: RankTransport):
        self._t = transport
        self._mailbox = QueueMailbox(transport)

    def send(self, source: int, dest: int, tag, payload) -> None:
        n = self._t.n
        if not (0 <= dest < n):
            raise CommunicationError(
                f"send: destination rank {dest} out of range [0, {n})"
            )
        if dest == self._t.rank:
            self._t.deliver_local(source, tag, payload)
        else:
            self._t.send_to(dest, ("p2p", source, tag, payload))

    def mailbox(self, rank: int):
        if rank != self._t.rank:  # pragma: no cover - misuse guard
            raise CommunicationError(
                "a rank may only read its own mailbox"
            )
        return self._mailbox

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
    board = QueueBoard(transport)
    ctx = ProcContext(
        rank=rank,
        size=p,
        comm=Comm(rank, p, engine, board, clock, cost_model),
        clock=clock,
        model=cost_model,
    )
    return ctx, clock, tracer
