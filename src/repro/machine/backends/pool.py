"""The ``pool`` backend: persistent forked workers, shards pinned in shm.

The ``process`` backend gives selection true multi-core execution but pays
fork + shard copy-in on *every* launch — exactly the setup overhead the
paper's coarse-grained model abstracts away. For the serving workload
(a :class:`~repro.core.session.Session` firing many selections at the
same distributed array) that cost dominates the wall clock. This backend
amortises it:

* **Fork once, serve many.** Ranks are forked the first time a launch
  needs them and then kept alive; subsequent launches push a small pickled
  job descriptor down per-rank job queues instead of spawning processes.
  :attr:`PoolBackend.fork_count` counts spawn events so tests and benches
  can assert "k launches, one fork"; each launch also carries its own
  share, which its machine's counters add up. One generation lives per
  rank count, and least-recently used generations are retired before a
  fork would pass :data:`MAX_LIVE_WORKERS` live workers.
* **Shards are pinned.** Every immutable NumPy array in ``rank_args``
  (read-only down to the array that owns its memory, as every
  :class:`~repro.core.array.DistributedArray` shard is) is copied once
  into a :class:`~repro.machine.backends._shm.SharedArray` and referenced
  in later jobs by a small token; workers inherit the pin table at fork
  and wrap buffers as read-only zero-copy views, so repeated launches
  over the same array move no shard bytes at all. Its content cannot
  change, so pins are keyed by identity alone and evicted LRU past
  :data:`MAX_PINNED_BYTES`. Any other array could change between
  launches, so it is never pinned: it rides inside the job's pickle on
  every launch, writeability included. ``RawArray`` segments are
  inherited, never attached: a launch that needs a token the live
  generation was not forked with simply retires that generation and
  re-forks with the merged table.
* **Same fabric, same evidence.** Jobs run over the shared
  :class:`~repro.machine.backends._shm.RankTransport` queue fabric and
  :func:`~repro.machine.backends._shm.build_worker_context`, so values,
  RNG streams and simulated times are bit-identical to every other
  backend. A clean ``finish_and_drain`` leaves the inbox queues empty,
  which is what lets one set of queues carry launch after launch.
* **Failures retire the generation.** Any rank error, abort, timeout or
  worker death tears the generation down (results are epoch-tagged, so a
  straggler from a torn-down launch can never corrupt the next one) and
  raises :class:`~repro.errors.WorkerError` chaining the cause; the next
  launch re-forks transparently — the pool stays usable.
* **Closures still work.** Jobs must pickle (workers already exist, so
  inheritance cannot carry them). A launch whose program or arguments
  cannot be pickled falls back to a one-shot inherited fork — the
  ``process`` mechanism reported under this backend's name — so every
  program that runs on ``process`` runs on ``pool``.

Requires the ``fork`` start method (POSIX), same as ``process``.
"""

from __future__ import annotations

import atexit
import pickle
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass

import numpy as np

from ...errors import WorkerAborted
from ._shm import (
    RankTransport,
    SharedArray,
    build_worker_context,
    picklable_failure,
)
from .base import (
    ExecutionBackend,
    Launch,
    SPMDResult,
    raise_worker_failures,
    run_single_rank,
)
from .process import ProcessBackend, collect_results, require_fork

__all__ = ["PoolBackend"]

#: Soft cap on shard bytes pinned in shared memory before least-recently
#: used pins are dropped (a dropped pin only costs a re-copy + re-fork if
#: that array comes back).
MAX_PINNED_BYTES = 512 * 1024 * 1024

#: Cap on live workers over all rank counts: before a fork would pass it,
#: the least-recently used generations are retired (a retired generation
#: only costs a re-fork if its rank count comes back). The paper's
#: largest machine has 128 ranks.
MAX_LIVE_WORKERS = 128


def _immutable(arr) -> bool:
    """Whether ``arr`` and every array it is a view of are read-only, so
    no writable array can reach its memory."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


@dataclass(frozen=True)
class _PinRef:
    """Placeholder for a pinned shard inside a job's rank-args row."""

    token: int


def _pool_worker_main(rank, p, pins, inboxes, job_q, result_q):
    """Entire life of one pool worker: serve jobs until the ``None``
    sentinel (or termination). ``pins`` is the token → :class:`SharedArray`
    table inherited at fork; every result is tagged with the job's epoch so
    the parent can discard stragglers from torn-down launches."""
    while True:
        job = job_q.get()
        if job is None:
            return
        epoch, payload = job
        try:
            (fn, extra, args, kwargs, cost_model, topology, trace_enabled,
             timeout) = pickle.loads(payload)
        except BaseException as exc:  # noqa: BLE001 - must report, not hang
            result_q.put((epoch, "error", rank, picklable_failure(exc)))
            continue
        transport = RankTransport(rank, p, inboxes, timeout)
        ctx, clock, tracer = build_worker_context(
            rank, p, cost_model, topology, transport, trace_enabled
        )
        try:
            resolved = tuple(
                pins[a.token].as_array() if isinstance(a, _PinRef) else a
                for a in extra
            )
            value = fn(ctx, *resolved, *args, **kwargs)
            transport.finish_and_drain()
            events = tracer.events() if trace_enabled else None
            result_q.put(
                (epoch, "done", rank, value, clock.now, clock.breakdown(),
                 events)
            )
        except WorkerAborted:
            result_q.put((epoch, "aborted", rank))
        except BaseException as exc:  # noqa: BLE001 - must report, not leak
            transport.broadcast_abort()
            result_q.put((epoch, "error", rank, picklable_failure(exc)))


class _RankPool:
    """One generation-managed set of ``p`` persistent workers."""

    def __init__(self, p: int):
        self.p = p
        self.procs = None
        self.job_qs: list = []
        self.inboxes: list = []
        self.result_q = None
        self.epoch = 0
        self.forked_tokens: frozenset[int] = frozenset()

    @property
    def alive(self) -> bool:
        return self.procs is not None and all(
            pr.is_alive() for pr in self.procs
        )

    def spawn(self, mp_ctx, pin_table: dict[int, SharedArray]) -> None:
        """Start a fresh generation inheriting a snapshot of ``pin_table``."""
        self.teardown()
        self.inboxes = [mp_ctx.Queue() for _ in range(self.p)]
        self.job_qs = [mp_ctx.Queue() for _ in range(self.p)]
        self.result_q = mp_ctx.Queue()
        pins = dict(pin_table)
        self.procs = [
            mp_ctx.Process(
                target=_pool_worker_main,
                args=(r, self.p, pins, self.inboxes, self.job_qs[r],
                      self.result_q),
                name=f"repro-pool-rank-{r}",
                daemon=True,
            )
            for r in range(self.p)
        ]
        for pr in self.procs:
            pr.start()
        self.forked_tokens = frozenset(pins)

    def teardown(self) -> None:
        """Retire the generation: sentinel, join, terminate stragglers,
        discard the queues (stale messages die with them)."""
        if self.procs is None:
            return
        for q in self.job_qs:
            try:
                q.put_nowait(None)
            except Exception:
                pass
        for pr in self.procs:
            pr.join(timeout=0.5)
        for pr in self.procs:
            if pr.is_alive():
                pr.terminate()
                pr.join(timeout=5.0)
        for q in [*self.job_qs, *self.inboxes, self.result_q]:
            q.close()
            q.cancel_join_thread()
        self.procs = None
        self.job_qs = []
        self.inboxes = []
        self.result_q = None
        self.forked_tokens = frozenset()


class _InheritedLaunchFallback(ProcessBackend):
    """One-shot forks for unpicklable programs, reported as ``pool``."""

    name = "pool"


class PoolBackend(ExecutionBackend):
    """Persistent forked workers with shared-memory-pinned shards."""

    name = "pool"

    #: Seconds a worker may be observed dead without having reported
    #: before the parent declares it crashed (matches ``process``).
    DEAD_GRACE = 1.0

    def __init__(self):
        self._pools: dict[int, _RankPool] = {}
        self._pin_cache: OrderedDict[int, tuple[np.ndarray, int]] = (
            OrderedDict()
        )
        self._pin_table: dict[int, SharedArray] = {}
        self._pinned_bytes = 0
        self._next_token = 0
        #: Worker events over every launch this backend ran: ``forks``
        #: (generation forks + one-shot fallback launches) and ``reuses``
        #: (launches served by an already-live generation). Survives
        #: :meth:`shutdown` so "k launches, one fork" stays assertable
        #: across a pool's whole life.
        self.events: Counter = Counter()
        self._fallback = _InheritedLaunchFallback()
        atexit.register(self.shutdown)

    @property
    def fork_count(self) -> int:
        return self.events["forks"]

    @property
    def reuse_count(self) -> int:
        return self.events["reuses"]

    def _count(self, launch: Launch, event: str) -> None:
        """One worker event, counted on the backend and on ``launch``."""
        self.events[event] += 1
        launch.counts[event] += 1

    # ------------------------------------------------------------- pinning

    def _unpin(self, key: int) -> None:
        _, token = self._pin_cache.pop(key)
        shared = self._pin_table.pop(token)
        self._pinned_bytes -= shared.nbytes

    def _pin(self, arr: np.ndarray, launch: Launch) -> int:
        """Pin the immutable ``arr`` (identity-keyed) for ``launch`` and
        return its token.

        The cache holds a strong reference to the original array, so its
        ``id`` stays valid for the cache's lifetime.
        """
        key = id(arr)
        hit = self._pin_cache.get(key)
        if hit is not None:
            self._pin_cache.move_to_end(key)
            return hit[1]
        shared = SharedArray(arr)
        token = self._next_token
        self._next_token += 1
        self._pin_table[token] = shared
        self._pin_cache[key] = (arr, token)
        self._pinned_bytes += shared.nbytes
        launch.counts["pinned_bytes"] += shared.nbytes
        return token

    def _evict_over_budget(self, protect: frozenset[int]) -> None:
        """Drop least-recently used pins past the byte budget, never
        touching the tokens the in-flight launch needs."""
        for key in list(self._pin_cache):
            if self._pinned_bytes <= MAX_PINNED_BYTES:
                break
            if self._pin_cache[key][1] in protect:
                continue
            self._unpin(key)

    def _pin_rank_args(self, launch: Launch):
        """Replace immutable arrays with pin tokens; returns ``(rows,
        needed)``. Other arrays stay in the rows and are pickled."""
        if launch.rank_args is None:
            return None, frozenset()
        rows, needed = [], set()
        for row in launch.rank_args:
            out = []
            for a in row:
                if isinstance(a, np.ndarray) and _immutable(a):
                    token = self._pin(a, launch)
                    needed.add(token)
                    out.append(_PinRef(token))
                else:
                    out.append(a)
            rows.append(tuple(out))
        needed = frozenset(needed)
        self._evict_over_budget(needed)
        return rows, needed

    def _make_room(self, n: int, keep: _RankPool | None = None) -> None:
        """Retire least-recently used generations other than ``keep``
        until ``n`` more workers fit under :data:`MAX_LIVE_WORKERS` (all
        of them if they cannot)."""
        others = [o for o in self._pools.values()
                  if o is not keep and o.procs is not None]
        live = sum(o.p for o in others)
        for other in others:
            if live + n <= MAX_LIVE_WORKERS:
                return
            other.teardown()
            live -= other.p

    def _fall_back(self, launch: Launch) -> SPMDResult:
        """Run ``launch`` on one-shot inherited forks, room made first."""
        self._make_room(launch.n_procs)
        self._count(launch, "forks")
        return self._fallback.execute(launch)

    # ------------------------------------------------------------ dispatch

    def _encode_jobs(self, launch: Launch, rows) -> list[bytes] | None:
        """Pickle one job descriptor per rank, or ``None`` if the launch
        cannot cross into already-running workers. The highest pickle
        protocol (5 or later) keeps an unpinned array's writeability, so
        a read-only argument stays read-only in the worker."""
        try:
            payloads = []
            for rank in range(launch.n_procs):
                extra = rows[rank] if rows is not None else ()
                payloads.append(pickle.dumps((
                    launch.fn, extra, launch.args, launch.kwargs,
                    launch.cost_model, launch.topology,
                    launch.tracer.enabled, launch.join_timeout,
                ), protocol=pickle.HIGHEST_PROTOCOL))
            return payloads
        except Exception:
            return None

    def execute(self, launch: Launch) -> SPMDResult:
        p = launch.n_procs
        if p == 1:
            return run_single_rank(launch, self.name)
        mp_ctx = require_fork(self.name)
        # Probe the launch-wide parts first so closure programs skip
        # straight to the fallback without pinning anything.
        try:
            pickle.dumps(
                (launch.fn, launch.args, launch.kwargs)
            )
        except Exception:
            return self._fall_back(launch)
        rows, needed = self._pin_rank_args(launch)
        payloads = self._encode_jobs(launch, rows)
        if payloads is None:
            return self._fall_back(launch)

        # Wall clock from here mirrors the process backend: the fork (when
        # one happens) is inside the measurement, argument staging is not.
        t0 = time.perf_counter()
        pool = self._pools.pop(p, None)
        if pool is None:
            pool = _RankPool(p)
        self._pools[p] = pool  # most recently used last
        if not pool.alive or not needed <= pool.forked_tokens:
            self._make_room(p, keep=pool)
            pool.spawn(mp_ctx, self._pin_table)
            self._count(launch, "forks")
        else:
            self._count(launch, "reuses")

        pool.epoch += 1
        epoch = pool.epoch
        for rank in range(p):
            pool.job_qs[rank].put((epoch, payloads[rank]))
        values, clocks, breakdowns, trace_events, errors = collect_results(
            pool.procs, pool.result_q, p, launch.join_timeout,
            self.DEAD_GRACE, epoch=epoch, inboxes=pool.inboxes,
        )
        wall = time.perf_counter() - t0

        if any(errors):
            # Retire the generation: queue state after a failed launch is
            # unknowable. The next launch re-forks — the pool recovers.
            pool.teardown()
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

    # ------------------------------------------------------------ lifetime

    @property
    def pinned_bytes(self) -> int:
        """Shard bytes currently pinned in shared memory — the resident
        cost a long-lived service carries between launches (bounded by
        ``MAX_PINNED_BYTES`` via LRU eviction)."""
        return self._pinned_bytes

    def shutdown(self) -> None:
        """Retire every generation and drop all pins (counters survive).

        This is the hook behind ``SPMDRuntime.release_workers`` — the
        graceful-shutdown seam a draining ``repro.serve`` service calls.
        The backend stays usable: the next launch re-pins and re-forks a
        fresh generation transparently.
        """
        for pool in self._pools.values():
            pool.teardown()
        self._pools.clear()
        self._pin_cache.clear()
        self._pin_table.clear()
        self._pinned_bytes = 0
