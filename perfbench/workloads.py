"""The three benchmark workloads, driven through the public ``repro`` API.

Every workload pins ``backend="threaded"`` and ``topology="crossbar"`` and
uses the reference kernels (the parent process strips ``REPRO_*`` from the
environment). Inputs come only from the seed; the program receives host
arrays. Each workload checks every answer against ``np.partition`` on the
same host keys and ranks.

A workload object has two steps: :meth:`setup` (timed as ``setup_s``:
machine construction, array or stream registration, one warm-up query) and
:meth:`measure` (the measured phase, ``seconds`` long). ``measure`` returns
a :class:`Phase` with the raw samples.
"""

from __future__ import annotations

import asyncio
import math
import resource
import time
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

import repro
import spec
from stats import Outcomes, percentile

perf = time.perf_counter

BACKEND = "threaded"
TOPOLOGY = "crossbar"

#: Parts of a run with their own seeded inputs.
WARM, SETTLE, MEASURE = 0, 1, 2


def make_machine(p: int) -> repro.Machine:
    return repro.Machine(p, backend=BACKEND, topology=TOPOLOGY)


def median_rank(n: int) -> int:
    """The paper's median: rank ``ceil(n / 2)`` (1-based)."""
    return (n + 1) // 2


def quantile_rank(q: float, n: int) -> int:
    """Quantile ``q`` as a 1-based rank, ``ceil(q * n)``."""
    return max(1, math.ceil(q * n))


def reset_peak_rss() -> bool:
    """Restart the resident-set high-water mark from the current resident
    set (Linux ``clear_refs``), so the next :func:`peak_rss_mb` covers only
    what runs in between. Returns False where that is not possible; the
    peak then covers the whole process."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """High-water resident set of this process since the last reset, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def oracle(keys: np.ndarray, ranks) -> list:
    """The exact answers: ``np.partition`` on the host keys."""
    idx = [k - 1 for k in ranks]
    part = np.partition(keys, idx)
    return [part[i] for i in idx]


@dataclass
class Phase:
    """Raw samples of one measured phase."""

    #: Latency of each operation (open loop: appends included).
    latency_s: list = field(default_factory=list)
    #: Simulated seconds of each launch the phase paid for (closed loops:
    #: one launch per query, in query order).
    launch_sim_s: list = field(default_factory=list)
    #: Read queries answered (closed loop: every query; open loop: every
    #: read op, a dashboard triple counting once).
    queries: int = 0
    iterations: list = field(default_factory=list)
    survivor_fractions: list = field(default_factory=list)
    numpy_s: list = field(default_factory=list)
    outcomes: Outcomes = field(default_factory=Outcomes)
    #: Seconds the workload spent serving (closed loop: the sum of query
    #: latencies; open loop: phase start to the last completion).
    busy_s: float = 0.0
    #: Peak resident set while the program ran: over the query calls on
    #: the closed loops, over the whole phase on the open loop. Harness
    #: inputs and oracle copies made outside those windows are not in it.
    peak_rss_mb: float = 0.0
    #: Whether the peak could be scoped as above (else: whole process).
    rss_scoped: bool = False
    extra: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Closed loops
# --------------------------------------------------------------------------


class ClosedLoop:
    """One client issuing its next query when the previous one returns.

    Input generation and the oracle check run between queries, outside the
    timed region and outside the peak-RSS window, so ``throughput_qps`` is
    queries per second of query wall time.
    """

    p = 0

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, part: int) -> np.random.Generator:
        """The key source of one part of the run (``WARM``, ``SETTLE`` or
        ``MEASURE``): the measured inputs do not depend on how many
        queries the settle phase managed."""
        return np.random.default_rng([self.seed, self.stream_id, part])

    def setup(self) -> None:
        self.machine = make_machine(self.p)
        self.query(self.make_keys(0, self.inputs(WARM)))

    def session_counters(self) -> tuple:
        s = self.machine.default_session.stats
        return (s.queries, s.launches, s.cache_hits, s.cache_misses)

    def measure(self, seconds: float, tracer=None, part: int = MEASURE) -> Phase:
        phase = Phase()
        rng = self.inputs(part)
        query = self.query if tracer is None else tracer.wrap("query", self.query)
        t_end = perf() + seconds
        i = 0
        while i == 0 or perf() < t_end:
            keys = self.make_keys(i, rng)
            ranks = self.ranks(keys.size)
            if tracer is not None:
                tracer.set_query(i)
            phase.rss_scoped = reset_peak_rss()
            t0 = perf()
            try:
                reports = query(keys)
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                phase.outcomes.record("failed", repr(exc))
                i += 1
                continue
            dt = perf() - t0
            phase.peak_rss_mb = max(phase.peak_rss_mb, peak_rss_mb())
            t1 = perf()
            expected = oracle(keys, ranks)
            phase.numpy_s.append(perf() - t1)
            got = [r.value for r in reports]
            if got != expected or [r.k for r in reports] != ranks:
                phase.outcomes.record(
                    "wrong", f"query {i}: got {got}, expected {expected}")
            else:
                phase.outcomes.record("ok")
            phase.latency_s.append(dt)
            phase.busy_s += dt
            phase.launch_sim_s.append(reports[0].simulated_time)
            phase.queries += 1
            phase.iterations.append(reports[0].stats.n_iterations)
            i += 1
        return phase


class MedianFresh(ClosedLoop):
    """The paper's flagship query on fresh keys each time."""

    stream_id = 1
    p = 8
    n = 1 << 17

    def make_keys(self, i: int, rng) -> np.ndarray:
        return rng.random(self.n)

    def ranks(self, n: int) -> list:
        return [median_rank(n)]

    def query(self, keys):
        return [self.machine.distribute(keys).median()]


class Quantiles2M(ClosedLoop):
    """Three quantiles of 2^21 fresh keys, cycling the input shape."""

    stream_id = 2
    p = 4
    n = 1 << 21
    qs = (0.5, 0.9, 0.99)
    shapes = ("uniform", "sorted", "dups")

    def make_keys(self, i: int, rng) -> np.ndarray:
        shape = self.shapes[i % len(self.shapes)]
        if shape == "uniform":
            return rng.random(self.n)
        if shape == "sorted":
            return np.cumsum(rng.random(self.n))
        return rng.integers(0, 64, self.n).astype(np.float64)

    def ranks(self, n: int) -> list:
        return [quantile_rank(q, n) for q in self.qs]

    def query(self, keys):
        return self.machine.distribute(keys).quantiles(list(self.qs))


# --------------------------------------------------------------------------
# Open loop: serve-stream
# --------------------------------------------------------------------------


APPEND, TRIPLE, MEDIAN = 0, 1, 2


class _StreamMirror:
    """The seed keys of one stream's batches, in append order, to rebuild
    any window state the service could have answered against. Batches are
    regenerated from their keys after the phase, so the harness holds no
    copy of the stream's data while the program runs."""

    #: Sorted window states kept for the oracle pass (reads are checked in
    #: completion order, so recent states are the ones asked for again).
    KEEP_SORTED = 2

    def __init__(self, window: int, make):
        self.window = window
        self.make = make
        self.batches: list[tuple] = []
        self._sorted: OrderedDict = OrderedDict()

    @property
    def appends(self) -> int:
        return len(self.batches) - self.window

    def candidates(self, j_from: int, j_to: int):
        """Window states live between append counts ``j_from`` and
        ``j_to``: the settled window after each append, and the moment
        inside an append when the new batch is live and the oldest is not
        yet retired."""
        for j in range(j_from, j_to + 1):
            hi = self.window + j
            yield (hi - self.window, hi)
            if j > j_from:
                yield (hi - self.window - 1, hi)

    def sorted_state(self, state) -> np.ndarray:
        arr = self._sorted.get(state)
        if arr is None:
            arr = np.sort(self.keys(state))
            self._sorted[state] = arr
            if len(self._sorted) > self.KEEP_SORTED:
                self._sorted.popitem(last=False)
        else:
            self._sorted.move_to_end(state)
        return arr

    def forget_sorted(self) -> None:
        self._sorted.clear()

    def keys(self, state) -> np.ndarray:
        return np.concatenate([self.make(key)
                               for key in self.batches[state[0]:state[1]]])


class _FlushGate(ThreadPoolExecutor):
    """The event loop's default executor, where ``SelectionService`` runs
    each flush cycle (``asyncio.to_thread``), plus a way to wait until no
    flush is running.

    ``StreamingArray.append`` is not safe against a flush reading the same
    stream from another thread: a shard, fingerprint or sketch memo built
    from the window before the append can be stored after it, and later
    queries are then answered from the old window. Appends therefore wait
    for :meth:`quiet` and run on the event loop, where no flush can start
    until they return.
    """

    def __init__(self, loop):
        super().__init__(max_workers=1)
        self._loop = loop
        self._running = 0
        self._idle = asyncio.Event()
        self._idle.set()

    def submit(self, fn, /, *args, **kwargs):
        # Called on the event loop thread.
        self._running += 1
        self._idle.clear()
        fut = super().submit(fn, *args, **kwargs)
        fut.add_done_callback(
            lambda _: self._loop.call_soon_threadsafe(self._finished))
        return fut

    def _finished(self) -> None:
        self._running -= 1
        if not self._running:
            self._idle.set()

    async def quiet(self) -> None:
        """Return when no flush is running. Re-checked after each wake: a
        new flush may have started before this task resumed."""
        while self._running:
            await self._idle.wait()


class ServeStream:
    """Seeded Poisson arrivals into one ``SelectionService``.

    Four sliding-window streams; the op mix is appends (writes), dashboard
    quantile triples from one tenant and medians from another, offered at
    ``spec.SERVE_RATE``. Every op, appends included, is timed from the
    moment it was due; an append waits for the flush cycle in progress
    (:class:`_FlushGate`). Answers are checked after the phase against
    every window state that was live while the op was in flight.
    """

    p = 4
    n_streams = 4
    window = 16
    batch = 16384
    service_window_s = 0.002
    mix = (0.2, 0.5, 0.3)  # append, dashboard triple, median
    qs = (0.5, 0.9, 0.99)

    def __init__(self, seed: int):
        self.seed = seed
        #: Released once set-up has appended them.
        self.initial = [
            [self.make_batch((WARM, s * self.window + b), s)
             for b in range(self.window)]
            for s in range(self.n_streams)
        ]

    def inputs(self, part: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 3, part])

    def make_batch(self, key: tuple, s: int) -> np.ndarray:
        """The batch of stream ``s`` seeded by ``key``: ``(WARM, index)``
        for the initial window, ``(part, op index)`` for an append."""
        return self._batch(np.random.default_rng([self.seed, 4, *key]), s)

    def _batch(self, rng, s: int) -> np.ndarray:
        """One batch of stream ``s``; each stream has its own distribution."""
        if s == 0:
            return rng.random(self.batch)
        if s == 1:
            return rng.normal(100.0, 15.0, self.batch)
        if s == 2:
            return rng.lognormal(3.0, 1.0, self.batch)
        return rng.exponential(20.0, self.batch)

    def schedule(self, seconds: float, part: int = MEASURE) -> list:
        """``(due_s, kind, stream)`` for every op of the phase: a Poisson
        process at ``spec.SERVE_RATE`` conditioned on its count, so the
        offered rate is exact for every seed. The op mix and the spread of
        each kind over the streams are exact too; the seed shuffles their
        order."""
        rng = self.inputs(part)
        n_ops = max(1, int(round(spec.SERVE_RATE * seconds)))
        due = np.sort(rng.uniform(0.0, seconds, n_ops))
        counts = np.floor(np.asarray(self.mix) * n_ops).astype(int)
        counts[MEDIAN] = n_ops - counts[APPEND] - counts[TRIPLE]
        kinds = np.repeat([APPEND, TRIPLE, MEDIAN], counts)
        streams = np.concatenate([np.arange(c) % self.n_streams for c in counts])
        order = rng.permutation(n_ops)
        kinds, streams = kinds[order], streams[order]
        return [(float(d), int(k), int(s))
                for d, k, s in zip(due, kinds, streams)]

    async def setup(self) -> None:
        loop = asyncio.get_running_loop()
        self.gate = _FlushGate(loop)
        loop.set_default_executor(self.gate)
        self.machine = make_machine(self.p)
        self.streams = []
        self.mirrors = []
        for s, batches in enumerate(self.initial):
            st = self.machine.stream(window=self.window)
            mirror = _StreamMirror(
                self.window, lambda key, s=s: self.make_batch(key, s))
            for b, arr in enumerate(batches):
                st.append(arr)
                mirror.batches.append((WARM, s * self.window + b))
            self.streams.append(st)
            self.mirrors.append(mirror)
        self.initial = None
        self.service = repro.SelectionService(
            self.machine, window=self.service_window_s)
        for s, st in enumerate(self.streams):
            self.service.register(f"s{s}", st)
        await self.service.median("s0", tenant="warmup")

    def session_counters(self) -> tuple:
        s = self.service.session.stats
        return (s.queries, s.launches, s.cache_hits, s.cache_misses)

    def service_counters(self) -> dict:
        st = self.service.stats
        return {"resolved": st.resolved, "flush_cycles": st.flush_cycles,
                "launches_saved": st.launches_saved, "rejected": st.rejected}

    async def measure(self, seconds: float, tracer=None,
                      ops: list | None = None, part: int = MEASURE) -> Phase:
        phase = Phase()
        ops = self.schedule(seconds, part) if ops is None else ops
        reads: list = []
        lags: list = []
        phase.rss_scoped = reset_peak_rss()
        t_start = perf()
        tasks = []
        for i, (due, kind, s) in enumerate(ops):
            # An append's batch is made while its op waits to be due.
            batch = self.make_batch((part, i), s) if kind == APPEND else None
            delay = t_start + due - perf()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(max(0.0, perf() - t_start - due))
            tasks.append(asyncio.create_task(
                self._op((part, i), t_start + due, kind, s, batch, phase,
                         reads, tracer)))
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=120.0)
        phase.busy_s = max(phase.extra.pop("done", [t_start])) - t_start
        phase.peak_rss_mb = peak_rss_mb()
        phase.extra.pop("launches", None)
        self.check(reads, phase)
        phase.extra["gen_lag_p99_ms"] = percentile(lags, 99) * 1e3
        return phase

    async def _op(self, key, due_abs, kind, s, batch, phase, reads, tracer):
        name = f"s{s}"
        mirror = self.mirrors[s]
        if tracer is not None:
            tracer.set_query(f"op-{key[1]}")
        if kind == APPEND:
            await self.gate.quiet()
            try:
                self.streams[s].append(batch)
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                phase.outcomes.record("failed", repr(exc))
                return
            mirror.batches.append(key)
            phase.outcomes.record("ok")
            self._done(phase, due_abs)
            return
        n = self.window * self.batch
        j0 = mirror.appends
        if kind == TRIPLE:
            ranks = [quantile_rank(q, n) for q in self.qs]
            calls = [self.service.quantile(name, q, tenant="dashboard")
                     for q in self.qs]
        else:
            ranks = [median_rank(n)]
            calls = [self.service.median(name, tenant="ops")]
        results = await asyncio.gather(*calls, return_exceptions=True)
        errors = [r for r in results if isinstance(r, BaseException)]
        if errors:
            refused = any(isinstance(e, repro.AdmissionError) for e in errors)
            phase.outcomes.record("refused" if refused else "failed",
                                  repr(errors[0]))
            return
        phase.outcomes.record("ok")
        self._done(phase, due_abs)
        reads.append((s, ranks, [r.value for r in results], j0,
                      mirror.appends))
        phase.queries += 1
        # Reports of one launch share its result object. A weak map by id
        # counts each launch once without keeping any result alive.
        seen = phase.extra.setdefault("launches", weakref.WeakValueDictionary())
        for r in results:
            if not r.cached and seen.get(id(r.result)) is not r.result:
                seen[id(r.result)] = r.result
                phase.launch_sim_s.append(r.simulated_time)
        phase.iterations.append(max(r.stats.n_iterations for r in results))
        for r in results:
            pre = r.stats.prefilter
            if pre is not None:
                phase.survivor_fractions.append(pre.survivor_fraction)

    def _done(self, phase: Phase, due_abs: float) -> None:
        now = perf()
        phase.latency_s.append(now - due_abs)
        phase.extra.setdefault("done", []).append(now)

    def check(self, reads: list, phase: Phase) -> None:
        """Oracle pass after the phase: each answer must equal the exact
        answer over a window state live while its op was in flight. The
        three quantiles of a triple are separate service queries and may
        land in different flush cycles, so each is checked on its own."""
        for s, ranks, values, j0, j1 in reads:
            mirror = self.mirrors[s]
            states = list(mirror.candidates(j0, j1))
            ok = all(
                any(mirror.sorted_state(state)[k - 1] == v for state in states)
                for k, v in zip(ranks, values)
            )
            if not ok:
                phase.outcomes.mark_wrong(
                    f"stream s{s} ranks {ranks}: got {values}")
            state = next(mirror.candidates(j0, j0))
            keys = mirror.keys(state)
            t0 = perf()
            oracle(keys, ranks)
            phase.numpy_s.append(perf() - t0)
        for mirror in self.mirrors:
            mirror.forget_sorted()


WORKLOADS = {
    "median-fresh": MedianFresh,
    "quantiles-2m": Quantiles2M,
    "serve-stream": ServeStream,
}
