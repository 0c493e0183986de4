"""Outside-in per-layer tracing: timing wrappers installed around the public
entry points of each ``repro`` layer, from the benchmark's own files.

Nothing under ``src/`` changes. :meth:`LayerTracer.install` replaces each
entry point with a wrapper that times the call on the calling thread; the
original is restored by :meth:`LayerTracer.uninstall`. Each thread keeps
its own accumulators and span stack (rank threads of the threaded backend
record without a shared lock); :meth:`LayerTracer.totals` sums them when
the run ends.

A layer's *self* time is its inclusive time minus the time of the traced
layers called beneath it on the same thread. A call into the layer that is
already on top of the thread's stack (recursion, or one session entry point
calling another) is folded into the outer call.

Spans are kept in memory and written as a Chrome trace-event JSON file that
Perfetto loads. Spans of one query share a ``query`` id; on ``serve-stream``
one flush cycle is one id. The hot per-rank layers (kernels, rendezvous,
payload sizing) are aggregated only, except for the first few launches of
the run, which keep one span per call.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

import numpy as np

perf = time.perf_counter

#: Layers whose calls are too frequent to keep every span.
HOT = frozenset({"kernels", "machine.collectives.exchange",
                 "machine.collectives.payload_words"})

#: Launches at the start of a run whose hot-layer calls keep one span each.
DETAIL_LAUNCHES = 3


class _ThreadState(threading.local):
    """Per-thread stack and accumulators (``gen`` ties them to a reset)."""

    gen = -1
    stack: list
    acc: dict
    qid = None
    in_leaf = False


class LayerTracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = _ThreadState()
        self._gen = 0
        self._accs: list[dict] = []
        self._spans: list[tuple] = []
        self._patches: list[tuple] = []
        self._cycle_ids = itertools.count()
        self._detail_left = DETAIL_LAUNCHES
        #: Query id of the launch in progress; rank threads tag their spans
        #: with it (they do not inherit the caller's thread-local id).
        self.launch_qid = None
        self.t_origin = perf()

    # ------------------------------------------------------------ state

    def _state(self) -> _ThreadState:
        st = self._local
        if st.gen != self._gen:
            st.gen = self._gen
            st.stack = []
            st.acc = {}
            with self._lock:
                self._accs.append(st.acc)
        return st

    def reset(self) -> None:
        """Drop everything recorded so far (called after warm-up)."""
        with self._lock:
            self._gen += 1
            self._accs = []
            self._spans = []
            self._detail_left = DETAIL_LAUNCHES

    def set_query(self, qid) -> None:
        """Tag spans recorded on the calling thread with ``qid``."""
        self._state().qid = qid

    def _qid(self, st):
        return st.qid if st.qid is not None else self.launch_qid

    # ---------------------------------------------------------- spans

    def _record(self, layer: str, st, t0: float, t1: float) -> None:
        self._spans.append((layer, threading.get_ident(), t0, t1,
                            self._qid(st)))

    def _enter(self, layer: str):
        st = self._state()
        if st.stack and st.stack[-1][0] == layer:
            return st, None
        frame = [layer, perf(), 0.0]
        st.stack.append(frame)
        return st, frame

    def _exit(self, st, frame) -> None:
        t1 = perf()
        layer, t0, child = frame
        st.stack.pop()
        dur = t1 - t0
        a = st.acc.get(layer)
        if a is None:
            a = st.acc[layer] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        if st.stack:
            st.stack[-1][2] += dur
        self._record(layer, st, t0, t1)

    def wrap(self, layer: str, fn):
        if layer in HOT:
            return self._wrap_leaf(layer, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st, frame = tracer._enter(layer)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(st, frame)

        return wrapper

    def _wrap_leaf(self, layer: str, fn):
        """Cheaper wrapper for the hot per-rank layers. They call no other
        traced layer, so they skip the span stack; a call made while
        another leaf call is active on the thread (recursion) is folded
        into it."""
        tracer = self
        local = self._local
        count_array = layer == "kernels"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = local if local.gen == tracer._gen else tracer._state()
            if st.in_leaf:
                return fn(*args, **kwargs)
            st.in_leaf = True
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                st.in_leaf = False
                acc = st.acc
                a = acc.get(layer)
                if a is None:
                    a = acc[layer] = [0, 0.0, 0.0]
                dur = t1 - t0
                a[0] += 1
                a[1] += dur
                a[2] += dur
                if st.stack:
                    st.stack[-1][2] += dur
                if count_array and len(args) > 1 and isinstance(args[1], np.ndarray):
                    acc["kernels.bytes"] = acc.get("kernels.bytes", 0.0) + args[1].nbytes
                    acc["kernels.keys"] = acc.get("kernels.keys", 0.0) + args[1].size
                if tracer._detail_left > 0:
                    tracer._record(layer, st, t0, t1)

        return wrapper

    # ------------------------------------------------------ install

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_method(self, cls, attr: str, layer: str) -> None:
        self._patch(cls, attr, self.wrap(layer, cls.__dict__[attr]))

    def _patch_property(self, cls, attr: str, layer: str) -> None:
        prop = cls.__dict__[attr]
        self._patch(cls, attr, property(self.wrap(layer, prop.fget),
                                        prop.fset, prop.fdel, prop.__doc__))

    def install(self) -> None:
        """Wrap each layer's entry points (idempotent per tracer)."""
        if self._patches:
            return
        from repro.balance.base import Balancer
        from repro.core.array import DistributedArray, Machine
        from repro.core.session import Session
        from repro.kernels.costed import CostedKernels
        from repro.machine import collectives, comm
        from repro.machine.backends.base import Launch
        from repro.machine.collectives import SharedRendezvous
        from repro.machine.engine import SPMDRuntime
        from repro.planner import planner
        from repro.stream.stream import StreamingArray

        self._patch_method(Machine, "distribute", "core.array.distribute")
        self._patch_property(DistributedArray, "fingerprint",
                             "core.array.fingerprint")
        self._patch_property(StreamingArray, "fingerprint",
                             "core.array.fingerprint")
        for attr in ("run_select", "run_multi_select"):
            self._patch_method(Session, attr, "core.session")
        self._patch(Session, "flush", self._wrap_flush(Session.flush))
        self._patch_method(planner, "resolve_auto", "planner.resolve")
        self._patch(SPMDRuntime, "run", self._wrap_run(SPMDRuntime.run))
        self._patch_method(Launch, "call", "machine.rank")
        self._patch_method(SharedRendezvous, "exchange",
                           "machine.collectives.exchange")
        words = self.wrap("machine.collectives.payload_words",
                          collectives.payload_words)
        for module in (collectives, comm):
            self._patch(module, "payload_words", words)
        for attr, member in list(CostedKernels.__dict__.items()):
            if callable(member) and not attr.startswith("_"):
                self._patch_method(CostedKernels, attr, "kernels")
        for cls in _subclasses(Balancer):
            if "rebalance" in cls.__dict__:
                self._patch_method(cls, "rebalance", "balance")
        self._patch_method(StreamingArray, "append", "stream.append")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap_run(self, fn):
        """``SPMDRuntime.run``: publish the caller's query id to the rank
        threads and count down the launches that keep per-call spans."""
        inner = self.wrap("machine.run", fn)
        tracer = self

        @functools.wraps(fn)
        def run(*args, **kwargs):
            tracer.launch_qid = tracer._state().qid
            try:
                return inner(*args, **kwargs)
            finally:
                with tracer._lock:
                    tracer._detail_left -= 1

        return run

    def _wrap_flush(self, fn):
        """``Session.flush``: one flush cycle is one span id."""
        inner = self.wrap("core.session.flush", fn)
        tracer = self

        @functools.wraps(fn)
        def flush(*args, **kwargs):
            st = tracer._state()
            outer = st.qid
            if outer is None or str(outer).startswith("cycle-"):
                st.qid = f"cycle-{next(tracer._cycle_ids)}"
            try:
                return inner(*args, **kwargs)
            finally:
                st.qid = outer

        return flush

    # ------------------------------------------------------- results

    def totals(self) -> dict:
        """``{layer: (calls, inclusive_s, self_s)}`` plus plain counters
        (``{name: value}``), summed over every thread."""
        out: dict = {}
        with self._lock:
            accs = list(self._accs)
        for acc in accs:
            for key, val in list(acc.items()):
                if isinstance(val, list):
                    c, t, s = out.get(key, (0, 0.0, 0.0))
                    out[key] = (c + val[0], t + val[1], s + val[2])
                else:
                    out[key] = out.get(key, 0.0) + val
        return out

    def write_perfetto(self, path: str, process_name: str) -> int:
        """Write the spans as Chrome trace-event JSON; returns span count."""
        with self._lock:
            spans = list(self._spans)
        tids = {}
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": process_name}}]
        for layer, ident, t0, t1, qid in spans:
            if ident not in tids:
                tids[ident] = len(tids) + 1
                events.append({"name": "thread_name", "ph": "M", "pid": 1,
                               "tid": tids[ident],
                               "args": {"name": f"thread-{tids[ident]}"}})
            events.append({
                "name": layer, "cat": layer.split(".")[0], "ph": "X",
                "pid": 1, "tid": tids[ident],
                "ts": (t0 - self.t_origin) * 1e6,
                "dur": (t1 - t0) * 1e6,
                "args": {"query": qid},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(spans)


def _subclasses(cls):
    seen = [cls]
    for sub in cls.__subclasses__():
        seen.extend(_subclasses(sub))
    return seen


def layer_metrics(totals: dict, *, queries: int, p: int,
                  session_stats: tuple, serve: dict | None,
                  reports: dict) -> dict:
    """Per-layer metrics (``module.metric`` -> value) from a traced phase.

    ``session_stats`` is ``(queries, launches, hits, misses)`` of the
    session(s) the workload drives, as deltas over the phase; ``serve``
    holds the service counters on ``serve-stream``; ``reports`` carries
    what the reports and the load generator measured (iterations,
    prefilter survivor fractions, generator lag).
    """
    def calls(layer):
        return totals.get(layer, (0, 0.0, 0.0))[0]

    def incl(layer):
        return totals.get(layer, (0, 0.0, 0.0))[1]

    def self_s(layer):
        return totals.get(layer, (0, 0.0, 0.0))[2]

    def per(x, n):
        return float(x) / n if n else 0.0

    q = max(queries, 1)
    launches = calls("machine.run")
    rank_s = incl("machine.rank")
    kern_s = incl("kernels")
    s_queries, s_launches, hits, misses = session_stats
    m = {
        "core.array.distribute_ms": per(incl("core.array.distribute") * 1e3,
                                        calls("core.array.distribute")),
        "core.array.fingerprint_ms": per(incl("core.array.fingerprint") * 1e3,
                                         calls("core.array.fingerprint")),
        "core.session.flush_ms": per(incl("core.session.flush") * 1e3,
                                     calls("core.session.flush")),
        "core.session.self_ms": per((self_s("core.session")
                                     + self_s("core.session.flush")) * 1e3, q),
        "core.session.queries_per_launch": per(s_queries, s_launches),
        "core.session.cache_hit_ratio": per(hits, hits + misses),
        "planner.resolve_ms": per(incl("planner.resolve") * 1e3,
                                  calls("planner.resolve")),
        "planner.calls": per(calls("planner.resolve"), q),
        "machine.run_ms": per(incl("machine.run") * 1e3, launches),
        "machine.launches_per_query": per(launches, q),
        "machine.collectives.calls_per_rank": per(
            calls("machine.collectives.exchange"), launches * p),
        "machine.collectives.rendezvous_ms": per(
            incl("machine.collectives.exchange") * 1e3, launches),
        "machine.collectives.rendezvous_share": per(
            incl("machine.collectives.exchange"), rank_s),
        "machine.collectives.payload_words_calls": per(
            calls("machine.collectives.payload_words"), launches),
        "machine.collectives.payload_words_ms": per(
            incl("machine.collectives.payload_words") * 1e3, launches),
        "kernels.calls_per_launch": per(calls("kernels"), launches),
        "kernels.ms_per_launch": per(kern_s * 1e3, launches),
        "kernels.share": per(kern_s, rank_s),
        "kernels.bytes_per_query": per(totals.get("kernels.bytes", 0.0), q),
        "kernels.ns_per_key": per(kern_s * 1e9, totals.get("kernels.keys", 0.0)),
        "selection.iterations_per_query": reports["iterations_per_query"],
        "balance.ms_per_query": per(incl("balance") * 1e3, q),
        "stream.append_ms": per(incl("stream.append") * 1e3,
                                calls("stream.append")),
        "stream.survivor_fraction": reports["survivor_fraction"],
    }
    serve = serve or {}
    m.update({
        "serve.batch_size": per(serve.get("resolved", 0),
                                serve.get("flush_cycles", 0)),
        "serve.launches_saved_ratio": per(serve.get("launches_saved", 0),
                                          serve.get("resolved", 0)),
        "serve.rejected": float(serve.get("rejected", 0)),
        "serve.gen_lag_p99_ms": reports.get("gen_lag_p99_ms", 0.0),
    })
    return m
