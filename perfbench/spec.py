"""What the benchmark measures and why: workloads, metrics and the layer
each per-layer metric should move. ``BENCHMARK.json`` names the same
workloads and metrics; ``checks.py`` keeps the two in step.
"""

from __future__ import annotations

#: Offered rate of ``serve-stream`` (operations per second), one the seed
#: code sustains on a 2-core host without a growing backlog.
SERVE_RATE = 20.0

#: Seconds each measuring process runs its workload, untimed, between
#: set-up and the measured phase: host CPU bursts after idle time are spent
#: and lazy state fills before timing starts. Its answers are checked too.
SETTLE_S = 2.0

#: The ``latency_tail_ms`` percentile: what ``stats.tail_percentile`` picks
#: for the sample count a 20-second run gives at the seed commit on every
#: workload (~570, ~140 and 400 samples). It is fixed so the metric keeps
#: its meaning when a change moves the sample count; every run records how
#: many samples lie beyond it.
TAIL_PERCENTILE = 90.0

#: Set-ups per ``--trace 0`` run (each in a fresh process); ``setup_s`` is
#: their median.
SETUPS = 5

WORKLOADS = {
    "median-fresh": {
        "loop": "closed", "clients": 1, "p": 8, "keys_per_query": 1 << 17,
        "query": "machine.distribute(keys).median(), default plan "
                 "(fast_randomized)",
        "why": "the paper's flagship query; bound by the barrier: ~39 "
               "collectives per rank per launch, rendezvous wait dominates "
               "rank time",
        "stresses": ["machine.collectives", "machine.run", "core.session"],
        "flat": ["planner", "kernels", "stream", "serve"],
    },
    "quantiles-2m": {
        "loop": "closed", "clients": 1, "p": 4, "keys_per_query": 1 << 21,
        "query": "machine.distribute(keys).quantiles([0.5, 0.9, 0.99]); the "
                 "input cycles uniform, pre-sorted and 64-distinct-value keys",
        "why": "bound by the kernels: the batched multi-rank engine over a "
               "16 MB working set, 6-14 contraction iterations and the "
               "duplicate paths",
        "stresses": ["kernels", "core.array", "selection"],
        "flat": ["planner", "machine.collectives", "stream", "serve"],
    },
    "serve-stream": {
        "loop": "open", "rate_ops_per_s": SERVE_RATE, "p": 4,
        "streams": 4, "window_batches": 16, "batch_keys": 16384,
        "service_window_s": 0.002,
        "mix": {"append": 0.2, "dashboard_triple": 0.5, "median": 0.3},
        "query": "SelectionService (plan auto) over four sliding-window "
                 "StreamingArrays; every op timed from when it was due; an "
                 "append waits for the flush cycle in progress, because "
                 "StreamingArray memos are not safe against a concurrent "
                 "flush thread",
        "why": "the only workload through the planner, Session coalescing, "
               "the result cache, streaming ingest with fingerprint "
               "invalidation and the serve flusher, with writes beside reads",
        "stresses": ["planner", "core.session", "stream", "serve",
                     "core.array.fingerprint"],
        "flat": ["core.array.distribute"],
    },
}

#: End-to-end metrics: unit, better direction, definition.
END_TO_END = {
    "latency_p50_ms": ("ms", "lower",
                       "median latency per operation; on serve-stream every "
                       "op, appends included, timed from when it was due "
                       "(read latency alone is bimodal, cache hit or launch, "
                       "and its median is unsteady across seeds)"),
    "latency_tail_ms": ("ms", "lower",
                        "latency at TAIL_PERCENTILE, the highest percentile "
                        "with >= 10 samples beyond it; the sample counts "
                        "are recorded beside it"),
    "throughput_qps": ("1/s", "higher",
                       "closed loop: queries per second of query wall time; "
                       "open loop: ops completed, appends included, per "
                       "second from the phase start to the last completion"),
    "sim_ms_per_query": ("ms", "lower",
                         "simulated CM-5 time of the launches paid for, per "
                         "query answered; the mean launch time on the closed "
                         "loops, where every query is one launch"),
    "setup_s": ("s", "lower",
                "machine construction, array/stream registration and one "
                "warm-up query; median of the set-ups of one run"),
    "peak_rss_mb": ("MB", "lower",
                    "peak resident set while the program runs: the high-water "
                    "mark is reset before each query call (closed loops) or "
                    "at the phase start (serve-stream), so harness copies "
                    "made outside those windows are not in it; the host keys "
                    "of the query in flight are"),
}

#: ``error_rate`` (failed + refused + wrong-answer ops over ops attempted)
#: is printed but not a bounded metric: it is 0 on correct code, so it
#: cannot carry a relative bound. It travels as ``failed / attempted`` in
#: the result line.

#: Per-layer metrics of the traced run: unit, what it should move.
PER_LAYER = {
    "core.array.distribute_ms": ("ms", "latency_p50_ms on quantiles-2m"),
    "core.array.fingerprint_ms": ("ms", "latency_p50_ms on quantiles-2m, "
                                        "latency_tail_ms on serve-stream"),
    "core.session.flush_ms": ("ms", "serve-stream latency"),
    "core.session.self_ms": ("ms", "latency_p50_ms on median-fresh"),
    "core.session.queries_per_launch": ("ratio", "serve-stream throughput"),
    "core.session.cache_hit_ratio": ("ratio", "serve-stream latency"),
    "planner.resolve_ms": ("ms", "serve-stream latency"),
    "planner.calls": ("1/query", "serve-stream latency; 0 elsewhere"),
    "machine.run_ms": ("ms", "latency on every workload"),
    "machine.launches_per_query": ("ratio", "latency on every workload"),
    "machine.collectives.calls_per_rank": ("count", "median-fresh latency"),
    "machine.collectives.rendezvous_ms": ("ms", "median-fresh latency"),
    "machine.collectives.rendezvous_share": ("ratio", "median-fresh latency"),
    "machine.collectives.payload_words_calls": ("count",
                                                "median-fresh latency"),
    "machine.collectives.payload_words_ms": ("ms", "median-fresh latency"),
    "kernels.calls_per_launch": ("count", "quantiles-2m throughput"),
    "kernels.ms_per_launch": ("ms", "quantiles-2m throughput"),
    "kernels.share": ("ratio", "quantiles-2m throughput"),
    "kernels.bytes_per_query": ("computed-bytes",
                                "quantiles-2m throughput (from arr.nbytes)"),
    "kernels.ns_per_key": ("ns/key", "quantiles-2m throughput"),
    "selection.iterations_per_query": ("count", "sim_ms_per_query everywhere"),
    "balance.ms_per_query": ("ms", "latency wherever a balancer runs"),
    "stream.append_ms": ("ms", "serve-stream latency"),
    "stream.survivor_fraction": ("ratio", "serve-stream latency"),
    "serve.batch_size": ("count", "serve-stream throughput"),
    "serve.launches_saved_ratio": ("ratio", "serve-stream throughput"),
    "serve.rejected": ("count", "serve-stream error rate"),
    "serve.gen_lag_p99_ms": ("ms", "validates the open loop"),
    "obs.trace_overhead_pct": ("%", "traced vs untraced latency_p50_ms"),
    "ref.numpy_ms": ("ms", "np.partition on the same keys and ranks"),
    "ref.slowdown_vs_numpy": ("ratio", "latency_p50_ms / ref.numpy_ms"),
}
