"""One workload phase in a fresh process (started by ``run.py``).

A fresh process per phase means the process-global planner residual store
and metrics registry start empty, and set-up is measured from a cold
machine. Prints one JSON object as the last line of standard output.

    python3 perfbench/child.py --workload median-fresh --seed 1 \
        --seconds 10 --mode measure --trace 0 --out perfbench/out
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

import spec
from stats import median, tail, tail_percentile
from workloads import SETTLE, WORKLOADS

perf = time.perf_counter


def sim_ms_per_query(phase) -> float:
    """Simulated CM-5 milliseconds of the launches paid for, per query."""
    total = sum(phase.launch_sim_s)
    return total * 1e3 / phase.queries if phase.queries else 0.0


def summarize(phase, setup_s: float) -> dict:
    """End-to-end metrics of one measured phase."""
    lat_ms = [x * 1e3 for x in phase.latency_s]
    pct = spec.TAIL_PERCENTILE
    tail_ms, beyond = tail(lat_ms, pct) if lat_ms else (0.0, 0)
    return {
        "latency_p50_ms": median(lat_ms) if lat_ms else 0.0,
        "latency_tail_ms": tail_ms,
        "throughput_qps": len(lat_ms) / phase.busy_s if phase.busy_s else 0.0,
        "sim_ms_per_query": sim_ms_per_query(phase),
        "error_rate": phase.outcomes.error_rate,
        "setup_s": setup_s,
        "peak_rss_mb": phase.peak_rss_mb,
        "_tail": {"percentile": pct, "beyond": beyond,
                  "samples": len(lat_ms),
                  "rule_percentile": tail_percentile(len(lat_ms))},
    }


def run_phase(args) -> dict:
    cls = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    wl = cls(args.seed)
    if cls is WORKLOADS["serve-stream"]:
        return asyncio.run(_serve(wl, args, tracer))
    t0 = perf()
    wl.setup()
    setup_s = perf() - t0
    if args.mode == "setup":
        return {"setup_s": setup_s}
    settled = wl.measure(spec.SETTLE_S, part=SETTLE)
    if tracer is not None:
        tracer.reset()
    before = wl.session_counters()
    phase = wl.measure(args.seconds, tracer)
    after = wl.session_counters()
    phase.outcomes.merge(settled.outcomes)
    return finish(args, wl, phase, setup_s, tracer,
                  tuple(a - b for a, b in zip(after, before)), None)


async def _serve(wl, args, tracer) -> dict:
    t0 = perf()
    await wl.setup()
    setup_s = perf() - t0
    if args.mode == "setup":
        await wl.service.close()
        return {"setup_s": setup_s}
    settled = await wl.measure(spec.SETTLE_S, part=SETTLE)
    ops = wl.schedule(args.seconds)
    if tracer is not None:
        tracer.reset()
    before, serve_before = wl.session_counters(), wl.service_counters()
    phase = await wl.measure(args.seconds, tracer, ops)
    after, serve_after = wl.session_counters(), wl.service_counters()
    await wl.service.close()
    phase.outcomes.merge(settled.outcomes)
    serve = {k: serve_after[k] - serve_before[k] for k in serve_after}
    return finish(args, wl, phase, setup_s, tracer,
                  tuple(a - b for a, b in zip(after, before)), serve)


def finish(args, wl, phase, setup_s, tracer, session, serve) -> dict:
    out = {
        "setup_s": setup_s,
        "e2e": summarize(phase, setup_s),
        "sim_s": phase.launch_sim_s if serve is None else [],
        "rss_scoped": phase.rss_scoped,
        "numpy_ms": median(phase.numpy_s) * 1e3 if phase.numpy_s else 0.0,
        "outcomes": {"attempted": phase.outcomes.attempted,
                     "bad": phase.outcomes.bad,
                     "wrong": phase.outcomes.wrong,
                     "refused": phase.outcomes.refused,
                     "failed": phase.outcomes.failed,
                     "errors": phase.outcomes.errors},
    }
    if tracer is not None:
        from layers import layer_metrics

        tracer.uninstall()
        queries = phase.queries
        reports = {
            "iterations_per_query": (sum(phase.iterations) / len(phase.iterations)
                                     if phase.iterations else 0.0),
            "survivor_fraction": (sum(phase.survivor_fractions)
                                  / len(phase.survivor_fractions)
                                  if phase.survivor_fractions else 0.0),
            "gen_lag_p99_ms": phase.extra.get("gen_lag_p99_ms", 0.0),
        }
        out["layers"] = layer_metrics(
            tracer.totals(), queries=queries, p=wl.p, session_stats=session,
            serve=serve, reports=reports)
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.workload}-seed{args.seed}-spans.json")
        out["spans"] = tracer.write_perfetto(path, args.workload)
        out["span_file"] = path
    elif serve is not None:
        out["gen_lag_p99_ms"] = phase.extra.get("gen_lag_p99_ms", 0.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join("perfbench", "out"))
    args = ap.parse_args(argv)
    result = run_phase(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
