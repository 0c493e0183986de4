"""The observability layer's contract, both halves.

Half one — capture is FREE when off and invisible when on: the identical
workload run with no capture, under an active capture, and with per-launch
tracing forced produces bit-identical values, RNG/pivot streams and
simulated-time evidence on every execution backend, and the disabled path
records nothing at all.

Half two — capture is USEFUL when on: the span forest has the documented
shape (query → SPMD launch → contraction iterations + per-collective
rounds), the metrics registry counts launches and predicted-vs-actual cost
residuals, the exporters emit valid JSON Lines and Chrome trace-event
documents, and ``REPRO_TRACE=<path>`` captures a whole subprocess run
hands-free (the CI smoke leg).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.plan import SelectionPlan
from repro.errors import ConfigurationError
from repro.obs.export import (
    chrome_document,
    read_jsonl,
    summarize,
    validate_chrome,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry, REGISTRY
from repro.obs.spans import (
    NULL_RECORDER,
    NULL_SPAN,
    SpanRecorder,
    format_tree,
)

P = 4
N = 4000


def _workload(backend=None, trace=False, n=N, seed=3):
    machine = repro.Machine(n_procs=P, backend=backend, trace=trace)
    data = machine.generate(n, distribution="skewed_shards", seed=seed)
    single = data.select(n // 3, algorithm="fast_randomized", seed=seed)
    multi = data.multi_select(
        [1, n // 2, n], algorithm="randomized", seed=seed
    )
    return single, multi


def _evidence(report):
    return (
        getattr(report, "value", None) or tuple(report.values),
        report.simulated_time,
        report.breakdown,
        tuple(it.pivot for it in report.stats.iterations),
        tuple((it.t_sim0, it.t_sim1) for it in report.stats.iterations),
    )


# ---------------------------------------------------------------------------
# Half one: capture must not perturb the experiment
# ---------------------------------------------------------------------------


class TestObsOffBitIdentity:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.get_recorder() is NULL_RECORDER
        _workload()
        assert len(NULL_RECORDER.spans) == 0

    @pytest.mark.parametrize("backend", ["serial", "threaded", "process",
                                         "pool"])
    def test_capture_bit_identical_per_backend(self, backend):
        base_single, base_multi = _workload(backend=backend)
        with obs.capture() as rec:
            cap_single, cap_multi = _workload(backend=backend, trace=True)
        assert _evidence(base_single) == _evidence(cap_single)
        assert _evidence(base_multi) == _evidence(cap_multi)
        assert len(rec.spans) > 0

    def test_capture_off_equals_serial_reference(self):
        """Cross-check: obs-on threaded == obs-off serial (the existing
        cross-backend bar composed with the capture bar)."""
        serial_single, serial_multi = _workload(backend="serial")
        with obs.capture():
            cap_single, cap_multi = _workload(backend="threaded", trace=True)
        assert _evidence(serial_single) == _evidence(cap_single)
        assert _evidence(serial_multi) == _evidence(cap_multi)

    def test_launch_count_unchanged_by_capture(self):
        machine = repro.Machine(n_procs=P)
        data = machine.generate(N, seed=1)
        data.select(7)
        off_count = machine.launch_count
        machine2 = repro.Machine(n_procs=P)
        data2 = machine2.generate(N, seed=1)
        with obs.capture():
            data2.select(7)
        assert machine2.launch_count == off_count

    def test_capture_restores_prior_state(self):
        before = obs.get_recorder()
        with obs.capture() as rec:
            assert obs.get_recorder() is rec
            assert obs.enabled()
        assert obs.get_recorder() is before
        assert not obs.enabled()


class TestNullPath:
    def test_null_span_absorbs_everything(self):
        assert not NULL_SPAN
        assert NULL_SPAN.set(anything=1) is NULL_SPAN
        assert NULL_SPAN.end() is NULL_SPAN
        with NULL_SPAN as s:
            assert s is NULL_SPAN
        assert NULL_SPAN.duration == 0.0

    def test_null_recorder_noops(self):
        assert NULL_RECORDER.span("x") is NULL_SPAN
        assert NULL_RECORDER.add("x") is NULL_SPAN
        assert NULL_RECORDER.advance_sim(5.0) == 0.0
        NULL_RECORDER.defer_trace([], None)
        assert NULL_RECORDER.tree() == []
        assert len(NULL_RECORDER) == 0


# ---------------------------------------------------------------------------
# Half two: the span forest has the documented shape
# ---------------------------------------------------------------------------


def _by_name(spans, name):
    return [s for s in spans if s.name == name]


class TestSpanTree:
    @pytest.fixture()
    def captured(self):
        with obs.capture() as rec:
            machine = repro.Machine(n_procs=P, trace=True)
            data = machine.generate(N, seed=5)
            report = data.select(N // 2, algorithm="fast_randomized")
        return rec, report

    def test_hierarchy_query_launch_iteration_rounds(self, captured):
        rec, report = captured
        spans = rec.spans
        ids = {s.span_id: s for s in spans}
        queries = _by_name(spans, "query")
        launches = _by_name(spans, "spmd.launch")
        iterations = _by_name(spans, "iteration")
        collectives = [s for s in spans
                       if s.name.startswith("collective.")]
        rounds = _by_name(spans, "round")
        assert len(queries) == 1 and len(launches) == 1
        assert launches[0].parent_id == queries[0].span_id
        assert len(iterations) == report.stats.n_iterations
        for s in iterations + collectives:
            assert s.parent_id == launches[0].span_id
        assert collectives and rounds
        for r in rounds:
            assert ids[r.parent_id].name.startswith("collective.")

    def test_launch_span_attrs_and_sim_interval(self, captured):
        rec, report = captured
        launch = _by_name(rec.spans, "spmd.launch")[0]
        assert launch.attrs["algorithm"] == "fast_randomized"
        assert launch.attrs["n"] == N
        assert launch.attrs["p"] == P
        assert launch.attrs["backend"] == report.backend
        assert launch.attrs["topology"] == report.topology
        assert launch.attrs["iterations"] == report.stats.n_iterations
        assert launch.sim_duration == pytest.approx(report.simulated_time)
        assert launch.duration > 0.0

    def test_children_inside_launch_sim_interval(self, captured):
        rec, _ = captured
        launch = _by_name(rec.spans, "spmd.launch")[0]
        eps = 1e-12
        for s in rec.spans:
            if s.parent_id == launch.span_id and s.sim_t0 is not None:
                assert s.sim_t0 >= launch.sim_t0 - eps
                assert s.sim_t1 <= launch.sim_t1 + eps

    def test_iteration_spans_carry_engine_checkpoints(self, captured):
        rec, report = captured
        launch = _by_name(rec.spans, "spmd.launch")[0]
        iterations = sorted(_by_name(rec.spans, "iteration"),
                            key=lambda s: s.attrs["index"])
        for span, it in zip(iterations, report.stats.iterations):
            assert span.sim_t1 - span.sim_t0 == pytest.approx(
                it.sim_duration
            )
            assert span.sim_t0 == pytest.approx(launch.sim_t0 + it.t_sim0)
            assert span.attrs["n_before"] == it.n_before
            assert span.attrs["n_after"] == it.n_after

    def test_cumulative_sim_axis_across_launches(self):
        with obs.capture() as rec:
            machine = repro.Machine(n_procs=P, trace=True)
            data = machine.generate(N, seed=5)
            data.select(10)
            machine.default_session.clear_cache()
            data.select(20)
        launches = sorted(_by_name(rec.spans, "spmd.launch"),
                          key=lambda s: s.sim_t0)
        assert len(launches) == 2
        assert launches[0].sim_t0 == 0.0
        assert launches[1].sim_t0 == pytest.approx(launches[0].sim_t1)

    def test_identical_runs_record_identical_forests(self):
        def capture_once():
            with obs.capture() as rec:
                machine = repro.Machine(n_procs=P, trace=True)
                machine.generate(N, seed=9).select(N // 4)
            return [(s.name, s.rank, s.sim_t0, s.sim_t1, s.attrs.get("index"))
                    for s in rec.spans]

        assert capture_once() == capture_once()

    def test_session_flush_span_groups_queries(self):
        with obs.capture() as rec:
            machine = repro.Machine(n_procs=P)
            data = machine.generate(N, seed=2)
            with machine.session() as sess:
                sess.select(data, 5)
                sess.select(data, N // 2)
        flushes = _by_name(rec.spans, "session.flush")
        groups = _by_name(rec.spans, "session.group")
        assert len(flushes) == 1
        assert flushes[0].attrs["queries"] == 2
        assert groups and groups[0].parent_id == flushes[0].span_id
        queries = _by_name(rec.spans, "query")
        assert all(q.parent_id == groups[0].span_id for q in queries)

    def test_query_span_names_its_kind(self):
        """A one-target launch's span is a ``select`` carrying ``k``; a
        launch with several targets is a ``multi_select`` carrying
        ``n_ks``."""
        with obs.capture() as rec:
            machine = repro.Machine(n_procs=P)
            data = machine.generate(N, seed=4)
            data.median()
            data.select(7)
            repro.median(data)
            data.multi_select([1, 5, 9])
        med = (N + 1) // 2
        assert [
            (q.attrs["kind"], q.attrs.get("k"), q.attrs.get("n_ks"))
            for q in _by_name(rec.spans, "query")
        ] == [("select", med, None), ("select", 7, None),
              ("select", med, None), ("multi_select", None, 3)]

    def test_tree_and_format_render(self, captured):
        rec, _ = captured
        forest = rec.tree()
        assert forest and forest[0][0].name in ("query", "spmd.launch")
        text = format_tree(rec)
        assert "spmd.launch" in text and "collective." in text


class TestRecorder:
    def test_max_spans_drops_excess(self):
        rec = SpanRecorder(max_spans=3)
        for i in range(5):
            rec.add(f"s{i}")
        assert len(rec.spans) == 3
        assert rec.dropped == 2

    def test_clear_resets_everything(self):
        rec = SpanRecorder()
        rec.add("a")
        rec.advance_sim(2.0)
        rec.clear()
        assert len(rec) == 0
        assert rec.advance_sim(0.0) == 0.0

    def test_thread_local_nesting(self):
        rec = SpanRecorder()
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        spans = {s.name: s for s in rec.spans}
        assert spans["outer"].parent_id is None
        assert spans["inner"].t1 >= spans["inner"].t0

    def test_error_exit_flags_span(self):
        rec = SpanRecorder()
        with pytest.raises(ValueError):
            with rec.span("bad"):
                raise ValueError("boom")
        assert rec.spans[0].attrs.get("error") is True


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("c", kind="x")
        c.inc()
        c.inc(2)
        assert c.value == 3
        assert reg.counter("c", kind="x") is c
        g = reg.gauge("g")
        g.set_value(7.5)
        assert g.value == 7.5
        h = reg.histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.count == 4
        assert h.quantile(0.5) in (2.0, 3.0)
        rows = reg.collect()
        assert [r["name"] for r in rows] == ["c{kind=x}", "g", "h"]

    def test_labels_distinguish_metrics(self):
        reg = MetricsRegistry()
        a = reg.counter("m", backend="serial")
        b = reg.counter("m", backend="pool")
        a.inc()
        assert b.value == 0
        assert len(reg.find("m")) == 2

    def test_launch_counter_increments_even_when_obs_off(self):
        machine = repro.Machine(n_procs=P, backend="serial")
        name = "repro.spmd.launches"
        before = sum(
            m.value for m in REGISTRY.find(name)
            if m.labels.get("backend") == "serial"
        )
        machine.generate(N, seed=0).select(3)
        after = sum(
            m.value for m in REGISTRY.find(name)
            if m.labels.get("backend") == "serial"
        )
        assert after == before + 1


# ---------------------------------------------------------------------------
# Predicted-vs-actual cost tracking
# ---------------------------------------------------------------------------


class TestCostResiduals:
    @pytest.mark.parametrize("algorithm", [
        "randomized", "fast_randomized", "median_of_medians", "bucket_based",
    ])
    def test_closed_form_algorithms_predict(self, algorithm):
        machine = repro.Machine(n_procs=P)
        balancer = "global_exchange" if algorithm == "median_of_medians" \
            else "none"
        report = machine.generate(N, seed=1).select(
            N // 2, algorithm=algorithm, balancer=balancer
        )
        assert report.predicted_time is not None
        assert report.predicted_time > 0.0
        assert report.cost_residual == pytest.approx(
            report.simulated_time - report.predicted_time
        )

    def test_no_closed_form_means_no_prediction(self):
        machine = repro.Machine(n_procs=P)
        data = machine.generate(N, seed=1)
        assert data.select(5, algorithm="hybrid_bucket_based") \
            .predicted_time is None
        assert data.select(5, algorithm="sort_based").predicted_time is None

    def test_non_crossbar_topology_predicts_via_schedules(self):
        # The planner PR generalised predict_simulated beyond the
        # crossbar: any topology's lowered Schedule prices the closed
        # forms, so routed shapes now predict and carry residuals too.
        machine = repro.Machine(n_procs=P, topology="hypercube")
        report = machine.generate(N, seed=1).select(5)
        assert report.predicted_time is not None
        assert report.predicted_time > 0
        assert report.cost_residual == (
            report.simulated_time - report.predicted_time
        )

    def test_multi_rank_batches_do_not_predict(self):
        machine = repro.Machine(n_procs=P)
        data = machine.generate(N, seed=1)
        assert data.multi_select([1, N // 2, N]).predicted_time is None
        # ...but a single-rank batch rides the closed form.
        assert data.multi_select([N // 3]).predicted_time is not None

    def test_cached_report_carries_prediction(self):
        machine = repro.Machine(n_procs=P)
        data = machine.generate(N, seed=1)
        with machine.session() as sess:
            first = sess.run_select(data, N // 2)
            again = sess.run_select(data, N // 2)
        assert again.cached
        assert again.predicted_time == first.predicted_time

    def test_residual_histogram_recorded(self):
        before = sum(m.count for m in
                     REGISTRY.find("repro.launch.cost_residual"))
        repro.Machine(n_procs=P).generate(N, seed=1).select(9)
        after = sum(m.count for m in
                    REGISTRY.find("repro.launch.cost_residual"))
        assert after == before + 1


# ---------------------------------------------------------------------------
# Plan / machine plumbing
# ---------------------------------------------------------------------------


class TestTracePlumbing:
    def test_plan_trace_validation(self):
        SelectionPlan(trace=True)
        SelectionPlan(trace=None)
        with pytest.raises(ConfigurationError):
            SelectionPlan(trace="yes")

    def test_plan_trace_not_in_cache_key(self):
        assert SelectionPlan(trace=True).cache_key() == \
            SelectionPlan(trace=None).cache_key()

    def test_plan_trace_forces_tracer(self):
        machine = repro.Machine(n_procs=P)  # machine-level tracing off
        report = machine.generate(N, seed=1).select(5, trace=True)
        assert report.collective_rounds()

    def test_machine_counters_snapshot(self):
        machine = repro.Machine(n_procs=P)
        assert machine.counters() == {
            "launches": 0, "forks": 0, "reuses": 0, "pinned_bytes": 0,
        }
        machine.generate(N, seed=1).select(5)
        counters = machine.counters()
        assert counters["launches"] == machine.launch_count == 1
        assert counters["forks"] == machine.fork_count
        assert counters["reuses"] == machine.reuse_count

    def test_machine_trace_path_enables_capture(self, tmp_path):
        target = tmp_path / "t.json"
        machine = repro.Machine(n_procs=P, trace=str(target))
        try:
            assert obs.enabled()
            machine.generate(N, seed=1).select(5)
            written = obs.export(target)
            assert written > 0
            assert not validate_chrome(str(target))
        finally:
            obs.disable()

    def test_service_stats_expose_machine_counters(self):
        import asyncio
        from repro.serve import SelectionService

        async def scenario():
            machine = repro.Machine(n_procs=2)
            async with SelectionService(machine, window=0.0) as svc:
                svc.register("d", np.arange(100, dtype=float))
                await svc.select("d", 10)
                return svc.stats, machine

        stats, machine = asyncio.run(scenario())
        assert stats.machine_counters == machine.counters()
        assert stats.machine_counters["launches"] >= 1


# ---------------------------------------------------------------------------
# Exporters + CLI + the REPRO_TRACE smoke leg
# ---------------------------------------------------------------------------


def _capture_small():
    with obs.capture() as rec:
        repro.Machine(n_procs=2, trace=True).generate(
            800, seed=4
        ).select(400)
    return rec


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        rec = _capture_small()
        path = tmp_path / "spans.jsonl"
        n = write_jsonl(rec.spans, path)
        rows = read_jsonl(path)
        assert n == len(rows) == len(rec.spans)
        assert {r["name"] for r in rows} >= {"query", "spmd.launch"}

    def test_chrome_document_layout(self):
        rec = _capture_small()
        doc = chrome_document(rec.spans)
        events = doc["traceEvents"]
        assert validate_chrome(doc) == []
        pids = {e["pid"] for e in events}
        assert pids == {1, 2}  # sim + wall tracks
        meta = [e for e in events if e["ph"] == "M"]
        assert {m["name"] for m in meta} >= {"process_name", "thread_name"}
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        assert all(e["dur"] >= 0 for e in complete)
        # Driver-side spans ride tid 0; rank r rides tid r+1 (p=2 here).
        assert {e["tid"] for e in complete} >= {0, 1, 2}

    def test_validate_catches_corruption(self):
        assert validate_chrome({"traceEvents": "nope"})
        assert validate_chrome({"traceEvents": [{"ph": "X"}]})
        assert validate_chrome(
            {"traceEvents": [{"ph": "X", "name": "a", "pid": 1, "tid": 1,
                              "ts": -5.0, "dur": 1.0}]}
        )

    def test_summarize_aggregates_by_name(self):
        rec = _capture_small()
        rows = summarize([s.as_dict() for s in rec.spans])
        names = [r["name"] for r in rows]
        assert "spmd.launch" in names and "query" in names
        launch = next(r for r in rows if r["name"] == "spmd.launch")
        assert launch["count"] == 1
        assert launch["sim_s"] > 0.0


class TestCli:
    def test_summary_convert_validate(self, tmp_path, capsys):
        from repro.obs.cli import main

        rec = _capture_small()
        jsonl = tmp_path / "t.jsonl"
        write_jsonl(rec.spans, jsonl)

        assert main(["summary", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out and "spmd.launch" in out

        chrome = tmp_path / "t.json"
        assert main(["convert", str(jsonl), str(chrome)]) == 0
        capsys.readouterr()
        assert main(["validate", str(chrome)]) == 0

    def test_validate_rejects_bad_file(self, tmp_path, capsys):
        from repro.obs.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
        assert main(["validate", str(bad)]) == 1


class TestReproTraceSmoke:
    """The CI obs smoke leg: a subprocess run under ``REPRO_TRACE`` must
    leave behind a schema-valid Chrome trace with the expected span names —
    no code changes, just the environment variable."""

    def test_subprocess_capture_exports_valid_trace(self, tmp_path):
        target = tmp_path / "run.json"
        env = dict(os.environ, REPRO_TRACE=str(target))
        env["PYTHONPATH"] = str(
            Path(__file__).parent.parent / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import repro\n"
            "m = repro.Machine(4)\n"
            "d = m.generate(5000, seed=6)\n"
            "d.multi_select([1, 2500, 5000])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert target.exists(), "REPRO_TRACE did not export at exit"
        doc = json.loads(target.read_text())
        assert validate_chrome(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"query", "spmd.launch"} <= names

    def test_cli_validates_subprocess_trace(self, tmp_path):
        target = tmp_path / "run.jsonl"
        env = dict(os.environ, REPRO_TRACE=str(target))
        env["PYTHONPATH"] = str(
            Path(__file__).parent.parent / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")
        code = "import repro; repro.Machine(2).generate(900, seed=1).select(9)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        check = subprocess.run(
            [sys.executable, "-m", "repro.obs", "summary", str(target)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert check.returncode == 0, check.stderr
        assert "spmd.launch" in check.stdout
