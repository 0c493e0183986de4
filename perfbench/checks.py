"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/checks.py

Covers the tail rule, ``error_rate`` accounting (a forced wrong answer and
a forced ``AdmissionError`` each count once), the gate that keeps appends
out of a running flush cycle, the failure exit outside a
repository checkout, ``BENCHMARK.json`` against ``spec.py``, and a
seconds-long smoke run of every workload that must emit every named
metric.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import spec  # noqa: E402
from stats import Outcomes, beyond, tail, tail_percentile  # noqa: E402
from workloads import (  # noqa: E402
    APPEND, MEDIAN, TRIPLE, MedianFresh, ServeStream, _FlushGate)

import repro  # noqa: E402


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ------------------------------------------------------------ tail rule


def test_tail_picks_the_highest_percentile_with_ten_beyond():
    assert tail_percentile(5) == 50.0
    assert tail_percentile(99) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(9999) == 99.0
    assert tail_percentile(10_000) == 99.9
    for n in (100, 1000, 10_000):
        assert beyond(n, tail_percentile(n)) == 10


def test_tail_value_and_samples_beyond():
    assert tail(range(1, 101), 90.0) == (90.0, 10)
    assert tail(list(range(1, 101))[::-1], 99.0) == (99.0, 1)
    value, n_beyond = tail(range(400), 90.0)
    assert n_beyond == sum(1 for x in range(400) if x > value) == 40
    with pytest.raises(ValueError):
        tail([], 50.0)


# ------------------------------------------------------ error accounting


def test_outcomes_count_each_operation_once():
    out = Outcomes()
    for status in ("ok", "ok", "refused", "failed", "ok"):
        out.record(status)
    out.mark_wrong("forced")
    assert (out.ok, out.wrong, out.refused, out.failed) == (2, 1, 1, 1)
    assert out.attempted == 5
    assert out.error_rate == pytest.approx(3 / 5)
    with pytest.raises(ValueError):
        out.record("late")


class _Tampered(MedianFresh):
    """A median workload whose next answer is forced wrong once armed."""

    n = 1 << 12
    armed = False

    def query(self, keys):
        reports = super().query(keys)
        if self.armed:
            self.armed = False
            return [dataclasses.replace(reports[0], value=reports[0].value + 1.0)]
        return reports


def test_forced_wrong_answer_counts_once_in_a_closed_loop():
    wl = _Tampered(seed=7)
    wl.setup()
    wl.armed = True
    phase = wl.measure(0.3)
    assert phase.outcomes.wrong == 1
    assert phase.outcomes.ok == phase.outcomes.attempted - 1
    assert phase.outcomes.error_rate == pytest.approx(1 / phase.outcomes.attempted)


class _SmallServe(ServeStream):
    window = 4
    batch = 1024


def test_forced_admission_error_and_wrong_answer_each_count_once():
    async def scenario():
        wl = _SmallServe(seed=5)
        await wl.setup()
        await wl.service.close()
        # One query in flight at a time: the dashboard triple's second and
        # third submissions are refused, which refuses the op once.
        wl.service = repro.SelectionService(wl.machine, window=0.05,
                                            max_in_flight=1)
        for s, st in enumerate(wl.streams):
            wl.service.register(f"s{s}", st)
        ops = [(0.0, APPEND, 0), (0.01, TRIPLE, 1), (0.3, MEDIAN, 0)]
        check = wl.check

        def tampered(reads, phase):
            s, ranks, values, j0, j1 = reads[0]
            reads[0] = (s, ranks, [v + 1.0 for v in values], j0, j1)
            check(reads, phase)

        wl.check = tampered
        phase = await wl.measure(0.3, ops=ops)
        await wl.service.close()
        return phase

    phase = asyncio.run(scenario())
    out = phase.outcomes
    assert (out.ok, out.refused, out.wrong, out.failed) == (1, 1, 1, 0)
    assert out.error_rate == pytest.approx(2 / 3)


def test_serve_check_accepts_the_true_answer():
    async def scenario():
        wl = _SmallServe(seed=6)
        await wl.setup()
        ops = [(0.0, TRIPLE, 0), (0.05, APPEND, 0), (0.1, MEDIAN, 0),
               (0.1, TRIPLE, 2)]
        phase = await wl.measure(0.2, ops=ops)
        await wl.service.close()
        return phase

    out = asyncio.run(scenario()).outcomes
    assert (out.ok, out.attempted) == (4, 4)


def test_append_gate_waits_for_the_running_flush():
    async def scenario():
        loop = asyncio.get_running_loop()
        gate = _FlushGate(loop)
        loop.set_default_executor(gate)
        release = threading.Event()
        flush = asyncio.ensure_future(asyncio.to_thread(release.wait))
        await asyncio.sleep(0)
        waiter = asyncio.ensure_future(gate.quiet())
        await asyncio.sleep(0.05)
        assert not waiter.done()
        release.set()
        await flush
        await asyncio.wait_for(waiter, 1.0)

    asyncio.run(scenario())


# -------------------------------------------------------- the command


def test_benchmark_json_matches_spec():
    bench = load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert list(e2e) == list(spec.END_TO_END)
    for name, (unit, better, _d) in spec.END_TO_END.items():
        assert (e2e[name]["unit"], e2e[name]["better"]) == (unit, better)
        assert 0 < e2e[name]["bound"] <= 0.25
    layers = {m["name"]: m for m in bench["per_layer"]}
    assert list(layers) == list(spec.PER_LAYER)
    for name, (unit, _moves) in spec.PER_LAYER.items():
        assert layers[name]["unit"] == unit


def test_fails_without_a_repository(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "median-fresh", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_named_metric(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace),
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    bench = load_benchmark()
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for name in names:
        assert isinstance(result["metrics"][name]["value"], float)
    if trace:
        assert os.path.getsize(tmp_path / f"{workload}-seed3-spans.json") > 0
        assert (tmp_path / f"{workload}-seed3-layers.txt").exists()
    else:
        for name in names:
            assert result["metrics"][name]["value"] > 0, name
