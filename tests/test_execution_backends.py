"""The execution-backend layer itself: registry + selection plumbing,
the serial scheduler's cooperative guarantees, rank-thread placement,
the process backend's transport mechanics, and desync diagnosis on every
backend."""

import contextlib
import os
import queue
import re
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.errors import (
    CommunicationError,
    ConfigurationError,
    WorkerAborted,
    WorkerError,
)
from repro.machine import (
    SPMDRuntime,
    available_backends,
    get_backend,
    resolve_backend,
    run_spmd,
)
from repro.machine.backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    ExecutionBackend,
    threaded,
)
from repro.machine.backends._shm import RankTransport, SharedArray
from repro.machine.backends.process import UnpicklableWorkerFailure


def _ring_shift_and_alltoall(ctx):
    """Each rank passes a value to its right neighbour (an alltoallv with
    one live slot), then all ranks swap rank-filled arrays."""
    sends = [None] * ctx.size
    sends[(ctx.rank + 1) % ctx.size] = ctx.rank * 10.0
    got = ctx.comm.alltoallv(sends)[(ctx.rank - 1) % ctx.size]
    received = ctx.comm.alltoallv(
        [np.full(2, ctx.rank) for _ in range(ctx.size)]
    )
    return got, sum(int(r[0]) for r in received)


def _write_first_key(ctx, shard):
    shard[0] = -1.0
    return ctx.comm.allreduce_sum(float(shard[0]))


def _early_return(ctx):
    if ctx.rank == 2:
        return  # never reaches the barrier the others wait at
    ctx.comm.barrier()


def _extra_collective(ctx):
    ctx.comm.barrier()
    if ctx.rank == 0:
        ctx.comm.barrier()  # a collective no other rank issues


class TestRegistry:
    def test_four_backends_registered(self):
        assert available_backends() == ("pool", "process", "serial",
                                        "threaded")

    def test_unknown_backend_lists_options(self):
        with pytest.raises(ConfigurationError, match=r"available: \["):
            get_backend("mpi")

    def test_resolve_accepts_instance_and_none(self, monkeypatch):
        assert resolve_backend(BACKENDS["serial"]) is BACKENDS["serial"]
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None).name == "threaded"
        assert resolve_backend("process").name == "process"

    def test_resolve_rejects_other_types(self):
        with pytest.raises(ConfigurationError, match="ExecutionBackend"):
            resolve_backend(42)

    def test_every_backend_names_itself(self):
        for name, backend in BACKENDS.items():
            assert isinstance(backend, ExecutionBackend)
            assert backend.name == name


class TestEnvDefault:
    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        assert repro.Machine(n_procs=2).backend_name == "serial"
        assert run_spmd(lambda ctx: ctx.rank, 2).backend == "serial"

    def test_explicit_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        assert repro.Machine(n_procs=2, backend="threaded").backend_name == (
            "threaded"
        )

    def test_bogus_env_value_is_a_clean_error(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "cluster")
        with pytest.raises(ConfigurationError, match="REPRO_BACKEND"):
            repro.Machine(n_procs=2)

    def test_empty_env_value_means_threaded(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert repro.Machine(n_procs=2).backend_name == "threaded"


class TestSelectionPlumbing:
    def test_machine_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="available"):
            repro.Machine(n_procs=2, backend="gpu")

    def test_plan_rejects_unknown_backend_listing_options(self):
        with pytest.raises(
            ConfigurationError,
            match=r"unknown backend 'gpu'; available: "
                  r"\['pool', 'process', 'serial', 'threaded'\]",
        ):
            repro.SelectionPlan(backend="gpu")

    def test_plan_backend_flows_through_session_launch(self):
        machine = repro.Machine(n_procs=3, backend="threaded")
        data = machine.generate(900, seed=1)
        plan = repro.SelectionPlan(backend="serial", seed=1)
        with machine.session(plan) as s:
            fut = s.select(data, 450)
        assert fut.result().backend == "serial"

    def test_per_launch_override_does_not_change_machine_default(self):
        machine = repro.Machine(n_procs=2, backend="threaded")
        res = machine.run(lambda ctx: ctx.rank, backend="serial")
        assert res.backend == "serial"
        assert machine.backend_name == "threaded"
        assert machine.run(lambda ctx: ctx.rank).backend == "threaded"

    def test_legacy_api_accepts_backend(self):
        machine = repro.Machine(n_procs=2)
        data = machine.generate(400, seed=0)
        rep = repro.select(data, 200, backend="serial")
        assert rep.backend == "serial"
        multi = repro.multi_select(data, [1, 400], backend="serial")
        assert multi.backend == "serial"


#: (ranks, collectives per rank, seconds each rank holds the token per
#: collective, GIL switch interval or None for the default).
SERIAL_CASES = pytest.mark.parametrize(
    "p, rounds, hold, switch",
    [(4, 3, 0.002, None), (16, 300, 0.0, 1e-5)],
    ids=["p4", "p16-300-collectives"],
)


@contextlib.contextmanager
def _bounded(switch, bound=10.0):
    """Run the block under GIL switch interval ``switch`` (if given) and
    check it finished within ``bound`` seconds."""
    old = sys.getswitchinterval()
    if switch is not None:
        sys.setswitchinterval(switch)
    t0 = time.perf_counter()
    try:
        yield
    finally:
        sys.setswitchinterval(old)
    elapsed = time.perf_counter() - t0
    assert elapsed < bound, f"took {elapsed:.2f}s"


def _round_robin(p, rounds):
    """The serial token's order: round ``i`` starts at the rank that
    closed round ``i - 1`` (it keeps the token) and goes once around."""
    return [((j - i) % p, i) for i in range(rounds) for j in range(p)]


class TestSerialScheduler:
    @SERIAL_CASES
    def test_exactly_one_rank_runs_at_a_time(self, p, rounds, hold, switch):
        lock = threading.Lock()
        state = {"active": 0, "max_active": 0}

        def prog(ctx):
            for _ in range(rounds):
                with lock:
                    state["active"] += 1
                    state["max_active"] = max(
                        state["max_active"], state["active"]
                    )
                time.sleep(hold)  # sleeping does NOT yield the token
                with lock:
                    state["active"] -= 1
                ctx.comm.barrier()

        with _bounded(switch):
            run_spmd(prog, p, backend="serial")
        assert state["max_active"] == 1

    @SERIAL_CASES
    def test_interleaving_is_deterministic(self, p, rounds, hold, switch):
        def prog(ctx, log):
            for i in range(rounds):
                log.append((ctx.rank, i))
                ctx.comm.barrier()
            return None

        logs = []
        for _ in range(3):
            log = []
            with _bounded(switch):
                run_spmd(prog, p, rank_args=[(log,)] * p, backend="serial")
            logs.append(tuple(log))
        assert len(set(logs)) == 1, "serial interleaving must be reproducible"
        assert list(logs[0]) == _round_robin(p, rounds)

    def test_deadlock_detected_instead_of_hanging(self):
        t0 = time.perf_counter()
        with pytest.raises(WorkerError) as ei:
            run_spmd(_extra_collective, 3, backend="serial")
        assert time.perf_counter() - t0 < 5.0, "deadlock must be detected fast"
        assert isinstance(ei.value.cause, CommunicationError)
        assert "rank 0 waits" in str(ei.value.cause)

    def test_early_return_desync_is_detected(self):
        with pytest.raises(WorkerError) as ei:
            run_spmd(_early_return, 3, backend="serial")
        assert isinstance(ei.value.cause, CommunicationError)

    def test_ring_shift_and_alltoall(self):
        res = run_spmd(_ring_shift_and_alltoall, 4, backend="serial")
        assert [v[0] for v in res.values] == [30.0, 0.0, 10.0, 20.0]
        assert [v[1] for v in res.values] == [6, 6, 6, 6]


def _affinity(ctx, shard):
    """The rank thread's own CPU mask, read after one collective."""
    ctx.comm.barrier()
    return frozenset(os.sched_getaffinity(0))


def _median_launch():
    machine = repro.Machine(n_procs=8, backend="threaded")
    return machine.generate(20_000, distribution="random", seed=5).median()


def _same_launch(a, b):
    assert a.result.values == b.result.values
    assert a.result.clocks == b.result.clocks
    assert a.result.breakdowns == b.result.breakdowns


def _events(report):
    return sorted(report.result.tracer.events(), key=lambda e: (e.rank, e.seq))


class TestPlacement:
    """A launch whose largest rank holds at most ``CORE_LOCAL_MAX_BYTES``
    of NumPy arguments runs every rank thread on the lowest CPU the
    caller may run on; a larger one is left to the OS. Placement is best
    effort and never changes a value, clock or trace event."""

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity")
        or len(os.sched_getaffinity(0)) < 2,
        reason="needs an affinity API and at least 2 allowed CPUs",
    )
    @pytest.mark.parametrize("backend", ["serial", "threaded"])
    def test_small_launch_is_core_local_large_is_spread(self, backend):
        caller = os.sched_getaffinity(0)
        small = run_spmd(_affinity, 8, rank_args=[(np.zeros(64),)] * 8,
                         backend=backend)
        over = np.zeros(threaded.CORE_LOCAL_MAX_BYTES + 1, dtype=np.uint8)
        large = run_spmd(_affinity, 8,
                         rank_args=[(over,)] + [(np.zeros(64),)] * 7,
                         backend=backend)
        assert len(set(small.values)) == 1
        cpus = small.values[0]
        assert len(cpus) == 1 and cpus <= caller
        assert set(large.values) == {frozenset(caller)}
        assert os.sched_getaffinity(0) == caller

    @pytest.mark.parametrize("patch", ["raises", "missing"])
    def test_refused_or_missing_affinity_changes_nothing(
        self, monkeypatch, patch
    ):
        expected = _median_launch()
        if patch == "raises":
            def refuse(pid, cpus):
                raise OSError("affinity refused")

            monkeypatch.setattr(os, "sched_setaffinity", refuse)
        else:
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        got = _median_launch()
        assert got.value == expected.value
        _same_launch(got, expected)

    @pytest.mark.parametrize("backend", ["serial", "threaded"])
    def test_placement_never_changes_results(self, monkeypatch, backend):
        def run(limit):
            monkeypatch.setattr(threaded, "CORE_LOCAL_MAX_BYTES", limit)
            machine = repro.Machine(n_procs=8, backend=backend, trace=True)
            data = machine.generate(20_000, distribution="random", seed=7)
            return (data.select(1234, seed=7),
                    data.multi_select([1, 5_000, 10_000, 20_000], seed=7))

        spread, local = run(-1), run(1 << 62)
        for a, b in zip(spread, local):
            _same_launch(a, b)
            events = _events(a)
            assert events and events == _events(b)
        assert spread[0].value == local[0].value
        assert spread[1].values == local[1].values


class TestProcessTransport:
    def test_shared_array_roundtrip(self):
        arr = np.arange(17.0) * 1.5
        shared = SharedArray(arr)
        view = shared.as_array()
        assert view.dtype == arr.dtype and view.shape == arr.shape
        np.testing.assert_array_equal(view, arr)

    def test_shared_array_empty(self):
        shared = SharedArray(np.array([], dtype=np.int64))
        assert shared.as_array().size == 0
        assert shared.as_array().dtype == np.int64

    def test_ring_shift_and_alltoall_across_processes(self):
        res = run_spmd(_ring_shift_and_alltoall, 4, backend="process")
        assert [v[0] for v in res.values] == [30.0, 0.0, 10.0, 20.0]
        assert [v[1] for v in res.values] == [6, 6, 6, 6]

    def test_unpicklable_worker_exception_is_wrapped(self):
        def prog(ctx):
            if ctx.rank == 1:
                class Local(Exception):  # local class: cannot unpickle
                    pass

                raise Local("inner detail")
            ctx.comm.barrier()

        with pytest.raises(WorkerError) as ei:
            run_spmd(prog, 2, backend="process")
        assert ei.value.rank == 1
        assert isinstance(ei.value.cause, UnpicklableWorkerFailure)
        assert "inner detail" in str(ei.value.cause)

    def test_trace_events_cross_the_process_boundary(self):
        def prog(ctx):
            ctx.comm.broadcast(ctx.rank, root=0)
            ctx.comm.combine(1)

        threaded = run_spmd(prog, 3, trace=True, backend="threaded")
        proc = run_spmd(prog, 3, trace=True, backend="process")
        for op in ("broadcast", "combine"):
            assert proc.tracer.count(op) == threaded.tracer.count(op) == 3


def _rank_args(kind: str, machine) -> list:
    keys = [np.arange(4.0) + r for r in range(machine.n_procs)]
    if kind == "shard":
        keys = list(machine.from_shards(keys).shards)
    elif kind == "readonly-view":  # read-only, its memory writable
        keys = [k.view() for k in keys]
        for k in keys:
            k.flags.writeable = False
    return [(k,) for k in keys]


class TestShardWriteability:
    """A rank sees its argument exactly as writable as the caller's
    array, on every backend: a write into a ``DistributedArray`` shard or
    another read-only array raises ``ValueError``; a writable raw
    ``rank_args`` array takes the write."""

    @pytest.mark.parametrize("kind", ["shard", "readonly-view", "writable"])
    @pytest.mark.parametrize("backend", ["serial", "threaded", "process",
                                         "pool"])
    def test_rank_sees_callers_writeability(self, backend, kind):
        machine = repro.Machine(n_procs=4, backend=backend)
        rank_args = _rank_args(kind, machine)
        if kind == "writable":
            res = machine.run(_write_first_key, rank_args=rank_args)
            assert res.values == [-4.0] * 4
            return
        with pytest.raises((ValueError, WorkerError)) as ei:
            machine.run(_write_first_key, rank_args=rank_args)
        err = ei.value
        cause = err.cause if isinstance(err, WorkerError) else err
        assert isinstance(cause, ValueError), repr(cause)
        assert "read-only" in str(cause)
        assert all(a[0][0] == r for r, a in enumerate(rank_args))


def _transports(n, timeout=5.0):
    """``n`` rank transports over in-process inbox queues (one per rank),
    so the queue protocol runs without forking."""
    inboxes = [queue.Queue() for _ in range(n)]
    return [RankTransport(r, n, inboxes, timeout) for r in range(n)]


class TestRankTransport:
    def test_deposit_sent_before_end_is_still_read(self):
        # Per-producer FIFO: a peer's deposit reaches the inbox before its
        # end marker, so a finished peer's last collective is not lost.
        t0, t1 = _transports(2)
        t1.send_all(("coll", 0, 1, "combine", 7, 2.5))
        t1.send_all(("end", 1))
        assert t0.wait_coll(1, 0) == ("combine", 7, 2.5)

    def test_waiting_on_an_ended_peer_raises_naming_it(self):
        t0, _, t2 = _transports(3)
        t2.send_all(("end", 2))
        start = time.perf_counter()
        with pytest.raises(CommunicationError) as ei:
            t0.wait_coll(2, 0)
        assert time.perf_counter() - start < 1.0, "must not wait out the timeout"
        assert str(ei.value).startswith("rank 0 waits")
        assert "rank 2 already returned" in str(ei.value)

    def test_peer_abort_outranks_a_desync_report(self):
        t0, t1 = _transports(2)
        t1.broadcast_abort()
        with pytest.raises(WorkerAborted):
            t0.wait_coll(1, 0)

    def test_unread_deposit_is_reported_at_drain(self):
        # Rank 1 deposits a collective rank 0 never issues, then ends.
        t0, t1 = _transports(2)
        t1.send_all(("coll", 0, 1, "barrier", None, 0.0))
        t1.send_all(("end", 1))
        with pytest.raises(CommunicationError, match="1 unread collective"):
            t0.finish_and_drain()


class TestDesyncDiagnosis:
    """A rank that returned never issues another collective, so a rank
    still waiting at one fails at once, naming the returned rank(s),
    instead of hanging until ``join_timeout``."""

    @pytest.mark.parametrize("backend", ["serial", "threaded", "process",
                                         "pool"])
    @pytest.mark.parametrize(
        "prog, returned",
        [(_early_return, {2}), (_extra_collective, {1, 2})],
        ids=["early-return", "extra-collective"],
    )
    def test_waiting_rank_fails_fast_naming_the_returned_rank(
        self, backend, prog, returned
    ):
        t0 = time.perf_counter()
        with pytest.raises(WorkerError) as ei:
            SPMDRuntime(3, join_timeout=5, backend=backend).run(prog)
        elapsed = time.perf_counter() - t0
        cause = ei.value.cause
        assert isinstance(cause, CommunicationError)
        named = re.search(r"complete: (.*) already returned", str(cause))
        assert named, str(cause)
        ranks = {int(r) for r in re.findall(r"rank (\d+)", named.group(1))}
        assert ranks and ranks <= returned, str(cause)
        assert elapsed < 1.0, f"desync took {elapsed:.2f}s to surface"
