"""SPMD runtime: launch, argument plumbing, failure semantics, tracing."""

import threading

import pytest

from repro.errors import ConfigurationError, WorkerError
from repro.machine import SPMDRuntime, run_spmd
from repro.machine.trace import TraceSummary


class TestLaunch:
    def test_values_ordered_by_rank(self):
        res = run_spmd(lambda ctx: ctx.rank * 2, 5)
        assert res.values == [0, 2, 4, 6, 8]

    def test_rank_args(self):
        res = run_spmd(lambda ctx, a, b: a + b, 3,
                       rank_args=[(1, 2), (3, 4), (5, 6)])
        assert res.values == [3, 7, 11]

    def test_shared_args_and_kwargs(self):
        res = run_spmd(
            lambda ctx, shard, scale, offset=0: shard * scale + offset,
            2,
            rank_args=[(1,), (2,)],
            args=(10,),
            kwargs={"offset": 5},
        )
        assert res.values == [15, 25]

    def test_p1_fast_path_no_threads(self):
        main = threading.get_ident()
        res = run_spmd(lambda ctx: threading.get_ident(), 1)
        assert res.values[0] == main

    def test_wall_time_positive(self):
        assert run_spmd(lambda ctx: None, 2).wall_time > 0

    def test_runtime_reusable(self):
        rt = SPMDRuntime(3)
        assert rt.run(lambda ctx: ctx.rank).values == [0, 1, 2]
        assert rt.run(lambda ctx: ctx.size).values == [3, 3, 3]


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, "4"])
    def test_bad_nprocs(self, bad):
        with pytest.raises(ConfigurationError):
            SPMDRuntime(bad)

    def test_too_many_ranks(self):
        with pytest.raises(ConfigurationError):
            SPMDRuntime(SPMDRuntime.MAX_RANKS + 1)

    def test_rank_args_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            run_spmd(lambda ctx: None, 3, rank_args=[(), ()])


class TestFailures:
    def test_exception_propagates_with_rank(self):
        def prog(ctx):
            if ctx.rank == 2:
                raise ValueError("boom on 2")
            ctx.comm.barrier()

        with pytest.raises(WorkerError) as ei:
            run_spmd(prog, 4)
        assert ei.value.rank == 2
        assert isinstance(ei.value.cause, ValueError)
        assert "boom on 2" in str(ei.value)

    def test_failure_before_any_collective(self):
        def prog(ctx):
            if ctx.rank == 0:
                raise RuntimeError("early")
            ctx.comm.combine(1)
            ctx.comm.combine(2)

        with pytest.raises(WorkerError) as ei:
            run_spmd(prog, 3)
        assert isinstance(ei.value.cause, RuntimeError)

    def test_failure_inside_deep_loop(self):
        def prog(ctx):
            for i in range(50):
                ctx.comm.combine(i)
                if i == 25 and ctx.rank == 1:
                    raise KeyError("mid-loop")

        with pytest.raises(WorkerError) as ei:
            run_spmd(prog, 4)
        assert isinstance(ei.value.cause, KeyError)

    def test_no_leaked_threads(self):
        before = threading.active_count()

        def prog(ctx):
            if ctx.rank == 0:
                raise ValueError("x")
            ctx.comm.barrier()

        for _ in range(3):
            with pytest.raises(WorkerError):
                run_spmd(prog, 8)
        # Daemon workers must all have unwound.
        assert threading.active_count() <= before + 1


class TestBreakdowns:
    def test_breakdown_of_critical_rank(self):
        def prog(ctx):
            ctx.charge_compute(1.0 * (ctx.rank + 1))

        res = run_spmd(prog, 3)
        assert res.simulated_time == pytest.approx(3.0)
        assert res.breakdown.compute == pytest.approx(3.0)

    def test_balance_time_aggregates(self):
        def prog(ctx):
            with ctx.balance_section():
                ctx.charge_compute(0.5)

        res = run_spmd(prog, 2)
        assert res.balance_time == pytest.approx(0.5)
        assert res.breakdown.balance_compute == pytest.approx(0.5)


class TestTracing:
    def test_tracer_records_collectives(self):
        def prog(ctx):
            ctx.comm.combine(1)
            ctx.comm.combine(2)
            ctx.comm.broadcast(ctx.rank if ctx.rank == 0 else None, root=0)

        res = run_spmd(prog, 3, trace=True)
        assert res.tracer.count("combine", rank=0) == 2
        assert res.tracer.count("broadcast", rank=1) == 1
        summary = TraceSummary.from_tracer(res.tracer, rank=2)
        assert summary.counts == {"combine": 2, "broadcast": 1}

    def test_tracing_disabled_by_default(self):
        res = run_spmd(lambda ctx: ctx.comm.combine(1), 2)
        assert res.tracer.count("combine") == 0
