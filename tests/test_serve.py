"""The async multi-tenant serving tier (repro.serve).

Pins the tentpole contracts: coalescing across concurrent tenants into
single launches, bit-identity with direct Session queries, admission
control and per-tenant fairness, per-query error isolation, graceful
shutdown, and self-observability through the service's own
QuantileSketch. Plain ``asyncio.run`` drives the coroutines — no
pytest-asyncio dependency.
"""

import asyncio

import numpy as np
import pytest

import repro
from repro.errors import AdmissionError, ServiceClosed
from repro.serve import (
    SelectionService,
    direct_answers,
    replay,
    synthetic_trace,
)

N = 8192
P = 4


@pytest.fixture
def machine():
    return repro.Machine(n_procs=P)


def run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_concurrent_queries_share_one_launch(self, machine):
        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                svc.register("a", machine.generate(N, seed=1))
                before = machine.launch_count
                reports = await asyncio.gather(*(
                    svc.select("a", 100 * (i + 1), tenant=f"t{i % 3}")
                    for i in range(12)
                ))
                return machine.launch_count - before, reports

        launches, reports = run(main())
        assert launches == 1, (
            f"12 concurrent same-array queries must share ONE launch, "
            f"paid {launches}"
        )
        assert [r.k for r in reports] == [100 * (i + 1) for i in range(12)]

    def test_repeat_queries_hit_cache_zero_launches(self, machine):
        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                svc.register("a", machine.generate(N, seed=1))
                first = await svc.select("a", 42)
                before = machine.launch_count
                again = await svc.select("a", 42)
                return first, again, machine.launch_count - before

        first, again, launches = run(main())
        assert launches == 0
        assert again.cached and again.value == first.value

    def test_bit_identical_to_direct_session(self, machine):
        data = machine.generate(N, seed=3)
        trace = synthetic_trace(24, tenants=3, arrays=("a",), seed=5)

        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                svc.register("a", data)
                return await replay(svc, trace, concurrency=8)

        got = run(main())
        expected = direct_answers(machine, {"a": data}, trace)
        assert got == expected, (
            "service answers must be bit-identical to direct Session "
            "queries"
        )

    def test_multiple_arrays_one_launch_each(self, machine):
        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                svc.register("a", machine.generate(N, seed=1))
                svc.register("b", machine.generate(N, seed=2))
                before = machine.launch_count
                await asyncio.gather(
                    svc.select("a", 10), svc.select("a", 20),
                    svc.select("b", 10), svc.select("b", 20),
                )
                return machine.launch_count - before

        assert run(main()) == 2  # one launch per (array, plan) group

    def test_launches_saved_counter(self, machine):
        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                svc.register("a", machine.generate(N, seed=1))
                await asyncio.gather(*(
                    svc.select("a", 11 * (i + 1)) for i in range(8)
                ))
                return svc.stats

        stats = run(main())
        assert stats.launches == 1
        assert stats.launches_saved == 7  # query-at-a-time would pay 8


class TestValidationAndRegistry:
    def test_out_of_range_rank_no_launch(self, machine):
        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                svc.register("a", machine.generate(N, seed=1))
                before = machine.launch_count
                for bad in (0, -1, N + 1):
                    with pytest.raises(repro.ConfigurationError,
                                       match="out of range"):
                        await svc.select("a", bad)
                with pytest.raises(repro.ConfigurationError,
                                   match="outside"):
                    await svc.quantile("a", 1.5)
                return machine.launch_count - before

        assert run(main()) == 0

    def test_unknown_array_name(self, machine):
        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                with pytest.raises(repro.ConfigurationError,
                                   match="no array registered"):
                    await svc.select("ghost", 1)

        run(main())

    def test_register_distributes_host_arrays(self, machine):
        svc = SelectionService(machine)
        data = svc.register("h", np.arange(100, dtype=float))
        assert data.n == 100 and data.machine is machine
        svc.unregister("h")
        with pytest.raises(repro.ConfigurationError):
            svc.unregister("h")

    def test_duplicate_name_rejected_and_nothing_replaced(self, machine):
        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                svc.register("d", np.arange(100.0))
                with pytest.raises(repro.ConfigurationError,
                                   match="already registered"):
                    svc.register("d", np.arange(100.0) + 1000)
                return (await svc.median("d")).value

        assert run(main()) == 49.0

    def test_foreign_machine_rejected(self, machine):
        other = repro.Machine(n_procs=2)
        svc = SelectionService(machine)
        with pytest.raises(repro.ConfigurationError,
                           match="different Machine"):
            svc.register("x", other.generate(64, seed=0))


class TestAdmission:
    def test_per_tenant_cap_preserves_other_tenants(self, machine):
        async def main():
            svc = SelectionService(machine, window=0.05, max_in_flight=8,
                                   max_per_tenant=2)
            svc.register("a", machine.generate(N, seed=1))
            async with svc:
                hot = [
                    asyncio.ensure_future(
                        svc.select("a", 10 + i, tenant="hot")
                    )
                    for i in range(4)
                ]
                await asyncio.sleep(0)  # let the submits run
                # The cold tenant must still be admitted while the hot
                # tenant sits at its cap.
                cold = await svc.select("a", 99, tenant="cold")
                results = await asyncio.gather(*hot,
                                               return_exceptions=True)
            rejected = [r for r in results
                        if isinstance(r, AdmissionError)]
            served = [r for r in results
                      if isinstance(r, repro.SelectionReport)]
            return rejected, served, cold

        rejected, served, cold = run(main())
        assert len(rejected) == 2 and len(served) == 2
        assert "fairness cap" in str(rejected[0])
        assert cold.k == 99

    def test_global_capacity_cap(self, machine):
        async def main():
            svc = SelectionService(machine, window=0.05, max_in_flight=2,
                                   max_per_tenant=2)
            svc.register("a", machine.generate(N, seed=1))
            async with svc:
                t1 = asyncio.ensure_future(svc.select("a", 1, tenant="x"))
                t2 = asyncio.ensure_future(svc.select("a", 2, tenant="y"))
                await asyncio.sleep(0)
                with pytest.raises(AdmissionError, match="capacity"):
                    await svc.select("a", 3, tenant="z")
                await asyncio.gather(t1, t2)
                return svc.stats

        stats = run(main())
        assert stats.rejected == 1 and stats.resolved == 2


class TestErrorRouting:
    def test_one_tenants_failure_never_fails_anothers_batch(self, machine):
        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                svc.register("a", machine.generate(60_000, seed=2))
                # Tenant A's plan fires the convergence guard inside its
                # own launch group; tenant B rides the default plan in
                # the SAME flush cycle.
                doomed = asyncio.ensure_future(svc.select(
                    "a", 100, tenant="A", algorithm="randomized",
                    max_iterations=0,
                ))
                healthy = asyncio.ensure_future(
                    svc.select("a", 200, tenant="B")
                )
                return await asyncio.gather(doomed, healthy,
                                            return_exceptions=True)

        doomed, healthy = run(main())
        assert isinstance(doomed, repro.WorkerError)
        assert isinstance(doomed.cause, repro.ConvergenceError)
        assert isinstance(healthy, repro.SelectionReport)

    def test_service_survives_failed_cycles(self, machine):
        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                svc.register("a", machine.generate(60_000, seed=2))
                with pytest.raises(repro.WorkerError):
                    await svc.select("a", 1, algorithm="randomized",
                                     max_iterations=0)
                after = await svc.select("a", 1)
                return after, svc.stats

        after, stats = run(main())
        assert after.value is not None
        assert stats.errors == 1 and stats.resolved == 1


class TestShutdown:
    def test_close_drains_in_flight_queries(self, machine):
        async def main():
            svc = SelectionService(machine, window=0.05)
            svc.register("a", machine.generate(N, seed=1))
            tasks = [
                asyncio.ensure_future(svc.select("a", 10 * (i + 1)))
                for i in range(5)
            ]
            await asyncio.sleep(0)
            await svc.close()  # drain=True
            return await asyncio.gather(*tasks), svc

        reports, svc = run(main())
        assert all(isinstance(r, repro.SelectionReport) for r in reports)
        assert svc.closed and svc.in_flight == 0

    def test_submit_after_close_raises(self, machine):
        async def main():
            svc = SelectionService(machine, window=0.001)
            svc.register("a", machine.generate(N, seed=1))
            await svc.close()
            with pytest.raises(ServiceClosed):
                await svc.select("a", 1)

        run(main())

    def test_close_without_drain_cancels_queued(self, machine):
        async def main():
            svc = SelectionService(machine, window=10.0)  # never elapses
            svc.register("a", machine.generate(N, seed=1))
            tasks = [
                asyncio.ensure_future(svc.select("a", 10 + i))
                for i in range(3)
            ]
            await asyncio.sleep(0)
            await svc.close(drain=False)
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = run(main())
        assert all(isinstance(r, ServiceClosed) for r in results)

    def test_close_is_idempotent(self, machine):
        async def main():
            svc = SelectionService(machine, window=0.001)
            await svc.close()
            await svc.close()

        run(main())

    def test_close_releases_pool_workers(self):
        machine = repro.Machine(n_procs=2, backend="pool")

        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                svc.register("a", machine.generate(2048, seed=1))
                await svc.select("a", 100)

        run(main())
        # release_workers ran on close: the pool backend's generation is
        # gone, its shared-memory pins are dropped, and a later launch
        # transparently re-provisions.
        assert machine.runtime.backend.name == "pool"
        assert machine.runtime.backend.pinned_bytes == 0
        rep = machine.generate(2048, seed=1).select(7)
        assert rep.value is not None


class TestObservability:
    def test_stats_and_latency_sketch(self, machine):
        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                svc.register("a", machine.generate(N, seed=1))
                await asyncio.gather(*(
                    svc.select("a", 7 * (i + 1), tenant=f"t{i % 2}")
                    for i in range(10)
                ))
                return svc.stats, svc.latency_sketch

        stats, sketch = run(main())
        assert stats.queries == 10 and stats.resolved == 10
        assert stats.tenants == 2 and stats.flush_cycles >= 1
        # p50/p99 must be READ FROM the service's own sketch.
        assert stats.latency_count == sketch.count == 10
        assert stats.p50_s == float(sketch.quantile(0.50))
        assert stats.p99_s == float(sketch.quantile(0.99))
        assert 0.0 < stats.p50_s <= stats.p99_s

    def test_pool_backend_reuse_receipt(self):
        # The pool backend is shared per name, so its counters are
        # cumulative across machines: assert deltas, like the benches do.
        machine = repro.Machine(n_procs=2, backend="pool")
        forks0, reuse0 = machine.fork_count, machine.reuse_count

        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                svc.register("a", machine.generate(4096, seed=1))
                for i in range(3):
                    await svc.select("a", 50 * (i + 1))
                return machine.fork_count, machine.reuse_count

        forks, reuses = run(main())
        assert forks - forks0 == 1, "a long-lived service must fork ONCE"
        assert reuses - reuse0 >= 2, "later launches ride warm workers"


class TestTraceHelpers:
    def test_synthetic_trace_deterministic_and_fair(self):
        a = synthetic_trace(50, tenants=3, seed=9)
        b = synthetic_trace(50, tenants=3, seed=9)
        assert a == b
        assert {t.tenant for t in a} <= {f"tenant{i}" for i in range(3)}
        hot = synthetic_trace(200, tenants=4, hot_share=0.9, seed=9)
        share = sum(t.tenant == "tenant0" for t in hot) / len(hot)
        assert share > 0.5

    def test_trace_validation(self):
        with pytest.raises(repro.ConfigurationError):
            synthetic_trace(0)
        with pytest.raises(repro.ConfigurationError):
            synthetic_trace(5, kinds=("nope",))
        with pytest.raises(repro.ConfigurationError):
            synthetic_trace(5, hot_share=1.5)
