"""Session serving layer: futures, query coalescing, result caching,
launch accounting, and legacy-shim equivalence."""

import asyncio
import dataclasses
import gc
import itertools
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import repro
from repro.core.array import _sample_key
from repro.core.reports import _RunReport
from repro.errors import ConfigurationError
from repro.machine.clock import TimeBreakdown
from repro.serve import SelectionService

N = 20_000
P = 4


@pytest.fixture()
def machine():
    return repro.Machine(n_procs=P)


@pytest.fixture()
def data(machine):
    return machine.generate(N, distribution="random", seed=7)


@pytest.fixture()
def oracle(data):
    return np.sort(data.gather())


class TestCoalescing:
    def test_flush_of_many_queries_is_one_launch(self, machine, data, oracle):
        """The acceptance bar: q >= 3 same-array rank queries, ONE SPMD
        launch, correct values, less simulated time than q selects."""
        ks = [100, N // 4, N // 2, 3 * N // 4, N - 100]
        session = machine.session()
        before = machine.launch_count
        futures = [session.select(data, k) for k in ks]
        assert machine.launch_count == before, "queueing must not launch"
        assert session.pending_count == len(ks)
        session.flush()
        assert machine.launch_count == before + 1
        assert session.stats.launches == 1
        for k, fut in zip(ks, futures):
            assert fut.done
            assert fut.value == oracle[k - 1]
        # Cheaper than the q independent one-shot launches it replaces.
        independent = sum(
            repro.select(data, k).simulated_time for k in ks
        )
        assert futures[0].result().simulated_time < independent

    def test_future_result_triggers_flush(self, machine, data, oracle):
        session = machine.session()
        f1 = session.select(data, 10)
        f2 = session.select(data, 20)
        assert not f1.done and not f2.done
        before = machine.launch_count
        assert f1.result().value == oracle[9]
        assert machine.launch_count == before + 1
        assert f2.done, "one flush resolves every pending future"
        assert f2.value == oracle[19]

    def test_context_manager_flushes(self, machine, data, oracle):
        before = machine.launch_count
        with machine.session() as session:
            futures = [session.select(data, k) for k in (5, 15, 25)]
        assert machine.launch_count == before + 1
        assert [f.value for f in futures] == [oracle[4], oracle[14], oracle[24]]
        assert session.pending_count == 0

    def test_median_and_quantiles_coalesce_with_selects(
        self, machine, data, oracle
    ):
        session = machine.session()
        before = machine.launch_count
        fm = session.median(data)
        fqs = session.quantiles(data, [0.25, 0.75])
        fs = session.select(data, 123)
        session.flush()
        assert machine.launch_count == before + 1
        assert fm.value == oracle[(N + 1) // 2 - 1]
        assert [f.value for f in fqs] == [oracle[N // 4 - 1],
                                          oracle[3 * N // 4 - 1]]
        assert fs.value == oracle[122]

    def test_multi_select_future(self, machine, data, oracle):
        session = machine.session()
        ks = [50, 10, 50, 30]  # duplicates + arbitrary order
        before = machine.launch_count
        fut = session.multi_select(data, ks)
        rep = fut.result()
        assert machine.launch_count == before + 1
        assert rep.values == [oracle[49], oracle[9], oracle[49], oracle[29]]
        assert rep.ks == ks
        assert fut.values == rep.values

    def test_different_arrays_need_separate_launches(self, machine, oracle):
        a = machine.generate(N, distribution="random", seed=7)
        b = machine.generate(N, distribution="random", seed=8)
        session = machine.session()
        before = machine.launch_count
        fa = session.select(a, 10)
        fb = session.select(b, 10)
        session.flush()
        assert machine.launch_count == before + 2
        assert fa.value == np.sort(a.gather())[9]
        assert fb.value == np.sort(b.gather())[9]

    def test_equal_content_arrays_share_a_launch(self, machine):
        a = machine.generate(N, distribution="random", seed=7)
        b = machine.generate(N, distribution="random", seed=7)
        session = machine.session()
        before = machine.launch_count
        fa = session.select(a, 10)
        fb = session.select(b, 20)
        session.flush()
        assert machine.launch_count == before + 1, (
            "identical fingerprints must coalesce"
        )
        ref = np.sort(a.gather())
        assert fa.value == ref[9]
        assert fb.value == ref[19]

    def test_different_plans_need_separate_launches(self, machine, data):
        session = machine.session()
        before = machine.launch_count
        f1 = session.select(data, 10)
        f2 = session.select(data, 20, algorithm="randomized")
        session.flush()
        assert machine.launch_count == before + 2
        assert f1.done and f2.done

    def test_empty_multi_select(self, machine, data):
        session = machine.session()
        before = machine.launch_count
        rep = session.multi_select(data, []).result()
        assert machine.launch_count == before
        assert rep.values == [] and len(rep) == 0

    def test_flush_idempotent(self, machine, data):
        session = machine.session()
        session.select(data, 10)
        assert len(session.flush()) == 1
        before = machine.launch_count
        assert session.flush() == []
        assert machine.launch_count == before

    def test_rank_validation_at_enqueue(self, machine, data):
        session = machine.session()
        with pytest.raises(ConfigurationError, match="out of range"):
            session.select(data, 0)
        with pytest.raises(ConfigurationError, match="out of range"):
            session.select(data, N + 1)
        with pytest.raises(ConfigurationError, match="out of range"):
            session.multi_select(data, [1, N + 1])
        with pytest.raises(ConfigurationError, match="outside"):
            session.quantiles(data, [1.5])
        assert session.pending_count == 0

    def test_foreign_machine_rejected(self, machine, data):
        other = repro.Machine(n_procs=P)
        with pytest.raises(ConfigurationError, match="different Machine"):
            other.default_session.select(data, 1)

    def test_failing_group_does_not_strand_other_groups(self, machine, data):
        # A launch failure in one (array, plan) group must not discard the
        # other groups' futures, and the failed future must re-raise the
        # launch error (not a misleading internal RuntimeError).
        session = machine.session()
        ok = session.select(data, 10)
        doomed = session.select(data, 20)
        # max_iterations=0 fires the convergence guard inside the doomed
        # group's launch (a different plan => a different flush group).
        doomed2 = session.multi_select(
            data, [100, 200], algorithm="randomized", max_iterations=0
        )
        with pytest.raises(repro.WorkerError):
            session.flush()
        assert ok.done and ok.value is not None, (
            "healthy group must still be served"
        )
        assert doomed.done and doomed.value is not None
        with pytest.raises(repro.WorkerError):
            doomed2.result()  # re-raises the recorded launch error

    def test_exit_with_exception_leaves_queue_resumable(self, machine, data,
                                                        oracle):
        session = machine.session()
        with pytest.raises(RuntimeError, match="boom"):
            with session:
                fut = session.select(data, 10)
                raise RuntimeError("boom")
        assert session.pending_count == 1, "pending work survives the error"
        assert fut.result().value == oracle[9]


class TestResultCache:
    def test_requery_is_cache_hit_zero_launches(self, machine, data, oracle):
        session = machine.session()
        ks = [100, 200, 300]
        [f.result() for f in [session.select(data, k) for k in ks]]
        launches = machine.launch_count
        hits_before = session.stats.cache_hits
        replay = [session.select(data, k).result() for k in ks]
        assert machine.launch_count == launches, "cache hits must not launch"
        assert session.stats.cache_hits == hits_before + len(ks)
        assert all(rep.cached for rep in replay)
        assert [rep.value for rep in replay] == [oracle[k - 1] for k in ks]

    def test_partial_overlap_launches_only_missing(self, machine, data, oracle):
        session = machine.session()
        session.select(data, 100).result()
        before = machine.launch_count
        f_old = session.select(data, 100)
        f_new = session.select(data, 500)
        session.flush()
        assert machine.launch_count == before + 1
        assert f_old.result().cached and not f_new.result().cached
        assert f_new.value == oracle[499]

    def test_cached_metrics_are_the_originating_launch(self, machine, data):
        session = machine.session()
        first = session.select(data, 100).result()
        again = session.select(data, 100).result()
        assert again.simulated_time == first.simulated_time
        assert again.value == first.value
        assert again.cached and not first.cached

    def test_fully_cached_multi_keeps_originating_metrics(
        self, machine, data
    ):
        # A fully-cached multi future resolved in a flush that also
        # launched for OTHER ranks must report its originating launch's
        # metrics, not the unrelated launch's.
        session = machine.session()
        origin = session.multi_select(data, [100, 200]).result()
        cached_multi = session.multi_select(data, [100, 200])
        fresh = session.select(data, 9000)  # forces a launch in this flush
        session.flush()
        rep = cached_multi.result()
        assert rep.cached
        assert rep.simulated_time == origin.simulated_time
        assert not fresh.result().cached

    def test_run_select_cache(self, machine, data, oracle):
        session = machine.session()
        first = session.run_select(data, 42)
        before = machine.launch_count
        again = session.run_select(data, 42)
        assert machine.launch_count == before
        assert again.cached and again.value == first.value == oracle[41]
        assert again.simulated_time == first.simulated_time

    def test_fluent_methods_share_default_session_cache(
        self, machine, data, oracle
    ):
        r1 = data.median()
        before = machine.launch_count
        r2 = data.median()
        assert machine.launch_count == before
        assert r2.cached and r2.value == r1.value == oracle[(N + 1) // 2 - 1]

    def test_fluent_quantiles_cached_on_refresh(self, machine, data, oracle):
        qs = [0.5, 0.9, 0.99]
        first = data.quantiles(qs)
        before = machine.launch_count
        refresh = data.quantiles(qs)
        assert machine.launch_count == before
        assert all(rep.cached for rep in refresh)
        assert [r.value for r in refresh] == [r.value for r in first]

    def test_different_seed_is_not_a_hit(self, machine, data):
        session = machine.session()
        session.select(data, 100, seed=1).result()
        before = machine.launch_count
        session.select(data, 100, seed=2).result()
        assert machine.launch_count == before + 1

    def test_write_raises_and_new_content_misses(self, machine):
        shards = [np.arange(r * 10, r * 10 + 10, dtype=np.float64)
                  for r in range(P)]
        d = machine.from_shards(shards)
        session = machine.session()
        assert session.run_select(d, 1).value == 0.0
        with pytest.raises(ValueError, match="read-only"):
            d.shards[0][0] = -5.0
        shards[0][0] = -5.0  # the caller's array, not the shard
        assert session.run_select(d, 1).value == 0.0
        before = machine.launch_count
        rep = session.run_select(machine.from_shards(shards), 1)
        assert machine.launch_count == before + 1, "new fingerprint, new launch"
        assert rep.value == -5.0

    def test_lru_eviction(self, machine, data):
        session = machine.session(max_cache_entries=2)
        session.run_select(data, 1)
        session.run_select(data, 2)
        session.run_select(data, 3)
        assert session.cache_size == 2
        before = machine.launch_count
        session.run_select(data, 1)  # evicted -> relaunch
        assert machine.launch_count == before + 1

    def test_clear_cache(self, machine, data):
        session = machine.session()
        session.run_select(data, 5)
        assert session.cache_size == 1
        session.clear_cache()
        assert session.cache_size == 0

    def test_uncached_session_always_launches(self, machine, data):
        session = machine.session(cache=False)
        before = machine.launch_count
        a = session.run_select(data, 10)
        b = session.run_select(data, 10)
        assert machine.launch_count == before + 2
        assert not a.cached and not b.cached
        assert a.value == b.value and a.simulated_time == b.simulated_time


# The four ways a query reaches a Session cache. Each answers the same
# query twice on one cache: ``between(first_reports)`` runs after the first
# answer and may drop those reports; returns (kept, again, launches paid
# by the second answer).
QS = [0.25, 0.5, 0.9]


def _sync_twice(machine, query, between):
    first = query()
    kept = between(first)
    del first
    before = machine.launch_count
    again = query()
    return kept, again, machine.launch_count - before


def _median_twice(machine, data, plan, between):
    return _sync_twice(machine, lambda: [data.median(plan)], between)


def _run_quantiles_twice(machine, data, plan, between):
    session = machine.default_session
    return _sync_twice(
        machine, lambda: session.run_quantiles(data, QS, plan), between
    )


def _flush_twice(machine, data, plan, between):
    session = machine.session(plan)

    def query():
        futures = session.quantiles(data, QS)
        session.flush()
        return [f.result() for f in futures]

    return _sync_twice(machine, query, between)


def _service_twice(machine, data, plan, between):
    async def main():
        async with SelectionService(machine, plan, window=0.0) as svc:
            svc.register("a", data)
            first = [await svc.median("a")]
            # The loop callback that woke this coroutine holds the answered
            # asyncio future until the coroutine next yields.
            await asyncio.sleep(0)
            kept = between(first)
            del first
            before = machine.launch_count
            again = [await svc.median("a")]
            return kept, again, machine.launch_count - before

    return asyncio.run(main())


ENTRY_PATHS = {
    "median": _median_twice,
    "run_quantiles": _run_quantiles_twice,
    "flush": _flush_twice,
    "service": _service_twice,
}


class TestSlimCache:
    """The cache keeps answers and a slim launch record, never the launch's
    per-rank SPMDResult, and a hit equals the report it replays."""

    @pytest.mark.parametrize("path", sorted(ENTRY_PATHS))
    def test_cache_does_not_retain_the_launch(self, machine, data, path):
        def drop(first):
            assert first and not any(r.cached for r in first)
            results = {id(r.result): r.result for r in first}
            assert len(results) == 1, "one launch answered the query"
            refs = [weakref.ref(res) for res in results.values()]
            del results
            first.clear()
            gc.collect()
            return [ref() for ref in refs]

        plan = repro.SelectionPlan(seed=3)
        alive, again, launches = ENTRY_PATHS[path](machine, data, plan, drop)
        assert alive == [None], "the cache kept the launch's SPMDResult"
        assert launches == 0
        assert all(r.cached and r.result is None for r in again)

    @pytest.mark.parametrize("plan", [
        repro.SelectionPlan(algorithm="randomized", balancer="omlb",
                            seed=1, trace=True),
        repro.SelectionPlan(prefilter="sketch", seed=1),
    ], ids=["traced-balanced", "sketch-prefilter"])
    @pytest.mark.parametrize("path", sorted(ENTRY_PATHS))
    def test_cached_report_equals_original(self, machine, path, plan):
        data = machine.generate(N, distribution="skewed_shards", seed=5)
        first, again, launches = ENTRY_PATHS[path](
            machine, data, plan, list
        )
        assert launches == 0
        assert len(again) == len(first)
        for orig, hit in zip(first, again):
            assert not orig.cached and orig.result is not None
            assert hit.cached and hit.result is None
            if plan.trace:
                assert orig.collective_rounds() and orig.balance_time > 0
            else:
                assert orig.prefilter is not None
            for f in dataclasses.fields(orig):
                if f.name not in ("cached", "result"):
                    assert getattr(hit, f.name) == getattr(orig, f.name), (
                        f.name
                    )
            assert hit.prefilter == orig.prefilter
            assert hit.cost_residual == orig.cost_residual
            assert hit.collective_rounds() == orig.collective_rounds()


class TestLegacyShims:
    """The legacy surface is an uncached one-shot session: one launch per
    call, deterministic per seed, equivalent across entry points."""

    def test_select_is_one_launch_per_call(self, machine, data):
        before = machine.launch_count
        a = repro.select(data, 100, seed=3)
        b = repro.select(data, 100, seed=3)
        assert machine.launch_count == before + 2
        assert not a.cached and not b.cached
        assert a.value == b.value
        assert a.simulated_time == b.simulated_time

    def test_select_matches_session_single_path(self, machine, data):
        shim = repro.select(data, 123, algorithm="randomized", seed=5)
        via_session = machine.session(cache=False).run_select(
            data, 123, repro.SelectionPlan(algorithm="randomized", seed=5)
        )
        assert shim.value == via_session.value
        assert shim.simulated_time == via_session.simulated_time
        assert shim.breakdown.total == via_session.breakdown.total

    def test_multi_select_matches_coalesced_values(self, machine, data, oracle):
        ks = [10, 1000, 19000]
        shim = repro.multi_select(data, ks, seed=2)
        with machine.session(repro.SelectionPlan(seed=2)) as s:
            futures = [s.select(data, k) for k in ks]
        assert shim.values == [f.value for f in futures]
        assert shim.values == [oracle[k - 1] for k in ks]

    def test_quantiles_same_batched_metrics(self, data):
        reports = repro.quantiles(data, [0.1, 0.5, 0.9])
        assert len({rep.simulated_time for rep in reports}) == 1
        assert all(not rep.cached for rep in reports)

    def test_quantiles_empty_returns_before_validating_plan(
        self, machine, data
    ):
        # Historical order: the empty set short-circuits before the plan
        # kwargs are validated.
        before = machine.launch_count
        assert repro.quantiles(data, [], algorithm="bogus") == []
        assert machine.launch_count == before
        with pytest.raises(ConfigurationError, match="outside"):
            repro.quantiles(data, [2.0], algorithm="bogus")

    def test_rebalance_shim_matches_fluent(self, machine):
        d = machine.generate(400, distribution="skewed_shards", seed=2)
        out_shim, res_shim = repro.rebalance(d, method="global_exchange")
        out_fluent, res_fluent = d.rebalance(method="global_exchange")
        assert out_shim.counts == out_fluent.counts
        assert res_shim.simulated_time == res_fluent.simulated_time


class TestReports:
    def test_base_report_balance_time_without_result(self):
        # Satellite fix: the hoisted result field means the base class
        # cannot raise AttributeError anymore.
        rep = _RunReport(
            n=10, p=2, algorithm="randomized", balancer="NoBalance",
            simulated_time=1.0, wall_time=0.1,
            breakdown=TimeBreakdown(),
        )
        assert rep.result is None
        assert rep.balance_time == 0.0

    def test_gather_preserves_dtype_when_empty(self, machine):
        for dtype in (np.int32, np.float32, np.int64):
            d = machine.from_shards(
                [np.array([], dtype=dtype) for _ in range(P)]
            )
            out = d.gather()
            assert out.size == 0 and out.dtype == dtype

    def test_gather_nonempty_unchanged(self, machine):
        d = machine.distribute(np.arange(10, dtype=np.int16))
        assert d.gather().dtype == np.int16
        assert np.array_equal(d.gather(), np.arange(10))

    def test_fingerprint_stable_and_content_based(self, machine):
        a = machine.generate(1000, seed=3)
        b = machine.generate(1000, seed=3)
        c = machine.generate(1000, seed=4)
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint
        assert a.fingerprint == a.fingerprint  # memoised

    def test_session_stats_accounting(self, machine, data):
        session = machine.session()
        with session:
            for k in (1, 2, 3):
                session.select(data, k)
        session.select(data, 1).result()  # cache hit
        s = session.stats
        assert s.queries == 4
        assert s.launches == 1
        assert s.flushes == 2
        assert s.cache_hits == 1
        assert s.cache_misses == 3


class TestIdentity:
    """The cache identity hashes content only when two live arrays share
    a sample key, and never serves one array another's answers."""

    @staticmethod
    def _twin(keys):
        """``keys`` changed at shard 0's position 1, which the 64-point
        sample of a 5,000-key shard does not read."""
        twin = keys.copy()
        twin[1] = 2.0
        return twin

    def test_a_fresh_array_is_never_hashed(self, machine):
        d = machine.generate(N, distribution="random", seed=11)
        oracle = np.sort(d.gather())
        assert d.median().value == oracle[(N + 1) // 2 - 1]
        assert d.quantiles([0.5, 0.9])[1].value == oracle[9 * N // 10 - 1]
        with machine.session() as session:
            session.select(d, 5)
        assert d._fingerprint is None

    def test_sample_equal_arrays_never_share(self, machine):
        keys = np.random.default_rng(3).random(N)
        a, b = machine.distribute(keys), machine.distribute(self._twin(keys))
        assert _sample_key(a.shards) == _sample_key(b.shards)
        session = machine.session()
        before = machine.launch_count
        fa, fb = session.select(a, N), session.select(b, N)
        session.flush()
        assert machine.launch_count == before + 2, "no shared flush launch"
        assert (fa.value, fb.value) == (keys.max(), 2.0)
        assert a.identity != b.identity
        before = machine.launch_count
        assert session.run_select(b, N).value == 2.0
        assert session.run_select(a, N).value == keys.max()
        assert machine.launch_count == before + 2, "no shared cache entry"

    def test_content_distributed_again_after_collection(self, machine):
        keys = np.random.default_rng(4).random(N)
        a = machine.distribute(keys)
        assert a.select(N).value == keys.max()
        del a
        gc.collect()
        before = machine.launch_count
        again = machine.distribute(keys)
        assert again.select(N).value == keys.max()
        assert machine.launch_count == before + 1, "launches once more"
        del again
        gc.collect()
        # Differs only at an unsampled position: must not be served the
        # collected arrays' answer.
        assert machine.distribute(self._twin(keys)).select(N).value == 2.0

    def test_content_equal_arrays_share_while_one_is_alive(self, machine):
        keys = np.random.default_rng(5).random(N)
        a = machine.distribute(keys)
        a.median()
        before = machine.launch_count
        b = machine.distribute(keys)
        assert b.median().cached
        # b took a's identity, so a later copy still shares with b alone.
        del a
        gc.collect()
        assert machine.distribute(keys).median().cached
        assert machine.launch_count == before

    @staticmethod
    def _resolve_concurrently(arrays):
        start = threading.Barrier(len(arrays))
        got: list = [None] * len(arrays)

        def resolve(i):
            start.wait(10)
            got[i] = arrays[i].identity

        threads = [threading.Thread(target=resolve, args=(i,))
                   for i in range(len(arrays))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        return got

    def test_concurrent_resolution_ends_with_one_identity(self, machine,
                                                         monkeypatch):
        """Eight threads on fewer cores, switching every microsecond: one
        array, and two content-equal arrays, each end with one identity.
        A slow provisional counter widens the window between finding no
        peer and registering, where an unlocked registry would hand out
        two identities."""
        counter = itertools.count()

        def slow_count():
            while True:
                time.sleep(0.002)
                yield next(counter)

        monkeypatch.setattr("repro.core.array._PROVISIONAL", slow_count())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(5):
                one = machine.generate(N, seed=100 + seed)
                pair = [machine.generate(N, seed=200 + seed)
                        for _ in range(2)]
                got = self._resolve_concurrently([one] * 4 + pair * 2)
                assert len(set(got[:4])) == 1
                assert len(set(got[4:])) == 1
                assert got[0] != got[4]
        finally:
            sys.setswitchinterval(interval)

    def test_registry_holds_no_collected_array(self, machine):
        for seed in range(20):
            machine.generate(1000, seed=seed).identity
        gc.collect()
        machine.generate(1000, seed=99).identity
        assert len(machine._identities._live) == 1

    def test_stream_identity_is_its_fingerprint(self, machine):
        s = machine.stream(window=2)
        s.append(np.arange(100.0))
        first = s.identity
        assert first == s.fingerprint
        s.append(np.arange(100.0) + 5)
        assert s.identity == s.fingerprint != first
        assert s._identity is None
