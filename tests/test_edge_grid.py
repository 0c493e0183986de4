"""Edge-case grid: the degenerate shapes every query path must survive,
plus the regression pins for the two serving-tier bugfixes —

* out-of-range ranks are rejected BEFORE any SPMD launch (they used to
  burn a launch and surface as WorkerError), and
* shards are immutable: an in-place write raises instead of leaving the
  result cache to serve pre-write answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.selection import STRATEGIES

# "auto" rides the same degenerate-shape legs: the planner must
# never crash where the algorithms themselves must not.
ALGORITHMS = sorted(STRATEGIES) + ["auto"]


def oracle(data, k):
    return float(np.sort(data.gather())[k - 1])


# ---------------------------------------------------------------------------
# Regression: out-of-range rank k must never reach a launch
# ---------------------------------------------------------------------------


class TestOutOfRangeRankPreLaunch:
    """A bad rank used to execute a full SPMD launch and come back as
    WorkerError; now every entry path raises ConfigurationError with
    ``Machine.launch_count`` unchanged."""

    @pytest.fixture
    def setup(self):
        machine = repro.Machine(n_procs=4)
        data = machine.generate(1000, seed=0)
        return machine, data

    @pytest.mark.parametrize("bad_k", [0, -1, 1001, 10**9])
    def test_fluent_select(self, setup, bad_k):
        machine, data = setup
        before = machine.launch_count
        with pytest.raises(repro.ConfigurationError, match="out of range"):
            data.select(bad_k)
        assert machine.launch_count == before

    def test_legacy_select_and_multi_select(self, setup):
        machine, data = setup
        before = machine.launch_count
        with pytest.raises(repro.ConfigurationError, match="out of range"):
            repro.select(data, 0)
        with pytest.raises(repro.ConfigurationError, match="out of range"):
            repro.multi_select(data, [1, 500, 1001])
        assert machine.launch_count == before

    def test_deferred_session_query(self, setup):
        machine, data = setup
        session = machine.session()
        before = machine.launch_count
        with pytest.raises(repro.ConfigurationError, match="out of range"):
            session.select(data, -5)
        with pytest.raises(repro.ConfigurationError, match="out of range"):
            session.multi_select(data, [500, 0])
        assert session.pending_count == 0, (
            "a rejected query must not linger in the pending queue"
        )
        assert machine.launch_count == before

    def test_sketch_prefilter_path(self, setup):
        machine, data = setup
        before = machine.launch_count
        with pytest.raises(repro.ConfigurationError, match="out of range"):
            data.select(1001, prefilter="sketch")
        assert machine.launch_count == before

    def test_non_integral_rank(self, setup):
        machine, data = setup
        before = machine.launch_count
        for bad in (1.5, "7", True):
            with pytest.raises(repro.ConfigurationError):
                data.select(bad)
        assert machine.launch_count == before

    def test_boundary_ranks_still_work(self, setup):
        _machine, data = setup
        assert data.select(1).value == oracle(data, 1)
        assert data.select(1000).value == oracle(data, 1000)


# ---------------------------------------------------------------------------
# Regression: a shard write must never leave a stale cached answer
# ---------------------------------------------------------------------------


ENTRY_POINTS = ("distribute", "from_shards", "generate", "stream",
                "rebalance")


def _build(machine, entry, keys, cut):
    """``(array, caller_arrays)`` for one entry point. ``caller_arrays``
    are the writable arrays the caller still holds (``from_shards`` only)."""
    p = machine.n_procs
    if entry == "distribute":
        return machine.distribute(keys), []
    if entry == "from_shards":
        originals = [keys[r::p] for r in range(p)]
        return machine.from_shards(originals), originals
    if entry == "generate":
        return machine.generate(keys.size, seed=int(cut)), []
    if entry == "stream":
        stream = machine.stream()
        stream.append(keys[:cut])
        stream.append(keys[cut:])
        return stream, []
    # Rebalance output: all keys start on rank 0, so data really moves.
    skewed = [keys] + [keys[:0]] * (p - 1)
    return machine.from_shards(skewed).rebalance()[0], []


class TestShardWritesRaise:
    """Shards are read-only and held in a tuple: an element write raises
    ``ValueError``, a slot assignment raises ``TypeError``, and new
    content enters only as a new array."""

    def test_inplace_overwrite_raises_and_redistributed_median_is_fresh(self):
        machine = repro.Machine(n_procs=4)
        keys = np.arange(1.0, 101.0)
        data = machine.distribute(keys)
        stale = data.median().value
        with pytest.raises(ValueError, match="read-only"):
            data.shards[0][:] = 999.0
        assert data.median().value == stale == oracle(data, 50)
        keys[:25] = 999.0
        fresh = machine.distribute(keys).median()
        assert fresh.value != stale
        assert fresh.value == float(np.sort(keys)[49])

    def test_single_element_write_raises(self):
        machine = repro.Machine(n_procs=2)
        keys = np.arange(1.0, 11.0)
        data = machine.distribute(keys)
        assert data.select(10).value == 10.0
        with pytest.raises(ValueError, match="read-only"):
            data.shards[1][-1] = 1000.0
        assert data.select(10).value == 10.0
        keys[-1] = 1000.0
        assert machine.distribute(keys).select(10).value == 1000.0

    def test_redistributed_content_changes_fingerprint(self):
        machine = repro.Machine(n_procs=2)
        keys = np.arange(1.0, 101.0)
        data = machine.distribute(keys)
        fp = data.fingerprint
        with pytest.raises(ValueError, match="read-only"):
            data.shards[0][0] = -1.0
        assert data.fingerprint == fp
        keys[0] = -1.0
        assert machine.distribute(keys).fingerprint != fp

    def test_interior_write_raises(self):
        # An interior write leaves the first, middle and last key of every
        # shard intact; no sampled check could see it, so it must raise.
        machine = repro.Machine(n_procs=1)
        keys = np.arange(1.0, 102.0)
        data = machine.distribute(keys)
        fp = data.fingerprint
        with pytest.raises(ValueError, match="read-only"):
            data.shards[0][1] = 500.0
        with pytest.raises(TypeError):
            data.shards[0] = np.zeros(3)
        assert data.fingerprint == fp
        keys[1] = 500.0
        fresh = machine.distribute(keys)
        assert fresh.fingerprint != fp
        assert fresh.select(101).value == 500.0

    def test_mutation_through_service(self):
        import asyncio

        from repro.serve import SelectionService

        machine = repro.Machine(n_procs=2)
        keys = np.arange(1.0, 101.0)

        async def main():
            async with SelectionService(machine, window=0.001) as svc:
                data = svc.register("d", keys)
                stale = (await svc.median("d")).value
                with pytest.raises(ValueError, match="read-only"):
                    data.shards[0][:] = 999.0
                keys[:50] = 999.0
                svc.unregister("d")
                data = svc.register("d", keys)
                fresh = (await svc.median("d")).value
                return stale, fresh, oracle(data, (data.n + 1) // 2)

        stale, fresh, expected = asyncio.run(main())
        assert fresh != stale and fresh == expected

    @settings(max_examples=40, deadline=None)
    @given(
        entry=st.sampled_from(ENTRY_POINTS),
        p=st.integers(1, 4),
        keys=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=120
        ).map(np.array),
        data=st.data(),
    )
    def test_no_write_reaches_a_shard(self, entry, p, keys, data):
        """Whatever the entry point and the write position (interior ones
        included), the answers stay those of the content at construction."""
        machine = repro.Machine(n_procs=p)
        arr, originals = _build(
            machine, entry, keys, data.draw(st.integers(0, keys.size))
        )
        snapshot = arr.gather().copy()
        fp = arr.fingerprint
        k = data.draw(st.integers(1, snapshot.size), label="k")
        expect = np.partition(snapshot, k - 1)[k - 1]
        assert arr.select(k).value == expect
        value = data.draw(st.floats(-1e7, 1e7, allow_nan=False),
                          label="value")
        live = [r for r in range(p) if arr.shards[r].size]
        r = data.draw(st.sampled_from(live), label="rank")
        i = data.draw(st.integers(0, arr.shards[r].size - 1), label="pos")
        with pytest.raises(ValueError, match="read-only"):
            arr.shards[r][i] = value
        with pytest.raises(TypeError):
            arr.shards[r] = np.array([value])
        for original in originals:
            if original.size:
                original[min(i, original.size - 1)] = value
        assert np.array_equal(arr.gather(), snapshot)
        assert arr.fingerprint == fp
        assert arr.select(k).value == expect
        uncached = machine.session(cache=False).run_select(arr, k)
        assert uncached.value == expect


# ---------------------------------------------------------------------------
# Degenerate sizes: n=1, n < p, empty
# ---------------------------------------------------------------------------


class TestDegenerateSizes:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_element(self, algorithm):
        machine = repro.Machine(n_procs=4)
        data = machine.distribute(np.array([7.25]))
        rep = data.select(1, algorithm=algorithm)
        assert rep.value == 7.25
        assert data.median(algorithm=algorithm).value == 7.25

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fewer_keys_than_processors(self, algorithm):
        machine = repro.Machine(n_procs=8)
        data = machine.distribute(np.array([5.0, 1.0, 3.0]))
        got = [data.select(k, algorithm=algorithm).value for k in (1, 2, 3)]
        assert got == [1.0, 3.0, 5.0]

    def test_single_element_quantiles(self):
        machine = repro.Machine(n_procs=4)
        data = machine.distribute(np.array([2.5]))
        reports = data.quantiles([0.25, 0.5, 1.0])
        assert [r.value for r in reports] == [2.5, 2.5, 2.5]

    def test_empty_array_queries_fail_clean(self):
        machine = repro.Machine(n_procs=4)
        data = machine.distribute(np.array([]))
        before = machine.launch_count
        with pytest.raises(repro.ConfigurationError):
            data.select(1)
        with pytest.raises(repro.ConfigurationError):
            data.median()
        assert data.multi_select([]).values == []
        assert machine.launch_count == before


# ---------------------------------------------------------------------------
# Streaming edges: empty stream, retire-all-then-query
# ---------------------------------------------------------------------------


class TestStreamingEdges:
    def test_empty_stream_query(self):
        machine = repro.Machine(n_procs=4)
        stream = machine.stream()
        before = machine.launch_count
        assert stream.n == 0
        with pytest.raises(repro.ConfigurationError):
            stream.select(1)
        with pytest.raises(repro.ConfigurationError):
            stream.median()
        assert machine.launch_count == before

    def test_retire_all_then_query(self):
        machine = repro.Machine(n_procs=4)
        stream = machine.stream(window=2, window_mode="sliding")
        stream.append(np.arange(0.0, 10.0))
        stream.append(np.arange(10.0, 20.0))
        assert stream.median().value is not None
        # Two more appends slide BOTH original batches out...
        stream.append(np.arange(100.0, 110.0))
        stream.append(np.arange(110.0, 120.0))
        assert stream.n == 20
        assert stream.select(1).value == 100.0
        # ...and retiring down to nothing must fail clean, not launch.
        empty = machine.stream()
        bid = empty.append(np.arange(4.0))
        empty.retire(bid)
        assert empty.n == 0
        before = machine.launch_count
        with pytest.raises(repro.ConfigurationError):
            empty.select(1)
        assert machine.launch_count == before


# ---------------------------------------------------------------------------
# Duplicate-heavy and duplicate-target queries
# ---------------------------------------------------------------------------


class TestDuplicatesAndQuantiles:
    def test_all_equal_keys_under_sketch_prefilter(self):
        machine = repro.Machine(n_procs=4)
        data = machine.distribute(np.full(5000, 3.5))
        plain = data.select(2500)
        sketchy = data.select(2500, prefilter="sketch")
        assert plain.value == sketchy.value == 3.5

    def test_quantile_bounds(self):
        machine = repro.Machine(n_procs=4)
        data = machine.generate(1000, seed=1)
        before = machine.launch_count
        for bad_q in (0.0, -0.1, 1.0001):
            with pytest.raises(repro.ConfigurationError, match="outside"):
                data.quantiles([bad_q])
        assert machine.launch_count == before
        lo, hi = data.quantiles([1e-9, 1.0])
        assert lo.value == oracle(data, 1)
        assert hi.value == oracle(data, 1000)

    def test_duplicate_quantile_targets(self):
        machine = repro.Machine(n_procs=4)
        data = machine.generate(1000, seed=2)
        reports = data.quantiles([0.5, 0.5, 0.5])
        assert len({r.value for r in reports}) == 1

    def test_duplicate_multi_select_targets(self):
        machine = repro.Machine(n_procs=4)
        data = machine.generate(1000, seed=3)
        rep = data.multi_select([500, 7, 500, 7, 500])
        assert rep.ks == [500, 7, 500, 7, 500]
        assert rep.values[0] == rep.values[2] == rep.values[4]
        assert rep.values[1] == rep.values[3] == oracle(data, 7)
