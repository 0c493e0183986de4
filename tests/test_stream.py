"""StreamingArray + sketch-accelerated refinement: the subsystem claims.

* streaming/batch equivalence: ``append(a); append(b)`` is bit-identical
  (shards, fingerprint, answers, reports) to one ``append(a + b)``, on
  every backend;
* append-aware serving: re-queries after no append are zero-launch cache
  hits, appends invalidate precisely;
* windows: sliding/tumbling retirement keeps exactly the configured
  batches;
* refinement: ``prefilter="sketch"`` returns bit-identical values to the
  plain path for every algorithm x distribution on serial and threaded
  backends, with full launch-evidence identity across backends.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import DISTRIBUTIONS, Machine, SelectionPlan, StreamingArray
from repro.errors import ConfigurationError
from repro.selection import ALGORITHMS

P = 4
N = 3000


def batch_stream(machine, chunks, **kwargs):
    stream = machine.stream(**kwargs)
    for chunk in chunks:
        stream.append(chunk)
    return stream


class TestStreamingArray:
    def test_round_robin_balance(self):
        m = Machine(P)
        s = batch_stream(m, [np.arange(10.0), np.arange(7.0)])
        assert isinstance(s, StreamingArray)
        assert isinstance(s, repro.DistributedArray)
        assert s.n == 17
        assert max(s.counts) - min(s.counts) <= 1

    def test_append_chunking_is_invisible(self):
        m = Machine(P)
        rng = np.random.default_rng(0)
        data = rng.random(997)
        whole = batch_stream(m, [data])
        pieces = batch_stream(m, [data[:100], data[100:101], data[101:]])
        for a, b in zip(whole.shards, pieces.shards):
            assert (a == b).all()
        assert whole.fingerprint == pieces.fingerprint
        assert sorted(whole.gather()) == sorted(data)

    def test_fingerprint_changes_on_append_and_retire(self):
        m = Machine(P)
        s = batch_stream(m, [np.arange(8.0)])
        fp0 = s.fingerprint
        s.append(np.arange(8.0, 16.0))
        fp1 = s.fingerprint
        assert fp1 != fp0
        s.retire(s.live_batch_ids[0])
        assert s.fingerprint not in (fp0, fp1)

    def test_empty_batch_is_a_mutation_but_not_content(self):
        m = Machine(P)
        a = batch_stream(m, [np.arange(6.0)])
        b = batch_stream(m, [np.arange(6.0), np.array([])])
        # Same bytes per rank: same identity (precise invalidation).
        assert a.fingerprint == b.fingerprint
        assert b.generation == 2

    def test_sliding_window_retires_oldest(self):
        m = Machine(P)
        s = m.stream(window=2)
        for i in range(4):
            s.append(np.arange(5.0) + 10 * i)
        assert s.live_batches == 2
        assert s.batches_retired == 2
        assert sorted(s.gather()) == sorted(
            np.concatenate([np.arange(5.0) + 20, np.arange(5.0) + 30])
        )

    def test_tumbling_window_resets(self):
        m = Machine(P)
        s = m.stream(window=2, window_mode="tumbling")
        s.append(np.arange(3.0))
        s.append(np.arange(3.0, 6.0))
        assert s.live_batches == 2
        s.append(np.arange(6.0, 9.0))  # starts the next window
        assert s.live_batches == 1
        assert sorted(s.gather()) == [6.0, 7.0, 8.0]

    def test_sliding_steady_state_never_rehashes_the_window(self):
        """O(batch) fingerprints: once the window slides, appends must not
        rebuild hash chains over the surviving batches — each batch's
        digest is computed exactly once."""
        m = Machine(P)
        s = m.stream(window=3)
        fingerprints = set()
        for i in range(6):
            s.append(np.arange(50.0) + 100 * i)
            fingerprints.add(s.fingerprint)
        assert len(fingerprints) == 6  # every mutation changed identity
        assert s._batches[-1].chain is None  # digest-chain mode: no running hash
        digests = [b.rank_digests() for b in s._batches]
        s.append(np.arange(50.0) + 999)
        s.fingerprint
        # The surviving batches' digests were reused, not recomputed.
        assert all(b.rank_digests() is d
                   for b, d in zip(s._batches, digests[1:]))

    def test_retire_unknown_batch_raises(self):
        m = Machine(P)
        s = batch_stream(m, [np.arange(4.0)])
        with pytest.raises(ConfigurationError):
            s.retire(99)

    def test_validation(self):
        m = Machine(P)
        with pytest.raises(ConfigurationError):
            m.stream(window=0)
        with pytest.raises(ConfigurationError):
            m.stream(window_mode="hopping")
        s = m.stream()
        with pytest.raises(ConfigurationError):
            s.append(np.zeros((2, 2)))
        s.append(np.arange(4.0))
        with pytest.raises(ConfigurationError):
            s.append(np.array(["a", "b"]))  # no safe cast to float64

    def test_dtype_fixed_by_first_append(self):
        m = Machine(P)
        s = m.stream()
        s.append(np.arange(4.0))
        s.append(np.arange(4, dtype=np.int32))  # safe cast
        assert all(sh.dtype == np.float64 for sh in s.shards)

    def test_local_sketches_cover_live_window(self):
        m = Machine(P)
        rng = np.random.default_rng(5)
        s = batch_stream(m, [rng.random(400), rng.random(300)], window=2)
        sketches = s.local_sketches(0.05)
        assert len(sketches) == P
        assert sum(sk.count for sk in sketches) == s.n
        s.append(rng.random(200))  # retires the first batch
        sketches = s.local_sketches(0.05)
        assert sum(sk.count for sk in sketches) == s.n


class TestFingerprintPins:
    """Fingerprints are cache keys, so their bytes are pinned: each SHA-1
    hashes exactly the shard buffers, however it reads them."""

    def test_distributed_array(self):
        m = Machine(3)
        assert m.distribute(np.arange(20.0) * 1.5).fingerprint == (
            "3a990bef40e1313503576178c8d7c198a18743d5"
        )
        strided = m.from_shards([
            np.arange(12, dtype=np.int64)[::2],  # not contiguous
            np.arange(5, dtype=np.int64),
            np.array([], dtype=np.int64),
        ])
        assert strided.fingerprint == "1cd385f66a0e7aaa6533263c26f4f706be29b94b"

    def test_windowed_stream(self):
        s = batch_stream(
            Machine(3), [np.arange(7.0) + 10 * j for j in range(3)], window=2
        )
        assert s.fingerprint == "f0e6f6d595ef56c856e7ae76a4743af9a9ab2d4e"

    def test_append_only_stream(self):
        s = batch_stream(Machine(3), [np.arange(7.0) + 10 * j for j in range(2)])
        assert s.fingerprint == "2c03e08d85cf2b54533db90eb0db5cdeba0fdfb9"


class TestConcurrentReaders:
    """A flush thread may read a stream while another thread appends: a
    view built from the window before an append must never be memoised
    past it (a stale memo answers later queries from the old window)."""

    VIEWS = {
        "shards": lambda s: s.shards,
        "fingerprint": lambda s: s.fingerprint,
        "sketches": lambda s: s.local_sketches(0.05),
    }

    @staticmethod
    def _same(view, a, b):
        if view == "fingerprint":
            return a == b
        if view == "shards":
            return all(np.array_equal(x, y) for x, y in zip(a, b))
        return all(
            np.array_equal(x.keys, y.keys) and np.array_equal(x.rmin, y.rmin)
            and np.array_equal(x.rmax, y.rmax)
            for x, y in zip(a, b)
        )

    @pytest.mark.parametrize("window", [None, 3])
    @pytest.mark.parametrize("view", sorted(VIEWS))
    def test_reader_paused_across_an_append_leaves_no_stale_memo(
        self, view, window
    ):
        chunks = [np.arange(40.0) + 100 * i for i in range(4)]
        late = np.arange(40.0) + 999
        s = batch_stream(Machine(P), chunks, window=window)
        before = batch_stream(Machine(P), chunks, window=window)
        after = batch_stream(Machine(P), chunks + [late], window=window)
        read = self.VIEWS[view]

        # Pause the reader right after it snapshots the batch list.
        snapshotted, resume = threading.Event(), threading.Event()
        live = s._live
        paused = []

        def pausing_live():
            batches = live()
            if not paused:
                paused.append(True)
                snapshotted.set()
                assert resume.wait(10)
            return batches

        s._live = pausing_live
        got = []
        reader = threading.Thread(target=lambda: got.append(read(s)))
        reader.start()
        assert snapshotted.wait(10)
        s.append(late)  # completes while the reader holds the old window
        resume.set()
        reader.join(10)
        assert not reader.is_alive()

        # The reader answered from the window it snapshotted...
        assert self._same(view, got[0], read(before))
        # ...but did not memoise it: the stream now serves the new window.
        assert self._same(view, read(s), read(after))
        assert all(gen == s.generation for gen, _ in s._memo.values())


class TestStreamingServing:
    def test_append_then_flush_equals_batch_flush(self):
        """Acceptance: append-then-flush == batch-array flush (values and
        cache behaviour), and re-queries with no append are zero-launch
        cache hits."""
        m = Machine(P)
        rng = np.random.default_rng(1)
        a, b = rng.random(900), rng.random(1100)
        streamed = batch_stream(m, [a, b])
        batch = batch_stream(m, [np.concatenate([a, b])])
        session = m.session()
        ks = [1, 500, 1000, 2000]

        before = m.launch_count
        futs = [session.select(streamed, k) for k in ks]
        session.flush()
        assert m.launch_count - before == 1
        streamed_values = [f.value for f in futs]

        # Identical content, identical fingerprint: the batch array's
        # flush is served from cache with ZERO launches.
        before = m.launch_count
        futs2 = [session.select(batch, k) for k in ks]
        session.flush()
        assert m.launch_count == before
        assert [f.value for f in futs2] == streamed_values
        assert all(f.result().cached for f in futs2)

        oracle = np.sort(np.concatenate([a, b]))
        assert streamed_values == [oracle[k - 1] for k in ks]

    def test_append_invalidates_precisely(self):
        m = Machine(P)
        rng = np.random.default_rng(2)
        s = batch_stream(m, [rng.random(1000)])
        session = m.session()
        k = 500
        session.run_select(s, k)
        before = m.launch_count
        rep = session.run_select(s, k)
        assert rep.cached and m.launch_count == before  # no append: hit
        s.append(rng.random(500))
        rep2 = session.run_select(s, k)
        assert not rep2.cached and m.launch_count == before + 1

    def test_fluent_queries_and_windows(self):
        m = Machine(P)
        rng = np.random.default_rng(3)
        s = m.stream(window=2)
        medians = []
        for i in range(4):
            s.append(rng.random(300) + i)
            medians.append(s.median().value)
        oracle = np.sort(s.gather())
        assert medians[-1] == oracle[(s.n + 1) // 2 - 1]
        assert len(set(medians)) > 1  # the window genuinely moved

    @pytest.mark.parametrize("backend", ["serial", "threaded"])
    def test_streaming_batch_equivalence_across_backends(self, backend):
        m = Machine(P, backend=backend)
        rng = np.random.default_rng(4)
        chunks = [rng.random(n) for n in (400, 1, 700, 250)]
        streamed = batch_stream(m, chunks)
        batch = batch_stream(m, [np.concatenate(chunks)])
        plan = SelectionPlan(algorithm="randomized", seed=3)
        one_shot = m.session(cache=False)
        r1 = one_shot.run_multi_select(streamed, [1, 700, 1351], plan)
        r2 = one_shot.run_multi_select(batch, [1, 700, 1351], plan)
        assert r1.values == r2.values
        assert r1.simulated_time == r2.simulated_time
        assert [i.pivot for i in r1.stats.iterations] == \
            [i.pivot for i in r2.stats.iterations]

    @given(st.lists(st.lists(st.floats(-100, 100, allow_nan=False,
                                       width=64),
                             min_size=0, max_size=40),
                    min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_streamed_answers_match_oracle(self, chunks):
        data = np.concatenate([np.asarray(c) for c in chunks]) if any(
            len(c) for c in chunks) else np.array([])
        if data.size == 0:
            return
        m = Machine(P)
        s = batch_stream(m, [np.asarray(c) for c in chunks])
        oracle = np.sort(data)
        k = (data.size + 1) // 2
        assert s.select(k).value == oracle[k - 1]


ALGOS = sorted(ALGORITHMS)
DISTS = sorted(DISTRIBUTIONS)


class TestSketchRefinement:
    @pytest.mark.parametrize("algorithm", ALGOS)
    @pytest.mark.parametrize("distribution", DISTS)
    def test_bit_identical_to_plain(self, algorithm, distribution):
        """Acceptance: sketch-prefiltered selection returns bit-identical
        values to plain select/multi_select for every algorithm x
        distribution."""
        m = Machine(P)
        data = m.generate(N, distribution, seed=7)
        session = m.session(cache=False)
        plan = SelectionPlan(algorithm=algorithm, seed=2)
        pre = plan.replace(prefilter="sketch")
        k = N // 2
        assert session.run_select(data, k, pre).value == \
            session.run_select(data, k, plan).value
        ks = [1, N // 3, N // 2, N]
        plain_multi = session.run_multi_select(data, ks, plan)
        pre_multi = session.run_multi_select(data, ks, pre)
        assert pre_multi.values == plain_multi.values
        assert pre_multi.prefilter is not None
        assert not pre_multi.prefilter.fallback

    @pytest.mark.parametrize("algorithm", ["randomized", "fast_randomized",
                                           "bucket_based"])
    def test_backend_identity(self, algorithm):
        """Full launch-evidence identity of the prefiltered path across
        serial/threaded (the cross-backend acceptance criterion)."""
        reports = []
        for backend in ("serial", "threaded"):
            m = Machine(P, backend=backend)
            data = m.generate(N, "random", seed=5)
            plan = SelectionPlan(algorithm=algorithm, seed=2,
                                 prefilter="sketch")
            reports.append(
                m.session(cache=False).run_multi_select(
                    data, [1, N // 2, N], plan)
            )
        a, b = reports
        assert a.values == b.values
        assert a.simulated_time == b.simulated_time
        assert [i.pivot for i in a.stats.iterations] == \
            [i.pivot for i in b.stats.iterations]
        assert a.prefilter == b.prefilter

    def test_survivor_fraction_small_on_random(self):
        m = Machine(P)
        data = m.generate(60_000, "random", seed=9)
        rep = m.session(cache=False).run_select(
            data, 30_000, SelectionPlan(prefilter="sketch", sketch_eps=0.01)
        )
        pf = rep.prefilter
        assert pf is not None and not pf.fallback
        assert pf.survivor_fraction < 0.10
        assert pf.rounds_saved >= 3
        assert pf.sketch_size <= P * (2 / 0.01 + 2)

    def test_prebuilt_sketches_on_streaming_array(self):
        m = Machine(P)
        rng = np.random.default_rng(6)
        s = batch_stream(m, [rng.random(2000), rng.random(1000)])
        rep = m.session(cache=False).run_select(
            s, 1500, SelectionPlan(prefilter="sketch")
        )
        assert rep.prefilter.prebuilt
        assert rep.value == np.sort(s.gather())[1499]
        # Plain arrays build in-launch.
        data = m.generate(N, "random", seed=1)
        rep2 = m.session(cache=False).run_select(
            data, 7, SelectionPlan(prefilter="sketch")
        )
        assert not rep2.prefilter.prebuilt

    def test_quantiles_and_coalesced_flush_with_prefilter(self):
        m = Machine(P)
        data = m.generate(N, "gaussian", seed=8)
        plan = SelectionPlan(prefilter="sketch")
        session = m.session(plan)
        before = m.launch_count
        futs = session.quantiles(data, [0.1, 0.5, 0.9, 0.99])
        session.flush()
        assert m.launch_count - before == 1
        oracle = np.sort(data.gather())
        for q, fut in zip([0.1, 0.5, 0.9, 0.99], futs):
            k = max(1, int(np.ceil(q * N)))
            assert fut.value == oracle[k - 1]
            assert fut.result().prefilter is not None
        # Replay: zero launches, prefilter evidence preserved from cache.
        reps = [f.result() for f in session.quantiles(data, [0.5, 0.9])]
        assert m.launch_count - before == 1
        assert all(r.cached and r.prefilter is not None for r in reps)

    def test_corrupted_sketch_bounds_fall_back_exactly(self):
        """The safety valve: if the sketch bounds ever fail verification
        against the exact counts, every rank deterministically re-runs on
        the full input — answers stay correct, evidence records the
        fallback."""
        m = Machine(P)
        rng = np.random.default_rng(13)
        s = batch_stream(m, [rng.random(2000)])
        # Lie to the refinement: sketches of shifted content bracket every
        # rank far away from the real keys, so the exact counts refute
        # them and no interval can cover any target.
        s.local_sketches = lambda eps: [
            repro.QuantileSketch.from_array(shard + 1e9, eps)
            for shard in s.shards
        ]
        oracle = np.sort(s.gather())
        ks = [1, 1000, 2000]
        rep = m.session(cache=False).run_multi_select(
            s, ks, SelectionPlan(prefilter="sketch")
        )
        assert rep.values == [oracle[k - 1] for k in ks]
        assert rep.prefilter.fallback
        assert rep.prefilter.survivor_fraction == 1.0
        single = m.session(cache=False).run_select(
            s, 1000, SelectionPlan(prefilter="sketch")
        )
        assert single.value == oracle[999]
        assert single.prefilter.fallback

    def test_plan_validation_and_cache_key(self):
        with pytest.raises(ConfigurationError):
            SelectionPlan(prefilter="bloom")
        with pytest.raises(ConfigurationError):
            SelectionPlan(prefilter="sketch", sketch_eps=0.0)
        with pytest.raises(ConfigurationError):
            SelectionPlan(prefilter="sketch", sketch_eps=0.7)
        assert SelectionPlan(prefilter="none").prefilter is None
        plain = SelectionPlan()
        pre = SelectionPlan(prefilter="sketch")
        assert plain.cache_key() != pre.cache_key()
        # eps only matters when the prefilter is on.
        assert SelectionPlan(sketch_eps=0.2).cache_key() == plain.cache_key()
        assert pre.cache_key() != \
            SelectionPlan(prefilter="sketch", sketch_eps=0.2).cache_key()
        assert "prefilter=sketch" in pre.describe()

    def test_empty_multi_select_with_prefilter(self):
        m = Machine(P)
        data = m.generate(100, "random", seed=0)
        rep = m.session(cache=False).run_multi_select(
            data, [], SelectionPlan(prefilter="sketch")
        )
        assert rep.values == [] and len(rep) == 0

    def test_legacy_shim_accepts_prefilter_plan_via_fluent(self):
        m = Machine(P)
        data = m.generate(500, "zipf", seed=4)
        rep = data.select(250, prefilter="sketch")
        assert rep.value == repro.select(data, 250).value

    def test_prefilter_stats_shape(self):
        m = Machine(P)
        data = m.generate(N, "few_distinct", seed=2)
        rep = m.session(cache=False).run_select(
            data, N // 2, SelectionPlan(prefilter="sketch")
        )
        pf = rep.prefilter
        assert pf.n == N
        assert 1 <= pf.survivors <= N
        assert pf.intervals >= 1
        assert 0.0 < pf.survivor_fraction <= 1.0
        assert pf.eps == 0.01
