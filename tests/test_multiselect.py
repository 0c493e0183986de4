"""Single-pass multi-rank selection: repro.multi_select + the batched
quantiles() path + the kernels underneath (multiway partition, bucket
forking, batched rank lookup, sequential multi-selection)."""

import math

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError
from repro.selection import ALGORITHMS

ALGOS = sorted(ALGORITHMS)
N = 3000


def oracle(darr, ks):
    ref = np.sort(darr.gather())
    return [ref[k - 1] for k in ks]


# ---------------------------------------------------------------- API grid

@pytest.mark.parametrize("algo", ALGOS)
class TestCorrectnessGrid:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_spread_ranks_everywhere(self, algo, p):
        m = repro.Machine(n_procs=p)
        d = m.generate(N, distribution="random", seed=17)
        ks = [1, N // 4, N // 2, 3 * N // 4, N]
        rep = repro.multi_select(d, ks, algorithm=algo, seed=5)
        assert rep.values == oracle(d, ks)

    @pytest.mark.parametrize("dist", [
        "sorted", "reverse_sorted", "gaussian", "zipf", "few_distinct",
        "all_equal", "organ_pipe", "skewed_shards",
    ])
    def test_stress_distributions(self, algo, dist):
        m = repro.Machine(n_procs=4)
        d = m.generate(N, distribution=dist, seed=3)
        ks = [7, N // 3, N // 3 + 1, N - 7]
        rep = repro.multi_select(d, ks, algorithm=algo, seed=1)
        assert rep.values == oracle(d, ks)

    def test_duplicate_and_unsorted_ranks(self, algo):
        m = repro.Machine(n_procs=4)
        d = m.generate(N, distribution="random", seed=23)
        ks = [N // 2, 9, N // 2, N - 1, 9]
        rep = repro.multi_select(d, ks, algorithm=algo, seed=2)
        assert rep.values == oracle(d, ks)
        assert rep.ks == ks  # input order and duplicates preserved

    def test_adjacent_ranks(self, algo):
        m = repro.Machine(n_procs=4)
        d = m.generate(N, distribution="random", seed=29)
        mid = N // 2
        ks = [mid - 1, mid, mid + 1]
        rep = repro.multi_select(d, ks, algorithm=algo, seed=3)
        assert rep.values == oracle(d, ks)

    def test_extreme_ranks_first_and_last(self, algo):
        m = repro.Machine(n_procs=4)
        d = m.generate(N, distribution="random", seed=31)
        rep = repro.multi_select(d, [1, N], algorithm=algo, seed=4)
        assert rep.values == oracle(d, [1, N])

    def test_empty_shards(self, algo):
        m = repro.Machine(n_procs=4)
        rng = np.random.default_rng(7)
        shards = [rng.random(500), np.array([]), rng.random(300), np.array([])]
        d = m.from_shards(shards)
        ks = [1, 200, 400, 800]
        rep = repro.multi_select(d, ks, algorithm=algo, seed=5)
        assert rep.values == oracle(d, ks)

    def test_single_rank_matches_select(self, algo):
        m = repro.Machine(n_procs=4)
        d = m.generate(N, distribution="random", seed=11)
        k = N // 3
        multi = repro.multi_select(d, [k], algorithm=algo, seed=6)
        single = repro.select(d, k, algorithm=algo, seed=6)
        assert multi.values[0] == single.value

    def test_many_dense_ranks(self, algo):
        m = repro.Machine(n_procs=4)
        d = m.generate(N, distribution="random", seed=37)
        ks = list(range(100, N, 200))
        rep = repro.multi_select(d, ks, algorithm=algo, seed=7)
        assert rep.values == oracle(d, ks)

    @pytest.mark.parametrize("balancer", [
        "none", "modified_omlb", "global_exchange",
    ])
    def test_balancer_pairings(self, algo, balancer):
        m = repro.Machine(n_procs=4)
        d = m.generate(N, distribution="sorted", seed=9)
        ks = [N // 4, N // 2, 3 * N // 4]
        rep = repro.multi_select(d, ks, algorithm=algo, balancer=balancer,
                                 seed=8)
        assert rep.values == oracle(d, ks)

    def test_input_shards_not_mutated(self, algo):
        m = repro.Machine(n_procs=4)
        d = m.generate(N, distribution="random", seed=41)
        before = [s.copy() for s in d.shards]
        repro.multi_select(d, [1, N // 2, N], algorithm=algo)
        for a, b in zip(before, d.shards):
            assert np.array_equal(a, b)

    def test_report_fields(self, algo):
        m = repro.Machine(n_procs=4)
        d = m.generate(N, seed=2)
        ks = [N // 4, N // 2]
        rep = repro.multi_select(d, ks, algorithm=algo)
        assert rep.algorithm == algo
        assert rep.n == N and rep.p == 4
        assert rep.ks == ks and len(rep) == 2
        assert rep.simulated_time > 0
        assert rep.wall_time > 0
        assert rep.breakdown.total == pytest.approx(rep.simulated_time)
        assert rep.stats.ks == ks


class TestValidation:
    def test_empty_ks_returns_empty_report(self):
        m = repro.Machine(n_procs=2)
        d = m.generate(100, seed=0)
        rep = repro.multi_select(d, [])
        assert rep.values == [] and rep.ks == []
        assert rep.simulated_time == 0.0

    @pytest.mark.parametrize("bad", [0, -1, N + 1])
    def test_rejects_out_of_range(self, bad):
        m = repro.Machine(n_procs=2)
        d = m.generate(N, seed=0)
        with pytest.raises(ConfigurationError):
            repro.multi_select(d, [1, bad])

    def test_unknown_algorithm(self):
        m = repro.Machine(n_procs=2)
        d = m.generate(100, seed=0)
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            repro.multi_select(d, [1], algorithm="quantum")


class TestSingleProcessorFastPath:
    def test_values_and_stats(self):
        m = repro.Machine(n_procs=1)
        d = m.generate(N, distribution="random", seed=13)
        ks = [1, N // 2, N]
        rep = repro.multi_select(d, ks, seed=1)
        assert rep.values == oracle(d, ks)
        # p=1 skips the contraction entirely: one sequential multi-pass.
        assert rep.stats.n_iterations == 0
        assert rep.stats.endgame_intervals == 1
        assert rep.stats.endgame_n == N
        assert rep.simulated_time > 0

    def test_duplicate_heavy(self):
        m = repro.Machine(n_procs=1)
        d = m.generate(N, distribution="all_equal", seed=0)
        rep = repro.multi_select(d, [1, N // 2, N])
        assert rep.values == [42, 42, 42]


class TestEngineEvidence:
    def test_intervals_fork_for_spread_targets(self):
        m = repro.Machine(n_procs=4)
        d = m.generate(50_000, distribution="random", seed=1)
        ks = [5_000, 25_000, 45_000]
        rep = repro.multi_select(d, ks, algorithm="randomized", seed=1)
        assert rep.stats.n_intervals >= 2
        assert rep.stats.endgame_intervals >= 1
        assert rep.stats.endgame_n > 0

    def test_pivot_resolution_on_duplicates(self):
        m = repro.Machine(n_procs=4)
        d = m.generate(4096, distribution="all_equal", seed=0)
        rep = repro.multi_select(d, [1, 2048, 4096],
                                 algorithm="randomized")
        assert rep.values == [42, 42, 42]
        # One pivot hit resolves every target sitting in its == band.
        assert rep.stats.found_by_pivot == 3
        assert rep.stats.n_iterations <= 3

    def test_batched_cheaper_than_repeated(self):
        m = repro.Machine(n_procs=8)
        d = m.generate(200_000, distribution="random", seed=3)
        ks = [max(1, (i * d.n) // 10) for i in range(1, 10)]
        for algo in ["fast_randomized", "randomized", "bucket_based"]:
            batched = repro.multi_select(d, ks, algorithm=algo, seed=5)
            repeated = sum(
                repro.select(d, k, algorithm=algo, seed=5).simulated_time
                for k in ks
            )
            assert batched.simulated_time < repeated, algo

    def test_determinism(self):
        m = repro.Machine(n_procs=4)
        d = m.generate(20_000, seed=1)
        ks = [5, 10_000, 19_995]
        a = repro.multi_select(d, ks, seed=99)
        b = repro.multi_select(d, ks, seed=99)
        assert a.values == b.values
        assert a.simulated_time == b.simulated_time
        assert a.stats.n_iterations == b.stats.n_iterations

    def test_value_independent_of_seed_and_algorithm(self):
        m = repro.Machine(n_procs=4)
        d = m.generate(10_000, seed=1)
        ks = [1, 3_333, 6_666, 10_000]
        expect = oracle(d, ks)
        for algo in ("fast_randomized", "randomized", "sort_based"):
            for seed in range(3):
                assert repro.multi_select(
                    d, ks, algorithm=algo, seed=seed
                ).values == expect


class TestQuantilesBatched:
    def test_matches_per_quantile_select(self):
        m = repro.Machine(n_procs=4)
        d = m.generate(10_000, distribution="gaussian", seed=2)
        qs = [0.01, 0.25, 0.5, 0.9, 0.999, 1.0]
        reports = repro.quantiles(d, qs)
        for q, rep in zip(qs, reports):
            k = max(1, math.ceil(q * d.n))
            assert rep.k == k
            assert rep.value == repro.select(d, k).value

    def test_single_launch_shared_metrics(self):
        m = repro.Machine(n_procs=4)
        d = m.generate(50_000, seed=4)
        reports = repro.quantiles(d, [0.1, 0.5, 0.9])
        # One SPMD launch answered everything: the reports share it.
        assert len({r.simulated_time for r in reports}) == 1
        assert len({id(r.result) for r in reports}) == 1
        repeated = sum(
            repro.select(d, r.k).simulated_time for r in reports
        )
        assert reports[0].simulated_time < repeated


# ----------------------------------------------------------------- kernels

class TestPartitionMultiway:
    def test_matches_partition3_for_one_cut(self):
        from repro.kernels.partition import partition3, partition_multiway

        rng = np.random.default_rng(0)
        arr = rng.integers(0, 50, size=500)
        pivot = 25
        segs = partition_multiway(arr, [pivot])
        p3 = partition3(arr, pivot)
        assert sorted(segs[0]) == sorted(p3.lt)
        assert sorted(segs[1]) == sorted(p3.eq)
        assert sorted(segs[2]) == sorted(p3.gt)

    def test_segments_ordered_and_exhaustive(self):
        from repro.kernels.partition import partition_multiway

        rng = np.random.default_rng(1)
        arr = rng.integers(0, 100, size=2000)
        cuts = [10, 40, 41, 90]
        segs = partition_multiway(arr, cuts)
        assert len(segs) == 2 * len(cuts) + 1
        assert sum(s.size for s in segs) == arr.size
        rebuilt = np.concatenate([np.sort(s) for s in segs])
        assert np.array_equal(rebuilt, np.sort(arr))
        for j, c in enumerate(cuts):
            assert np.all(segs[2 * j + 1] == c)

    def test_rejects_unsorted_or_duplicate_cuts(self):
        from repro.kernels.partition import partition_multiway

        with pytest.raises(ConfigurationError):
            partition_multiway(np.arange(10), [5, 3])
        with pytest.raises(ConfigurationError):
            partition_multiway(np.arange(10), [3, 3])
        with pytest.raises(ConfigurationError):
            partition_multiway(np.arange(10), [])

    def test_cost_grows_with_cut_count(self):
        from repro.kernels.partition import partition_multiway_cost
        from repro.machine.cost_model import CM5

        one = partition_multiway_cost(CM5, 1000, 1)
        many = partition_multiway_cost(CM5, 1000, 15)
        assert many > one
        # q=1 charges exactly one plain partition pass.
        assert one == CM5.compute.partition * 1000


class TestLazySegments:
    """Callers of the multiway split gather only the segments they keep."""

    @staticmethod
    def _spy(monkeypatch):
        """Every split built, and how many gather passes each one ran."""
        from repro.kernels.costed import CostedKernels
        from repro.kernels.partition import MultiwaySplit

        calls, passes = [], {}
        real = CostedKernels.partition_multiway
        real_gather = MultiwaySplit._gather

        def spy(self, arr, cuts):
            split = real(self, arr, cuts)
            calls.append((self.ctx.rank, np.asarray(cuts), split))
            return split

        def gather(self, js):
            passes[id(self)] = passes.get(id(self), 0) + 1
            return real_gather(self, js)

        monkeypatch.setattr(CostedKernels, "partition_multiway", spy)
        monkeypatch.setattr(MultiwaySplit, "_gather", gather)
        return calls, passes

    @staticmethod
    def _read(split):
        return set(split._segs)

    def test_multicut_gathers_only_target_segments(self, monkeypatch):
        calls, passes = self._spy(monkeypatch)
        machine = repro.Machine(n_procs=2, backend="threaded")
        data = machine.generate(20_000, distribution="random", seed=3)
        ks = [2_000, 10_000, 19_000]
        rep = data.multi_select(ks, algorithm="fast_randomized", seed=1)
        answers = np.sort(data.gather())[np.array(ks) - 1]
        assert rep.values == answers.tolist()
        firsts = {}
        for rank, cuts, split in calls:
            firsts.setdefault(rank, (cuts, split))
            read = self._read(split)
            # Never an equality band (its targets resolve in place), and
            # at most one segment per target, all in one pass.
            assert all(j % 2 == 0 for j in read) and len(read) <= len(ks)
            assert passes.get(id(split), 0) == (1 if read else 0)
        assert sorted(firsts) == [0, 1]
        for cuts, split in firsts.values():
            # The first split holds every target: exactly the open
            # segments that contain an answer are gathered.
            bounds = np.concatenate([[-np.inf], cuts, [np.inf]])
            holding = {2 * i for i in range(cuts.size + 1)
                       if np.any((bounds[i] < answers)
                                 & (answers < bounds[i + 1]))}
            assert holding and self._read(split) == holding
            assert len(holding) < len(split)

    def test_prefilter_gathers_only_in_interval_segments(self, monkeypatch):
        from repro.kernels.costed import CostedKernels
        from repro.stream.refine import _prefilter

        calls, passes = self._spy(monkeypatch)
        keys = np.random.default_rng(2).permutation(1000).astype(np.float64)
        machine = repro.Machine(n_procs=2, backend="threaded")
        data = machine.distribute(keys)
        intervals = [(100.0, 110.0, [105]), (400.0, 420.0, [410]),
                     (800.0, 805.0, [802])]

        def program(ctx, shard):
            return _prefilter(ctx, CostedKernels(ctx), shard, intervals)

        result = machine.run(program, rank_args=[(s,) for s in data.shards])
        survivors = np.sort(np.concatenate([v[0] for v in result.values]))
        expected = np.concatenate([np.arange(lo, hi + 1)
                                   for lo, hi, _ in intervals])
        np.testing.assert_array_equal(survivors, expected)
        assert len(calls) == 2
        # Cuts 100, 110, 400, 420, 800, 805: segments 1-3, 5-7 and 9-11
        # lie inside the intervals; 0, 4, 8 and 12 lie between them.
        inside = {1, 2, 3, 5, 6, 7, 9, 10, 11}
        for _rank, _cuts, split in calls:
            assert self._read(split) == {j for j in inside
                                         if split.counts[j]}
            assert passes[id(split)] == 1


class TestBucketSplit:
    def test_split3_vs_preserves_sides(self):
        from repro.kernels.buckets import LocalBuckets

        rng = np.random.default_rng(3)
        arr = rng.integers(0, 100, size=1000)
        b = LocalBuckets.build(arr, 8)
        low, high, scan = b.split3_vs(50)
        assert sorted(low.as_array()) == sorted(arr[arr < 50])
        assert sorted(high.as_array()) == sorted(arr[arr > 50])
        low.check_invariants()
        high.check_invariants()
        assert scan.touched <= arr.size
        # The parent structure is untouched (non-destructive).
        assert b.total == arr.size

    def test_split_on_all_equal(self):
        from repro.kernels.buckets import LocalBuckets

        b = LocalBuckets.build(np.full(64, 7), 4)
        low, high, _scan = b.split3_vs(7)
        assert low.total == 0 and high.total == 0


class TestSelectMultiKth:
    @pytest.mark.parametrize("method", ["introselect", "randomized",
                                        "deterministic"])
    def test_matches_sorted(self, method):
        from repro.kernels.select import select_multi_kth

        rng = np.random.default_rng(4)
        arr = rng.random(500)
        ks = [1, 100, 250, 251, 500]
        ref = np.sort(arr)
        got = select_multi_kth(arr, ks, method=method,
                               rng=np.random.default_rng(0))
        assert got == [ref[k - 1] for k in ks]

    def test_rejects_unsorted_ranks(self):
        from repro.kernels.select import select_multi_kth

        with pytest.raises(ConfigurationError):
            select_multi_kth(np.arange(10), [5, 3])

    def test_cost_sublinear_in_q(self):
        from repro.kernels.select import multi_select_cost, select_cost
        from repro.machine.cost_model import CM5

        single = select_cost(CM5, 1000, "randomized")
        assert multi_select_cost(CM5, 1000, 1, "randomized") == single
        q = 9
        assert multi_select_cost(CM5, 1000, q, "randomized") < q * single


class TestBatchedRankLookup:
    def test_elements_at_global_ranks(self):
        from repro.kernels.costed import CostedKernels
        from repro.machine import run_spmd
        from repro.psort.sample_sort import (
            elements_at_global_ranks,
            sample_sort,
        )

        rng = np.random.default_rng(5)
        data = rng.random(4000)
        shards = np.array_split(data, 4)
        ref = np.sort(data)
        ks = [1, 17, 2000, 3999, 4000]

        def prog(ctx, shard):
            run = sample_sort(ctx, CostedKernels(ctx), shard)
            return elements_at_global_ranks(ctx, run, ks)

        res = run_spmd(prog, 4, rank_args=[(s,) for s in shards])
        for values in res.values:
            assert values == [ref[k - 1] for k in ks]
