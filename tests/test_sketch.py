"""QuantileSketch: the guarantees the refinement pre-filter stands on.

The load-bearing property is *bracketing*: for every rank ``k``,
``rank_bounds(k)`` returns keys ``(lo, hi)`` with
``lo <= sorted(data)[k-1] <= hi`` — regardless of how the data was
batched, merged, or in which association order the merges happened. The
accuracy property bounds how many keys can hide strictly inside the
bracket (``O(eps * n)`` plus boundary duplicates), which is what makes the
pre-filter's survivor fraction small.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QuantileSketch
from repro.errors import ConfigurationError
from repro.stream.sketch import merge_all

batches = st.lists(
    st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, width=64),
        min_size=0, max_size=60,
    ),
    min_size=1, max_size=5,
)


def assert_brackets(sketch, data, ks=None):
    s = np.sort(np.asarray(data))
    n = s.size
    assert sketch.count == n
    for k in ks if ks is not None else range(1, n + 1):
        lo, hi = sketch.rank_bounds(k)
        assert lo <= s[k - 1] <= hi, (k, lo, s[k - 1], hi)


class TestFromArray:
    def test_empty(self):
        sk = QuantileSketch.from_array(np.array([]), eps=0.1)
        assert sk.count == 0 and sk.size == 0

    def test_exact_on_small_input(self):
        arr = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        sk = QuantileSketch.from_array(arr, eps=0.01)
        s = np.sort(arr)
        for k in range(1, 6):
            lo, hi = sk.rank_bounds(k)
            assert lo == hi == s[k - 1]

    def test_stored_size_is_o_one_over_eps(self):
        arr = np.random.default_rng(0).random(100_000)
        for eps in (0.1, 0.01, 0.001):
            sk = QuantileSketch.from_array(arr, eps)
            assert sk.size <= 2 / eps + 2, (eps, sk.size)

    def test_rank_bounds_validation(self):
        sk = QuantileSketch.from_array(np.arange(10.0), 0.1)
        with pytest.raises(ConfigurationError):
            sk.rank_bounds(0)
        with pytest.raises(ConfigurationError):
            sk.rank_bounds(11)

    def test_eps_validation(self):
        for bad in (0.0, -0.1, 0.6, 2):
            with pytest.raises(ConfigurationError):
                QuantileSketch.from_array(np.arange(4.0), bad)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=200),
           st.sampled_from([0.01, 0.05, 0.2, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_brackets_with_duplicates(self, values, eps):
        arr = np.asarray(values, dtype=np.int64)
        assert_brackets(QuantileSketch.from_array(arr, eps), arr)


class TestMerge:
    @given(batches, st.sampled_from([0.02, 0.1, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_left_fold_merge_brackets(self, chunks, eps):
        sketches = [QuantileSketch.from_array(np.asarray(c), eps)
                    for c in chunks]
        merged = merge_all(sketches, eps=eps)
        data = np.concatenate([np.asarray(c) for c in chunks]) if any(
            len(c) for c in chunks) else np.array([])
        if data.size:
            assert_brackets(merged, data)
        else:
            assert merged.count == 0

    @given(batches, st.sampled_from([0.05, 0.2]))
    @settings(max_examples=40, deadline=None)
    def test_merge_commutes_up_to_bounds(self, chunks, eps):
        """a.merge(b) and b.merge(a) need not store identical keys, but
        both must bracket every rank of the union."""
        if len(chunks) < 2:
            chunks = chunks + [[1.0, 2.0]]
        a = QuantileSketch.from_array(np.asarray(chunks[0]), eps)
        b = merge_all(
            [QuantileSketch.from_array(np.asarray(c), eps)
             for c in chunks[1:]], eps=eps,
        )
        data = np.concatenate([np.asarray(c) for c in chunks]) if any(
            len(c) for c in chunks) else np.array([])
        for merged in (a.merge(b), b.merge(a)):
            if data.size:
                assert_brackets(merged, data)
            else:
                assert merged.count == 0

    @given(batches, st.sampled_from([0.05, 0.2]))
    @settings(max_examples=40, deadline=None)
    def test_merge_associates_up_to_bounds(self, chunks, eps):
        while len(chunks) < 3:
            chunks = chunks + [[float(len(chunks))]]
        sks = [QuantileSketch.from_array(np.asarray(c), eps) for c in chunks]
        left = merge_all(sks, eps=eps)
        right = sks[0]
        tail = sks[1]
        for sk in sks[2:]:
            tail = tail.merge(sk)
        right = right.merge(tail)
        data = np.concatenate([np.asarray(c) for c in chunks]) if any(
            len(c) for c in chunks) else np.array([])
        for merged in (left, right):
            if data.size:
                assert_brackets(merged, data)

    def test_update_equals_merge_of_batches(self):
        rng = np.random.default_rng(3)
        a, b = rng.random(500), rng.random(800)
        sk = QuantileSketch.from_array(a, 0.05)
        sk.update(b)
        assert_brackets(sk, np.concatenate([a, b]))

    def test_merge_with_empty_is_identity_on_bounds(self):
        arr = np.random.default_rng(1).random(300)
        sk = QuantileSketch.from_array(arr, 0.05)
        merged = sk.merge(QuantileSketch(eps=0.05))
        assert_brackets(merged, arr)
        merged2 = QuantileSketch(eps=0.05).merge(sk)
        assert_brackets(merged2, arr)

    def test_merge_type_check(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch().merge(object())


def _reference_compress(self):
    """The compaction loop with per-element NumPy scalar reads, kept
    verbatim as the oracle for the shipped list-based loop."""
    m = self.keys.size
    if m <= 2:
        return
    bound = max(1, int(2.0 * self.eps * self.count))
    keep = [0]
    last = 0
    for i in range(1, m - 1):
        if self.rmax[i + 1] - self.rmin[last] > bound:
            keep.append(i)
            last = i
    keep.append(m - 1)
    idx = np.asarray(keep, dtype=np.int64)
    self.keys = self.keys[idx]
    self.rmin = self.rmin[idx]
    self.rmax = self.rmax[idx]


def _batch(rng, kind, size):
    if kind == "duplicates":
        return rng.integers(0, 8, size=size).astype(np.float64)
    keys = rng.random(size)
    return np.sort(keys) if kind == "sorted" else keys


class TestCompaction:
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "duplicates", "sorted"]),
        sizes=st.lists(st.integers(1, 4096), min_size=3, max_size=17),
        eps=st.sampled_from([0.003, 0.01, 0.05]),
    )
    @settings(max_examples=60, deadline=None)
    def test_compress_matches_reference_loop(self, seed, kind, sizes, eps):
        """2-16 left-fold merges keep exactly the keys and bounds the
        scalar-read loop keeps."""
        rng = np.random.default_rng(seed)
        batches = [_batch(rng, kind, size) for size in sizes]

        def fold():
            sk = QuantileSketch.from_array(batches[0], eps)
            for b in batches[1:]:
                sk = sk.merge(QuantileSketch.from_array(b, eps))
            return sk

        shipped = fold()
        with mock.patch.object(QuantileSketch, "_compress",
                               _reference_compress):
            reference = fold()
        for name in ("keys", "rmin", "rmax"):
            got, want = getattr(shipped, name), getattr(reference, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name


class TestAccuracy:
    @pytest.mark.parametrize("eps", [0.01, 0.05])
    @pytest.mark.parametrize("n_chunks", [1, 4])
    def test_bracket_width_within_eps(self, eps, n_chunks):
        """On distinct keys the bracket hides at most ~4*eps*n ranks: leaf
        uncertainties are exact, merge shifts add at most the other side's
        stored spacing, and compaction caps adjacent spans at 2*eps*n."""
        rng = np.random.default_rng(7)
        n = 40_000
        data = rng.permutation(n).astype(np.float64)
        chunk = n // n_chunks
        merged = merge_all([
            QuantileSketch.from_array(data[i * chunk:(i + 1) * chunk], eps)
            for i in range(n_chunks)
        ], eps=eps)
        s = np.sort(data)
        for k in (1, n // 10, n // 2, 9 * n // 10, n):
            lo, hi = merged.rank_bounds(k)
            inside = int(np.count_nonzero((s > lo) & (s < hi)))
            assert lo <= s[k - 1] <= hi
            assert inside <= 4 * eps * n + 4, (k, inside, eps)

    def test_all_equal_collapses_to_point(self):
        sk = QuantileSketch.from_array(np.full(1000, 7.0), 0.01)
        lo, hi = sk.rank_bounds(500)
        assert lo == hi == 7.0

    def test_rank_of_bounds_contain_truth(self):
        rng = np.random.default_rng(11)
        data = rng.integers(0, 40, size=2000).astype(np.int64)
        sk = merge_all([
            QuantileSketch.from_array(data[i::3], 0.05) for i in range(3)
        ], eps=0.05)
        for key in (-1, 0, 7, 20, 39, 41):
            lower, upper = sk.rank_of(key)
            true = int(np.count_nonzero(data <= key))
            assert lower <= true <= upper, (key, lower, true, upper)

    def test_rank_of_upper_bound_covers_compacted_duplicates(self):
        """A queried key equal to a stored key must not under-count its
        own duplicates that compaction dropped."""
        sk = QuantileSketch.from_array(
            np.array([5.0, 5.0, 5.0, 7.0]), eps=0.375
        )
        lower, upper = sk.rank_of(5.0)
        assert lower <= 3 <= upper
        merged = QuantileSketch.from_array(np.full(10, 5.0), 0.2).merge(
            QuantileSketch.from_array(np.full(10, 7.0), 0.2)
        )
        lower, upper = merged.rank_of(5.0)
        assert lower <= 10 <= upper


class TestPayload:
    def test_sim_words_counts_stored_arrays(self):
        sk = QuantileSketch.from_array(np.arange(1000.0), 0.05)
        assert sk.__sim_words__() == sk.size * 3 + 2

    def test_payload_words_uses_protocol(self):
        from repro.machine.collectives import payload_words

        sk = QuantileSketch.from_array(np.arange(1000.0), 0.05)
        assert payload_words(sk) == sk.__sim_words__()
        assert payload_words([sk, sk]) == 2 * sk.__sim_words__()

    def test_pickle_roundtrip(self):
        import pickle

        sk = QuantileSketch.from_array(np.arange(100.0), 0.1)
        back = pickle.loads(pickle.dumps(sk))
        assert back.count == sk.count
        assert (back.keys == sk.keys).all()
        assert back.rank_bounds(50) == sk.rank_bounds(50)
