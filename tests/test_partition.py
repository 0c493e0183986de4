"""Partition kernels vs brute-force references + properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.kernels.partition import (
    count3,
    partition2,
    partition3,
    partition_band,
    partition_cost,
    partition_multiway,
)
from repro.machine.cost_model import CM5

floats = st.floats(allow_nan=False, allow_infinity=False, width=32)


class TestPartition2:
    def test_basic_split(self):
        arr = np.array([5, 1, 9, 3, 7])
        r = partition2(arr, 5)
        assert sorted(r.le.tolist()) == [1, 3, 5]
        assert sorted(r.gt.tolist()) == [7, 9]
        assert r.n_le == 3 and r.n_gt == 2

    def test_all_le(self):
        r = partition2(np.array([1, 2, 3]), 10)
        assert r.n_le == 3 and r.n_gt == 0

    def test_empty(self):
        r = partition2(np.array([]), 0)
        assert r.n_le == 0 and r.n_gt == 0

    def test_duplicates_go_le(self):
        r = partition2(np.array([4, 4, 4]), 4)
        assert r.n_le == 3


class TestPartition3:
    def test_three_way(self):
        arr = np.array([2, 5, 5, 8, 1])
        r = partition3(arr, 5)
        assert sorted(r.lt.tolist()) == [1, 2]
        assert r.eq.tolist() == [5, 5]
        assert r.gt.tolist() == [8]

    def test_counts_match_split(self):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 20, 500)
        pivot = 10
        r = partition3(arr, pivot)
        assert count3(arr, pivot) == (r.n_lt, r.n_eq, r.n_gt)

    def test_preserves_multiset(self):
        rng = np.random.default_rng(1)
        arr = rng.integers(0, 9, 200)
        r = partition3(arr, 4)
        rebuilt = np.sort(np.concatenate([r.lt, r.eq, r.gt]))
        assert np.array_equal(rebuilt, np.sort(arr))


class TestPartitionBand:
    def test_band_split(self):
        arr = np.array([1, 3, 5, 7, 9, 5])
        less, mid, high = partition_band(arr, 3, 7)
        assert less.tolist() == [1]
        assert sorted(mid.tolist()) == [3, 5, 5, 7]
        assert high.tolist() == [9]

    def test_band_collapsed(self):
        arr = np.array([1, 2, 2, 3])
        less, mid, high = partition_band(arr, 2, 2)
        assert less.tolist() == [1]
        assert mid.tolist() == [2, 2]
        assert high.tolist() == [3]


class TestCost:
    def test_linear(self):
        assert partition_cost(CM5, 1000) == pytest.approx(
            1000 * CM5.compute.partition
        )

    def test_negative_clamped(self):
        assert partition_cost(CM5, -5) == 0.0


@given(arrays(np.float64, st.integers(0, 200), elements=floats), floats)
def test_property_partition3_classifies_every_element(arr, pivot):
    r = partition3(arr, pivot)
    assert r.n_lt + r.n_eq + r.n_gt == arr.size
    assert np.all(r.lt < pivot) and np.all(r.gt > pivot)
    assert np.all(r.eq == pivot)


@given(arrays(np.int64, st.integers(1, 100),
              elements=st.integers(-50, 50)),
       st.integers(-50, 50), st.integers(-50, 50))
def test_property_band_is_exhaustive(arr, a, b):
    lo, hi = min(a, b), max(a, b)
    less, mid, high = partition_band(arr, lo, hi)
    assert less.size + mid.size + high.size == arr.size
    assert np.all(less < lo) and np.all(high > hi)
    assert np.all((mid >= lo) & (mid <= hi))


def argsort_partition_multiway(arr: np.ndarray, cuts) -> list[np.ndarray]:
    """Oracle: the original ``O(n log n)`` multiway split — a
    ``searchsorted`` pair labels every key, a stable argsort of the int64
    labels groups the segments."""
    cuts = np.asarray(cuts)
    if cuts.ndim != 1 or cuts.size == 0:
        raise ConfigurationError(
            "partition_multiway needs a 1-D, non-empty cut list"
        )
    if cuts.size > 1 and np.any(np.diff(cuts) <= 0):
        raise ConfigurationError(
            "cut values must be strictly ascending (dedupe first)"
        )
    # Element strictly between cuts j-1 and j lands in segment 2j; an
    # element equal to cuts[j] lands in segment 2j + 1.
    seg = np.searchsorted(cuts, arr, side="left") + np.searchsorted(
        cuts, arr, side="right"
    )
    order = np.argsort(seg, kind="stable")
    sizes = np.bincount(seg, minlength=2 * cuts.size + 1)
    grouped = arr[order]
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return [
        grouped[bounds[j]: bounds[j + 1]] for j in range(2 * cuts.size + 1)
    ]


_SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0]


@st.composite
def multiway_cases(draw):
    """Keys and 1-40 ascending cuts: empty and duplicate-heavy arrays,
    NaN/±inf keys, int64 and float32 keys, and (legal, since NaN passes
    the ascending check) a trailing NaN cut."""
    dtype = draw(st.sampled_from(["float64", "float32", "int64"]))
    if dtype == "int64":
        keys = st.integers(0, 3) | st.integers(-50, 50) | st.integers(-(2**62), 2**62)
    else:
        keys = (
            st.sampled_from(_SPECIAL_FLOATS)
            | st.integers(0, 3).map(float)
            | st.integers(-50, 50).map(float)
            | st.floats(width=32)
        )
    arr = np.array(draw(st.lists(keys, max_size=300)), dtype=dtype)
    values = sorted({x for x in arr.tolist() if x == x} | set(range(-25, 26)))
    nan_cut = dtype != "int64" and draw(st.booleans())
    cuts = np.array(sorted(draw(st.lists(
        st.sampled_from(values), min_size=0 if nan_cut else 1, max_size=40,
        unique=True,
    ))), dtype="int64" if dtype == "int64" else "float64")
    if dtype == "float32" and draw(st.booleans()):
        cuts = np.unique(cuts.astype(arr.dtype))
    if nan_cut:
        cuts = np.append(cuts, np.nan)
    return arr, cuts


@settings(max_examples=400)
@given(multiway_cases())
def test_property_multiway_matches_argsort_oracle(case):
    arr, cuts = case
    expected = argsort_partition_multiway(arr, cuts)
    got = partition_multiway(arr, cuts)
    assert len(got) == len(expected) == 2 * cuts.size + 1
    for e, g in zip(expected, got):
        assert g.dtype == e.dtype
        np.testing.assert_array_equal(g, e)  # order included; NaN == NaN
