"""Fast-vs-reference kernel differential suite.

The contract (``repro.kernels.dispatch``): fast kernels are wall-clock
optimisations only — values, RNG/pivot streams AND simulated charges must
be bit-identical to the reference kernels, for every algorithm, on
adversarial data included. Charges are enforced structurally (they are
computed before the executing kernel is chosen), so these tests pin the
value/order side of the contract plus the end-to-end evidence."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_partition import argsort_partition_multiway

import repro
from repro.errors import ConfigurationError
from repro.kernels import KERNELS_ENV_VAR
from repro.kernels.buckets import LocalBuckets
from repro.kernels.dispatch import default_kernels_mode, resolve_kernels
from repro.kernels.fast import fast_build_buckets, fast_partition3
from repro.kernels.partition import partition3, partition_multiway
from repro.selection import ALGORITHMS

P = 4
N = 1500
DISTRIBUTIONS = ["random", "sorted", "few_distinct", "skewed_shards"]


# --------------------------------------------------------------------------
# End-to-end: every algorithm, every distribution, both entry points
# --------------------------------------------------------------------------


def _machine():
    return repro.Machine(n_procs=P)


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
class TestFastVsReferenceEndToEnd:
    def test_select_bit_identical(self, algorithm, distribution):
        data = _machine().generate(N, distribution=distribution, seed=2)
        ref = data.select(N // 3, algorithm=algorithm, seed=2,
                          kernels="reference")
        fast = data.select(N // 3, algorithm=algorithm, seed=2,
                           kernels="fast")
        assert not fast.cached  # kernels is part of the plan cache key
        assert ref.value == fast.value
        assert ref.simulated_time == fast.simulated_time
        assert ref.breakdown == fast.breakdown
        assert ref.result.clocks == fast.result.clocks
        assert ref.result.breakdowns == fast.result.breakdowns
        assert ref.stats.n_iterations == fast.stats.n_iterations
        assert [it.pivot for it in ref.stats.iterations] == [
            it.pivot for it in fast.stats.iterations
        ], "fast kernels perturbed the pivot stream"

    def test_multi_select_bit_identical(self, algorithm, distribution):
        data = _machine().generate(N, distribution=distribution, seed=2)
        ks = [1, N // 4, N // 2, (3 * N) // 4, N]
        ref = data.multi_select(ks, algorithm=algorithm, seed=2,
                                kernels="reference")
        fast = data.multi_select(ks, algorithm=algorithm, seed=2,
                                 kernels="fast")
        assert ref.values == fast.values
        assert ref.simulated_time == fast.simulated_time
        assert ref.breakdown == fast.breakdown
        assert ref.result.clocks == fast.result.clocks


class TestFastModePlumbing:
    def test_plan_rejects_unknown_kernel_mode(self):
        with pytest.raises(
            ConfigurationError,
            match=r"unknown kernel mode 'simd'; "
                  r"available: \['fast', 'reference'\]",
        ):
            repro.SelectionPlan(kernels="simd")

    def test_env_var_sets_the_default(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "fast")
        assert default_kernels_mode() == "fast"
        assert resolve_kernels(None) == "fast"
        # An explicit plan mode beats the env default.
        assert resolve_kernels("reference") == "reference"

    def test_env_var_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "turbo")
        with pytest.raises(ConfigurationError, match="REPRO_KERNELS"):
            default_kernels_mode()

    def test_kernels_in_cache_key_and_describe(self):
        ref = repro.SelectionPlan(kernels="reference")
        fast = repro.SelectionPlan(kernels="fast")
        assert ref.cache_key() != fast.cache_key()
        assert "kernels=fast" in fast.describe()

    def test_fast_under_sketch_prefilter(self):
        data = _machine().generate(4000, distribution="zipf", seed=8)
        ref = data.select(1234, prefilter="sketch", seed=8)
        fast = data.select(1234, prefilter="sketch", seed=8, kernels="fast")
        assert ref.value == fast.value
        assert ref.simulated_time == fast.simulated_time

    def test_fast_kernels_on_pool_backend(self):
        data = _machine().generate(2000, distribution="few_distinct", seed=9)
        ref = data.select(500, seed=9)
        fast = data.select(500, seed=9, kernels="fast", backend="pool")
        assert fast.backend == "pool"
        assert ref.value == fast.value
        assert ref.simulated_time == fast.simulated_time


# --------------------------------------------------------------------------
# Kernel-level properties on adversarial inputs
# --------------------------------------------------------------------------

# Duplicate-heavy / near-constant / empty arrays are exactly where a split
# kernel's tie handling can diverge; tiny value pools force ties.
adversarial_arrays = st.one_of(
    st.just(np.array([])),
    st.lists(
        st.sampled_from([0.0, 1.0, 1.0, 1.0, 2.0, 7.5]), max_size=120
    ).map(np.array),
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        max_size=80,
    ).map(np.array),
)


def _assert_identical_arrays(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


class TestKernelProperties:
    @given(arr=adversarial_arrays, data=st.data())
    def test_partition3_identical_including_order(self, arr, data):
        pool = np.concatenate([arr, [0.0, 1.0]])
        pivot = data.draw(st.sampled_from(list(pool)))
        ref = partition3(arr, pivot)
        fast = fast_partition3(arr, pivot)
        assert (ref.n_lt, ref.n_eq, ref.n_gt) == (
            fast.n_lt, fast.n_eq, fast.n_gt
        )
        _assert_identical_arrays(
            [ref.lt, ref.eq, ref.gt], [fast.lt, fast.eq, fast.gt]
        )

    @given(arr=adversarial_arrays, data=st.data())
    def test_partition_multiway_identical_including_order(self, arr, data):
        pool = np.unique(np.concatenate([arr, [0.0, 1.0, 2.0]]))
        n_cuts = data.draw(st.integers(1, min(len(pool), 12)))
        cuts = np.sort(
            data.draw(
                st.permutations(list(pool)).map(lambda x: x[:n_cuts])
            )
        )
        _assert_identical_arrays(
            argsort_partition_multiway(arr, cuts),
            partition_multiway(arr, cuts),
        )

    @given(arr=adversarial_arrays, n_buckets=st.integers(1, 16))
    def test_buckets_equivalent(self, arr, n_buckets):
        ref = LocalBuckets.build(arr, n_buckets)
        fast = fast_build_buckets(arr, n_buckets)
        fast.check_invariants()
        assert ref.n_buckets == fast.n_buckets
        assert ref.total == fast.total
        np.testing.assert_array_equal(ref._sizes, fast._sizes)
        np.testing.assert_array_equal(ref._mins, fast._mins)
        np.testing.assert_array_equal(ref._maxs, fast._maxs)
        # Same multiset per bucket (intra-bucket order is free).
        for rb, fb in zip(ref._buckets, fast._buckets):
            np.testing.assert_array_equal(np.sort(rb), np.sort(fb))
        if arr.size:
            ks = sorted({1, arr.size // 2 + 1, arr.size})
            assert [ref.kth(k)[0] for k in ks] == [
                fast.kth(k)[0] for k in ks
            ]

    def test_multiway_validation_matches_reference(self):
        arr = np.arange(6.0)
        for bad_cuts in ([], [[1.0, 2.0]], [2.0, 1.0], [1.0, 1.0]):
            with pytest.raises(ConfigurationError):
                argsort_partition_multiway(arr, bad_cuts)
            with pytest.raises(ConfigurationError):
                partition_multiway(arr, bad_cuts)
