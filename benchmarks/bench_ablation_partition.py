"""Ablation: duplicate handling (DESIGN.md deviation #1).

The paper's 2-way (<=, >) split livelocks once every live key equals the
pivot; the library's 3-way split terminates in O(1) extra iterations on
duplicate-heavy inputs. This bench pins termination behaviour and the raw
kernel cost difference (3-way does one extra comparison pass).

Rendered report: ``python -m repro.bench ablation-partition``.
"""

import numpy as np
import pytest

from repro.bench.harness import KILO
from repro.kernels.partition import partition2, partition3

from conftest import bench_point

N = 128 * KILO


def _split3(arr, pivot):
    """A full 3-way split: every side gathered, as the 2-way split does."""
    r = partition3(arr, pivot)
    return r.lt, r.eq, r.gt


@pytest.mark.parametrize("distribution", ["all_equal", "few_distinct", "zipf"])
def test_ablation_duplicates_terminate(benchmark, distribution):
    result = bench_point(benchmark, "randomized", N, 8,
                         distribution=distribution, balancer="none")
    # Few distinct values: at most ~#values successful splits are needed.
    assert result.iterations <= 12


def test_ablation_partition3_kernel_overhead(benchmark):
    """The 3-way kernel costs at most ~2x the 2-way kernel per pass."""
    arr = np.random.default_rng(0).integers(0, 8, 1 << 20)

    def both():
        _split3(arr, 4)
        return True

    assert benchmark.pedantic(both, rounds=3, iterations=1)
    import time

    t0 = time.perf_counter()
    partition2(arr, 4)
    t2 = time.perf_counter() - t0
    t0 = time.perf_counter()
    _split3(arr, 4)
    t3 = time.perf_counter() - t0
    benchmark.extra_info["three_way_over_two_way_wall"] = t3 / t2 if t2 else 0
