"""Persistent pool backend + fast kernels: the perf PR's acceptance bar.

Claims pinned here:

1. A repeated-launch workload (many selections over the same distributed
   array — the Session serving pattern) produces the SAME values and the
   SAME summed simulated seconds on ``threaded``, ``process`` and
   ``pool``, and the pool's fork receipt for the whole sequence is
   exactly ONE: launches after the first ride warm workers over pinned
   shared-memory shards.
2. On a multi-core host at the paper's large n (>= 2M), the pool's
   whole-sequence wall clock beats BOTH per-launch rivals: ``process``
   (which re-forks and re-pickles every launch) and ``threaded`` (which
   serialises the GIL-churning sequential kernels). Skipped on
   single-core machines, where no forked backend can win wall clock.
3. ``partition_multiway`` — the local pass of every multi-rank
   contraction iteration (``quantiles``/``multi_select``) and of the
   sketch prefilter — is linear in the shard: with one cut on 4M doubles,
   and with six cuts on 2^19 keys (a ``quantiles`` rank's shard), it runs
   >= 3x faster than the original searchsorted-plus-argsort formulation,
   with identical output (runs on any host; pure local CPU).

Full grid: ``python -m repro.bench pool --scale paper``.
"""

import os
import time

import numpy as np
import pytest

from repro.bench.harness import KILO, run_pool_point
from repro.errors import ConfigurationError
from repro.kernels.partition import partition_multiway

N_IDENTITY = 128 * KILO
N_SPEEDUP = 2048 * KILO  # the acceptance bar: n >= 2M
P = 4
LAUNCHES = 6

MULTICORE = (os.cpu_count() or 1) >= 2


@pytest.mark.parametrize("algorithm", ["fast_randomized", "randomized"])
def test_repeated_launches_identical_and_one_fork(benchmark, algorithm):
    pt = benchmark.pedantic(
        run_pool_point, args=(algorithm, N_IDENTITY, P),
        kwargs=dict(launches=LAUNCHES, trials=1), rounds=1, iterations=1,
    )
    benchmark.extra_info["wall_times_s"] = dict(pt.wall_times)
    benchmark.extra_info["fork_counts"] = dict(pt.fork_counts)
    assert pt.values_agree, f"backends disagree on the answers: {pt.values}"
    assert pt.simulated_times_agree, (
        f"backends disagree on simulated time: {pt.simulated_times}"
    )
    assert pt.fork_counts["pool"] == 1, (
        f"{pt.launches} launches must cost ONE pool fork, got "
        f"{pt.fork_counts['pool']}"
    )


@pytest.mark.skipif(
    not MULTICORE,
    reason="single-core host: no forked backend can win wall clock",
)
def test_pool_beats_per_launch_backends_large_n(benchmark):
    """n >= 2M with the paper's sequential kernels (``impl_override=None``):
    forked ranks escape the GIL and the pool additionally amortises the
    per-launch fork + shard pickling that ``process`` pays every time."""
    pt = benchmark.pedantic(
        run_pool_point, args=("median_of_medians", N_SPEEDUP, P),
        kwargs=dict(launches=LAUNCHES, trials=2, impl_override=None),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["wall_times_s"] = dict(pt.wall_times)
    benchmark.extra_info["pool_vs_process"] = pt.speedup("pool", "process")
    benchmark.extra_info["pool_vs_threaded"] = pt.speedup("pool", "threaded")
    assert pt.values_agree
    assert pt.simulated_times_agree
    assert pt.speedup("pool", "process") > 1.0, (
        f"pool must beat process on repeated launches, got "
        f"{pt.speedup('pool', 'process'):.2f}x "
        f"(process={pt.wall_times['process']:.3f}s, "
        f"pool={pt.wall_times['pool']:.3f}s)"
    )
    assert pt.speedup("pool", "threaded") > 1.0, (
        f"pool must beat threaded at large n on a multi-core host, got "
        f"{pt.speedup('pool', 'threaded'):.2f}x "
        f"(threaded={pt.wall_times['threaded']:.3f}s, "
        f"pool={pt.wall_times['pool']:.3f}s)"
    )


def argsort_partition_multiway(arr: np.ndarray, cuts) -> list[np.ndarray]:
    """Baseline: the original ``O(n log n)`` multiway split — a
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


@pytest.mark.parametrize(
    "n, n_cuts", [(4 * N_SPEEDUP // 2, 1), (512 * KILO, 6)],
    ids=["4M-keys-1-cut", "512k-keys-6-cuts"],
)
def test_multiway_partition_speedup_over_argsort(benchmark, n, n_cuts):
    """Small unsigned labels grouped by a radix pass (one cut: three mask
    gathers) against int64 labels grouped by a merge sort. Both keep the
    original order within each segment, so the outputs are identical."""
    rng = np.random.default_rng(0)
    arr = rng.random(n)
    cuts = np.sort(rng.choice(arr, n_cuts, replace=False))

    def best_of(fn, repeats=5):
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(arr, cuts)
            walls.append(time.perf_counter() - t0)
        return min(walls)

    def measure():
        return best_of(argsort_partition_multiway), best_of(partition_multiway)

    base_wall, wall = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = base_wall / wall
    benchmark.extra_info["argsort_wall_s"] = base_wall
    benchmark.extra_info["wall_s"] = wall
    benchmark.extra_info["speedup"] = speedup
    expected = argsort_partition_multiway(arr, cuts)
    got = partition_multiway(arr, cuts)
    assert len(got) == len(expected)
    for e, g in zip(expected, got):
        assert g.dtype == e.dtype
        np.testing.assert_array_equal(g, e)
    assert speedup >= 3.0, (
        f"partition_multiway with {n_cuts} cut(s) on {n} keys must be >= 3x "
        f"the argsort formulation, got {speedup:.2f}x "
        f"(argsort={base_wall * 1e3:.1f} ms, kernel={wall * 1e3:.1f} ms)"
    )
