"""Cost-charging facade over the sequential kernels.

Selection algorithms do local work through this object so every NumPy pass
also advances the rank's simulated clock by the calibrated per-element
constants — keeping algorithm code free of book-keeping noise.
"""

from __future__ import annotations

import numpy as np

from ..machine.engine import ProcContext
from . import partition as _partition
from . import select as _select
from .buckets import BucketScan, LocalBuckets, build_cost
from .weighted_median import weighted_median, weighted_median_cost

__all__ = ["CostedKernels"]


class CostedKernels:
    """Sequential kernels bound to one rank's clock and cost model.

    Each method charges its pass before running it. The 3-way splits
    return a :class:`~repro.kernels.partition.Partition3`, whose sides are
    gathered on first read: the charge covers the whole partition pass
    whichever sides the caller reads.
    """

    def __init__(self, ctx: ProcContext):
        self.ctx = ctx
        self.model = ctx.model

    # ------------------------------------------------------------ partition

    def partition3(self, arr: np.ndarray, pivot) -> _partition.Partition3:
        self.ctx.charge_compute(_partition.partition_cost(self.model, arr.size))
        return _partition.partition3(arr, pivot)

    def partition2(self, arr: np.ndarray, pivot) -> _partition.Partition2:
        self.ctx.charge_compute(_partition.partition_cost(self.model, arr.size))
        return _partition.partition2(arr, pivot)

    def count3(self, arr: np.ndarray, pivot) -> tuple[int, int, int]:
        self.ctx.charge_compute(_partition.partition_cost(self.model, arr.size))
        return _partition.count3(arr, pivot)

    def partition_band(self, arr: np.ndarray, lo, hi) -> _partition.Partition3:
        self.ctx.charge_compute(_partition.partition_cost(self.model, arr.size))
        return _partition.partition_band(arr, lo, hi)

    def partition_multiway(self, arr: np.ndarray, cuts) -> list[np.ndarray]:
        self.ctx.charge_compute(
            _partition.partition_multiway_cost(self.model, arr.size, len(cuts))
        )
        return _partition.partition_multiway(arr, cuts)

    # ------------------------------------------------------------ selection

    def select_kth(
        self,
        arr: np.ndarray,
        k: int,
        method: _select.SelectMethod,
        rng: np.random.Generator | None = None,
        impl: _select.SelectMethod | None = None,
    ):
        """Sequential selection charged at ``method``'s cost.

        ``impl`` optionally swaps the *executing* kernel (e.g. introselect
        for wall-clock speed on huge benchmark grids) without changing the
        simulated charge: the k-th smallest is a unique value, so every
        implementation returns the same answer — only the simulated cost is
        algorithm-dependent, and that always follows ``method``.
        """
        self.ctx.charge_compute(_select.select_cost(self.model, arr.size, method))
        return _select.select_kth(arr, k, method=impl or method, rng=rng)

    def local_median(
        self,
        arr: np.ndarray,
        method: _select.SelectMethod,
        rng: np.random.Generator | None = None,
        impl: _select.SelectMethod | None = None,
    ):
        return self.select_kth(
            arr, _select.median_rank(arr.size), method, rng=rng, impl=impl
        )

    def select_multi_kth(
        self,
        arr: np.ndarray,
        ks: list[int],
        method: _select.SelectMethod,
        rng: np.random.Generator | None = None,
        impl: _select.SelectMethod | None = None,
    ) -> list:
        """Single-pass sequential selection of several sorted ranks.

        Charged at ``multi_select_cost`` for ``method`` (one partition
        cascade over ``log2(q + 1)`` levels); like :meth:`select_kth`,
        ``impl`` may swap the executing kernel without changing the charge.
        """
        self.ctx.charge_compute(
            _select.multi_select_cost(self.model, arr.size, len(ks), method)
        )
        return _select.select_multi_kth(arr, ks, method=impl or method, rng=rng)

    def sort(self, arr: np.ndarray) -> np.ndarray:
        n = max(int(arr.size), 1)
        self.ctx.charge_compute(
            self.model.compute.sort_per_cmp * n * max(1.0, np.log2(n))
        )
        return np.sort(arr)

    # -------------------------------------------------------------- buckets

    def build_buckets(self, arr: np.ndarray, n_buckets: int) -> LocalBuckets:
        self.ctx.charge_compute(build_cost(self.model, arr.size, n_buckets))
        return LocalBuckets.build(arr, n_buckets)

    def charge_scan_evidence(
        self, scan: BucketScan, select_method: _select.SelectMethod | None = None
    ) -> None:
        """Charge a bucket operation: probes + touched elements.

        ``select_method`` switches the per-element constant between a plain
        partition pass and an in-bucket sequential selection.
        """
        probe_cost = self.model.compute.binary_search_step * scan.probes
        if select_method is None:
            elem_cost = self.model.compute.partition * scan.touched
        else:
            elem_cost = _select.select_cost(self.model, scan.touched, select_method)
        self.ctx.charge_compute(probe_cost + elem_cost)

    # ------------------------------------------------------- weighted median

    def weighted_median(self, values: np.ndarray, weights: np.ndarray):
        self.ctx.charge_compute(weighted_median_cost(self.model, len(values)))
        return weighted_median(values, weights)

    # ----------------------------------------------------------------- misc

    def rng_draw(self) -> None:
        """Charge one shared random-number draw (Algorithm 3, Step 2)."""
        self.ctx.charge_compute(self.model.compute.rng_draw)

    def scan_pass(self, n: int) -> None:
        """Charge a simple O(n) sequential pass (copy/count/sum)."""
        self.ctx.charge_compute(self.model.compute.scan * max(0, n))
