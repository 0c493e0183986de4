"""Cost-charging facade over the sequential kernels.

Selection algorithms do local work through this object so every NumPy pass
also advances the rank's simulated clock by the calibrated per-element
constants — keeping algorithm code free of book-keeping noise.
"""

from __future__ import annotations

import numpy as np

from ..machine.engine import ProcContext
from . import fast as _fast
from . import partition as _partition
from . import select as _select
from .buckets import BucketScan, LocalBuckets, build_cost
from .dispatch import resolve_kernels
from .weighted_median import weighted_median, weighted_median_cost

__all__ = ["CostedKernels"]


class CostedKernels:
    """Sequential kernels bound to one rank's clock and cost model.

    ``kernels`` picks the executing implementations — ``"reference"`` or
    ``"fast"`` (``None`` defers to ``$REPRO_KERNELS``, default reference).
    Charges are computed from the reference cost formulas *before* the
    executing kernel is chosen, so the two modes produce bit-identical
    values and simulated times (pinned by ``tests/test_kernel_modes.py``);
    only host wall clock differs.
    """

    def __init__(self, ctx: ProcContext, kernels: str | None = None):
        self.ctx = ctx
        self.model = ctx.model
        self.kernels = resolve_kernels(kernels)
        self._fast = self.kernels == "fast"

    # ------------------------------------------------------------ partition

    def partition3(self, arr: np.ndarray, pivot) -> _partition.Partition3:
        self.ctx.charge_compute(_partition.partition_cost(self.model, arr.size))
        if self._fast:
            return _fast.fast_partition3(arr, pivot)
        return _partition.partition3(arr, pivot)

    def partition2(self, arr: np.ndarray, pivot) -> _partition.Partition2:
        self.ctx.charge_compute(_partition.partition_cost(self.model, arr.size))
        return _partition.partition2(arr, pivot)

    def count3(self, arr: np.ndarray, pivot) -> tuple[int, int, int]:
        self.ctx.charge_compute(_partition.partition_cost(self.model, arr.size))
        return _partition.count3(arr, pivot)

    def partition_band(self, arr: np.ndarray, lo, hi):
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
        algorithm-dependent, and that always follows ``method``. Fast
        kernel mode applies the same swap (introselect) by default.
        """
        self.ctx.charge_compute(_select.select_cost(self.model, arr.size, method))
        return _select.select_kth(arr, k, method=self._impl(method, impl), rng=rng)

    def _impl(self, method, impl):
        """The executing sequential-select kernel for a charged ``method``."""
        if impl is not None:
            return impl
        return "introselect" if self._fast else method

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
        return _select.select_multi_kth(
            arr, ks, method=self._impl(method, impl), rng=rng
        )

    def sort(self, arr: np.ndarray) -> np.ndarray:
        n = max(int(arr.size), 1)
        self.ctx.charge_compute(
            self.model.compute.sort_per_cmp * n * max(1.0, np.log2(n))
        )
        return np.sort(arr)

    # -------------------------------------------------------------- buckets

    def build_buckets(self, arr: np.ndarray, n_buckets: int) -> LocalBuckets:
        self.ctx.charge_compute(build_cost(self.model, arr.size, n_buckets))
        if self._fast:
            return _fast.fast_build_buckets(arr, n_buckets)
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
