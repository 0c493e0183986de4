"""Wall-clock-tuned twins of the hot reference kernels.

Each function here is value-identical to its reference twin in
:mod:`repro.kernels.partition` / :mod:`repro.kernels.buckets` — including
element *order* wherever order can reach a positional pivot draw — and is
only ever selected by :class:`~repro.kernels.costed.CostedKernels` in
``fast`` mode (see :mod:`repro.kernels.dispatch` for the contract).
Simulated charges are untouched: they are computed from the reference
cost formulas before the executing kernel is chosen.

Where the speed comes from:

* :class:`LazyPartition3` — the contraction engine classifies with the
  (lt, eq) *counts* and only reads the ``lt``/``gt`` gathers for the side
  it keeps; the reference kernel eagerly materialises all three. Deferring
  the gathers skips at least the ``eq`` copy every iteration and both
  untaken sides when the target lands in the equality band.
* :func:`fast_build_buckets` — the reference recursively halves with
  ``log2(B)`` full ``np.partition`` levels. One multi-kth
  ``np.partition`` at the recursion's final boundaries produces the same
  bucket *multisets* in a single pass. Intra-bucket order differs, which
  is immaterial: every downstream bucket operation (kth via
  ``np.partition``, straddler counts, min/max fences) is value-based.
* select kernels — in fast mode the *executing* sequential selection is
  ``introselect`` (``np.partition``) whatever method is charged,
  generalising the long-standing ``impl_override`` contract: the k-th
  smallest is a unique value, so every implementation agrees, and no rng
  handed to a select kernel ever feeds a later positional draw.

The multiway partition has no twin: the reference
:func:`~repro.kernels.partition.partition_multiway` is already linear in
the shard, so both modes run it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..machine.topology import next_power_of_two
from .buckets import LocalBuckets

__all__ = [
    "LazyPartition3",
    "fast_build_buckets",
    "fast_partition3",
]


class LazyPartition3:
    """Drop-in for :class:`~repro.kernels.partition.Partition3` that
    defers the side gathers until (and unless) they are read."""

    __slots__ = (
        "_arr", "_lt_mask", "_gt_mask", "_lt", "_eq", "_gt",
        "n_lt", "n_eq", "n_gt",
    )

    def __init__(self, arr: np.ndarray, pivot):
        self._arr = arr
        self._lt_mask = arr < pivot
        self._gt_mask = arr > pivot
        self.n_lt = int(np.count_nonzero(self._lt_mask))
        self.n_gt = int(np.count_nonzero(self._gt_mask))
        self.n_eq = int(arr.size) - self.n_lt - self.n_gt
        self._lt = self._eq = self._gt = None

    @property
    def lt(self) -> np.ndarray:
        if self._lt is None:
            self._lt = self._arr[self._lt_mask]
        return self._lt

    @property
    def gt(self) -> np.ndarray:
        if self._gt is None:
            self._gt = self._arr[self._gt_mask]
        return self._gt

    @property
    def eq(self) -> np.ndarray:
        if self._eq is None:
            self._eq = self._arr[~(self._lt_mask | self._gt_mask)]
        return self._eq


def fast_partition3(arr: np.ndarray, pivot) -> LazyPartition3:
    """3-way split with deferred gathers (mask order == reference order)."""
    return LazyPartition3(arr, pivot)


def _halved_sizes(n: int, b: int) -> list[int]:
    """Final segment sizes of the reference build's halving recursion."""
    sizes = [n]
    while len(sizes) < b:
        nxt: list[int] = []
        for s in sizes:
            if s <= 1:
                nxt.extend([s, 0])
            else:
                mid = s // 2
                nxt.extend([mid, s - mid])
        sizes = nxt
    return sizes


def fast_build_buckets(arr: np.ndarray, n_buckets: int) -> LocalBuckets:
    """Reference-equivalent bucket build in one multi-kth partition pass.

    The reference recursion only ever splits segments at positional
    medians, so its final buckets are, as multisets, consecutive slices of
    the sorted array at deterministic boundaries. Reproducing those
    boundary sizes and handing them to one ``np.partition`` call yields
    buckets with identical sizes, mins and maxes — everything
    :class:`LocalBuckets` exposes to the algorithms.
    """
    if n_buckets < 1:
        raise ConfigurationError(f"n_buckets must be >= 1, got {n_buckets}")
    arr = np.asarray(arr)
    if arr.ndim != 1:
        raise ConfigurationError("LocalBuckets expects a 1-D array")
    b = next_power_of_two(n_buckets)
    sizes = _halved_sizes(int(arr.size), b)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    kth = [int(x) - 1 for x in bounds[1:-1] if 0 < x < arr.size]
    part = np.partition(arr, kth) if kth else arr.copy()
    return LocalBuckets(
        [part[bounds[j]: bounds[j + 1]] for j in range(b)]
    )
