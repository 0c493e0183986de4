"""Vectorised partition kernels (Step 4/5 of every selection algorithm).

The paper's pseudocode partitions local lists into ``<= pivot`` / ``> pivot``.
That 2-way scheme livelocks when all surviving keys equal the pivot, so the
library's algorithms use the 3-way split (``<``, ``==``, ``>``) and terminate
the moment the target rank lands in the ``==`` band (DESIGN.md deviation #1).
Both kernels are provided; the 2-way one is kept for the ablation bench that
demonstrates the livelock on duplicate-heavy inputs.

All kernels are single NumPy passes (boolean masks) per the hpc-parallel
guide: no Python-level loops over elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..machine.cost_model import CostModel

__all__ = [
    "Partition2",
    "Partition3",
    "partition2",
    "partition3",
    "count3",
    "partition_band",
    "partition_cost",
    "partition_multiway",
    "partition_multiway_cost",
]


@dataclass(frozen=True)
class Partition2:
    """Result of a 2-way split around ``pivot``."""

    le: np.ndarray
    gt: np.ndarray

    @property
    def n_le(self) -> int:
        return int(self.le.size)

    @property
    def n_gt(self) -> int:
        return int(self.gt.size)


@dataclass(frozen=True)
class Partition3:
    """Result of a 3-way split around ``pivot``."""

    lt: np.ndarray
    eq: np.ndarray
    gt: np.ndarray

    @property
    def n_lt(self) -> int:
        return int(self.lt.size)

    @property
    def n_eq(self) -> int:
        return int(self.eq.size)

    @property
    def n_gt(self) -> int:
        return int(self.gt.size)


def partition2(arr: np.ndarray, pivot) -> Partition2:
    """Split ``arr`` into (``<= pivot``, ``> pivot``) — the paper's Step 4."""
    mask = arr <= pivot
    return Partition2(le=arr[mask], gt=arr[~mask])


def partition3(arr: np.ndarray, pivot) -> Partition3:
    """Split ``arr`` into (``< pivot``, ``== pivot``, ``> pivot``)."""
    lt_mask = arr < pivot
    gt_mask = arr > pivot
    eq_mask = ~(lt_mask | gt_mask)
    return Partition3(lt=arr[lt_mask], eq=arr[eq_mask], gt=arr[gt_mask])


def count3(arr: np.ndarray, pivot) -> tuple[int, int, int]:
    """Counts of (``<``, ``==``, ``>``) without materialising the splits."""
    lt = int(np.count_nonzero(arr < pivot))
    gt = int(np.count_nonzero(arr > pivot))
    return lt, int(arr.size - lt - gt), gt


def partition_band(arr: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``arr`` into (``< lo``, ``[lo, hi]``, ``> hi``) — Step 5 of the
    fast randomized algorithm (Algorithm 4)."""
    less_mask = arr < lo
    high_mask = arr > hi
    mid_mask = ~(less_mask | high_mask)
    return arr[less_mask], arr[mid_mask], arr[high_mask]


def partition_cost(model: CostModel, n: int) -> float:
    """Simulated cost of one partition pass over ``n`` local elements."""
    return model.compute.partition * max(0, n)


#: Up to this many cuts, segment labels come from ``2c`` branch-free
#: vectorised compares (``O(nc)``); above it, from a ``searchsorted`` pair
#: (``O(n log c)``).
_COMPARE_MAX_CUTS = 16


def partition_multiway(arr: np.ndarray, cuts) -> list[np.ndarray]:
    """Split ``arr`` at ``c`` sorted cut values into ``2c + 1`` segments.

    Segments alternate open ranges and equality bands, in value order::

        (< cuts[0]), (== cuts[0]), (cuts[0], cuts[1]), (== cuts[1]), ...,
        (> cuts[-1])

    With ``c == 1`` this is exactly :func:`partition3`, except that a NaN
    key lands last (``> cuts[-1]``) for any ``c``. The multi-rank
    contraction engine uses it to fork the live set at *several* pivots in
    a single pass (one iteration of single-pass multi-rank selection
    instead of one pass per pivot).

    Host cost is linear in ``arr``: each key gets its segment index in the
    smallest unsigned dtype that holds ``2c``, and a stable argsort of those
    small labels (a radix sort) groups the segments, keeping the original
    element order within each. One cut needs no labels: three mask gathers
    do the same job, in the same order.
    """
    cuts = np.asarray(cuts)
    if cuts.ndim != 1 or cuts.size == 0:
        raise ConfigurationError(
            "partition_multiway needs a 1-D, non-empty cut list"
        )
    if cuts.size > 1 and np.any(np.diff(cuts) <= 0):
        raise ConfigurationError(
            "cut values must be strictly ascending (dedupe first)"
        )
    n_segs = 2 * cuts.size + 1
    # A NaN cut sorts last for searchsorted but compares false, so only
    # the searchsorted labels reproduce its segments.
    nan_cut = cuts.dtype.kind in "fc" and bool(np.isnan(cuts).any())
    if cuts.size == 1 and not nan_cut:
        # np.compress (nonzero + take) beats boolean indexing on
        # unpredictable masks.
        lt = arr < cuts[0]
        le = arr <= cuts[0]
        return [np.compress(lt, arr), np.compress(le & ~lt, arr), np.compress(~le, arr)]
    seg = _segment_labels(arr, cuts, nan_cut)
    order = np.argsort(seg, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(seg, minlength=n_segs))])
    grouped = arr[order]
    return [grouped[bounds[j]: bounds[j + 1]] for j in range(n_segs)]


def _segment_labels(arr: np.ndarray, cuts: np.ndarray, nan_cut: bool) -> np.ndarray:
    """``#(cuts < x) + #(cuts <= x)`` for every key ``x``: an element
    strictly between cuts j-1 and j gets 2j, one equal to ``cuts[j]`` gets
    2j + 1, and a NaN key gets ``2c`` (last), as ``searchsorted`` places it."""
    dtype = np.min_scalar_type(2 * cuts.size)
    if cuts.size > _COMPARE_MAX_CUTS or nan_cut:
        return (
            np.searchsorted(cuts, arr, side="left")
            + np.searchsorted(cuts, arr, side="right")
        ).astype(dtype)
    # Count down from 2c: a NaN key fails every compare and stays last.
    seg = np.full(arr.shape, 2 * cuts.size, dtype=dtype)
    hit = np.empty(arr.shape, dtype=bool)
    for cut in cuts:
        seg -= np.less_equal(arr, cut, out=hit).view(np.uint8)
        seg -= np.less(arr, cut, out=hit).view(np.uint8)
    return seg


def partition_multiway_cost(model: CostModel, n: int, n_cuts: int) -> float:
    """Simulated cost of a multiway partition pass: each of the ``n``
    elements binary-searches the ``c`` cut values (``ceil(log2(c + 1))``
    probe depth) and is moved once."""
    depth = max(1.0, np.ceil(np.log2(max(n_cuts, 1) + 1)))
    return model.compute.partition * max(0, n) * depth
