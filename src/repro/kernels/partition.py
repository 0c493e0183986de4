"""Vectorised partition kernels (Step 4/5 of every selection algorithm).

The paper's pseudocode partitions local lists into ``<= pivot`` / ``> pivot``.
That 2-way scheme livelocks when all surviving keys equal the pivot, so the
library's algorithms use the 3-way split (``<``, ``==``, ``>``) and terminate
the moment the target rank lands in the ``==`` band (DESIGN.md deviation #1).
Both kernels are provided; the 2-way one is kept for the ablation bench that
demonstrates the livelock on duplicate-heavy inputs.

The 3-way split is one operation whether it runs around a pivot (Steps 4/5)
or a sample bracket (Algorithm 4's Step 5): :class:`Partition3` counts its
sides up front and gathers each one on first read, so a caller that keeps
one side pays for one gather. The multiway split (:class:`MultiwaySplit`)
works the same way over its ``2c + 1`` segments.

All kernels are single NumPy passes (boolean masks) per the hpc-parallel
guide: no Python-level loops over elements.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..machine.cost_model import CostModel

__all__ = [
    "MultiwaySplit",
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


class Partition3:
    """A 3-way split of ``arr`` around the band ``[lo, hi]``: ``lt``
    (``< lo``), ``eq`` (``lo <= x <= hi``) and ``gt`` (``> hi``).

    The two comparison masks and the three counts are computed up front;
    each side is gathered on first read and then kept, so a caller that
    classifies by the counts and keeps one side pays for one gather. Every
    side keeps ``arr``'s element order, which a positional pivot draw can
    see. A key that compares false both ways (NaN) counts as ``eq``.
    """

    __slots__ = ("_arr", "_lt_mask", "_gt_mask", "_lt", "_eq", "_gt",
                 "n_lt", "n_eq", "n_gt")

    def __init__(self, arr: np.ndarray, lo, hi):
        self._arr = arr
        self._lt_mask = arr < lo
        self._gt_mask = arr > hi
        self.n_lt = int(np.count_nonzero(self._lt_mask))
        self.n_gt = int(np.count_nonzero(self._gt_mask))
        self.n_eq = int(arr.size) - self.n_lt - self.n_gt
        self._lt = self._eq = self._gt = None

    # np.compress (nonzero + take) beats boolean indexing on unpredictable
    # masks and returns the same elements in the same order.
    @property
    def lt(self) -> np.ndarray:
        if self._lt is None:
            self._lt = np.compress(self._lt_mask, self._arr)
        return self._lt

    @property
    def eq(self) -> np.ndarray:
        if self._eq is None:
            self._eq = np.compress(~(self._lt_mask | self._gt_mask), self._arr)
        return self._eq

    @property
    def gt(self) -> np.ndarray:
        if self._gt is None:
            self._gt = np.compress(self._gt_mask, self._arr)
        return self._gt


def partition2(arr: np.ndarray, pivot) -> Partition2:
    """Split ``arr`` into (``<= pivot``, ``> pivot``) — the paper's Step 4."""
    mask = arr <= pivot
    return Partition2(le=arr[mask], gt=arr[~mask])


def partition3(arr: np.ndarray, pivot) -> Partition3:
    """Split ``arr`` into (``< pivot``, ``== pivot``, ``> pivot``): the
    band split with ``lo == hi == pivot``."""
    return Partition3(arr, pivot, pivot)


def count3(arr: np.ndarray, pivot) -> tuple[int, int, int]:
    """Counts of (``<``, ``==``, ``>``) without materialising the splits."""
    lt = int(np.count_nonzero(arr < pivot))
    gt = int(np.count_nonzero(arr > pivot))
    return lt, int(arr.size - lt - gt), gt


def partition_band(arr: np.ndarray, lo, hi) -> Partition3:
    """Split ``arr`` into (``< lo``, ``[lo, hi]``, ``> hi``) — Step 5 of the
    fast randomized algorithm (Algorithm 4)."""
    return Partition3(arr, lo, hi)


def partition_cost(model: CostModel, n: int) -> float:
    """Simulated cost of one partition pass over ``n`` local elements."""
    return model.compute.partition * max(0, n)


#: Up to this many cuts, segment labels come from ``2c`` branch-free
#: vectorised compares (``O(nc)``); above it, from a ``searchsorted`` pair
#: (``O(n log c)``).
_COMPARE_MAX_CUTS = 16


class MultiwaySplit:
    """The ``2c + 1`` segments of ``arr`` split at ``c`` sorted cuts.

    Behaves as a sequence of arrays (``len``, iteration, integer indexing)
    and holds every segment's size in ``counts`` (int64), computed up
    front. A segment is gathered on first read and then kept, so a caller
    pays only for the segments it keeps; naming them all in one
    :meth:`take` gathers them in one pass. A segment keeps ``arr``'s dtype
    and element order.

    One cut keeps the two comparison masks, as :class:`Partition3` does;
    more cuts keep one small unsigned label per key (see
    :func:`partition_multiway`), and segment ``j`` is the keys labelled
    ``j``.
    """

    __slots__ = ("_arr", "_labels", "_segs", "counts")

    def __init__(self, arr: np.ndarray, cuts: np.ndarray, nan_cut: bool):
        self._arr = arr
        self._segs: dict[int, np.ndarray] = {}
        # Every key's segment label or, with one cut, the masks
        # (< cut, <= cut).
        self._labels: np.ndarray | tuple[np.ndarray, np.ndarray]
        if cuts.size == 1 and not nan_cut:
            lt, le = arr < cuts[0], arr <= cuts[0]
            n_lt, n_le = np.count_nonzero(lt), np.count_nonzero(le)
            self._labels = (lt, le)
            self.counts = np.array([n_lt, n_le - n_lt, arr.size - n_le],
                                   dtype=np.int64)
        else:
            self._labels, self.counts = _segment_labels(arr, cuts, nan_cut)

    def __len__(self) -> int:
        return int(self.counts.size)

    def __getitem__(self, j: int) -> np.ndarray:
        return self.take([j])[0]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.take(range(len(self))))

    def take(self, js: Iterable[int]) -> list[np.ndarray]:
        """Segments ``js``, in the order given; the unread ones are
        gathered together in one pass over ``arr``."""
        js = [range(len(self))[j] for j in js]  # negative indices, IndexError
        unread = sorted(set(js) - self._segs.keys())
        if unread:
            self._gather(unread)
        return [self._segs[j] for j in js]

    def _gather(self, js: list[int]) -> None:
        # np.compress (nonzero + take) beats boolean indexing on
        # unpredictable masks.
        arr, labels = self._arr, self._labels
        if isinstance(labels, tuple):
            lt, le = labels
            for j in js:
                mask = lt if j == 0 else le & ~lt if j == 1 else ~le
                self._segs[j] = np.compress(mask, arr)
            return
        if len(js) == 1:
            self._segs[js[0]] = np.compress(labels == js[0], arr)
            return
        drop = 2 * int(self.counts[js].sum()) < arr.size
        if drop:
            # Most keys lie in other segments: drop them before grouping.
            keep = np.zeros(len(self), dtype=bool)
            keep[js] = True
            mask = keep.take(labels)
            arr, labels = np.compress(mask, arr), np.compress(mask, labels)
        groups = js if drop else range(len(self))
        # A stable argsort of small unsigned labels is a radix sort, and
        # keeps each segment's keys in their original order.
        grouped = arr.take(np.argsort(labels, kind="stable"))
        ends = dict(zip(groups, np.cumsum(self.counts[groups]).tolist()))
        for j in js:
            self._segs[j] = grouped[ends[j] - int(self.counts[j]): ends[j]]


def partition_multiway(arr: np.ndarray, cuts) -> MultiwaySplit:
    """Split ``arr`` at ``c`` sorted cut values into ``2c + 1`` segments.

    Segments alternate open ranges and equality bands, in value order::

        (< cuts[0]), (== cuts[0]), (cuts[0], cuts[1]), (== cuts[1]), ...,
        (> cuts[-1])

    With ``c == 1`` this is exactly :func:`partition3`, except that a NaN
    key lands last (``> cuts[-1]``) for any ``c``. The multi-rank
    contraction engine uses it to fork the live set at *several* pivots in
    a single pass (one iteration of single-pass multi-rank selection
    instead of one pass per pivot).

    Returns a :class:`MultiwaySplit`: the segment counts now, each
    segment's keys on first read. Host cost up front is linear in ``arr``:
    each key gets its segment index in the smallest unsigned dtype that
    holds ``2c``, from ``2c`` vectorised compares (whose counts give the
    segment counts) up to 16 cuts or a ``searchsorted`` pair and a
    ``bincount`` above. Reading one segment gathers the keys with its
    label. Reading several in one :meth:`MultiwaySplit.take` drops the
    other keys (unless they are fewer than half) and groups the rest with
    a stable argsort of their labels, a radix sort that keeps each
    segment's keys in their original order. One cut needs no labels: two
    masks give the counts and the three gathers.
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
    # A NaN cut sorts last for searchsorted but compares false, so only
    # the searchsorted labels reproduce its segments.
    nan_cut = cuts.dtype.kind in "fc" and bool(np.isnan(cuts).any())
    return MultiwaySplit(arr, cuts, nan_cut)


def _segment_labels(arr: np.ndarray, cuts: np.ndarray,
                    nan_cut: bool) -> tuple[np.ndarray, np.ndarray]:
    """``#(cuts < x) + #(cuts <= x)`` for every key ``x``, and the int64
    count of each label. An element strictly between cuts j-1 and j gets
    2j, one equal to ``cuts[j]`` gets 2j + 1, and a NaN key gets ``2c``
    (last), as ``searchsorted`` places it."""
    n_segs = 2 * cuts.size + 1
    dtype = np.min_scalar_type(2 * cuts.size)
    if cuts.size > _COMPARE_MAX_CUTS or nan_cut:
        seg = (
            np.searchsorted(cuts, arr, side="left")
            + np.searchsorted(cuts, arr, side="right")
        ).astype(dtype)
        return seg, np.bincount(seg, minlength=n_segs).astype(np.int64)
    # Count down from 2c: a NaN key fails every compare and stays last.
    # Each compare's count is where a segment ends: #(x < cuts[j]) ends
    # segment 2j and #(x <= cuts[j]) ends segment 2j + 1.
    seg = np.full(arr.shape, 2 * cuts.size, dtype=dtype)
    hit = np.empty(arr.shape, dtype=bool)
    ends = np.full(n_segs, arr.size, dtype=np.int64)
    for j, cut in enumerate(cuts):
        seg -= np.less_equal(arr, cut, out=hit).view(np.uint8)
        ends[2 * j + 1] = np.count_nonzero(hit)
        seg -= np.less(arr, cut, out=hit).view(np.uint8)
        ends[2 * j] = np.count_nonzero(hit)
    return seg, np.diff(ends, prepend=0)


def partition_multiway_cost(model: CostModel, n: int, n_cuts: int) -> float:
    """Simulated cost of a multiway partition pass: each of the ``n``
    elements binary-searches the ``c`` cut values (``ceil(log2(c + 1))``
    probe depth) and is moved once. This prices the paper's full pass,
    whichever segments of the :class:`MultiwaySplit` the host gathers."""
    depth = max(1.0, np.ceil(np.log2(max(n_cuts, 1) + 1)))
    return model.compute.partition * max(0, n) * depth
