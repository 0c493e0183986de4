"""Mergeable per-rank quantile sketch: a deterministic ε-approximate rank
summary with *guaranteed* bracketing bounds.

The streaming subsystem needs one small object per processor that (a) can
be built incrementally as batches arrive (``update``), (b) combines across
processors in ONE Global Concatenate (``merge`` is associative and
commutative up to rank bounds), and (c) localises any global rank ``k`` to
a narrow key interval (``rank_bounds``) that *provably* contains the key of
rank ``k`` — the guarantee the sketch-accelerated exact refinement of
:mod:`repro.stream.refine` relies on.

Representation (GK/KLL-flavoured, deterministic): a sorted array of stored
``keys`` where every stored key carries integer bounds ``rmin``/``rmax``
satisfying two invariants over the summarised multiset ``M``:

* **INV1**: ``#{y in M : y <= keys[i]} >= rmin[i]``
* **INV2**: ``#{y in M : y <  keys[i]} <= rmax[i] - 1``

Construction from a batch stores every ``floor(2*eps*n)``-th order
statistic with its *exact* rank (one ``np.partition`` pass, no full sort),
so both invariants start tight. Merging shifts each side's bounds by the
other side's guaranteed below-counts (bounds add, so absolute rank
uncertainty is additive along any merge tree — no ``log p`` blow-up), and
a GK-style compaction then prunes stored keys so adjacent survivors span
at most ``2*eps*count`` rank positions. Compaction only *drops* stored
keys; it never loosens the invariants, which is why the bracketing
guarantee survives arbitrary update/merge/compress interleavings.

For a query rank ``k``, ``rank_bounds(k)`` returns the stored-key interval
``[lo, hi]`` with ``rmax(lo) <= k`` (so the k-th smallest is ``>= lo`` by
INV2) and ``rmin(hi) >= k`` (so it is ``<= hi`` by INV1). The number of
true keys strictly inside the interval is ``O(eps * count)`` — the
survivor fraction the refinement pre-filter enjoys.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import ConfigurationError

__all__ = ["QuantileSketch", "merge_all"]


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not (0.0 < eps <= 0.5):
        raise ConfigurationError(
            f"sketch eps must be in (0, 0.5], got {eps!r}"
        )
    return eps


class QuantileSketch:
    """A mergeable ε-approximate rank summary of a numeric multiset.

    Parameters
    ----------
    eps:
        Target relative rank error. Stored size is ``O(1/eps)`` after
        compaction; ``rank_bounds`` intervals span ``O(eps * count)`` rank
        positions (duplicates of the boundary keys excepted).

    The class is a value object: :meth:`merge` returns a new sketch;
    :meth:`update` mutates in place (ingest convenience). Sketches are
    picklable and cross execution-backend boundaries as collective
    payloads; :meth:`__sim_words__` reports their simulated payload size
    to the collective cost model.
    """

    __slots__ = ("eps", "count", "keys", "rmin", "rmax")

    def __init__(
        self,
        eps: float = 0.01,
        keys: np.ndarray | None = None,
        rmin: np.ndarray | None = None,
        rmax: np.ndarray | None = None,
        count: int = 0,
    ):
        self.eps = _check_eps(eps)
        self.count = int(count)
        if keys is None:
            keys = np.empty(0)
            rmin = np.empty(0, dtype=np.int64)
            rmax = np.empty(0, dtype=np.int64)
        self.keys = np.asarray(keys)
        self.rmin = np.asarray(rmin, dtype=np.int64)
        self.rmax = np.asarray(rmax, dtype=np.int64)

    # ------------------------------------------------------------ building

    @classmethod
    def from_array(cls, arr: np.ndarray, eps: float = 0.01) -> "QuantileSketch":
        """Summarise one batch: every ``floor(2*eps*n)``-th order statistic
        with its exact rank (single ``np.partition`` pass, no full sort)."""
        eps = _check_eps(eps)
        arr = np.asarray(arr).ravel()
        n = int(arr.size)
        if n == 0:
            return cls(eps)
        step = max(1, int(2.0 * eps * n))
        pos = np.arange(0, n, step, dtype=np.int64)
        if pos[-1] != n - 1:
            pos = np.append(pos, n - 1)
        placed = np.partition(arr, pos)
        # Ranks are exact at construction: rmin == rmax == position + 1.
        return cls(eps, placed[pos], pos + 1, pos + 1, n)

    @classmethod
    def build_cost(cls, model, n: int, eps: float) -> float:
        """Simulated seconds of :meth:`from_array` over ``n`` keys: a
        multi-rank introselect placing ``~1/(2*eps)`` order statistics."""
        from ..kernels.select import multi_select_cost

        if n <= 0:
            return 0.0
        n_keep = max(1, int(np.ceil(n / max(1, int(2.0 * eps * n)))))
        return multi_select_cost(model, n, n_keep, "introselect")

    def update(self, batch: np.ndarray) -> "QuantileSketch":
        """Absorb one batch in place (ingest path); returns ``self``."""
        merged = self.merge(QuantileSketch.from_array(batch, self.eps))
        self.count = merged.count
        self.keys = merged.keys
        self.rmin = merged.rmin
        self.rmax = merged.rmax
        return self

    # ------------------------------------------------------------- merging

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Combine two summaries (associative/commutative up to bounds).

        Each side's bounds are shifted by the other side's guaranteed
        counts below each key, so INV1/INV2 hold over the union; rank
        uncertainties add (never multiply), whatever the merge tree.
        """
        if not isinstance(other, QuantileSketch):
            raise ConfigurationError(
                f"can only merge QuantileSketch, got {type(other).__name__}"
            )
        eps = min(self.eps, other.eps)
        if other.count == 0:
            return QuantileSketch(
                eps, self.keys.copy(), self.rmin.copy(), self.rmax.copy(),
                self.count,
            )
        if self.count == 0:
            return QuantileSketch(
                eps, other.keys.copy(), other.rmin.copy(), other.rmax.copy(),
                other.count,
            )

        def shifted(a: "QuantileSketch", b: "QuantileSketch"):
            # Lower bound on #{y in b : y <= x}: the largest stored b-key
            # <= x proves at least its own rmin keys sit at or below it.
            right = np.searchsorted(b.keys, a.keys, side="right")
            lb = np.where(right > 0, b.rmin[np.maximum(right - 1, 0)], 0)
            # Upper bound on #{y in b : y < x}: the smallest stored b-key
            # >= x caps the strict below-count at its rmax - 1.
            left = np.searchsorted(b.keys, a.keys, side="left")
            ub = np.where(
                left < b.keys.size,
                b.rmax[np.minimum(left, max(b.keys.size - 1, 0))] - 1,
                b.count,
            )
            return a.rmin + lb, a.rmax + ub

        rmin_a, rmax_a = shifted(self, other)
        rmin_b, rmax_b = shifted(other, self)
        keys = np.concatenate([self.keys, other.keys])
        rmin = np.concatenate([rmin_a, rmin_b])
        rmax = np.concatenate([rmax_a, rmax_b])
        order = np.argsort(keys, kind="stable")
        out = QuantileSketch(
            eps, keys[order], rmin[order], rmax[order],
            self.count + other.count,
        )
        out._tighten()
        out._compress()
        return out

    def _tighten(self) -> None:
        """Monotonise bounds (valid: value-count invariants are monotone in
        the key) so rank queries can binary-search them."""
        if self.keys.size == 0:
            return
        self.rmin = np.maximum.accumulate(self.rmin)
        self.rmax = np.minimum.accumulate(self.rmax[::-1])[::-1]

    def _compress(self) -> None:
        """GK-style compaction: keep the fewest stored keys such that any
        adjacent pair spans at most ``2*eps*count`` rank positions (plus
        whatever slack the data's own duplicates force). Only drops stored
        keys — INV1/INV2 are untouched."""
        m = self.keys.size
        if m <= 2:
            return
        bound = max(1, int(2.0 * self.eps * self.count))
        # The greedy scan reads two bounds per key; reading and subtracting
        # Python ints costs a fraction of the same work on NumPy scalars.
        # Counts are far below 2**63, so both give the same differences.
        rmin, rmax = self.rmin.tolist(), self.rmax.tolist()
        keep = [0]
        last = 0
        for i in range(1, m - 1):
            if rmax[i + 1] - rmin[last] > bound:
                keep.append(i)
                last = i
        keep.append(m - 1)
        idx = np.asarray(keep, dtype=np.int64)
        self.keys = self.keys[idx]
        self.rmin = self.rmin[idx]
        self.rmax = self.rmax[idx]

    # ------------------------------------------------------------- queries

    def rank_bounds(self, k: int) -> tuple:
        """Keys ``(lo, hi)`` guaranteed to bracket the k-th smallest.

        ``lo`` is the largest stored key proven to sit at or before rank
        ``k`` (INV2), ``hi`` the smallest proven to sit at or after it
        (INV1); the sketch always stores the exact min and max, so the
        bracket always exists.
        """
        k = int(k)
        if not (1 <= k <= self.count):
            raise ConfigurationError(
                f"rank k={k} out of range [1, {self.count}]"
            )
        # rmax/rmin are nondecreasing after _tighten.
        i = int(np.searchsorted(self.rmax, k, side="right")) - 1
        lo = self.keys[i] if i >= 0 else self.keys[0]
        j = int(np.searchsorted(self.rmin, k, side="left"))
        hi = self.keys[j] if j < self.keys.size else self.keys[-1]
        return lo, hi

    def rank_of(self, key) -> tuple[int, int]:
        """Guaranteed bounds on ``#{y <= key}`` (diagnostics/tests).

        Lower: the largest stored key ``<= key`` proves at least its own
        ``rmin`` values at or below it. Upper: the smallest stored key
        *strictly greater* than ``key`` caps ``#{y <= key}`` at its
        ``rmax - 1`` (``side="left"`` would pick ``key`` itself when it is
        stored and under-count its compacted duplicates).
        """
        right = int(np.searchsorted(self.keys, key, side="right"))
        lower = int(self.rmin[right - 1]) if right > 0 else 0
        upper = (
            int(self.rmax[right] - 1) if right < self.keys.size
            else self.count
        )
        return lower, max(lower, upper)

    def quantile(self, q: float):
        """ε-approximate value at quantile fraction ``q`` in ``(0, 1]``.

        Maps ``q`` to rank ``ceil(q * count)`` (the library's quantile
        convention) and returns the *upper* key of :meth:`rank_bounds` —
        conservative for tail-latency reporting (a p99 read from the
        sketch never understates the true p99 by more than the bracket).
        """
        if not (0.0 < float(q) <= 1.0):
            raise ConfigurationError(f"quantile {q!r} outside (0, 1]")
        if self.count == 0:
            raise ConfigurationError("quantile of an empty sketch")
        k = max(1, int(np.ceil(float(q) * self.count)))
        _lo, hi = self.rank_bounds(k)
        return hi

    # ---------------------------------------------------------- book-keeping

    @property
    def size(self) -> int:
        """Stored keys (the sketch's memory/payload footprint)."""
        return int(self.keys.size)

    def __len__(self) -> int:
        return self.size

    def __sim_words__(self) -> float:
        """Simulated payload words when a sketch rides a collective: three
        stored arrays plus two scalars."""
        words = self.keys.size * self.keys.itemsize / 8.0
        words += self.rmin.size + self.rmax.size  # int64: 1 word each
        return words + 2.0

    def __getstate__(self):
        return (self.eps, self.count, self.keys, self.rmin, self.rmax)

    def __setstate__(self, state):
        self.eps, self.count, self.keys, self.rmin, self.rmax = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(eps={self.eps}, count={self.count}, "
            f"stored={self.size})"
        )


def merge_all(sketches: Iterable[QuantileSketch],
              eps: float | None = None) -> QuantileSketch:
    """Left-fold merge of any number of sketches (deterministic order).

    Every rank of an SPMD launch folds the same Global Concatenate payload
    in the same order, so all ranks hold the identical merged summary.
    """
    merged: QuantileSketch | None = None
    for sk in sketches:
        merged = sk if merged is None else merged.merge(sk)
    if merged is None:
        return QuantileSketch(eps if eps is not None else 0.01)
    return merged
