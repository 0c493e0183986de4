""":class:`StreamingArray` — an appendable, window-aware distributed array.

The batch API answers queries over a *static* block-distributed array; a
serving system ingests continuously. A ``StreamingArray`` is a
:class:`~repro.core.array.DistributedArray` whose content arrives in
batches:

* **Round-robin placement.** ``append(batch)`` deals each new key to rank
  ``(global arrival index) mod p``, so shard sizes stay balanced within one
  key of each other forever — and, crucially, the resulting layout depends
  only on the *concatenated stream*, not on how it was chopped into
  batches: ``append(a); append(b)`` produces bit-identical shards to
  ``append(concat(a, b))`` (the streaming/batch equivalence the tests pin).
* **Incremental fingerprint.** The array's cache identity (what
  :class:`~repro.core.session.Session` keys its result cache on) updates
  in ``O(batch)`` per mutation, never ``O(n)``. Append-only streams feed
  one running SHA-1 per rank with each append's slice, so equal live
  content (however batched) gives equal fingerprints; after the first
  retirement the identity switches to chaining the live batches'
  once-computed digests (a running byte hash cannot drop a retired
  prefix). Every append/retirement changes the fingerprint, so cached
  results are invalidated *precisely*.
* **Windows.** ``window=W`` keeps the most recent ``W`` batches: sliding
  mode retires the oldest batch as each new one arrives, tumbling mode
  clears the whole window when the (W+1)-th batch starts the next one.
  Retirement drops the expired batch's keys from every shard.
* **Ingest-time sketches.** Each batch's per-rank slices are summarised by
  mergeable :class:`~repro.stream.sketch.QuantileSketch` objects on first
  use and cached per batch, so a sketch-prefiltered query
  (``SelectionPlan(prefilter="sketch")``) merges prebuilt summaries
  instead of re-scanning the shards — the append-time work amortises
  across every query of the window.

All query surfaces are inherited: fluent ``select``/``median``/
``quantiles``/``multi_select`` route through the machine's default session
with this array's append-aware fingerprint, and deferred Session futures
answer against the content at flush time.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.array import DistributedArray, Machine, check_ordered_keys
from ..errors import ConfigurationError
from .sketch import QuantileSketch, merge_all

__all__ = ["StreamingArray", "WINDOW_MODES"]

#: Window semantics ``StreamingArray`` understands.
WINDOW_MODES: tuple[str, ...] = ("sliding", "tumbling")


def _advance_chain(prev: list | None, parts: list[np.ndarray]) -> list:
    """Per-rank running SHA-1s (fresh when ``prev`` is None) advanced by
    exactly ``parts``' bytes; ``prev`` itself is left untouched."""
    if prev is None:
        chain = [hashlib.sha1() for _ in parts]
    else:
        chain = [h.copy() for h in prev]
    for hasher, part in zip(chain, parts):
        hasher.update(np.ascontiguousarray(part))
    return chain


class _Batch:
    """One append: per-rank slices + lazily-built sketches and digests."""

    __slots__ = ("batch_id", "parts", "count", "sketches", "_digests", "chain")

    def __init__(self, batch_id: int, parts: list[np.ndarray], count: int,
                 chain: list | None):
        self.batch_id = batch_id
        self.parts = parts
        self.count = count
        self.sketches: dict[float, list[QuantileSketch]] = {}
        self._digests: list[bytes] | None = None
        #: Append-only streams: the per-rank running hashes of the stream
        #: up to and including this batch (the fingerprint unit there).
        self.chain = chain

    def rank_sketches(self, eps: float) -> list[QuantileSketch]:
        """Per-rank sketches of this batch's slices (built once per eps)."""
        cached = self.sketches.get(eps)
        if cached is None:
            cached = [QuantileSketch.from_array(p, eps) for p in self.parts]
            self.sketches[eps] = cached
        return cached

    def rank_digests(self) -> list[bytes]:
        """Per-rank content digests (built once, ``O(batch)``; the
        fingerprint unit of windowed streams)."""
        if self._digests is None:
            self._digests = [
                hashlib.sha1(np.ascontiguousarray(p)).digest()
                for p in self.parts
            ]
        return self._digests

    def forget_derived(self) -> None:
        """Drop cached sketches/digests (parts were mutated in place)."""
        self.sketches.clear()
        self._digests = None


class StreamingArray(DistributedArray):
    """An appendable :class:`DistributedArray` with windowed retirement.

    Parameters
    ----------
    machine:
        The machine the stream lives on.
    dtype:
        Key dtype; fixed by the first append when omitted. Later batches
        must cast safely to it.
    window:
        Number of most-recent batches retained (``None`` = unbounded).
    window_mode:
        ``"sliding"`` (retire the oldest batch per append once full) or
        ``"tumbling"`` (clear the window when a new one starts).
    """

    def __init__(
        self,
        machine: Machine,
        dtype=None,
        window: int | None = None,
        window_mode: str = "sliding",
    ):
        if window is not None and (not isinstance(window, int)
                                   or isinstance(window, bool) or window < 1):
            raise ConfigurationError(
                f"window must be a positive int or None, got {window!r}"
            )
        if window_mode not in WINDOW_MODES:
            raise ConfigurationError(
                f"unknown window_mode {window_mode!r}; "
                f"available: {sorted(WINDOW_MODES)}"
            )
        self.machine = machine
        self.window = window
        self.window_mode = window_mode
        self._dtype = np.dtype(dtype) if dtype is not None else None
        self._batches: list[_Batch] = []
        #: Total keys ever appended (the round-robin dealing position —
        #: survives retirement so layout stays a pure function of the
        #: arrival stream).
        self.appended_total = 0
        self.batches_appended = 0
        self.batches_retired = 0
        #: Monotone mutation counter (append or retirement).
        self.generation = 0
        self._next_batch_id = 0
        #: Set by the first retirement: the fingerprint then chains live
        #: per-batch digests instead of the running per-rank byte hashes
        #: (see :attr:`fingerprint`).
        self._windowed = False
        #: Derived views of the live window (shards, fingerprint, sketches
        #: per eps), each stored as ``(generation, value)``.
        self._memo: dict = {}

    # ------------------------------------------------------------- ingest

    def append(self, batch) -> int:
        """Ingest one batch; returns its batch id.

        Keys are dealt round-robin by global arrival index, the per-rank
        hash chain advances by exactly this batch's bytes, and window
        retirement runs according to ``window_mode``.
        """
        batch = np.asarray(batch)
        if batch.ndim != 1:
            raise ConfigurationError(
                f"append expects a 1-D batch, got ndim={batch.ndim}"
            )
        check_ordered_keys(batch)
        if self._dtype is None:
            self._dtype = batch.dtype
        elif batch.dtype != self._dtype:
            if not np.can_cast(batch.dtype, self._dtype, casting="safe"):
                raise ConfigurationError(
                    f"batch dtype {batch.dtype} does not cast safely to "
                    f"stream dtype {self._dtype}"
                )
            batch = batch.astype(self._dtype)
        if (self.window is not None and self.window_mode == "tumbling"
                and len(self._batches) >= self.window):
            # The window is full: this batch starts the next window.
            while self._batches:
                self._retire_oldest()
        p = self.machine.n_procs
        base = self.appended_total
        parts = [batch[(r - base) % p:: p].copy() for r in range(p)]
        chain: list | None = None
        if not self._windowed:
            # The previous batch's per-rank hash chains advanced by exactly
            # this batch's bytes, carried on the batch so the fingerprint
            # derives from the batch list alone. Once a retirement has
            # switched the array to digest-chain mode, the batch digest is
            # the fingerprint unit instead.
            prev = self._batches[-1].chain if self._batches else None
            chain = _advance_chain(prev, parts)
        bid = self._next_batch_id
        self._next_batch_id += 1
        self._batches.append(_Batch(bid, parts, int(batch.size), chain))
        self.appended_total += int(batch.size)
        self.batches_appended += 1
        self._bump()
        if self.window is not None and self.window_mode == "sliding":
            while len(self._batches) > self.window:
                self._retire_oldest()
        return bid

    def retire(self, batch_id: int) -> None:
        """Explicitly expire one live batch (manual retention policies)."""
        for i, b in enumerate(self._batches):
            if b.batch_id == batch_id:
                del self._batches[i]
                self._mark_retired()
                return
        raise ConfigurationError(
            f"batch {batch_id} is not live; live ids: {self.live_batch_ids}"
        )

    def _retire_oldest(self) -> None:
        self._batches.pop(0)
        self._mark_retired()

    def _mark_retired(self) -> None:
        """Switch (permanently) to digest-chain fingerprints: a running
        byte hash cannot drop a retired prefix, and rebuilding it per
        retirement would cost ``O(window)`` on every steady-state append.
        Chaining the live batches' once-computed digests keeps retirement
        ``O(live batches)``; batch-boundary invariance only ever held
        before the first retirement anyway (retirement changes how a fresh
        stream of the same content would have been dealt)."""
        self.batches_retired += 1
        self._windowed = True
        self._bump()

    def _bump(self) -> None:
        self.generation += 1
        self._memo.clear()

    def _live(self) -> list[_Batch]:
        """A snapshot of the live batch list (appends and retirements
        mutate the list in place, so a reader must not iterate it)."""
        return list(self._batches)

    def _derived(self, key, build):
        """The memoised view ``key`` of the live window.

        A flush thread may read the stream while another thread appends,
        so the generation is read *before* the batch snapshot is taken and
        the view is stored only if no mutation happened meanwhile. A view
        built from a window that has since moved is still returned to its
        caller (it is a consistent past state) but never memoised, and a
        memo is served only to readers of the generation that built it.
        """
        gen = self.generation
        hit = self._memo.get(key)
        if hit is not None and hit[0] == gen:
            return hit[1]
        value = build(self._live())
        if self.generation == gen:
            self._memo[key] = (gen, value)
        return value

    # ------------------------------------------------------------ identity

    @property
    def fingerprint(self) -> str:
        """Append-aware cache identity, ``O(batch)`` per mutation.

        Append-only streams hash the per-rank byte streams, so equal live
        content gives equal fingerprints regardless of how it was chopped
        into batches. After the first retirement the identity chains the
        live batches' digests instead (computed once per batch); every
        mutation — append or retirement — changes the fingerprint, which
        is what makes Session cache invalidation precise.
        """
        return self._derived("fingerprint", self._build_fingerprint)

    def _build_fingerprint(self, batches: list[_Batch]) -> str:
        h = hashlib.sha1()
        h.update(f"stream:{self.machine.n_procs}:{self._dtype}".encode())
        if self._windowed:
            h.update(b"windowed")
            for b in batches:
                for digest in b.rank_digests():
                    h.update(digest)
        else:
            last = batches[-1].chain if batches else None
            if last is None:
                last = [hashlib.sha1() for _ in range(self.machine.n_procs)]
            for hasher in last:
                h.update(hasher.digest())
        return h.hexdigest()

    def invalidate(self) -> None:
        """Forget memoised identity/layout/summary state (defensive parity
        with :meth:`DistributedArray.invalidate` for callers that mutated
        batch contents in place; normal mutation paths need only
        :meth:`_bump`)."""
        prev: list | None = None
        for b in self._batches:
            b.forget_derived()
            if not self._windowed:
                b.chain = prev = _advance_chain(prev, b.parts)
        self._bump()

    # -------------------------------------------------------------- layout

    @property
    def shards(self) -> list[np.ndarray]:
        """The live window materialised per rank (cached until mutation)."""
        return self._derived("shards", self._build_shards)

    def _build_shards(self, batches: list[_Batch]) -> list[np.ndarray]:
        p = self.machine.n_procs
        dtype = self._dtype if self._dtype is not None else np.float64
        per_rank: list[list[np.ndarray]] = [[] for _ in range(p)]
        for b in batches:
            for r in range(p):
                if b.parts[r].size:
                    per_rank[r].append(b.parts[r])
        return [
            np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
            for parts in per_rank
        ]

    @property
    def live_batch_ids(self) -> list[int]:
        return [b.batch_id for b in self._batches]

    @property
    def live_batches(self) -> int:
        return len(self._batches)

    # ------------------------------------------------------------ sketches

    def local_sketches(self, eps: float) -> list[QuantileSketch]:
        """Per-rank sketches of the live window at accuracy ``eps``.

        Built by merging the cached per-batch sketches in arrival order
        (deterministic), memoised until the next append/retirement. This
        is the ingest-time amortisation the sketch-prefiltered query path
        rides: no query-launch work is spent summarising the shards.
        """
        eps = float(eps)

        def build(batches: list[_Batch]) -> list[QuantileSketch]:
            per_batch = [b.rank_sketches(eps) for b in batches]
            return [
                merge_all((ranks[r] for ranks in per_batch), eps=eps)
                for r in range(self.machine.n_procs)
            ]

        return self._derived(("sketches", eps), build)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingArray(n={self.n}, p={self.p}, "
            f"batches={self.live_batches}, window={self.window}, "
            f"mode={self.window_mode}, generation={self.generation})"
        )
