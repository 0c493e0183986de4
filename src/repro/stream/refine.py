"""Sketch-accelerated **exact** selection: pre-filter, then contract.

The paper's contraction engine spends most of its simulated time in the
early iterations, when the live set is still the whole input — every
iteration is a full partition pass plus a round of collectives. A mergeable
quantile sketch can localise any target rank to a narrow key interval in
O(1) communication rounds (Saukas–Song-style localisation; cf. the sample
-based splitter selection of parallel multiselection by regular sampling),
after which the exact engine only grinds the tiny surviving fraction.

The launch runs in four steps, all inside ONE SPMD program so the serving
layer's one-launch accounting is untouched:

1. **Summarise.** Each rank sketches its shard
   (:meth:`QuantileSketch.from_array`, charged as a multi-rank
   introselect), unless the array is a
   :class:`~repro.stream.stream.StreamingArray` carrying prebuilt
   ingest-time sketches.
2. **Merge.** ONE Global Concatenate ships every rank's sketch everywhere;
   each rank folds them in rank order, so all ranks hold the identical
   merged summary (the sketch sizes its own payload via ``__sim_words__``).
3. **Pre-filter.** ``rank_bounds(k)`` per target, overlapping intervals
   merged; one cheap local pass over the shard (band passes for few
   intervals, a multiway partition at every distinct boundary for many)
   plus ONE Combine yields the exact global interval counts, which both
   *verify* the sketch bounds and re-base every target rank onto the
   survivor multiset. If any verification fails (never expected — the
   bounds are guaranteed — but kept as a safety valve), every rank
   deterministically falls back to the full input.
4. **Refine.** The *existing* engine — the same pivot strategies, the same
   RNG construction, the same endgame — runs on the survivors with the
   re-based ranks. Selection is exact, so the answers are bit-identical to
   a plain ``select``/``multi_select`` over the full array; the pre-filter
   only removed keys that provably cannot hold any target rank.

``execute_sketch_multi_select`` mirrors the launch primitive of
:mod:`repro.core.session` (one target rank or many) and is what
``SelectionPlan(prefilter="sketch")`` routes to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.plan import validate_targets
from ..core.reports import MultiSelectionReport, PrefilterStats
from ..kernels.costed import CostedKernels
from .sketch import QuantileSketch, merge_all

if TYPE_CHECKING:
    from ..core.array import DistributedArray
    from ..core.plan import SelectionPlan

__all__ = [
    "execute_sketch_multi_select",
    "candidate_intervals",
]


# --------------------------------------------------------------------------
# In-launch helpers (run on every rank)
# --------------------------------------------------------------------------


def _local_sketch(ctx, K: CostedKernels, shard: np.ndarray, eps: float,
                  prebuilt: QuantileSketch | None) -> QuantileSketch:
    """This rank's summary: prebuilt (ingest-amortised) or built now."""
    if prebuilt is not None:
        return prebuilt
    ctx.charge_compute(QuantileSketch.build_cost(ctx.model, shard.size, eps))
    return QuantileSketch.from_array(shard, eps)


def _merged_sketch(ctx, K: CostedKernels,
                   local: QuantileSketch, eps: float) -> QuantileSketch:
    """All ranks' sketches combined in ONE Global Concatenate, folded in
    rank order so every rank holds the identical merged summary."""
    parts = ctx.comm.global_concat(local)
    K.scan_pass(sum(sk.size for sk in parts))
    return merge_all(parts, eps=eps)


def candidate_intervals(
    sketch: QuantileSketch, ks: Sequence[int]
) -> list[tuple[object, object, list[int]]]:
    """Disjoint candidate key intervals covering every target rank.

    One ``rank_bounds`` bracket per target, overlapping/touching brackets
    merged (``rank_bounds`` is monotone in ``k``, so one ascending sweep
    suffices; ``ks`` is sorted here so the downstream offset-based rank
    re-basing can rely on value-ordered disjoint intervals). Returns
    ``[(lo, hi, targets), ...]`` in key order.
    """
    intervals: list[list] = []
    for k in sorted(int(k) for k in ks):
        lo, hi = sketch.rank_bounds(k)
        if intervals and lo <= intervals[-1][1]:
            intervals[-1][1] = max(intervals[-1][1], hi)
            intervals[-1][2].append(k)
        else:
            intervals.append([lo, hi, [k]])
    return [(lo, hi, targets) for lo, hi, targets in intervals]


def _prefilter(ctx, K: CostedKernels, shard: np.ndarray,
               intervals: list) -> tuple:
    """Exact pre-filter: survivors + re-based ranks, or ``None`` to fall
    back.

    One local pass over the shard — a partition-band pass per interval
    when there are at most two (one full scan each beats the multiway
    pass's binary-search depth), a single multiway partition at every
    distinct interval boundary otherwise — plus ONE Combine of the
    per-interval ``(< lo, in-band)`` counts. The exact counts re-base
    every target onto the survivor multiset *and* verify the sketch
    bounds; the fallback decision is a pure function of the global
    counts, hence identical on every rank.
    """
    local_counts: list[int] = []
    survivor_parts: list[np.ndarray] = []
    if len(intervals) <= 2:
        for lo, hi, _targets in intervals:
            parts = K.partition_band(shard, lo, hi)
            local_counts.extend((parts.n_lt, parts.n_eq))
            survivor_parts.append(parts.eq)
    else:
        bounds = [b for lo, hi, _t in intervals for b in (lo, hi)]
        cuts = np.unique(np.asarray(bounds))
        # partition_multiway yields 2c+1 value-ordered segments
        # alternating open ranges with equality bands: segment 2i+1 is
        # ``== cuts[i]``.
        segs = K.partition_multiway(shard, cuts)
        sizes = [s.size for s in segs]
        cum = np.concatenate([[0], np.cumsum(sizes)])
        for lo, hi, _targets in intervals:
            li = int(np.searchsorted(cuts, lo))
            hi_i = int(np.searchsorted(cuts, hi))
            first, last = 2 * li + 1, 2 * hi_i + 1  # ==lo .. ==hi
            local_counts.extend(
                (int(cum[first]), int(cum[last + 1] - cum[first]))
            )
            mids = [s for s in segs[first: last + 1] if s.size]
            survivor_parts.append(
                np.concatenate(mids) if mids else shard[:0]
            )
    totals = ctx.comm.combine(np.asarray(local_counts, dtype=np.int64))
    adjusted: list[int] = []
    offset = 0
    n_surv = 0
    for j, (_lo, _hi, targets) in enumerate(intervals):
        c_less = int(totals[2 * j])
        c_mid = int(totals[2 * j + 1])
        for k in targets:
            rebased = k - c_less
            if not (1 <= rebased <= c_mid):
                return None, None, int(sum(totals[1::2]))
            adjusted.append(offset + rebased)
        offset += c_mid
        n_surv += c_mid
    live = [s for s in survivor_parts if s.size]
    survivors = np.concatenate(live) if live else shard[:0]
    return survivors, adjusted, n_surv


def _rounds_saved(n: int, survivors: int) -> int:
    """Halving estimate of skipped contraction iterations: a pivot round
    roughly halves the live set, so landing directly on the survivor set
    skips ``~log2(n / survivors)`` full-input rounds."""
    if n <= 0 or survivors <= 0 or survivors >= n:
        return 0
    return int(np.floor(np.log2(n / survivors)))


# --------------------------------------------------------------------------
# Launch primitive (mirrors core.session.execute_multi_select)
# --------------------------------------------------------------------------


def _prebuilt_sketches(data: "DistributedArray", eps: float):
    """Ingest-time sketches when the array maintains them, else Nones."""
    sketches = getattr(data, "local_sketches", None)
    if sketches is None:
        return [None] * len(data.shards), False
    return sketches(eps), True


def execute_sketch_multi_select(
    data: "DistributedArray", ks: Sequence[int], plan: "SelectionPlan"
) -> MultiSelectionReport:
    """One sketch-prefiltered launch (exact; values bit-identical to
    :func:`repro.core.session.execute_multi_select`).

    Per-target brackets merge into disjoint candidate intervals; because
    the intervals are value-ordered and disjoint, the survivor multiset's
    sorted order is the intervals in sequence, so each target's re-based
    rank is its in-interval rank plus the sizes of the intervals before it
    — ONE run of the selection program over the union answers everything.
    Validation, the empty-set report, the program and the report assembly
    are shared with the plain path (:mod:`repro.core.session` helpers).
    """
    from ..core import session as core_session

    ks = validate_targets(ks, data.n)
    selection, cfg, balancer_name = plan.resolve()
    if not ks:
        return core_session.empty_multi_report(data, plan, balancer_name)
    unique_ks = sorted(set(ks))
    eps = plan.sketch_eps
    prebuilt, amortised = _prebuilt_sketches(data, eps)

    def program(ctx, shard, local_sk, ks_sorted, config):
        K = CostedKernels(ctx)
        merged = _merged_sketch(
            ctx, K, _local_sketch(ctx, K, shard, eps, local_sk), eps
        )
        intervals = candidate_intervals(merged, ks_sorted)
        survivors, adjusted, n_surv = _prefilter(ctx, K, shard, intervals)
        if survivors is None:
            values, stats = selection(ctx, shard, ks_sorted, config)
            fallback = True
        else:
            values, stats = selection(ctx, survivors, adjusted, config)
            fallback = False
        stats.prefilter = _evidence(
            eps, merged, intervals, n_surv, fallback, amortised
        )
        return values, stats

    result = data.machine.run(
        program,
        rank_args=[(s, sk) for s, sk in zip(data.shards, prebuilt)],
        args=(unique_ks, cfg),
        backend=plan.backend,
        topology=plan.topology,
        trace=plan.trace,
    )
    return core_session.finish_multi(
        data, ks, unique_ks, plan, balancer_name, result
    )


def _evidence(eps, merged, intervals, n_surv, fallback, prebuilt):
    """The :class:`PrefilterStats` one prefiltered launch records."""
    return PrefilterStats(
        eps=eps, sketch_size=merged.size, n=merged.count,
        survivors=merged.count if fallback else n_surv,
        intervals=len(intervals),
        rounds_saved=0 if fallback else _rounds_saved(merged.count, n_surv),
        fallback=fallback, prebuilt=prebuilt,
    )
