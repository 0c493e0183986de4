"""Algorithm 2 — Bucket-based selection (paper Section 3.2; Rajasekaran et
al. [17]).

Deterministic like Algorithm 1, but engineered to *avoid load balancing*:

* the estimated median is the **weighted** median of the local medians
  (weights = live counts), which keeps the guaranteed-discard fraction even
  under arbitrary imbalance;
* a one-off preprocessing pass splits each processor's keys into
  ``O(log p)`` value-ordered buckets, after which both per-iteration chores
  (find the local median; partition around the broadcast pivot) only touch
  one bucket plus ``O(log log p)`` boundary probes instead of scanning all
  live keys.

The iterate-shrink-endgame skeleton lives in
:mod:`repro.selection.engine`; this module contributes the pivot rule
(:class:`BucketStrategy`: weighted median of (median, count) pairs) and the
bucketed live-set preprocessing.

Worst-case time (paper Table 2, no balancing):
``O(n/p (log log p + log n / log p) + tau log p log n + mu p log n)``.
"""

from __future__ import annotations

import numpy as np

from ..kernels.buckets import default_n_buckets
from ..kernels.select import median_rank
from .engine import BucketLive, PivotProposal, PivotStrategy

__all__ = ["BucketStrategy"]


class BucketStrategy(PivotStrategy):
    """Steps 1-3: local median through the bucket walk, Gather of
    (median, live-count) pairs, P0 takes the *weighted* median, Broadcast.

    The live set is the bucket structure itself (Step 0 preprocessing);
    partitioning and discarding touch only straddling buckets. Never
    load-balanced.
    """

    name = "bucket_based"

    def _start(self) -> None:
        self.rng = np.random.default_rng((self.cfg.seed, self.ctx.rank, 0xB0))

    def make_live(self, arr: np.ndarray) -> BucketLive:
        # Step 0: preprocess the local keys into O(log p) ordered buckets.
        return BucketLive(
            self.K.build_buckets(arr, default_n_buckets(self.ctx.size))
        )

    def propose(self, interval) -> PivotProposal:
        ctx, K, cfg = self.ctx, self.K, self.cfg
        ni = interval.live.count

        # Step 1: local median through the bucket walk (binary search for
        # the bucket + in-bucket sequential selection).
        if ni:
            local_med, scan = interval.live.buckets.kth(median_rank(ni))
            K.charge_scan_evidence(scan, select_method=cfg.sequential_method)
        else:
            local_med = None

        # Steps 2-3: gather (median, live-count) pairs; P0 takes the
        # *weighted* median; broadcast.
        pairs = ctx.comm.gather((local_med, ni), root=0)
        if ctx.rank == 0:
            vals = np.array([v for v, c in pairs if v is not None])
            wts = np.array(
                [c for v, c in pairs if v is not None], dtype=np.float64
            )
            wm = K.weighted_median(vals, wts)
        else:
            wm = None
        return PivotProposal(ctx.comm.broadcast(wm, root=0))

    @property
    def endgame_rng(self) -> np.random.Generator:
        return self.rng
