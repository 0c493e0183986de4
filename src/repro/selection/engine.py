"""The unified contraction engine behind every selection algorithm.

All four Section-3 algorithms share one skeleton — iterate, shrinking the
set of live keys, until the global count drops below ``p^2`` (or the
algorithm's own floor), then gather-and-finish. Historically each algorithm
module carried its own copy of that loop; this engine owns the skeleton
once, and each algorithm plugs in only the part that actually differs —
*how the next pivot is proposed*:

=========================  ==============================================
``randomized``             shared-RNG random draw (one pivot)
``median_of_medians``      gather local medians, P0 selects their median
``bucket_based``           weighted median of (median, count) pairs
``fast_randomized``        sampled bracket ``[k1, k2]`` (a pivot *band*)
=========================  ==============================================

The engine also generalises the live-set bookkeeping from one target rank
to a **set of ranks** (``repro.multi_select``): when a pivot lands between
two targets, the live set *forks* into independent sub-intervals — each a
smaller selection problem over disjoint keys — all tracked in the same
SPMD launch. The total partitioning work is then ``O((n/p) log q)`` for
``q`` targets instead of ``q`` full contractions, and the endgame costs a
single Gather + Broadcast regardless of how many intervals survive
(Saukas-Song-style contraction, cf. arXiv:1712.00870; the fast randomized
strategy brackets *all* targets of an interval from one sorted sample and
splits multiway in one pass, cf. arXiv:1611.05549).

A single target is the ``q = 1`` case: the same collective sequence per
iteration as the paper's pseudocode boxes (pinned by the
pseudocode-fidelity tests), so one target rank and a whole rank set go
through the same program.

Layout: this module owns the engine, the live-set representations, the
strategy base class and :func:`contract_multi_select`; each algorithm
module owns only its concrete strategy (``randomized.RandomizedStrategy``
etc.), and :class:`repro.selection.SelectionProgram` is the one SPMD
program that picks the strategy by name.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..balance.base import Balancer, NoBalance
from ..errors import ConvergenceError
from ..kernels.buckets import LocalBuckets
from ..kernels.costed import CostedKernels
from ..machine.engine import ProcContext
from .base import (
    IterationRecord,
    SelectionConfig,
    check_rank,
    endgame_threshold,
)

__all__ = [
    "ArrayLive",
    "BucketLive",
    "BandProposal",
    "ContractionEngine",
    "EndgameProposal",
    "MultiCutProposal",
    "MultiSelectionStats",
    "PivotProposal",
    "PivotStrategy",
    "contract_multi_select",
]


# --------------------------------------------------------------- proposals

@dataclass(frozen=True)
class PivotProposal:
    """One pivot value: 3-way partition, keep/fork around the ``==`` band."""

    pivot: object


@dataclass(frozen=True)
class BandProposal:
    """A pivot band ``[lo, hi]`` (fast randomized, single target): keep the
    band when the target is inside, else rescue the near side."""

    lo: object
    hi: object


@dataclass(frozen=True)
class MultiCutProposal:
    """Several strictly-ascending cut values: one multiway partition pass
    forks the interval at every cut (fast randomized, many targets)."""

    cuts: tuple


class EndgameProposal:
    """Strategy cannot make progress (e.g. an empty sample): go straight to
    the endgame with the current live set."""

    __slots__ = ()


# --------------------------------------------------------------- live sets

class ArrayLive:
    """Live keys held as a flat array (randomized / MoM / fast randomized)."""

    kind = "array"

    def __init__(self, arr: np.ndarray):
        self.arr = np.asarray(arr)
        self._parts = None

    @property
    def count(self) -> int:
        return int(self.arr.size)

    def classify(self, K: CostedKernels, pivot) -> tuple[int, int]:
        """3-way partition around ``pivot``; returns local (lt, eq) counts.

        The split is kept so :meth:`take` / :meth:`split` gather only the
        sides they keep (the partition pass was already charged).
        """
        self._parts = K.partition3(self.arr, pivot)
        return self._parts.n_lt, self._parts.n_eq

    def take(self, K: CostedKernels, pivot, keep_low: bool) -> "ArrayLive":
        return ArrayLive(self._parts.lt if keep_low else self._parts.gt)

    def split(self, K: CostedKernels, pivot) -> tuple["ArrayLive", "ArrayLive"]:
        return ArrayLive(self._parts.lt), ArrayLive(self._parts.gt)

    def rebalance(self, ctx, K: CostedKernels, balancer: Balancer) -> "ArrayLive":
        return ArrayLive(balancer.rebalance(ctx, K, self.arr))

    def endgame_array(self) -> np.ndarray:
        return self.arr


class BucketLive:
    """Live keys held as ordered buckets (the bucket-based algorithm).

    Never load-balanced (the weighted-median pivot rule tolerates arbitrary
    imbalance by construction — that is the algorithm's whole point).
    """

    kind = "buckets"

    def __init__(self, buckets: LocalBuckets):
        self.buckets = buckets

    @property
    def count(self) -> int:
        return self.buckets.total

    def classify(self, K: CostedKernels, pivot) -> tuple[int, int]:
        lt, eq, _gt, scan = self.buckets.count3_vs(pivot)
        K.charge_scan_evidence(scan)
        return lt, eq

    def take(self, K: CostedKernels, pivot, keep_low: bool) -> "BucketLive":
        if keep_low:
            K.charge_scan_evidence(self.buckets.keep_lt(pivot))
        else:
            K.charge_scan_evidence(self.buckets.keep_gt(pivot))
        return self

    def split(self, K: CostedKernels, pivot) -> tuple["BucketLive", "BucketLive"]:
        low, high, scan = self.buckets.split3_vs(pivot)
        K.charge_scan_evidence(scan)
        return BucketLive(low), BucketLive(high)

    def endgame_array(self) -> np.ndarray:
        return self.buckets.as_array()


# --------------------------------------------------------------- intervals

@dataclass(frozen=True)
class _Target:
    """One requested rank: output slot + rank relative to its interval."""

    idx: int
    k: int


@dataclass
class _Interval:
    """An independent contraction sub-problem (disjoint live keys)."""

    live: object
    n: int
    targets: list[_Target]
    stalled: int = 0


# --------------------------------------------------------------- strategies

class PivotStrategy:
    """Base class for the pluggable per-iteration pivot proposal.

    A strategy is instantiated per run *inside* the SPMD program (each rank
    owns its copy) and bound to the rank's context before the first
    iteration; ``_start`` is where subclasses seed their RNG streams.
    """

    #: Registry/stats name; also used in convergence-guard messages.
    name = "abstract"
    #: Consecutive no-shrink iterations before an interval is sent to the
    #: endgame (``None`` = iterate for as long as the global count allows).
    stall_limit: int | None = None

    def bind(self, ctx: ProcContext, K: CostedKernels, cfg: SelectionConfig):
        self.ctx = ctx
        self.K = K
        self.cfg = cfg
        self._start()
        return self

    def _start(self) -> None:  # pragma: no cover - trivial default
        pass

    def threshold(self, p: int) -> int:
        """Live-count bound below which the endgame takes over."""
        return endgame_threshold(self.cfg, p)

    def make_live(self, arr: np.ndarray):
        """Wrap the initial shard (bucket strategy preprocesses here)."""
        return ArrayLive(arr)

    def propose(self, interval: _Interval):
        """One pivot round: collectives + charges exactly as the paper's
        pseudocode box prescribes; returns a proposal object."""
        raise NotImplementedError

    @property
    def endgame_rng(self) -> np.random.Generator | None:
        """RNG handed to the sequential endgame selection."""
        return None


# ------------------------------------------------------------- multi stats

@dataclass
class MultiSelectionStats:
    """Run evidence of a multi-rank selection (identical on every rank).

    Mirrors :class:`~repro.selection.base.SelectionStats` (same
    ``iterations`` records, counters and properties) with multi-target
    extensions: how many independent intervals the live set forked into,
    how many targets a pivot resolved directly, and the total endgame load.
    """

    algorithm: str = ""
    n: int = 0
    p: int = 0
    ks: list[int] = field(default_factory=list)
    iterations: list[IterationRecord] = field(default_factory=list)
    n_intervals: int = 1
    endgame_n: int = 0
    endgame_intervals: int = 0
    found_by_pivot: int = 0
    balance_invocations: int = 0
    unsuccessful_iterations: int = 0
    #: Sketch pre-filter evidence (a
    #: :class:`~repro.core.reports.PrefilterStats`) when the run was
    #: sketch-accelerated; ``None`` for plain contractions.
    prefilter: object = None

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def k(self) -> int:
        """First requested rank (parity with ``SelectionStats.k``)."""
        return self.ks[0] if self.ks else 0

    def record(self, rec: IterationRecord) -> None:
        self.iterations.append(rec)
        if rec.balanced:
            self.balance_invocations += 1
        if not rec.successful:
            self.unsuccessful_iterations += 1

    def mark_found_by_pivot(self) -> None:
        self.found_by_pivot += 1


# ------------------------------------------------------------------ engine

class ContractionEngine:
    """The shared iterate-shrink-endgame state machine.

    Processes a work list of :class:`_Interval` depth-first (ascending key
    order). Every iteration asks the strategy for a proposal, applies it —
    3-way partition + Combine for a pivot, band split for a bracket,
    multiway split for several cuts — resolves any targets the proposal
    pinned exactly, forks the interval when targets survive on both sides,
    and optionally load-balances. Intervals whose global count falls below
    the strategy's threshold (or that stall) wait for the **batched
    endgame**: one Gather + one Broadcast finishes every surviving
    interval, however many there are.
    """

    def __init__(
        self,
        ctx: ProcContext,
        cfg: SelectionConfig,
        strategy: PivotStrategy,
        stats: MultiSelectionStats,
    ):
        self.ctx = ctx
        self.cfg = cfg
        self.K = CostedKernels(ctx)
        self.strategy = strategy.bind(ctx, self.K, cfg)
        self.stats = stats
        self.results: list = []

    # ------------------------------------------------------------- driving

    def run(self, arr: np.ndarray, ks: list[int]) -> list:
        """Contract until every rank in ``ks`` (sorted ascending) is found."""
        ctx, cfg, strat = self.ctx, self.cfg, self.strategy
        p = ctx.size
        arr = np.asarray(arr)
        n = int(ctx.comm.allreduce_sum(int(arr.size)))
        for k in ks:
            check_rank(n, k)
        self.stats.n, self.stats.p = n, p
        self.results = [None] * len(ks)
        threshold = strat.threshold(p)
        guard = cfg.iteration_guard(n)
        if cfg.max_iterations is None:
            # The default guard is per contraction problem; a multi-rank
            # run works through up to len(ks) independent intervals. An
            # explicit max_iterations stays the hard cap the caller set.
            guard *= len(ks)
        queue: list[_Interval] = [
            _Interval(strat.make_live(arr), n,
                      [_Target(i, k) for i, k in enumerate(ks)])
        ]
        endgame: list[_Interval] = []
        while queue:
            iv = queue[0]
            if not iv.targets:
                queue.pop(0)
                continue
            if iv.n <= threshold or (
                strat.stall_limit is not None
                and iv.stalled >= strat.stall_limit
            ):
                endgame.append(queue.pop(0))
                continue
            if len(self.stats.iterations) > guard:
                raise ConvergenceError(
                    f"{strat.name} exceeded {guard} iterations (n={iv.n})"
                )
            sim0 = ctx.clock.now
            first_new = len(self.stats.iterations)
            proposal = strat.propose(iv)
            if isinstance(proposal, PivotProposal):
                self._apply_pivot(iv, proposal.pivot, queue)
            elif isinstance(proposal, BandProposal):
                self._apply_band(iv, proposal.lo, proposal.hi, queue)
            elif isinstance(proposal, MultiCutProposal):
                self._apply_multicut(iv, proposal.cuts, queue)
            elif isinstance(proposal, EndgameProposal):
                endgame.append(queue.pop(0))
            else:  # pragma: no cover - strategy contract violation
                raise TypeError(f"unknown proposal {proposal!r}")
            # Stamp the simulated-clock interval onto the record(s) this
            # iteration produced. Pure bookkeeping after the fact: no
            # charges, no RNG draws, no collectives — the clock reads are
            # deterministic, so values/sim times stay bit-identical.
            sim1 = ctx.clock.now
            for j in range(first_new, len(self.stats.iterations)):
                self.stats.iterations[j] = dataclasses.replace(
                    self.stats.iterations[j], t_sim0=sim0, t_sim1=sim1,
                )
        self._run_endgame(endgame)
        return self.results

    # ----------------------------------------------------- proposal: pivot

    def _apply_pivot(self, iv: _Interval, pivot, queue: list) -> None:
        n_before, ni = iv.n, iv.live.count
        k_first = iv.targets[0].k
        lt, eq = iv.live.classify(self.K, pivot)
        c_less, c_eq = self.ctx.comm.combine(
            np.array([lt, eq], dtype=np.int64)
        )
        c_less, c_eq = int(c_less), int(c_eq)

        low_t: list[_Target] = []
        high_t: list[_Target] = []
        for t in iv.targets:
            if t.k <= c_less:
                low_t.append(t)
            elif t.k <= c_less + c_eq:
                self.results[t.idx] = pivot
                self.stats.mark_found_by_pivot()
            else:
                high_t.append(_Target(t.idx, t.k - c_less - c_eq))

        if not low_t and not high_t:
            # Every remaining target sat in the == band: interval resolved.
            self.stats.record(IterationRecord(
                n_before=n_before, n_after=0, k_before=k_first,
                k_after=k_first, pivot=pivot, local_before=ni,
                local_after=0, balanced=False,
            ))
            queue.pop(0)
            return

        if low_t and high_t:
            # The pivot landed between targets: fork into two independent
            # sub-intervals (multi-rank only; balancing resumes per child).
            low_live, high_live = iv.live.split(self.K, pivot)
            children = [
                _Interval(low_live, c_less, low_t),
                _Interval(high_live, n_before - c_less - c_eq, high_t),
            ]
            self.stats.n_intervals += 1
            self.stats.record(IterationRecord(
                n_before=n_before, n_after=children[0].n + children[1].n,
                k_before=k_first, k_after=low_t[0].k, pivot=pivot,
                local_before=ni,
                local_after=low_live.count + high_live.count,
                balanced=False,
            ))
            queue[0:1] = children
            return

        keep_low = bool(low_t)
        iv.live = iv.live.take(self.K, pivot, keep_low)
        iv.n = c_less if keep_low else n_before - c_less - c_eq
        iv.targets = low_t if keep_low else high_t
        balanced = self._maybe_balance(iv)
        self.stats.record(IterationRecord(
            n_before=n_before, n_after=iv.n, k_before=k_first,
            k_after=iv.targets[0].k, pivot=pivot, local_before=ni,
            local_after=iv.live.count, balanced=balanced,
        ))

    # ------------------------------------------------------ proposal: band

    def _apply_band(self, iv: _Interval, lo, hi, queue: list) -> None:
        n_before, ni = iv.n, iv.live.count
        k_first = iv.targets[0].k
        parts = self.K.partition_band(iv.live.arr, lo, hi)
        c_less, c_mid = self.ctx.comm.combine(
            np.array([parts.n_lt, parts.n_eq], dtype=np.int64)
        )
        c_less, c_mid = int(c_less), int(c_mid)

        less_t: list[_Target] = []
        mid_t: list[_Target] = []
        high_t: list[_Target] = []
        for t in iv.targets:
            if t.k <= c_less:
                less_t.append(t)
            elif t.k <= c_less + c_mid:
                if lo == hi:
                    # Band collapsed onto one value covering the target.
                    self.results[t.idx] = lo
                    self.stats.mark_found_by_pivot()
                else:
                    mid_t.append(_Target(t.idx, t.k - c_less))
            else:
                high_t.append(_Target(t.idx, t.k - c_less - c_mid))

        # The iteration is "successful" when the sample bracketed every
        # surviving target (the paper's Step 8; a miss triggers the
        # one-sided rescue instead of a retry).
        successful = not less_t and not high_t
        children = []
        # Only the sides that keep a target are gathered.
        if less_t:
            children.append(_Interval(ArrayLive(parts.lt), c_less, less_t))
        if mid_t:
            children.append(_Interval(ArrayLive(parts.eq), c_mid, mid_t))
        if high_t:
            children.append(_Interval(
                ArrayLive(parts.gt), n_before - c_less - c_mid, high_t
            ))

        if not children:
            self.stats.record(IterationRecord(
                n_before=n_before, n_after=0, k_before=k_first,
                k_after=k_first, pivot=(lo, hi), local_before=ni,
                local_after=0, balanced=False,
            ))
            queue.pop(0)
            return

        for child in children:
            child.stalled = iv.stalled + 1 if child.n == n_before else 0
        balanced = False
        if len(children) == 1:
            balanced = self._maybe_balance(children[0])
        else:
            self.stats.n_intervals += len(children) - 1
        self.stats.record(IterationRecord(
            n_before=n_before, n_after=sum(c.n for c in children),
            k_before=k_first, k_after=children[0].targets[0].k,
            pivot=(lo, hi), local_before=ni,
            local_after=sum(c.live.count for c in children),
            balanced=balanced, successful=successful,
        ))
        queue[0:1] = children

    # -------------------------------------------------- proposal: multicut

    def _apply_multicut(self, iv: _Interval, cuts, queue: list) -> None:
        """Fork one interval at several cut values in a single local pass.

        ``partition_multiway`` splits into ``2c + 1`` value-ordered
        segments (open ranges alternating with ``==`` bands) and counts
        them; one Combine of the counts places every target. Targets
        landing in an ``==`` band resolve immediately; only the segments
        holding targets are gathered, in one pass, and the rest are
        discarded wholesale — they lie *between* requested ranks.
        """
        n_before, ni = iv.n, iv.live.count
        k_first = iv.targets[0].k
        cuts = np.asarray(cuts)
        segs = self.K.partition_multiway(iv.live.arr, cuts)
        counts = self.ctx.comm.combine(segs.counts)
        cum = np.concatenate([[0], np.cumsum(counts)])

        by_seg: dict[int, list[_Target]] = {}
        for t in iv.targets:
            j = int(np.searchsorted(cum[1:], t.k, side="left"))
            if j % 2 == 1:
                # Equality band of cuts[(j - 1) // 2]: resolved exactly.
                self.results[t.idx] = cuts[(j - 1) // 2]
                self.stats.mark_found_by_pivot()
            else:
                by_seg.setdefault(j, []).append(
                    _Target(t.idx, t.k - int(cum[j]))
                )

        held = sorted(by_seg)
        children = [
            _Interval(ArrayLive(seg), int(counts[j]), by_seg[j])
            for j, seg in zip(held, segs.take(held))
        ]
        if not children:
            self.stats.record(IterationRecord(
                n_before=n_before, n_after=0, k_before=k_first,
                k_after=k_first, pivot=tuple(cuts.tolist()),
                local_before=ni, local_after=0, balanced=False,
            ))
            queue.pop(0)
            return
        for child in children:
            child.stalled = iv.stalled + 1 if child.n == n_before else 0
        balanced = False
        if len(children) == 1:
            balanced = self._maybe_balance(children[0])
        else:
            self.stats.n_intervals += len(children) - 1
        self.stats.record(IterationRecord(
            n_before=n_before, n_after=sum(c.n for c in children),
            k_before=k_first, k_after=children[0].targets[0].k,
            pivot=tuple(cuts.tolist()), local_before=ni,
            local_after=sum(c.live.count for c in children),
            balanced=balanced,
        ))
        queue[0:1] = children

    # ------------------------------------------------------------- helpers

    def _maybe_balance(self, iv: _Interval) -> bool:
        if iv.live.kind != "array" or isinstance(self.cfg.balancer, NoBalance):
            return False
        iv.live = iv.live.rebalance(self.ctx, self.K, self.cfg.balancer)
        return True

    # ------------------------------------------------------------- endgame

    def _run_endgame(self, intervals: list[_Interval]) -> None:
        """Batched final Steps: ONE Gather of every surviving interval's
        keys, sequential (multi-)selection per interval on P0, ONE
        Broadcast of all the answers."""
        if not intervals:
            return
        ctx, cfg = self.ctx, self.cfg
        method = cfg.sequential_method
        payload = [iv.live.endgame_array() for iv in intervals]
        gathered = ctx.comm.gather(payload, root=0)
        order = [t.idx for iv in intervals for t in iv.targets]
        if ctx.rank == 0:
            values: list = []
            for j, iv in enumerate(intervals):
                parts = [g[j] for g in gathered if g is not None]
                live = [q for q in parts if q.size]
                merged = np.concatenate(live) if live else np.array([])
                if merged.size == 0:
                    raise ConvergenceError(
                        "endgame reached with no surviving keys"
                    )
                ks = [t.k for t in iv.targets]
                for k in ks:
                    if not (1 <= k <= merged.size):
                        raise ConvergenceError(
                            f"endgame rank {k} inconsistent with "
                            f"{merged.size} survivors"
                        )
                values.extend(self.K.select_multi_kth(
                    merged, ks, method, rng=self.strategy.endgame_rng,
                    impl=cfg.impl_override,
                ))
        else:
            values = None
        values = ctx.comm.broadcast(values, root=0)
        for idx, v in zip(order, values):
            self.results[idx] = v
        for iv in intervals:
            self.stats.endgame_n += iv.n
        self.stats.endgame_intervals += len(intervals)


# ------------------------------------------------------------ entry point

def contract_multi_select(
    ctx: ProcContext,
    shard: np.ndarray,
    ks: list[int],
    cfg: SelectionConfig,
    strategy: PivotStrategy,
    algorithm: str | None = None,
) -> tuple[list, MultiSelectionStats]:
    """Multi-rank selection: all of ``ks`` (sorted ascending, distinct) in
    one contraction.

    On one processor, two or more targets skip the contraction: a
    single-pass multi-rank ``np.partition`` (charged at
    ``multi_select_cost``) answers them all — the ``p = 1`` fast path. One
    target runs the algorithm itself, so a one-rank query on one processor
    is priced as the paper's algorithm, not as the sequential kernel.
    """
    stats = MultiSelectionStats(
        algorithm=algorithm or strategy.name, ks=list(ks)
    )
    arr = np.asarray(shard)
    if ctx.size == 1 and len(ks) > 1:
        K = CostedKernels(ctx)
        n = int(arr.size)
        for k in ks:
            check_rank(n, k)
        stats.n, stats.p = n, 1
        rng = np.random.default_rng((cfg.seed, 0, 0xE1))
        values = K.select_multi_kth(
            arr, list(ks), cfg.sequential_method, rng=rng,
            impl=cfg.impl_override,
        )
        stats.endgame_n = n
        stats.endgame_intervals = 1
        return values, stats
    engine = ContractionEngine(ctx, cfg, strategy, stats)
    values = engine.run(arr, list(ks))
    return values, stats
