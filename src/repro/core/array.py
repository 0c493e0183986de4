"""The data layer: :class:`Machine` and :class:`DistributedArray`.

A :class:`Machine` owns the simulated processor count and cost model (one
:class:`~repro.machine.engine.SPMDRuntime`), counts every SPMD launch it
executes, and lazily carries a **default session** — the cached
:class:`~repro.core.session.Session` behind the fluent query methods.

A :class:`DistributedArray` is a 1-D array block-distributed over the
machine's processors. Its shards are **immutable**: the library owns them,
holds them in a tuple and marks each one read-only, so an in-place write
raises NumPy's ``ValueError`` instead of going unseen. It grows fluent
query methods — ``data.select(k)``, ``data.median()``,
``data.quantiles(qs)``, ``data.multi_select(ks)`` — that route through the
machine's default session, so repeated traffic against the same array is
served from cache without relaunching.

**Cache identity.** The session cache and flush grouping key an array by
its :attr:`~DistributedArray.identity`, which pays for a content hash only
when two live arrays could be content-equal. Resolving it, once per array,
builds a cheap *sample key* (shard count, each shard's dtype and size, and
64 evenly spaced keys of each shard). The first live array with a given
sample key gets a provisional identity, unique for the process, and is
never hashed.
A later array arriving while one with the same sample key is alive hashes
both (the SHA-1 :attr:`~DistributedArray.fingerprint`): it takes the
earlier array's identity on a full-hash match, and its own SHA-1
otherwise. So content-equal arrays share answers and launches while an
earlier one is alive, and content distributed again after every earlier
copy was collected launches again. A sample-key match alone never shares
anything.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..balance.base import get_balancer
from ..balance.metrics import ImbalanceStats, imbalance_stats
from ..data.generators import generate_shards, shard_sizes
from ..errors import ConfigurationError
from ..kernels.costed import CostedKernels
from ..machine.cost_model import CM5, CostModel
from ..machine.engine import SPMDResult, SPMDRuntime

if TYPE_CHECKING:
    from .plan import SelectionPlan
    from .reports import MultiSelectionReport, SelectionReport
    from .session import Session

__all__ = ["Machine", "DistributedArray", "check_ordered_keys"]


def check_ordered_keys(keys: np.ndarray) -> None:
    """Reject float keys containing NaN where keys enter the library.

    Selection needs totally ordered keys. NaN compares false both ways, so
    ranks would disagree on the answers or return a wrong one.
    """
    if keys.dtype.kind == "f" and keys.size and np.isnan(keys.min()):
        raise ConfigurationError(
            "keys contain NaN; selection needs totally ordered keys"
        )


#: Keys sampled per shard for the sample key (first and last included).
_SAMPLE_POINTS = 64

#: Provisional identities, unique for the process (never reused, unlike
#: ``id()`` after a collection).
_PROVISIONAL = itertools.count()


def _sample_key(shards: Sequence[np.ndarray]) -> tuple:
    """Shard count, each shard's dtype and size, and the bytes of
    ``_SAMPLE_POINTS`` evenly spaced keys of each shard: microseconds to
    build, equal for content-equal arrays."""
    return (len(shards),) + tuple(
        (s.dtype.str, s.size, s[np.linspace(
            0, s.size - 1, min(_SAMPLE_POINTS, s.size), dtype=np.intp
        )].tobytes())
        for s in shards
    )


class _IdentityRegistry:
    """One machine's live arrays by sample key, weakly referenced.

    ``resolve`` runs under a lock, because a serving flush thread resolves
    identities too. A collected array's reference queues itself on
    ``_dead`` (a deque append needs no lock, so a collection inside the
    lock cannot deadlock) and the next ``resolve`` drops it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: dict[tuple, list[weakref.KeyedRef]] = {}
        self._dead: deque[weakref.KeyedRef] = deque()

    def resolve(self, array: "DistributedArray") -> str:
        with self._lock:
            if array._identity is not None:
                return array._identity
            while self._dead:
                dead = self._dead.popleft().key
                refs = [r for r in self._live.get(dead, ()) if r() is not None]
                if refs:
                    self._live[dead] = refs
                else:
                    self._live.pop(dead, None)
            key = _sample_key(array.shards)
            peers = [a for a in (r() for r in self._live.get(key, ()))
                     if a is not None]
            if peers:
                fp = array.fingerprint
                identity = next((peer.identity for peer in peers
                                 if peer.fingerprint == fp), fp)
            else:
                identity = f"provisional:{next(_PROVISIONAL)}"
            self._live.setdefault(key, []).append(
                weakref.KeyedRef(array, self._dead.append, key)
            )
            array._identity = identity
            return identity


class Machine:
    """A simulated coarse-grained machine: ``p`` processors + a cost model.

    ``backend`` picks the execution vehicle for launches (``"serial"``,
    ``"threaded"``, ``"process"`` or ``"pool"``; ``None`` =
    ``$REPRO_BACKEND`` or threaded). Selection values, RNG streams and
    simulated times are identical on every backend — only wall-clock
    differs.

    ``topology`` picks the machine *shape* collectives are lowered onto
    (``"crossbar"``, ``"binomial-tree"``, ``"hypercube"``, ``"two-level"``
    / ``"two-level:<cluster_size>"``, or a ready
    :class:`~repro.machine.topology.Topology`; ``None`` =
    ``$REPRO_TOPOLOGY`` or crossbar). Values and RNG streams are identical
    on every shape — simulated time is exactly what the shape changes.
    """

    def __init__(
        self,
        n_procs: int,
        cost_model: CostModel | None = None,
        trace: bool | str = False,
        backend=None,
        topology=None,
    ):
        # trace=<path> is the one-liner capture switch: per-launch tracing
        # ON plus a process-wide span capture exported to that path at exit
        # (equivalent to running under REPRO_TRACE=<path>).
        if isinstance(trace, str):
            from ..obs import enable as _enable_obs

            _enable_obs(trace)
            trace = True
        self.runtime = SPMDRuntime(
            n_procs, cost_model=cost_model if cost_model is not None else CM5,
            trace=trace, backend=backend, topology=topology,
        )
        self._default_session: "Session | None" = None
        self._identities = _IdentityRegistry()

    @property
    def n_procs(self) -> int:
        return self.runtime.n_procs

    @property
    def cost_model(self) -> CostModel:
        return self.runtime.cost_model

    @property
    def backend_name(self) -> str:
        """Name of this machine's default execution backend."""
        return self.runtime.backend.name

    @property
    def topology_name(self) -> str:
        """Name of this machine's default topology (machine shape)."""
        return self.runtime.topology.name

    @property
    def topology(self):
        """This machine's default :class:`~repro.machine.topology.Topology`."""
        return self.runtime.topology

    @property
    def launch_count(self) -> int:
        """SPMD launches executed on this machine so far (coalescing and
        cache-hit claims are asserted against deltas of this counter)."""
        return self.runtime.launch_count

    @property
    def fork_count(self) -> int:
        """Worker spawn events this machine's launches caused (see
        :attr:`SPMDRuntime.fork_count`); the ``pool`` backend's
        forks-once-serve-many claim is asserted against deltas of this."""
        return self.runtime.fork_count

    @property
    def reuse_count(self) -> int:
        """This machine's launches served by an already-live worker
        generation (see :attr:`SPMDRuntime.reuse_count`); the serving
        tier's warm-launch receipt."""
        return self.runtime.reuse_count

    def counters(self) -> dict:
        """One snapshot dict of this machine's activity counters.

        Every entry is a monotonic count over this machine's own launches,
        whatever else shares its backend: ``launches``, ``forks``,
        ``reuses`` and ``pinned_bytes`` (shard bytes its launches copied
        into shared memory on the ``pool`` backend). The properties
        :attr:`launch_count`, :attr:`fork_count` and :attr:`reuse_count`
        are views of the same runtime state; this snapshot serves
        dashboards and :class:`~repro.serve.service.ServiceStats`.
        """
        return {
            "launches": self.runtime.launch_count,
            "forks": self.runtime.fork_count,
            "reuses": self.runtime.reuse_count,
            "pinned_bytes": self.runtime.counts["pinned_bytes"],
        }

    def release_workers(self) -> None:
        """Release persistent backend state (pool worker generations and
        shared-memory pins). Safe anytime: the next launch transparently
        re-provisions. :class:`repro.serve.SelectionService` calls this on
        graceful shutdown."""
        self.runtime.release_workers()

    # ---------------------------------------------------------------- serving

    def session(
        self,
        plan: "SelectionPlan | None" = None,
        cache: bool = True,
        max_cache_entries: int = 65536,
    ) -> "Session":
        """A new :class:`~repro.core.session.Session` bound to this machine."""
        from .session import Session

        return Session(self, plan=plan, cache=cache,
                       max_cache_entries=max_cache_entries)

    @property
    def default_session(self) -> "Session":
        """The machine-wide cached session the fluent array methods use."""
        if self._default_session is None:
            self._default_session = self.session()
        return self._default_session

    # ------------------------------------------------------------- data in

    def distribute(self, data: np.ndarray) -> "DistributedArray":
        """Block-distribute a host array over the processors."""
        data = np.asarray(data)
        if data.ndim != 1:
            raise ConfigurationError("distribute expects a 1-D array")
        check_ordered_keys(data)
        sizes = shard_sizes(data.size, self.n_procs)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        shards = [
            data[offsets[r]: offsets[r + 1]].copy() for r in range(self.n_procs)
        ]
        return DistributedArray(self, shards)

    def from_shards(self, shards: Sequence[np.ndarray]) -> "DistributedArray":
        """Copy externally-prepared per-processor shards into a new array.

        The copy is what keeps the shards immutable: a later write through
        the caller's arrays (or a view of them) cannot reach the result.
        """
        if len(shards) != self.n_procs:
            raise ConfigurationError(
                f"need exactly {self.n_procs} shards, got {len(shards)}"
            )
        copies = [np.array(s) for s in shards]
        for shard in copies:
            check_ordered_keys(shard)
        return DistributedArray(self, copies)

    def generate(
        self, n: int, distribution: str = "random", seed: int = 0
    ) -> "DistributedArray":
        """Generate one of the named workloads directly in distributed form."""
        return DistributedArray(
            self, generate_shards(n, self.n_procs, distribution, seed)
        )

    def stream(self, dtype=None, window=None, window_mode: str = "sliding"):
        """An appendable :class:`~repro.stream.stream.StreamingArray` on
        this machine (``append(batch)`` ingest, windowed retirement,
        ingest-time sketches for ``prefilter="sketch"`` plans)."""
        from ..stream.stream import StreamingArray

        return StreamingArray(
            self, dtype=dtype, window=window, window_mode=window_mode
        )

    def run(self, fn, rank_args=None, args=(), kwargs=None,
            backend=None, topology=None, trace=None) -> SPMDResult:
        """Escape hatch: run a raw SPMD program on this machine.

        ``backend`` / ``topology`` override the machine's execution
        backend and machine shape for this launch only (a
        :class:`~repro.core.plan.SelectionPlan` carrying either rides
        these parameters). ``trace`` (``bool | None``) likewise overrides
        the machine's per-launch tracer for this launch only.
        """
        return self.runtime.run(
            fn, rank_args=rank_args, args=args, kwargs=kwargs,
            backend=backend, topology=topology, trace=trace,
        )


@dataclass
class DistributedArray:
    """A 1-D array block-distributed over a machine's processors.

    The shards are read-only and held in a tuple, so neither an element
    nor a shard slot can be replaced after construction: an element write
    raises ``ValueError`` and a slot assignment raises ``TypeError``.
    Constructing one directly takes ownership of the arrays passed in and
    marks them read-only; :meth:`Machine.from_shards` copies them instead.
    """

    machine: Machine
    shards: Sequence[np.ndarray]
    _fingerprint: str | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _identity: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.shards = tuple(self.shards)
        for shard in self.shards:
            shard.flags.writeable = False

    @property
    def n(self) -> int:
        return int(sum(s.size for s in self.shards))

    @property
    def p(self) -> int:
        return self.machine.n_procs

    @property
    def counts(self) -> list[int]:
        return [int(s.size) for s in self.shards]

    def imbalance(self) -> ImbalanceStats:
        return imbalance_stats(self.counts)

    def gather(self) -> np.ndarray:
        """Materialise the full array on the host (tests/examples only)."""
        live = [s for s in self.shards if s.size]
        if live:
            return np.concatenate(live)
        # All shards empty: preserve their dtype instead of collapsing to
        # NumPy's float64 default.
        if self.shards:
            return np.array([], dtype=self.shards[0].dtype)
        return np.array([])

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------- identity

    @property
    def identity(self) -> str:
        """The cache/coalescing key of this array, resolved once through
        the machine's identity registry (see the module docstring): a
        provisional identity unless a live array shares its sample key,
        and a full-hash comparison otherwise."""
        if self._identity is None:
            return self.machine._identities.resolve(self)
        return self._identity

    @property
    def fingerprint(self) -> str:
        """Content + layout SHA-1 over the shard bytes, computed once and
        memoised (the shards are immutable). :attr:`identity` computes it
        only when two live arrays share a sample key."""
        if self._fingerprint is None:
            h = hashlib.sha1()
            h.update(str(len(self.shards)).encode())
            for s in self.shards:
                a = np.ascontiguousarray(s)
                h.update(str(a.dtype).encode())
                h.update(str(a.size).encode())
                h.update(a)
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # ---------------------------------------------------------- fluent API

    def select(self, k: int, plan: "SelectionPlan | None" = None,
               **overrides) -> "SelectionReport":
        """Rank-``k`` selection through the machine's default session
        (a one-target launch; repeated queries are cache hits)."""
        return self.machine.default_session.run_select(
            self, k, plan, **overrides
        )

    def median(self, plan: "SelectionPlan | None" = None,
               **overrides) -> "SelectionReport":
        """The paper's flagship query: rank ``ceil(n/2)`` selection."""
        from ..kernels.select import median_rank

        return self.select(median_rank(self.n), plan, **overrides)

    def multi_select(self, ks: Sequence[int],
                     plan: "SelectionPlan | None" = None,
                     **overrides) -> "MultiSelectionReport":
        """Every rank in ``ks`` in (at most) one SPMD launch, cache-aware."""
        return self.machine.default_session.run_multi_select(
            self, ks, plan, **overrides
        )

    def quantiles(self, qs: Sequence[float],
                  plan: "SelectionPlan | None" = None,
                  **overrides) -> "list[SelectionReport]":
        """Exact quantiles via the batched multi-rank path, cache-aware."""
        return self.machine.default_session.run_quantiles(
            self, qs, plan, **overrides
        )

    def rebalance(
        self, method="global_exchange"
    ) -> tuple["DistributedArray", SPMDResult]:
        """Standalone load balancing of this array.

        Returns the rebalanced array plus the raw :class:`SPMDResult` (for
        its simulated-time breakdown).
        """
        balancer = get_balancer(method)

        def program(ctx, shard):
            return balancer.rebalance(ctx, CostedKernels(ctx), shard)

        result = self.machine.run(program, rank_args=[(s,) for s in self.shards])
        return DistributedArray(self.machine, result.values), result
