"""The six parallel primitives of paper Section 2.2, lowered onto rounds.

Functionally, each collective is implemented over a shared rendezvous board
(every rank deposits its value and crosses one barrier; the last to arrive
closes the collective for the whole cohort), which is exactly what a
virtual crossbar permits. *Temporally*, each collective is **lowered** by
the machine's :class:`~repro.machine.topology.Topology` into an explicit
schedule of per-round point-to-point transfers, and the clock advances by
that schedule's price. On the default ``crossbar`` topology the schedule
cost keeps the paper's closed forms, bit-for-bit:

===================  =====================================================
Primitive            Crossbar cost (p ranks, m words payload per rank)
===================  =====================================================
Broadcast            ``(tau + mu*m) * ceil(log2 p)``
Combine              ``(tau + mu*m) * ceil(log2 p)``
Parallel Prefix      ``(tau + mu*m) * ceil(log2 p)``
Gather               ``tau * ceil(log2 p) + mu * m * (p - 1)``
Global Concatenate   ``tau * ceil(log2 p) + mu * m * (p - 1)``
Transportation       ``tau * max_msgs + 2 * mu * t``,
(alltoallv)          ``t = max_i max(out_words_i, in_words_i)`` [20]
Pairwise exchange    per round: ``max over pairs of (tau + mu * max(m_ab,
(dimension rounds)   m_ba))`` — the p/2 pairs communicate in parallel
===================  =====================================================

On the other shapes (``binomial-tree``, ``hypercube``, ``two-level``) the
cost is the sum over schedule rounds of the slowest transfer in each round
— values are identical (they meet on the rendezvous board either way), but
simulated time genuinely distinguishes machine shapes, and the trace
records each collective's round count and congestion.

Every collective synchronises clocks (``t_i <- max_j t_j + cost``): the
algorithms in the paper are bulk-synchronous, and the analysis charges each
iteration at the pace of the slowest processor (``n_max^(j)`` terms).

Closing a collective computes everything that is the same on every rank
exactly once: the op-name check, payload sizes, the lowered schedule, the
transportation word matrix and the pairing validation. Each rank then only
syncs its own clock, records its own trace event and takes its own result.
What may legitimately differ between ranks stays per rank: the payload
size of a rank's own combine/prefix value, and reductions with the rank's
own op.

Thread-safety: one :class:`CollectiveEngine` serves all ranks of a runtime;
the rendezvous protocol makes each operation race-free, and the strict SPMD
discipline (all ranks issue the same sequence of collectives) is validated
at runtime with an op-name check that turns a desynchronised program into a
:class:`~repro.errors.RankMismatchError` on every rank instead of a hang.

The *rendezvous* — how per-rank deposits physically meet — is pluggable so
every execution backend shares the cost/semantics logic above it:

* :class:`SharedRendezvous` (default) — shared slots + an abortable
  barrier whose last arriver closes the cohort; used by the ``threaded``
  backend, and by the ``serial`` backend with a cooperative barrier.
* the ``process`` and ``pool`` backends supply a message-passing
  rendezvous over multiprocessing queues
  (:mod:`repro.machine.backends._shm`); their ranks share no memory, so
  each closes the collective for itself.
"""

from __future__ import annotations

import math
import os
import sys
import zlib
from collections import Counter
from typing import Any, Callable, Protocol, Sequence, TypeVar

import numpy as np

from ..errors import ConfigurationError, RankMismatchError
from .barrier import AbortableBarrier
from .clock import Category, LogicalClock
from .cost_model import CostModel
from .topology import CrossbarTopology, Schedule, Topology, transport_words
from .trace import NullTracer, TraceEvent

__all__ = [
    "CollectiveEngine",
    "LockstepVerifier",
    "Rendezvous",
    "SharedRendezvous",
    "payload_words",
]


def payload_words(obj: Any) -> float:
    """Simulated size of a payload in 8-byte words.

    NumPy arrays count ``size * itemsize / 8``; scalars count 1; sequences
    count the sum of their items. ``None`` counts 0. The selection algorithms
    mostly move 8-byte keys, so a word is calibrated to 8 bytes.

    Structured payloads (e.g. the quantile sketches of
    :mod:`repro.stream.sketch`) size themselves via a ``__sim_words__``
    method — the collective cost formulas then charge their true footprint
    instead of the one-word exotic-payload fallback. A sizer that returns
    anything other than a finite non-negative number is a
    :class:`~repro.errors.ConfigurationError`: silently mispricing a
    transfer would corrupt every simulated time downstream of it.
    """
    if obj is None:
        return 0.0
    sizer = getattr(obj, "__sim_words__", None)
    if sizer is not None:
        try:
            words = float(sizer())
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{type(obj).__name__}.__sim_words__() must return a number, "
                f"got a non-numeric value ({exc})"
            ) from exc
        if not math.isfinite(words) or words < 0:
            raise ConfigurationError(
                f"{type(obj).__name__}.__sim_words__() must return a finite "
                f"non-negative word count, got {words!r}"
            )
        return words
    if isinstance(obj, np.ndarray):
        return obj.size * obj.itemsize / 8.0
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj) / 8.0
    if isinstance(obj, (list, tuple)):
        return float(sum(payload_words(x) for x in obj))
    if isinstance(obj, (int, float, complex, np.integer, np.floating)):
        return 1.0
    # Fallback for exotic payloads: charge one word; simulated fidelity for
    # such objects is not meaningful anyway.
    return 1.0


#: Directory containing the machine layer; stack frames inside it are
#: runtime plumbing, the first frame *outside* it is the collective's
#: algorithm-level call site.
_MACHINE_DIR = os.path.dirname(os.path.abspath(__file__))


def _call_site() -> str:
    """``pkg/file.py:line`` of the algorithm frame issuing a collective."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not os.path.abspath(filename).startswith(_MACHINE_DIR):
            parent = os.path.basename(os.path.dirname(filename))
            name = os.path.basename(filename)
            return f"{parent}/{name}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class LockstepVerifier:
    """Audits that every rank issues the same collective sequence from the
    same call sites (``REPRO_VERIFY=lockstep``).

    The op-name check in :meth:`CollectiveEngine._close` already turns
    *different collectives* into a :class:`RankMismatchError`. This verifier
    sharpens it: each rank's deposit token is extended with the issuing call
    site, the rank's collective sequence number, and a running CRC over its
    entire ``(op, site)`` history, so two ranks that happen to issue the
    same primitive **from different program points** — a latent divergence
    the plain check cannot see — also collide at the rendezvous, and the
    error names the first divergent rank, its op, and both call sites.

    ``pairwise_exchange`` is exempt from call-site matching (its site is
    recorded as ``*``): the primitive is asymmetric by contract — partnered
    and partnerless ranks legitimately reach it through different branches
    (see :mod:`repro.balance.dimension_exchange`) — so only the op identity
    and sequence position are folded in.

    The verifier alters only the token deposited on the rendezvous board,
    never clocks, schedules, payloads, or traces: simulated times stay
    bit-identical with the verifier on.
    """

    #: Base ops whose call sites legitimately differ across ranks.
    SITE_EXEMPT = frozenset({"pairwise_exchange"})

    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        self._seq = [0] * n_ranks
        self._hist = [0] * n_ranks

    def annotate(self, rank: int, op: str) -> str:
        """Extend ``op`` into this rank's verification token."""
        base = op.split("@", 1)[0]
        site = "*" if base in self.SITE_EXEMPT else _call_site()
        seq = self._seq[rank]
        self._seq[rank] = seq + 1
        hist = zlib.crc32(f"{op}|{site}".encode(), self._hist[rank])
        self._hist[rank] = hist
        return f"{op}|{site}|{seq}|{hist:08x}"

    @staticmethod
    def _parse(token: str) -> tuple[str, str, str, str]:
        parts = token.split("|")
        if len(parts) == 4:
            return parts[0], parts[1], parts[2], parts[3]
        return token, "?", "?", "?"

    def mismatch_error(self, tokens: list[str]) -> RankMismatchError:
        """Diagnose a failed rendezvous: name the first divergent rank."""
        majority, _count = Counter(tokens).most_common(1)[0]
        maj_op, maj_site, seq, _h = self._parse(majority)
        divergent = [r for r, t in enumerate(tokens) if t != majority]
        first = divergent[0]
        op, site, _s, _h = self._parse(tokens[first])
        agree = self.n_ranks - len(divergent)
        return RankMismatchError(
            f"lockstep verification failed at collective #{seq}: rank "
            f"{first} issued `{op}` from {site} while {agree} rank(s) "
            f"issued `{maj_op}` from {maj_site} "
            f"(divergent ranks: {divergent})"
        )


T = TypeVar("T")


class Rendezvous(Protocol):
    """How per-rank collective deposits physically meet.

    Every rank calls ``exchange`` with its deposit and the collective's
    ``close(ops, values, tmax)`` callback: the op tokens and deposited
    values indexed by rank, plus the maximum clock across ranks. Every
    rank returns what ``close`` returns (or raises what it raises).
    ``close`` is a pure function of its arguments, so an implementation
    may call it once for the whole cohort (shared memory) or once on each
    rank (message passing); the ranks see equal products either way.
    ``abort`` must permanently wake every rank currently (or later)
    blocked inside ``exchange`` with :class:`~repro.errors.WorkerAborted`.
    """

    def exchange(
        self,
        rank: int,
        op: str,
        value: Any,
        clock_now: float,
        close: Callable[[list[str], list[Any], float], T],
    ) -> T: ...  # pragma: no cover

    def abort(self) -> None: ...  # pragma: no cover


class SharedRendezvous:
    """Deposit slots + one barrier crossing: the shared-memory rendezvous.

    Each rank writes its deposit to its own slot and arrives at the
    barrier. The last to arrive snapshots the slots and runs ``close``
    once for the cohort while every other rank is parked; every rank
    leaves with that one product. The snapshot is what makes one crossing
    enough: once released, a fast rank may overwrite its slot for the next
    collective while slower ranks still hold this one's product.

    Works for any vehicle whose ranks share the interpreter (the
    ``threaded`` and ``serial`` backends); the barrier is injectable so
    cooperative schedulers can supply their own. The launch loop tells the
    barrier when a rank returns (``barrier.depart``), so a rank waiting
    for a returned one fails at once.
    """

    def __init__(self, n_ranks: int, barrier=None):
        self.barrier = barrier if barrier is not None else AbortableBarrier(n_ranks)
        self._slots: list[Any] = [None] * n_ranks
        self._clocks: list[float] = [0.0] * n_ranks
        self._ops: list[str] = [""] * n_ranks

    def exchange(self, rank, op, value, clock_now, close):
        self._slots[rank] = value
        self._clocks[rank] = clock_now
        self._ops[rank] = op
        return self.barrier.wait(
            action=lambda: close(
                list(self._ops), list(self._slots), max(self._clocks)
            ),
            party=rank,
        )

    def abort(self) -> None:
        self.barrier.abort()


class CollectiveEngine:
    """The six primitives' cost/semantics logic for one SPMD runtime.

    All execution backends share this class; only the injected
    :class:`Rendezvous` differs, which is why simulated times are
    bit-identical across backends. The injected
    :class:`~repro.machine.topology.Topology` (crossbar when omitted)
    lowers every primitive to its round schedule and prices it.
    """

    def __init__(
        self, n_ranks: int, model: CostModel, tracer=None, rendezvous=None,
        topology: Topology | None = None, verifier: LockstepVerifier | None = None,
    ):
        self.n_ranks = n_ranks
        self.model = model
        self.tracer = tracer if tracer is not None else NullTracer()
        self.rendezvous: Rendezvous = (
            rendezvous if rendezvous is not None else SharedRendezvous(n_ranks)
        )
        self.topology: Topology = (
            topology if topology is not None else CrossbarTopology(n_ranks)
        )
        # Resolved at construction so forked/spawned workers (which build
        # their own engine) inherit the setting through the environment.
        if verifier is None and os.environ.get("REPRO_VERIFY") == "lockstep":
            verifier = LockstepVerifier(n_ranks)
        self.verifier = verifier
        # Schedules are pure functions of (op, shape arguments) and every
        # rank of a collective lowers the same one, so memoise them: the
        # first rank builds, the rest (and later identical calls) reuse.
        # Immutable values + GIL make the unlocked dict race-free (a lost
        # race just rebuilds the same schedule).
        self._sched_cache: dict = {}
        # Per-rank collective issue counters, consumed only when tracing:
        # each rank touches its own slot, and the resulting TraceEvent.seq
        # gives span derivation a deterministic order even when simulated
        # timestamps tie.
        self._seq = [0] * n_ranks

    def _lower(self, key: tuple, build) -> Schedule:
        sched = self._sched_cache.get(key)
        if sched is None:
            sched = build()
            if len(self._sched_cache) >= 256:
                self._sched_cache.clear()
            self._sched_cache[key] = sched
        return sched

    # ------------------------------------------------------------------ core

    def abort(self) -> None:
        """Permanently wake every rank blocked in a collective."""
        self.rendezvous.abort()

    def _rendezvous(
        self,
        rank: int,
        op: str,
        value: Any,
        clock: LogicalClock,
        cohort: Callable[[list[Any]], Any] | None = None,
    ) -> tuple[float, Any]:
        """Deposit ``value``; return ``(max clock across ranks, product)``.

        The product is ``cohort(values)`` — the collective's cohort-wide
        quantities, computed once per cohort on a shared-memory rendezvous
        — or the deposited values themselves when no ``cohort`` is given.
        ``cohort`` runs only after every rank's op token matched, so it may
        rely on any argument the token encodes (e.g. the root).
        """
        token = op if self.verifier is None else self.verifier.annotate(rank, op)
        return self.rendezvous.exchange(
            rank, token, value, clock.now,
            lambda ops, values, tmax: self._close(ops, values, tmax, cohort),
        )

    def _close(
        self,
        ops: list[str],
        values: list[Any],
        tmax: float,
        cohort: Callable[[list[Any]], Any] | None,
    ) -> tuple[float, Any]:
        """Close one collective: check the op tokens, then compute the
        cohort product (raised errors reach every rank)."""
        distinct = set(ops)
        if len(distinct) != 1:
            if self.verifier is not None:
                raise self.verifier.mismatch_error(ops)
            raise RankMismatchError(
                f"ranks disagree on collective: {sorted(distinct)}"
            )
        return tmax, values if cohort is None else cohort(values)

    def _finish(
        self,
        rank: int,
        op: str,
        clock: LogicalClock,
        t_start: float,
        tmax: float,
        sched: Schedule,
        words: float,
        category: Category,
    ) -> None:
        clock.sync_to(tmax + sched.cost, category)
        if self.tracer.enabled:
            seq = self._seq[rank]
            self._seq[rank] = seq + 1
            self.tracer.record(
                TraceEvent(
                    rank=rank,
                    op=op,
                    words=words,
                    t_start=t_start,
                    t_end=clock.now,
                    detail=sched.detail,
                    rounds=sched.n_rounds,
                    congestion=sched.congestion,
                    round_times=sched.round_costs,
                    seq=seq,
                )
            )

    # ------------------------------------------------------------- primitives

    def broadcast(
        self, rank: int, value: Any, root: int, clock: LogicalClock, category: Category
    ) -> Any:
        """Paper primitive 1 — one rank's value to all ranks."""

        def cohort(values):
            result = values[root]
            m = payload_words(result)
            sched = self._lower(
                ("broadcast", root, m),
                lambda: self.topology.broadcast_schedule(self.model, root, m),
            )
            return result, m, sched

        t0 = clock.now
        tmax, (result, m, sched) = self._rendezvous(
            rank, f"broadcast@{root}", value, clock, cohort
        )
        self._finish(rank, "broadcast", clock, t0, tmax, sched, m, category)
        return result

    def combine(
        self,
        rank: int,
        value: Any,
        op: Callable[[Any, Any], Any],
        clock: LogicalClock,
        category: Category,
    ) -> Any:
        """Paper primitive 2 — reduce with a binary associative+commutative
        op; the result is stored on *every* rank (an allreduce)."""
        t0 = clock.now
        tmax, values = self._rendezvous(rank, "combine", value, clock)
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        m = payload_words(value)
        sched = self._lower(
            ("combine", m),
            lambda: self.topology.combine_schedule(self.model, m),
        )
        self._finish(rank, "combine", clock, t0, tmax, sched, m, category)
        return acc

    def prefix(
        self,
        rank: int,
        value: Any,
        op: Callable[[Any, Any], Any],
        clock: LogicalClock,
        category: Category,
        inclusive: bool = True,
        initial: Any = None,
    ) -> Any:
        """Paper primitive 3 — parallel prefix (scan).

        Inclusive scan returns ``x_0 op ... op x_rank``; the exclusive
        variant returns ``initial`` on rank 0 and ``x_0 op ... op x_{rank-1}``
        elsewhere (needed by the order-maintaining load balancer, which wants
        global start offsets).
        """
        t0 = clock.now
        tmax, values = self._rendezvous(rank, "prefix", value, clock)
        if inclusive:
            acc = values[0]
            prefixes = [acc]
            for v in values[1:]:
                acc = op(acc, v)
                prefixes.append(acc)
            result = prefixes[rank]
        else:
            prefixes = [initial]
            acc = None
            for i, v in enumerate(values[:-1]):
                acc = v if i == 0 else op(acc, v)
                prefixes.append(acc)
            result = prefixes[rank]
        m = payload_words(value)
        sched = self._lower(
            ("prefix", m),
            lambda: self.topology.prefix_schedule(self.model, m),
        )
        self._finish(rank, "prefix", clock, t0, tmax, sched, m, category)
        return result

    def gather(
        self, rank: int, value: Any, root: int, clock: LogicalClock, category: Category
    ) -> list[Any] | None:
        """Paper primitive 4 — collect one value per rank onto ``root``."""

        def cohort(values):
            m = max(payload_words(v) for v in values)
            sched = self._lower(
                ("gather", root, m),
                lambda: self.topology.gather_schedule(self.model, root, m),
            )
            return values, m, sched

        t0 = clock.now
        tmax, (values, m, sched) = self._rendezvous(
            rank, f"gather@{root}", value, clock, cohort
        )
        self._finish(rank, "gather", clock, t0, tmax, sched, m, category)
        return list(values) if rank == root else None

    def allgather(
        self, rank: int, value: Any, clock: LogicalClock, category: Category
    ) -> list[Any]:
        """Paper primitive 5 — Global Concatenate (gather to all)."""

        def cohort(values):
            m = max(payload_words(v) for v in values)
            sched = self._lower(
                ("allgather", m),
                lambda: self.topology.allgather_schedule(self.model, m),
            )
            return values, m, sched

        t0 = clock.now
        tmax, (values, m, sched) = self._rendezvous(
            rank, "allgather", value, clock, cohort
        )
        self._finish(rank, "allgather", clock, t0, tmax, sched, m, category)
        return list(values)

    def alltoallv(
        self,
        rank: int,
        sends: Sequence[Any],
        clock: LogicalClock,
        category: Category,
    ) -> list[Any]:
        """Paper primitive 6 — the transportation primitive [20].

        ``sends[d]`` is this rank's payload for rank ``d`` (``None`` for no
        message). Returns the list of payloads received, indexed by source.
        The topology prices the routed traffic; the crossbar keeps the
        ``tau * max_msgs + 2 * mu * t`` closed form with ``t`` the maximum
        over ranks of max(outgoing words, incoming words).
        """
        if len(sends) != self.n_ranks:
            raise RankMismatchError(
                f"alltoallv needs exactly {self.n_ranks} send slots, "
                f"got {len(sends)}"
            )

        def cohort(matrix):
            words = [
                [None if x is None else payload_words(x) for x in row]
                for row in matrix
            ]
            sched = self._lower(
                ("alltoallv", tuple(tuple(row) for row in words)),
                lambda: self.topology.alltoallv_schedule(self.model, words),
            )
            # Traced words: the max per-rank traffic the [20] formula charges.
            return matrix, sched, transport_words(words)

        t0 = clock.now
        tmax, (matrix, sched, t) = self._rendezvous(
            rank, "alltoallv", list(sends), clock, cohort
        )
        received = [matrix[src][rank] for src in range(self.n_ranks)]
        self._finish(rank, "alltoallv", clock, t0, tmax, sched, t, category)
        return received

    def pairwise_exchange(
        self,
        rank: int,
        partner: int | None,
        payload: Any,
        clock: LogicalClock,
        category: Category,
    ) -> Any:
        """One hypercube round: disjoint pairs swap payloads in parallel.

        Collective over *all* ranks (ranks without a live partner pass
        ``partner=None`` and receive ``None``). On every flat topology the
        round costs every rank ``max over pairs of (tau + mu * max(payload
        words))`` — the pairs are simultaneous, so the slowest pair paces
        the machine, mirroring the paper's Section 4.2 analysis; pairs that
        cross a cluster boundary on the two-level shape pay the inter link.
        """

        def cohort(values):
            # Validate the pairing and collect the round's pair traffic.
            pairs: list[tuple[int, int, float, float]] = []
            for r, (pr, pl) in enumerate(values):
                if pr is None or pr < r:
                    continue
                back, their = values[pr]
                if back != r:
                    raise RankMismatchError(
                        f"pairwise_exchange: rank {r} paired with {pr} but "
                        f"rank {pr} paired with {back}"
                    )
                pairs.append((r, pr, payload_words(pl), payload_words(their)))
            sched = self._lower(
                ("pairwise", tuple(pairs)),
                lambda: self.topology.pairwise_schedule(self.model, pairs),
            )
            return values, sched

        t0 = clock.now
        tmax, (values, sched) = self._rendezvous(
            rank, "pairwise_exchange", (partner, payload), clock, cohort
        )
        result = values[partner][1] if partner is not None else None
        self._finish(
            rank,
            "pairwise_exchange",
            clock,
            t0,
            tmax,
            sched,
            payload_words(payload),
            category,
        )
        return result

    def barrier_sync(self, rank: int, clock: LogicalClock, category: Category) -> None:
        """Pure synchronisation: clocks meet at the max plus one combine."""
        t0 = clock.now
        tmax, _ = self._rendezvous(rank, "barrier", None, clock)
        sched = self._lower(
            ("barrier",),
            lambda: self.topology.barrier_schedule(self.model),
        )
        self._finish(rank, "barrier", clock, t0, tmax, sched, 0.0, category)
