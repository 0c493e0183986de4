"""Machine shapes: pluggable topologies that lower collectives to rounds.

The paper's two-level model prices every collective with one closed-form
``tau + mu*m`` formula over a virtual crossbar — but its whole argument is
about communication *rounds*, and how those rounds map onto a real
interconnect decides what a collective actually costs. This module makes
the machine shape a first-class strategy: every collective is **lowered**
into an explicit :class:`Schedule` of per-round point-to-point
:class:`Transfer`\\ s by a :class:`Topology`, and the collective engine
prices that schedule round by round.

Four shapes ship:

==================  ======================================================
``crossbar``        the paper's virtual crossbar (default). Schedules
                    mirror the tree/hypercube algorithms the paper charges
                    for, but the *cost* is the paper's closed form — so
                    simulated times are bit-identical to the historical
                    monolithic formulas (pinned by tests).
``binomial-tree``   all traffic rides a fixed binomial tree rooted at
                    rank 0: reductions fold up, broadcasts fan down,
                    many-to-many traffic is routed edge-by-edge through
                    tree paths (and congests at the root).
``hypercube``       dimension-ordered cube algorithms: butterfly
                    reductions, recursive-doubling allgather, e-cube
                    routed transportation. Non-power-of-two ``p`` folds
                    onto the enclosing cube (missing partners idle,
                    missing route nodes are skipped).
``two-level``       clusters of ranks behind a global switch: collectives
                    run intra-cluster stages on ``tau``/``mu`` links and
                    inter-cluster stages on the hierarchical
                    ``tau_inter``/``mu_inter`` links of an extended
                    :class:`~repro.machine.cost_model.CostModel`.
==================  ======================================================

Semantics never change with the shape — values still meet on the
rendezvous board — so answers are bit-identical across topologies; only
the simulated clock and the per-round trace differ. Selection via
``Machine(topology=...)`` / ``SelectionPlan(topology=...)`` /
``run_spmd(..., topology=...)``, or the ``REPRO_TOPOLOGY`` environment
variable as the process-wide default (mirroring ``REPRO_BACKEND``).

The structural helpers the load balancers use (``hypercube_partner``,
``hypercube_rounds``, ``tree_children``) predate the strategy layer and
remain module-level functions.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import ConfigurationError
from .cost_model import CostModel

__all__ = [
    "is_power_of_two",
    "next_power_of_two",
    "log2_ceil",
    "hypercube_dimensions",
    "hypercube_partner",
    "hypercube_rounds",
    "tree_children",
    "transport_words",
    "Transfer",
    "Schedule",
    "Topology",
    "CrossbarTopology",
    "BinomialTreeTopology",
    "HypercubeTopology",
    "TwoLevelTopology",
    "TOPOLOGIES",
    "available_topologies",
    "default_topology_spec",
    "resolve_topology",
    "validate_topology_spec",
]

#: Environment variable naming the process-wide default topology spec.
TOPOLOGY_ENV_VAR = "REPRO_TOPOLOGY"


# ---------------------------------------------------------------------------
# Structural helpers (pre-strategy API, used by balancers and schedules)
# ---------------------------------------------------------------------------


def is_power_of_two(p: int) -> bool:
    """True iff ``p`` is a positive power of two."""
    return p >= 1 and (p & (p - 1)) == 0


def next_power_of_two(p: int) -> int:
    """Smallest power of two >= ``p`` (``p >= 1``)."""
    if p < 1:
        raise ConfigurationError(f"p must be >= 1, got {p}")
    return 1 << (p - 1).bit_length()


def log2_ceil(p: int) -> int:
    """``ceil(log2 p)``; 0 for ``p == 1``."""
    if p < 1:
        raise ConfigurationError(f"p must be >= 1, got {p}")
    return (p - 1).bit_length()


def hypercube_dimensions(p: int) -> int:
    """Number of dimension-exchange rounds for ``p`` ranks.

    For a power of two this is exactly ``log2 p``. Otherwise we embed the
    ranks in the smallest enclosing hypercube (``ceil(log2 p)`` dimensions);
    ranks whose partner id falls outside ``[0, p)`` sit a round out
    (documented deviation #2 in DESIGN.md).
    """
    return log2_ceil(p)


def hypercube_partner(rank: int, dim: int, p: int) -> int | None:
    """Partner of ``rank`` along hypercube dimension ``dim``; None if the
    partner id does not exist on a non-power-of-two machine."""
    if not (0 <= rank < p):
        raise ConfigurationError(f"rank {rank} out of range [0, {p})")
    partner = rank ^ (1 << dim)
    return partner if partner < p else None


def hypercube_rounds(p: int) -> Iterator[list[tuple[int, int]]]:
    """Yield, per dimension, the list of (low, high) rank pairs that exchange.

    After processing dimension ``i`` on a power-of-two machine, every aligned
    block of ``2^(i+1)`` ranks holds an equal share of the block's load — the
    invariant the paper states in Section 4.2.
    """
    for dim in range(hypercube_dimensions(p)):
        pairs: list[tuple[int, int]] = []
        for rank in range(p):
            partner = rank ^ (1 << dim)
            if partner < p and rank < partner:
                pairs.append((rank, partner))
        yield pairs


def tree_children(rank: int, p: int) -> list[int]:
    """Children of ``rank`` in the binomial broadcast tree rooted at 0.

    Node ``r`` has children ``r + 2^j`` for every ``j`` strictly below the
    position of ``r``'s lowest set bit (all positions for the root), clipped
    to ranks that exist. Union of all edges is a spanning tree over
    ``range(p)`` with depth ``ceil(log2 p)`` — property-tested.
    """
    if not (0 <= rank < p):
        raise ConfigurationError(f"rank {rank} out of range [0, {p})")
    limit = (rank & -rank).bit_length() - 1 if rank else log2_ceil(p)
    return [rank + (1 << j) for j in range(limit) if rank + (1 << j) < p]


def pairwise_distance(_a: int, _b: int) -> int:
    """Crossbar distance is constant; retained for model documentation."""
    return 1


# ---------------------------------------------------------------------------
# Schedules: what a lowered collective physically is
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transfer:
    """One point-to-point message of a schedule round.

    ``inter`` marks a transfer that crosses a cluster boundary on a
    hierarchical machine; flat topologies leave it False and the cost
    model then prices it with the ordinary ``tau``/``mu`` link.
    """

    src: int
    dst: int
    words: float
    inter: bool = False


@dataclass(frozen=True)
class Schedule:
    """One collective, lowered: rounds of simultaneous transfers + price.

    ``cost`` is the simulated seconds the collective charges every rank.
    For every topology except the crossbar it equals ``sum(round_costs)``
    with each round priced at the slowest of its transfers; the crossbar
    keeps the paper's closed-form totals (mathematically the same sums,
    but evaluated in the historical expression order so simulated times
    stay bit-identical to the pre-schedule engine).
    """

    op: str
    rounds: tuple[tuple[Transfer, ...], ...]
    cost: float
    round_costs: tuple[float, ...]
    #: Max messages one rank sends (or receives) within one round.
    #: 1 means every round is a clean exchange pattern — each rank
    #: handles at most one message per direction (pure point-to-point
    #: parallelism); higher values mean some rank serialises that many
    #: messages in a round — the root of a tree under many-to-many
    #: traffic, or the dense crossbar transportation round. Computed
    #: once at construction (schedules are memoised and re-read by
    #: every rank on every traced call).
    congestion: int = 0
    detail: str = ""

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


def transport_words(words: Sequence[Sequence[float | None]]) -> float:
    """The ``t`` of the [20] transportation price.

    ``words[src][dst]`` is a message size in words (``None`` for no
    message). ``t`` is the maximum over ranks of max(outgoing, incoming)
    words, self-sends excluded (they are local copies). Both the crossbar
    price and the traced words of ``alltoallv`` use it, evaluated in the
    historical expression order so simulated times and traces stay
    bit-identical to the pre-schedule engine.
    """
    p = len(words)
    out_words = [sum(w for w in row if w is not None) for row in words]
    out_net = [
        out_words[i] - (words[i][i] if words[i][i] is not None else 0.0)
        for i in range(p)
    ]
    in_words = [
        sum(
            words[src][dst]
            for src in range(p)
            if src != dst and words[src][dst] is not None
        )
        for dst in range(p)
    ]
    return max(max(o, i_) for o, i_ in zip(out_net, in_words)) if p else 0.0


def _round_congestion(rounds: Sequence[Sequence[Transfer]]) -> int:
    """Worst per-direction message pile-up on one rank in one round."""
    worst = 0
    for rnd in rounds:
        out: dict[int, int] = {}
        inc: dict[int, int] = {}
        for t in rnd:
            out[t.src] = out.get(t.src, 0) + 1
            inc[t.dst] = inc.get(t.dst, 0) + 1
        for d in (out, inc):
            if d:
                worst = max(worst, max(d.values()))
    return worst


# ---------------------------------------------------------------------------
# Schedule-building blocks (virtual-label round patterns)
# ---------------------------------------------------------------------------


def _binomial_rounds(n: int) -> list[list[tuple[int, int]]]:
    """Binomial broadcast rounds over virtual labels ``0..n-1`` rooted at 0.

    Round ``j`` (1-based) sends from every informed label ``v < 2^(j-1)``
    to ``v + 2^(j-1)`` (clipped to labels that exist): ``ceil(log2 n)``
    rounds, each a matching, spanning every label.
    """
    rounds = []
    for j in range(1, log2_ceil(n) + 1):
        half = 1 << (j - 1)
        rounds.append([(v, v + half) for v in range(half) if v + half < n])
    return rounds


def _fold_rounds(
    n: int, weights: Sequence[int] | None = None
) -> list[list[tuple[int, int, int]]]:
    """Binomial reduction rounds ``(src, dst, src_weight)`` to label 0.

    The reverse of :func:`_binomial_rounds`: leaves fold first, and every
    transfer records how many original contributions the sender has
    already accumulated (1, then 2, 4, ... up the tree) so gathers can
    charge the growing payloads. ``weights`` seeds each label's initial
    contribution count (default 1 each) — the two-level shape folds
    whole clusters, so a label may start worth its cluster's size.
    """
    weight = list(weights) if weights is not None else [1] * n
    rounds: list[list[tuple[int, int, int]]] = []
    for bcast in reversed(_binomial_rounds(n)):
        rnd = []
        for parent, child in bcast:
            rnd.append((child, parent, weight[child]))
            weight[parent] += weight[child]
        rounds.append(rnd)
    return rounds


def _doubling_rounds(
    n: int, weights: Sequence[int] | None = None
) -> list[list[tuple[int, int, int]]]:
    """Recursive-doubling allgather rounds ``(src, dst, src_weight)``.

    Round ``j`` pairs labels differing in bit ``j``; both directions of a
    pair appear, each carrying the sender's accumulated block size
    (seeded by ``weights``, default 1 each). Labels whose partner does
    not exist (non-power-of-two ``n``) idle that round — the
    enclosing-cube fold.
    """
    weight = list(weights) if weights is not None else [1] * n
    rounds: list[list[tuple[int, int, int]]] = []
    for j in range(log2_ceil(n)):
        rnd = []
        merged: list[tuple[int, int]] = []
        for v in range(n):
            u = v ^ (1 << j)
            if u < n and v < u:
                rnd.append((v, u, weight[v]))
                rnd.append((u, v, weight[u]))
                merged.append((v, u))
        for v, u in merged:
            s = weight[v] + weight[u]
            weight[v] = weight[u] = s
        rounds.append(rnd)
    return rounds


# ---------------------------------------------------------------------------
# The strategy interface
# ---------------------------------------------------------------------------


class Topology(abc.ABC):
    """How ``p`` ranks are wired: lowers every collective to a Schedule.

    A topology is a pure, stateless-per-launch pricing strategy: it never
    moves data (values meet on the rendezvous board regardless of shape),
    it only decides which point-to-point transfers happen in which round
    and what link class each transfer rides. One instance serves all
    ranks of a launch concurrently, so implementations must not mutate
    shared state inside the ``*_schedule`` methods.
    """

    #: Registry key; also recorded on results and reports.
    name: str = "?"

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ConfigurationError(f"topology needs p >= 1, got {p!r}")
        self.p = p

    # -- pricing helpers ----------------------------------------------------

    def _round_cost(self, model: CostModel, rnd: Sequence[Transfer]) -> float:
        """One round finishes when its slowest transfer does."""
        cost = 0.0
        for t in rnd:
            tau, mu = model.link(t.inter)
            cost = max(cost, tau + mu * t.words)
        return cost

    def _schedule(
        self,
        op: str,
        rounds: Sequence[Sequence[Transfer]],
        model: CostModel,
        cost: float | None = None,
        detail: str = "",
    ) -> Schedule:
        """Assemble a Schedule; ``cost`` defaults to the sum of round costs."""
        rounds = tuple(tuple(r) for r in rounds if r)
        round_costs = tuple(self._round_cost(model, r) for r in rounds)
        if cost is None:
            total = 0.0
            for c in round_costs:
                total += c
            cost = total
        return Schedule(op=op, rounds=rounds, cost=cost,
                        round_costs=round_costs,
                        congestion=_round_congestion(rounds), detail=detail)

    # -- routing ------------------------------------------------------------

    def route(self, src: int, dst: int) -> list[tuple[int, int, bool]]:
        """Edges ``(u, v, inter)`` a message travels from src to dst.

        The default is a direct link (crossbar semantics); tree and cube
        shapes override with their store-and-forward paths.
        """
        return [] if src == dst else [(src, dst, False)]

    # -- collective lowerings ----------------------------------------------

    @abc.abstractmethod
    def broadcast_schedule(self, model: CostModel, root: int, m: float) -> Schedule:
        """Root's ``m`` words to every rank."""

    @abc.abstractmethod
    def combine_schedule(self, model: CostModel, m: float) -> Schedule:
        """Allreduce of ``m``-word values."""

    @abc.abstractmethod
    def prefix_schedule(self, model: CostModel, m: float) -> Schedule:
        """Parallel prefix of ``m``-word values."""

    @abc.abstractmethod
    def gather_schedule(self, model: CostModel, root: int, m: float) -> Schedule:
        """Every rank's ``m`` words onto ``root``."""

    @abc.abstractmethod
    def allgather_schedule(self, model: CostModel, m: float) -> Schedule:
        """Every rank's ``m`` words onto every rank (Global Concatenate)."""

    @abc.abstractmethod
    def alltoallv_schedule(
        self, model: CostModel, words: Sequence[Sequence[float | None]]
    ) -> Schedule:
        """The transportation primitive: ``words[src][dst]`` is the message
        size in words (``None`` for no message; the diagonal is a local
        copy and never travels)."""

    def pairwise_schedule(
        self, model: CostModel, pairs: Sequence[tuple[int, int, float, float]]
    ) -> Schedule:
        """One round of simultaneous disjoint pair swaps.

        ``pairs`` holds ``(a, b, words_ab, words_ba)`` with ``a < b``. The
        generic lowering routes both directions of every pair and runs one
        schedule round per hop; adjacent pairs (every pair, on crossbar
        and two-level; dimension partners on the hypercube) take exactly
        one round, which reproduces the paper's slowest-pair formula.
        """
        rounds: list[list[Transfer]] = []

        def _lay(src: int, dst: int, w: float) -> None:
            for hop, (u, v, inter) in enumerate(self.route(src, dst)):
                while len(rounds) <= hop:
                    rounds.append([])
                rounds[hop].append(Transfer(u, v, w, inter))

        for a, b, w_ab, w_ba in pairs:
            _lay(a, b, w_ab)
            _lay(b, a, w_ba)
        return self._schedule("pairwise_exchange", rounds, model)

    @abc.abstractmethod
    def barrier_schedule(self, model: CostModel) -> Schedule:
        """Pure synchronisation (a one-word combine)."""

    # -- collective prices --------------------------------------------------
    # What a cost predictor reads (repro.selection.cost): the seconds one
    # collective charges, without its rounds. By default that is the
    # lowered schedule's cost; shapes with closed forms override these.

    def combine_cost(self, model: CostModel, m: float) -> float:
        """Seconds one ``m``-word combine charges every rank."""
        return self.combine_schedule(model, m).cost

    def gather_cost(self, model: CostModel, root: int, m: float) -> float:
        """Seconds one gather of ``m`` words per rank onto ``root`` charges."""
        return self.gather_schedule(model, root, m).cost

    def allgather_cost(self, model: CostModel, m: float) -> float:
        """Seconds one allgather of ``m`` words per rank charges."""
        return self.allgather_schedule(model, m).cost

    # -- description --------------------------------------------------------

    def describe(self) -> str:
        """Human-readable shape summary for reports and benches."""
        return f"{self.name}(p={self.p})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


# ---------------------------------------------------------------------------
# Crossbar: the paper's machine, bit-identical to the legacy closed forms
# ---------------------------------------------------------------------------


class CrossbarTopology(Topology):
    """The paper's virtual crossbar (Section 2.1) — the default shape.

    Schedules mirror the tree/hypercube algorithms whose costs the paper
    states (so round counts and congestion are still meaningful), but the
    schedule ``cost`` is the paper's closed form, written once in the
    ``*_cost`` price methods and evaluated in the exact same order as the
    pre-schedule engine — simulated times are bit-identical to ``main``
    and pinned by ``tests/test_topology.py`` /
    ``benchmarks/bench_topology.py``.
    """

    name = "crossbar"

    def _rot(self, root: int):
        return lambda v: (v + root) % self.p

    def combine_cost(self, model, m):
        # ceil(log2 p) rounds of one m-word message: the paper's price for
        # every tree collective (broadcast, combine, prefix, barrier).
        return (model.tau + model.mu * m) * log2_ceil(self.p)

    def gather_cost(self, model, root, m):
        return model.tau * log2_ceil(self.p) + model.mu * m * (self.p - 1)

    def allgather_cost(self, model, m):
        return self.gather_cost(model, 0, m)

    def broadcast_schedule(self, model, root, m):
        real = self._rot(root)
        rounds = [
            [Transfer(real(s), real(d), m) for s, d in rnd]
            for rnd in _binomial_rounds(self.p)
        ]
        return self._schedule("broadcast", rounds, model,
                              cost=self.combine_cost(model, m))

    def _butterfly(self, op, model, m):
        rounds = [
            [t for a, b in pairs for t in (Transfer(a, b, m), Transfer(b, a, m))]
            for pairs in hypercube_rounds(self.p)
        ]
        return self._schedule(op, rounds, model,
                              cost=self.combine_cost(model, m))

    def combine_schedule(self, model, m):
        return self._butterfly("combine", model, m)

    def prefix_schedule(self, model, m):
        return self._butterfly("prefix", model, m)

    def gather_schedule(self, model, root, m):
        real = self._rot(root)
        rounds = [
            [Transfer(real(s), real(d), m * w) for s, d, w in rnd]
            for rnd in _fold_rounds(self.p)
        ]
        return self._schedule("gather", rounds, model,
                              cost=self.gather_cost(model, root, m))

    def allgather_schedule(self, model, m):
        rounds = [
            [Transfer(s, d, m * w) for s, d, w in rnd]
            for rnd in _doubling_rounds(self.p)
        ]
        return self._schedule("allgather", rounds, model,
                              cost=self.allgather_cost(model, m))

    def alltoallv_schedule(self, model, words):
        p = self.p
        t = transport_words(words)
        max_msgs = max(
            sum(1 for d, w in enumerate(row) if w is not None and d != i)
            for i, row in enumerate(words)
        )
        cost = model.tau * max_msgs + 2.0 * model.mu * t
        rnd = [
            Transfer(s, d, words[s][d])
            for s in range(p)
            for d in range(p)
            if s != d and words[s][d] is not None
        ]
        return self._schedule(
            "alltoallv", [rnd], model, cost=cost,
            detail=f"max_msgs={max_msgs}",
        )

    def barrier_schedule(self, model):
        return self._butterfly("barrier", model, 1.0)


# ---------------------------------------------------------------------------
# Binomial tree: fixed wiring rooted at rank 0
# ---------------------------------------------------------------------------


class BinomialTreeTopology(Topology):
    """A fixed binomial tree rooted at rank 0 — ``p - 1`` physical links.

    Reductions fold up the tree, broadcasts fan down it, scans run an
    up-down sweep (twice the crossbar's rounds), and many-to-many traffic
    is routed hop-by-hop through tree paths — the root link is the
    bottleneck, which the per-round slowest-transfer pricing and the
    congestion metric both surface.
    """

    name = "binomial-tree"

    @staticmethod
    def _parent(v: int) -> int:
        return v & (v - 1)

    def _ancestors(self, v: int) -> list[int]:
        chain = [v]
        while v:
            v = self._parent(v)
            chain.append(v)
        return chain

    def route(self, src, dst):
        if src == dst:
            return []
        up = self._ancestors(src)
        down = self._ancestors(dst)
        up_set = set(up)
        # Lowest ancestor of dst that is also an ancestor of src = the LCA.
        lca = next(v for v in down if v in up_set)
        edges = []
        for v in up[: up.index(lca)]:
            edges.append((v, self._parent(v), False))
        descend = down[: down.index(lca)]
        for v in reversed(descend):
            edges.append((self._parent(v), v, False))
        return edges

    def _down_rounds(self, m: float) -> list[list[Transfer]]:
        return [
            [Transfer(s, d, m) for s, d in rnd]
            for rnd in _binomial_rounds(self.p)
        ]

    def _up_rounds(self, m: float, weighted: bool) -> list[list[Transfer]]:
        return [
            [Transfer(s, d, m * w if weighted else m) for s, d, w in rnd]
            for rnd in _fold_rounds(self.p)
        ]

    def _hop_rounds(self, src: int, dst: int, w: float) -> list[list[Transfer]]:
        return [[Transfer(u, v, w, inter)] for u, v, inter in self.route(src, dst)]

    def broadcast_schedule(self, model, root, m):
        rounds = self._hop_rounds(root, 0, m) + self._down_rounds(m)
        return self._schedule("broadcast", rounds, model)

    def combine_schedule(self, model, m):
        rounds = self._up_rounds(m, weighted=False) + self._down_rounds(m)
        return self._schedule("combine", rounds, model)

    def prefix_schedule(self, model, m):
        rounds = self._up_rounds(m, weighted=False) + self._down_rounds(m)
        return self._schedule("prefix", rounds, model)

    def gather_schedule(self, model, root, m):
        rounds = self._up_rounds(m, weighted=True) + self._hop_rounds(
            0, root, m * self.p
        )
        return self._schedule("gather", rounds, model)

    def allgather_schedule(self, model, m):
        rounds = self._up_rounds(m, weighted=True) + self._down_rounds(m * self.p)
        return self._schedule("allgather", rounds, model)

    def alltoallv_schedule(self, model, words):
        rounds = _route_rounds(self, words)
        return self._schedule("alltoallv", rounds, model)

    def barrier_schedule(self, model):
        rounds = self._up_rounds(1.0, weighted=False) + self._down_rounds(1.0)
        return self._schedule("barrier", rounds, model)


# ---------------------------------------------------------------------------
# Hypercube: dimension-ordered cube algorithms
# ---------------------------------------------------------------------------


class HypercubeTopology(Topology):
    """A ``ceil(log2 p)``-dimensional hypercube (folded when p isn't 2^d).

    Broadcast/gather run dimension-ordered binomial trees, allreduce and
    scans run the butterfly, allgather runs recursive doubling, and the
    transportation primitive is e-cube routed (messages fix differing
    address bits in ascending dimension order). On a non-power-of-two
    machine the ranks occupy the low corner of the enclosing cube: absent
    partners idle a round and absent route nodes are skipped — the fold.
    """

    name = "hypercube"

    def _virt(self, root: int):
        """Relabel so the collective's root sits at label 0.

        XOR relabelling is a cube automorphism but only keeps every label
        in range when ``p`` is a power of two; the fold for other ``p``
        rotates labels instead (still spanning, one hop per round).
        """
        if is_power_of_two(self.p):
            return (lambda v: v ^ root), (lambda r: r ^ root)
        return (lambda v: (v + root) % self.p), (lambda r: (r - root) % self.p)

    def route(self, src, dst):
        if src == dst:
            return []
        nodes = [src]
        cur = src
        for j in range(log2_ceil(self.p)):
            if ((cur ^ dst) >> j) & 1:
                cur ^= 1 << j
                nodes.append(cur)
        # Fold: drop intermediate corners that don't exist on this machine.
        nodes = [n for n in nodes if n < self.p]
        return [(nodes[i], nodes[i + 1], False) for i in range(len(nodes) - 1)]

    def broadcast_schedule(self, model, root, m):
        to_real, _ = self._virt(root)
        rounds = [
            [Transfer(to_real(s), to_real(d), m) for s, d in rnd]
            for rnd in _binomial_rounds(self.p)
        ]
        return self._schedule("broadcast", rounds, model)

    def _butterfly_rounds(self, m: float) -> list[list[Transfer]]:
        return [
            [t for a, b in pairs for t in (Transfer(a, b, m), Transfer(b, a, m))]
            for pairs in hypercube_rounds(self.p)
        ]

    def combine_schedule(self, model, m):
        return self._schedule("combine", self._butterfly_rounds(m), model)

    def prefix_schedule(self, model, m):
        return self._schedule("prefix", self._butterfly_rounds(m), model)

    def gather_schedule(self, model, root, m):
        to_real, _ = self._virt(root)
        rounds = [
            [Transfer(to_real(s), to_real(d), m * w) for s, d, w in rnd]
            for rnd in _fold_rounds(self.p)
        ]
        return self._schedule("gather", rounds, model)

    def allgather_schedule(self, model, m):
        rounds = [
            [Transfer(s, d, m * w) for s, d, w in rnd]
            for rnd in _doubling_rounds(self.p)
        ]
        return self._schedule("allgather", rounds, model)

    def alltoallv_schedule(self, model, words):
        rounds = _route_rounds(self, words)
        return self._schedule("alltoallv", rounds, model)

    def barrier_schedule(self, model):
        return self._schedule("barrier", self._butterfly_rounds(1.0), model)


def _route_rounds(
    topo: Topology, words: Sequence[Sequence[float | None]]
) -> list[list[Transfer]]:
    """Store-and-forward lowering of the transportation primitive.

    Every message travels its topology route; the hop-``h`` edges of all
    messages share schedule round ``h``, and messages crossing the same
    directed edge in the same round batch into one transfer (one
    start-up, summed words) — which is exactly where a tree's root link
    or a cube's bisection shows up as congestion.
    """
    p = topo.p
    agg: list[dict[tuple[int, int, bool], float]] = []
    for s in range(p):
        for d in range(p):
            if s == d or words[s][d] is None:
                continue
            for hop, edge in enumerate(topo.route(s, d)):
                while len(agg) <= hop:
                    agg.append({})
                agg[hop][edge] = agg[hop].get(edge, 0.0) + words[s][d]
    return [
        [Transfer(u, v, w, inter) for (u, v, inter), w in sorted(rnd.items())]
        for rnd in agg
    ]


# ---------------------------------------------------------------------------
# Two-level clusters: intra/inter link classes
# ---------------------------------------------------------------------------


class TwoLevelTopology(Topology):
    """Clusters of ranks behind a global switch (the hierarchical shape).

    Ranks ``[c*s, (c+1)*s)`` form cluster ``c`` with its first rank as
    leader. Collectives run in stages: an intra-cluster stage on the flat
    ``tau``/``mu`` links (all clusters in parallel), an inter-cluster
    stage between leaders on the ``tau_inter``/``mu_inter`` links of a
    hierarchical :class:`~repro.machine.cost_model.CostModel` (falling
    back to the flat links when the model carries no hierarchy). The
    default cluster size is ``2^ceil(L/2)`` — the square-ish split.
    """

    name = "two-level"

    def __init__(self, p: int, cluster_size: int | None = None):
        super().__init__(p)
        if cluster_size is None:
            cluster_size = 1 << ((log2_ceil(p) + 1) // 2)
        if not isinstance(cluster_size, int) or isinstance(cluster_size, bool) \
                or cluster_size < 1:
            raise ConfigurationError(
                f"two-level cluster_size must be a positive integer, "
                f"got {cluster_size!r}"
            )
        self.cluster_size = min(cluster_size, p)
        self.n_clusters = -(-p // self.cluster_size)

    def describe(self) -> str:
        return (
            f"{self.name}(p={self.p}, "
            f"clusters={self.n_clusters}x{self.cluster_size})"
        )

    # -- structure ----------------------------------------------------------

    def cluster(self, rank: int) -> int:
        return rank // self.cluster_size

    def leader(self, c: int) -> int:
        return c * self.cluster_size

    def members(self, c: int) -> range:
        return range(
            c * self.cluster_size, min((c + 1) * self.cluster_size, self.p)
        )

    def route(self, src, dst):
        if src == dst:
            return []
        return [(src, dst, self.cluster(src) != self.cluster(dst))]

    # -- stage builders -----------------------------------------------------

    def _intra_down(self, m: float) -> list[list[Transfer]]:
        """Leader-to-members binomial rounds, all clusters in parallel."""
        rounds: list[list[Transfer]] = []
        for c in range(self.n_clusters):
            ranks = list(self.members(c))
            for j, rnd in enumerate(_binomial_rounds(len(ranks))):
                while len(rounds) <= j:
                    rounds.append([])
                rounds[j].extend(
                    Transfer(ranks[s], ranks[d], m) for s, d in rnd
                )
        return rounds

    def _intra_up(self, m: float, weighted: bool) -> list[list[Transfer]]:
        """Members-to-leader folds, all clusters in parallel."""
        rounds: list[list[Transfer]] = []
        for c in range(self.n_clusters):
            ranks = list(self.members(c))
            for j, rnd in enumerate(_fold_rounds(len(ranks))):
                while len(rounds) <= j:
                    rounds.append([])
                rounds[j].extend(
                    Transfer(ranks[s], ranks[d], m * w if weighted else m)
                    for s, d, w in rnd
                )
        return rounds

    # -- lowerings ----------------------------------------------------------

    def broadcast_schedule(self, model, root, m):
        rounds: list[list[Transfer]] = []
        lead = self.leader(self.cluster(root))
        if root != lead:
            rounds.append([Transfer(root, lead, m)])
        c_root = self.cluster(root)
        rot = lambda c: (c + c_root) % self.n_clusters  # noqa: E731
        rounds += [
            [
                Transfer(self.leader(rot(s)), self.leader(rot(d)), m, inter=True)
                for s, d in rnd
            ]
            for rnd in _binomial_rounds(self.n_clusters)
        ]
        rounds += self._intra_down(m)
        return self._schedule("broadcast", rounds, model)

    def _allreduce_rounds(self, m: float) -> list[list[Transfer]]:
        rounds = self._intra_up(m, weighted=False)
        rounds += [
            [
                t
                for a, b in pairs
                for t in (
                    Transfer(self.leader(a), self.leader(b), m, inter=True),
                    Transfer(self.leader(b), self.leader(a), m, inter=True),
                )
            ]
            for pairs in hypercube_rounds(self.n_clusters)
        ]
        rounds += self._intra_down(m)
        return rounds

    def combine_schedule(self, model, m):
        return self._schedule("combine", self._allreduce_rounds(m), model)

    def prefix_schedule(self, model, m):
        return self._schedule("prefix", self._allreduce_rounds(m), model)

    def gather_schedule(self, model, root, m):
        rounds = self._intra_up(m, weighted=True)
        c_root = self.cluster(root)
        rot = lambda c: (c + c_root) % self.n_clusters  # noqa: E731
        sizes = [len(self.members(rot(c))) for c in range(self.n_clusters)]
        rounds += [
            [
                Transfer(self.leader(rot(s)), self.leader(rot(d)),
                         m * w, inter=True)
                for s, d, w in rnd
            ]
            for rnd in _fold_rounds(self.n_clusters, weights=sizes)
        ]
        lead = self.leader(c_root)
        if root != lead:
            rounds.append([Transfer(lead, root, m * self.p)])
        return self._schedule("gather", rounds, model)

    def allgather_schedule(self, model, m):
        rounds = self._intra_up(m, weighted=True)
        sizes = [len(self.members(c)) for c in range(self.n_clusters)]
        rounds += [
            [
                Transfer(self.leader(s), self.leader(d), m * w, inter=True)
                for s, d, w in rnd
            ]
            for rnd in _doubling_rounds(self.n_clusters, weights=sizes)
        ]
        rounds += self._intra_down(m * self.p)
        return self._schedule("allgather", rounds, model)

    def alltoallv_schedule(self, model, words):
        p = self.p
        intra = [
            Transfer(s, d, words[s][d])
            for s in range(p)
            for d in range(p)
            if s != d and words[s][d] is not None
            and self.cluster(s) == self.cluster(d)
        ]
        inter = [
            Transfer(s, d, words[s][d], inter=True)
            for s in range(p)
            for d in range(p)
            if s != d and words[s][d] is not None
            and self.cluster(s) != self.cluster(d)
        ]

        def _transport_cost(transfers: list[Transfer], link_inter: bool) -> float:
            """The [20] price of one dense phase on one link class."""
            if not transfers:
                return 0.0
            out = [0.0] * p
            inc = [0.0] * p
            msgs = [0] * p
            for t in transfers:
                out[t.src] += t.words
                inc[t.dst] += t.words
                msgs[t.src] += 1
            tau, mu = model.link(link_inter)
            t_max = max(max(o, i_) for o, i_ in zip(out, inc))
            return tau * max(msgs) + 2.0 * mu * t_max

        intra_cost = _transport_cost(intra, False)
        inter_cost = _transport_cost(inter, True)
        rounds = tuple(tuple(r) for r in (intra, inter) if r)
        costs = tuple(
            c for r, c in ((intra, intra_cost), (inter, inter_cost)) if r
        )
        total = 0.0
        for c in costs:
            total += c
        return Schedule(
            op="alltoallv", rounds=rounds, cost=total, round_costs=costs,
            congestion=_round_congestion(rounds),
            detail=f"inter_msgs={len(inter)}",
        )

    def pairwise_schedule(self, model, pairs):
        rnd = []
        for a, b, w_ab, w_ba in pairs:
            inter = self.cluster(a) != self.cluster(b)
            rnd.append(Transfer(a, b, w_ab, inter))
            rnd.append(Transfer(b, a, w_ba, inter))
        return self._schedule("pairwise_exchange", [rnd], model)

    def barrier_schedule(self, model):
        return self._schedule("barrier", self._allreduce_rounds(1.0), model)


# ---------------------------------------------------------------------------
# Registry + spec resolution
# ---------------------------------------------------------------------------

#: Registry: canonical topology name -> class. A spec may carry one
#: ``:arg`` suffix (only ``two-level`` consumes it: the cluster size).
TOPOLOGIES: dict[str, type[Topology]] = {
    "crossbar": CrossbarTopology,
    "binomial-tree": BinomialTreeTopology,
    "hypercube": HypercubeTopology,
    "two-level": TwoLevelTopology,
}

#: Accepted shorthand -> canonical name.
_ALIASES = {"tree": "binomial-tree"}


def available_topologies() -> tuple[str, ...]:
    """The registered topology names, sorted."""
    return tuple(sorted(TOPOLOGIES))


def _parse_spec(spec: str) -> tuple[str, int | None]:
    base, _, arg = spec.partition(":")
    base = _ALIASES.get(base, base)
    if base not in TOPOLOGIES:
        raise ConfigurationError(
            f"unknown topology {spec!r}; available: {sorted(TOPOLOGIES)}"
        )
    if not arg:
        return base, None
    if base != "two-level":
        raise ConfigurationError(
            f"topology {base!r} takes no parameter, got {spec!r} "
            "(only 'two-level:<cluster_size>' is parameterised)"
        )
    try:
        size = int(arg)
    except ValueError:
        size = 0
    if size < 1:
        raise ConfigurationError(
            f"two-level cluster size must be a positive integer, got {spec!r}"
        )
    return base, size


def validate_topology_spec(spec: str) -> str:
    """Check a topology spec string; returns its canonical form.

    Accepts a registry name, an alias (``tree``), or a parameterised
    ``two-level:<cluster_size>``; raises
    :class:`~repro.errors.ConfigurationError` listing the options
    otherwise.
    """
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"topology spec must be a string, got {type(spec).__name__}"
        )
    base, size = _parse_spec(spec)
    return base if size is None else f"{base}:{size}"


def default_topology_spec() -> str:
    """``REPRO_TOPOLOGY`` if set (validated), else ``"crossbar"``."""
    spec = os.environ.get(TOPOLOGY_ENV_VAR, "").strip()
    if not spec:
        return "crossbar"
    return validate_topology_spec(spec)


def resolve_topology(topology, p: int) -> Topology:
    """Normalise ``None`` (env default / crossbar), a spec string, or a
    :class:`Topology` instance to an instance wired for ``p`` ranks."""
    if topology is None:
        topology = default_topology_spec()
    if isinstance(topology, Topology):
        if topology.p != p:
            raise ConfigurationError(
                f"topology {topology.describe()} is wired for p={topology.p}, "
                f"but this launch has p={p}"
            )
        return topology
    if isinstance(topology, str):
        base, size = _parse_spec(topology)
        if size is not None:
            return TwoLevelTopology(p, cluster_size=size)
        return TOPOLOGIES[base](p)
    raise ConfigurationError(
        f"topology must be a name, a Topology or None, "
        f"got {type(topology).__name__}"
    )
