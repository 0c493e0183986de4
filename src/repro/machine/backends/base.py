"""The execution-backend contract: ``Launch`` in, ``SPMDResult`` out.

The paper's algorithms are machine-independent — they only assume a
coarse-grained SPMD machine with the six collectives — so the runtime
separates *what* a launch is from *how* its ranks are physically driven:

* :class:`Launch` — one validated SPMD launch: the program, the per-rank
  arguments, the cost model, the topology, the tracer. Backend-agnostic,
  and the **single** validation point for launch shape (rank counts,
  per-rank argument lists, topology resolution): every entry path —
  ``SPMDRuntime.run``, ``run_spmd``, a backend driven directly — goes
  through ``Launch.__post_init__``, so no check is duplicated anywhere.
* :class:`ProcContext` — everything one rank sees: identity, communicator,
  logical clock, cost model. Identical on every backend, which is what
  makes the cross-backend differential tests meaningful.
* :class:`ExecutionBackend` — the strategy interface. Implementations:
  ``serial`` (:mod:`.serial`), ``threaded`` (:mod:`.threaded`) and
  ``process`` (:mod:`.process`).
* :class:`SPMDResult` — per-rank values, final clocks and breakdowns, the
  real wall time, and the name of the backend that ran the launch.

Because every backend charges the same simulated costs through the same
:class:`~repro.machine.collectives.CollectiveEngine`, selection values,
RNG streams and simulated times are bit-identical across backends; only
``wall_time`` (and the physical vehicle) differs.
"""

from __future__ import annotations

import abc
import contextlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ...errors import ConfigurationError, WorkerAborted, WorkerError
from ..channels import MessageBoard
from ..clock import Category, LogicalClock, TimeBreakdown
from ..collectives import CollectiveEngine
from ..comm import Comm
from ..cost_model import CostModel
from ..topology import Topology, resolve_topology
from ..trace import NullTracer, Tracer

__all__ = [
    "MAX_RANKS",
    "ExecutionBackend",
    "Launch",
    "ProcContext",
    "SPMDResult",
    "raise_worker_failures",
    "run_single_rank",
    "validate_n_procs",
]

#: Hard rank-count ceiling to protect CI boxes; the paper's largest
#: machine is 128. Shared by the runtime facade and Launch validation.
MAX_RANKS = 1024


def validate_n_procs(n_procs) -> int:
    """The one rank-count check every launch path shares."""
    if not isinstance(n_procs, int) or isinstance(n_procs, bool) or n_procs < 1:
        raise ConfigurationError(
            f"n_procs must be a positive integer, got {n_procs!r}"
        )
    if n_procs > MAX_RANKS:
        raise ConfigurationError(
            f"n_procs={n_procs} exceeds MAX_RANKS={MAX_RANKS}"
        )
    return n_procs


@dataclass
class ProcContext:
    """Everything one rank needs: identity, comm, clock, cost model."""

    rank: int
    size: int
    comm: Comm
    clock: LogicalClock
    model: CostModel

    def charge_compute(self, seconds: float) -> None:
        self.clock.charge(Category.COMPUTE, seconds)

    @contextlib.contextmanager
    def balance_section(self):
        """Attribute all time charged inside to the load-balancing bucket."""
        self.clock.open_balance_section()
        try:
            yield self
        finally:
            self.clock.close_balance_section()


@dataclass
class SPMDResult:
    """Outcome of one SPMD run.

    Attributes
    ----------
    values:
        Per-rank return values of the program.
    clocks:
        Final simulated time per rank.
    breakdowns:
        Per-rank :class:`TimeBreakdown`.
    wall_time:
        Real seconds the simulation took (not the simulated metric).
    backend:
        Name of the execution backend that ran the launch.
    topology:
        Name of the machine topology the collectives were lowered onto.
    """

    values: list[Any]
    clocks: list[float]
    breakdowns: list[TimeBreakdown]
    wall_time: float
    tracer: Tracer | NullTracer = field(default_factory=NullTracer)
    backend: str = "threaded"
    topology: str = "crossbar"
    #: The launch's :class:`~repro.obs.spans.Span` when span capture was on
    #: (attached by the runtime after execution so report assembly can
    #: enrich it with query-level attributes); ``None`` otherwise.
    span: Any = field(default=None, repr=False, compare=False)

    @property
    def simulated_time(self) -> float:
        """The machine finishes when its slowest processor does."""
        return max(self.clocks) if self.clocks else 0.0

    @property
    def breakdown(self) -> TimeBreakdown:
        """Breakdown of the rank that determined the finish time."""
        if not self.clocks:
            return TimeBreakdown()
        critical = max(range(len(self.clocks)), key=self.clocks.__getitem__)
        return self.breakdowns[critical]

    @property
    def balance_time(self) -> float:
        """Max across ranks of time attributed to load balancing."""
        return max((b.balance for b in self.breakdowns), default=0.0)

    def collective_rounds(self, rank: int = 0) -> dict[str, dict]:
        """Per-collective round evidence from the trace (one rank's view).

        Returns ``{op: {"calls", "rounds", "max_congestion"}}`` — how many
        times the op ran, the total schedule rounds it executed, and the
        worst per-round transfer pile-up on a single rank. Empty when the
        launch ran without tracing; any rank gives the same answer (strict
        SPMD discipline), so rank 0 is read by default.
        """
        summary: dict[str, dict] = {}
        for e in self.tracer.events(rank=rank):
            row = summary.setdefault(
                e.op, {"calls": 0, "rounds": 0, "max_congestion": 0}
            )
            row["calls"] += 1
            row["rounds"] += e.rounds
            row["max_congestion"] = max(row["max_congestion"], e.congestion)
        return summary


@dataclass
class Launch:
    """One validated SPMD launch, independent of the execution vehicle.

    ``__post_init__`` is the single validation/normalisation point every
    launch path shares: the rank count, the per-rank argument shape, and
    the topology (a spec string, ``None`` for the ``REPRO_TOPOLOGY``/
    crossbar default, or a ready :class:`~repro.machine.topology.Topology`)
    are checked here once, so backends can trust every field.
    """

    fn: Callable[..., Any]
    n_procs: int
    cost_model: CostModel
    rank_args: Sequence[Sequence[Any]] | None = None
    args: Sequence[Any] = ()
    kwargs: dict = field(default_factory=dict)
    tracer: Tracer | NullTracer = field(default_factory=NullTracer)
    join_timeout: float = 120.0
    topology: Topology | str | None = None
    #: Persistent-worker events this launch caused (``forks``, ``reuses``,
    #: ``pinned_bytes``), filled by the backend that ran it; the runtime
    #: adds them to its own machine's counters.
    counts: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:
        validate_n_procs(self.n_procs)
        if self.rank_args is not None and len(self.rank_args) != self.n_procs:
            raise ConfigurationError(
                f"rank_args must have one entry per rank ({self.n_procs}), "
                f"got {len(self.rank_args)}"
            )
        self.topology = resolve_topology(self.topology, self.n_procs)

    def call(self, ctx: ProcContext) -> Any:
        """Run the program body for ``ctx.rank``."""
        extra = (
            tuple(self.rank_args[ctx.rank]) if self.rank_args is not None else ()
        )
        return self.fn(ctx, *extra, *self.args, **self.kwargs)


class ExecutionBackend(abc.ABC):
    """How one SPMD launch is physically driven.

    A backend receives a :class:`Launch` and must return an
    :class:`SPMDResult` with one entry per rank, converting any rank
    failure into a :class:`~repro.errors.WorkerError` that chains the
    original exception (siblings unwinding with ``WorkerAborted`` are
    suppressed). One instance serves any number of runtimes; most
    backends are stateless, while ``pool`` keeps persistent workers and a
    pin cache precisely so launches can share them.
    """

    #: Registry key; also recorded on every result/report.
    name: str = "?"

    @abc.abstractmethod
    def execute(self, launch: Launch) -> SPMDResult:
        """Run ``launch`` on every rank and collect the outcome."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


def raise_worker_failures(errors: Sequence[BaseException | None]) -> None:
    """Convert per-rank errors to the caller-facing :class:`WorkerError`.

    The first *real* failure (lowest rank, non-``WorkerAborted``) wins and
    chains its original exception; pure aborts without a root cause are a
    runtime bug but still surface as an error rather than silence.
    """
    real = [
        (r, e)
        for r, e in enumerate(errors)
        if e is not None and not isinstance(e, WorkerAborted)
    ]
    if real:
        rank, cause = real[0]
        raise WorkerError(rank, cause) from cause
    aborted = [r for r, e in enumerate(errors) if e is not None]
    if aborted:  # pragma: no cover - abort without a root cause
        raise WorkerError(aborted[0], errors[aborted[0]])


def run_single_rank(launch: Launch, backend_name: str) -> SPMDResult:
    """The shared ``p == 1`` fast path: no workers, run inline.

    A single rank cannot deadlock or race, so every backend executes it on
    the calling thread — the historical behaviour of the monolithic
    runtime, preserved bit-for-bit.
    """
    engine = CollectiveEngine(
        1, launch.cost_model, launch.tracer, topology=launch.topology
    )
    board = MessageBoard(1)
    clock = LogicalClock()
    ctx = ProcContext(
        rank=0,
        size=1,
        comm=Comm(0, 1, engine, board, clock, launch.cost_model),
        clock=clock,
        model=launch.cost_model,
    )
    t0 = time.perf_counter()
    try:
        value = launch.call(ctx)
    except WorkerAborted as exc:  # pragma: no cover - single rank can't abort
        raise_worker_failures([exc])
    except BaseException as exc:
        raise_worker_failures([exc])
    wall = time.perf_counter() - t0
    board.drain_check()
    return SPMDResult(
        values=[value],
        clocks=[clock.now],
        breakdowns=[clock.breakdown()],
        wall_time=wall,
        tracer=launch.tracer,
        backend=backend_name,
        topology=launch.topology.name,
    )
