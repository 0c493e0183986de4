"""Per-rank communicator facade — the API SPMD programs are written against.

Mirrors the mpi4py surface where it makes sense (``rank``/``size``
attributes, lower-case object methods) but exposes the paper's primitive
names: :meth:`broadcast`, :meth:`combine`, :meth:`prefix_sum`,
:meth:`gather`, :meth:`global_concat`, :meth:`alltoallv` (the transportation
primitive) and :meth:`pairwise_exchange`.

Every exchange between ranks is one of these collectives, as in the paper:
there is no point-to-point ``send``/``recv``. A disjoint pair swap is a
:meth:`pairwise_exchange` round, and a scatter of variable-size messages
is an :meth:`alltoallv`. Each ``Comm`` is owned by exactly one rank (one
thread); all cross-rank coordination happens inside the shared
:class:`CollectiveEngine`.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Sequence

import numpy as np

from .clock import Category, LogicalClock
# ``payload_words`` stays importable from here: perfbench's layer tracer
# patches it on this module as well as on ``collectives``.
from .collectives import CollectiveEngine, payload_words  # noqa: F401
from .cost_model import CostModel

__all__ = ["Comm"]


class Comm:
    """Communication endpoint for one SPMD rank."""

    def __init__(
        self,
        rank: int,
        size: int,
        engine: CollectiveEngine,
        clock: LogicalClock,
        model: CostModel,
    ):
        self.rank = rank
        self.size = size
        self._engine = engine
        self._clock = clock
        self._model = model

    # ----------------------------------------------------------- collectives

    def broadcast(self, value: Any = None, root: int = 0) -> Any:
        """Primitive 1 — ``root``'s value delivered to every rank."""
        return self._engine.broadcast(
            self.rank, value if self.rank == root else None, root, self._clock,
            Category.COMM,
        )

    def combine(self, value: Any, op: Callable[[Any, Any], Any] = operator.add) -> Any:
        """Primitive 2 — allreduce with a binary associative op."""
        return self._engine.combine(self.rank, value, op, self._clock, Category.COMM)

    def prefix_sum(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = operator.add,
        inclusive: bool = True,
        initial: Any = 0,
    ) -> Any:
        """Primitive 3 — parallel prefix (scan) of one value per rank."""
        return self._engine.prefix(
            self.rank, value, op, self._clock, Category.COMM,
            inclusive=inclusive, initial=initial,
        )

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Primitive 4 — list of all values on ``root``, ``None`` elsewhere."""
        return self._engine.gather(self.rank, value, root, self._clock, Category.COMM)

    def global_concat(self, value: Any) -> list[Any]:
        """Primitive 5 — Global Concatenate: list of all values, everywhere."""
        return self._engine.allgather(self.rank, value, self._clock, Category.COMM)

    # Alias familiar to MPI users.
    allgather = global_concat

    def alltoallv(self, sends: Sequence[Any]) -> list[Any]:
        """Primitive 6 — transportation primitive (many-to-many, variable)."""
        return self._engine.alltoallv(self.rank, sends, self._clock, Category.COMM)

    def pairwise_exchange(self, partner: int | None, payload: Any = None) -> Any:
        """One hypercube round of simultaneous disjoint pair swaps."""
        return self._engine.pairwise_exchange(
            self.rank, partner, payload, self._clock, Category.COMM
        )

    def barrier(self) -> None:
        self._engine.barrier_sync(self.rank, self._clock, Category.COMM)

    # -------------------------------------------------- numeric conveniences

    def gather_concat_array(self, arr: np.ndarray, root: int = 0) -> np.ndarray | None:
        """Gather variable-length arrays to ``root`` and concatenate them.

        This is the ``L = Gather(L_i[l:r])`` step every selection algorithm
        performs for its endgame (solve the residual problem sequentially).
        """
        parts = self.gather(arr, root=root)
        if self.rank != root:
            return None
        live = [p for p in parts if p is not None and p.size]
        return np.concatenate(live) if live else np.asarray(arr)[:0]

    def allreduce_sum(self, value: int | float) -> int | float:
        return self.combine(value, operator.add)

    def exscan_sum(self, value: int | float) -> int | float:
        """Exclusive prefix sum: global offset of this rank's block."""
        return self.prefix_sum(value, operator.add, inclusive=False, initial=0)

    # ------------------------------------------------------------ accounting

    def charge_compute(self, seconds: float) -> None:
        self._clock.charge(Category.COMPUTE, seconds)

    @property
    def model(self) -> CostModel:
        return self._model

    @property
    def clock(self) -> LogicalClock:
        return self._clock
