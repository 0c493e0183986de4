"""Closed-form time predictions: the paper's Tables 1-2 on any topology.

The paper prices every algorithm as local work plus collectives under one
model; this module turns its asymptotic running times into concrete
predictors by plugging in the cost model's constants and the calibrated
leading coefficients, so the complexity claims become executable:

* Table 1 (balanced loads / random data): the expected-case formulas;
* Table 2 (no balancing, sorted worst case): the worst-case formulas.

The compute side of each formula is topology-independent. The collective
side reads the machine shape's own prices
(:meth:`~repro.machine.topology.Topology.combine_cost`, ``gather_cost``,
``allgather_cost``) — the same seconds a launch on that shape charges —
so one skeleton prices the crossbar, binomial tree, hypercube and
two-level machines alike.

``predict`` returns seconds comparable to ``report.simulated_time``; the
test suite checks agreement within a small factor across a grid — that
*is* the reproduction of Tables 1-2 as more than prose. The planner ranks
candidate plans with it, and every plain single-target launch of a
closed-form algorithm records it as ``report.predicted_time``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..machine.cost_model import CM5, CostModel
from ..machine.topology import Topology, log2_ceil, resolve_topology

__all__ = [
    "CLOSED_FORM_ALGORITHMS",
    "Prediction",
    "predict",
    "predict_prefilter",
]

#: Algorithms with a closed-form prediction (the planner's candidate pool).
#: Hybrids and sort_based have no closed form — the paper states no bound
#: for them — so the planner never proposes them and ``predicted_time``
#: stays ``None`` when the user picks one explicitly.
CLOSED_FORM_ALGORITHMS: tuple[str, ...] = (
    "median_of_medians",
    "bucket_based",
    "randomized",
    "fast_randomized",
)

#: Expected total scan volume (in units of n) of randomized selection
#: targeting the median: sum of E[n^(j)] ~ (2 + 2 ln 2) n, split over p.
_GAMMA_RANDOMIZED = 3.4
#: Fast randomized keeps ~n^delta-driven slices: the live set collapses
#: geometrically, total scan volume ~1.3 n.
_GAMMA_FAST = 1.3
#: Collectives per iteration (prefix/combine-pivot/combine-counts vs the
#: richer sample-sort round of Algorithm 4).
_COLLS_RANDOMIZED = 3
_COLLS_FAST = 9
_COLLS_MOM = 3


@dataclass(frozen=True)
class Prediction:
    """A decomposed closed-form estimate."""

    algorithm: str
    table: int
    compute: float
    comm: float

    @property
    def total(self) -> float:
        return self.compute + self.comm


def _iters_log(n: int, p: int) -> int:
    """Halving iterations until the p^2 endgame threshold."""
    threshold = max(p * p, 1)
    return max(1, math.ceil(math.log2(max(n / threshold, 2))))


def _iters_loglog(n: int) -> int:
    return max(1, math.ceil(math.log2(max(math.log2(max(n, 4)), 2))))


def predict(
    algorithm: str,
    n: int,
    p: int,
    model: CostModel = CM5,
    topology: Topology | str | None = None,
    table: int = 1,
) -> Prediction:
    """Closed-form simulated-seconds estimate for one launch shape.

    ``table=1`` gives the balanced/expected-case prediction (random data);
    ``table=2`` the worst-case one (sorted data, no balancing).
    ``topology`` may be a spec string (``"hypercube"``,
    ``"two-level:8"``), a :class:`~repro.machine.topology.Topology`
    wired for ``p`` ranks, or ``None`` for the process default. Raises
    :class:`~repro.errors.ConfigurationError` for algorithms without a
    closed form (hybrids, ``sort_based``).
    """
    if table not in (1, 2):
        raise ConfigurationError(f"table must be 1 or 2, got {table}")
    topo = resolve_topology(topology, p)
    c = model.compute
    np_ = n / max(p, 1)
    L = _iters_log(n, p)
    LL = _iters_loglog(n)
    per_coll = topo.combine_cost(model, 1.0)

    if algorithm == "median_of_medians":
        unit = c.select_deterministic + c.partition
        compute = 2.0 * np_ * unit if table == 1 else np_ * unit * L
        comm = L * (_COLLS_MOM * per_coll + topo.gather_cost(model, 0, 1.0))
    elif algorithm == "bucket_based":
        nb = max(2, log2_ceil(max(p, 2)))
        preprocess = c.bucket_level * np_ * log2_ceil(nb)
        unit = c.select_deterministic + c.partition
        if table == 1:
            compute = preprocess + 2.0 * (np_ / nb) * unit * min(L, nb)
        else:
            # Paper: n/p (log log p + log n / log p) class.
            compute = preprocess + (np_ / nb) * unit * L
        comm = L * (_COLLS_MOM * per_coll + topo.gather_cost(model, 0, 2))
    elif algorithm == "randomized":
        if table == 1:
            compute = _GAMMA_RANDOMIZED * np_ * c.partition
        else:
            compute = np_ * c.partition * L  # n_max stays n/p on sorted
        compute += L * c.rng_draw
        comm = L * _COLLS_RANDOMIZED * per_coll
    elif algorithm == "fast_randomized":
        gamma = _GAMMA_FAST if table == 1 else 2.6  # blocks keep n_max ~ n/p
        compute = gamma * np_ * c.partition
        # Sample sort of ~n^0.6 keys per iteration (local sort + merge).
        s = n ** 0.6
        sort_unit = c.sort_per_cmp * (s / p) * max(1.0, math.log2(max(s, 2)))
        compute += LL * sort_unit
        comm = LL * (_COLLS_FAST * per_coll + topo.gather_cost(model, 0, p))
    else:
        raise ConfigurationError(
            f"no closed-form prediction for algorithm {algorithm!r}"
        )
    # Endgame: gather <= p^2 keys + one sequential selection.
    endgame_n = min(n, max(p * p, 1))
    comm += topo.gather_cost(model, 0, endgame_n / max(p, 1))
    compute += endgame_n * c.select_randomized
    return Prediction(algorithm=algorithm, table=table, compute=compute,
                      comm=comm)


def predict_prefilter(
    algorithm: str,
    n: int,
    p: int,
    model: CostModel,
    topology: Topology | str | None = None,
    eps: float = 0.01,
    table: int = 1,
) -> Prediction:
    """Estimate for a sketch-prefiltered launch (planner ranking only).

    The refine path allgathers each rank's ~``2/eps`` sketch summary, scans
    the local shard once to carve the candidate window, then runs the
    algorithm on ``n_eff ~ 2 * eps * n`` survivors. This estimate prices
    those three stages; it is intentionally *not* used for
    ``report.predicted_time`` (the report predicts the launch it actually
    ran, and a prefiltered query runs a refine pass plus a smaller launch).
    """
    if not 0.0 < eps < 0.5:
        raise ConfigurationError(f"prefilter eps must be in (0, 0.5), got {eps}")
    topo = resolve_topology(topology, p)
    exchange = topo.allgather_cost(model, 2.0 / eps)
    scan = (n / max(p, 1)) * model.compute.partition
    n_eff = min(n, max(p, int(2.0 * eps * n) + 1))
    inner = predict(algorithm, n_eff, p, model, topo, table)
    return Prediction(algorithm=algorithm, table=table,
                      compute=scan + inner.compute,
                      comm=exchange + inner.comm)
