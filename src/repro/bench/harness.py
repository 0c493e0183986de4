"""Experiment harness: run one (algorithm, balancer, workload, n, p) point of
the paper's evaluation grid and collect the metrics the figures plot.

The paper averages each random-data point over five different random data
sets "to eliminate peculiar cases"; :func:`run_point` does the same
(``trials`` parameter, default taken from the scale).

Simulated seconds are the headline metric; wall seconds of the simulation
are recorded for pytest-benchmark. ``impl_override="introselect"`` keeps the
wall cost of the *deterministic* algorithms' huge grids tolerable without
changing any simulated number (see SelectionConfig.impl_override).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.array import Machine
from ..core.plan import SelectionPlan
from ..core.session import Session
from ..errors import ConfigurationError
from ..kernels.select import median_rank
from ..machine.cost_model import CM5, CostModel, cm5_two_level
from ..selection.cost import CLOSED_FORM_ALGORITHMS
from ..selection.fast_randomized import FastRandomizedParams

__all__ = [
    "BackendPointResult",
    "ObsPointResult",
    "PlannerPointResult",
    "PointResult",
    "PoolPointResult",
    "ServePointResult",
    "SessionPointResult",
    "StreamPointResult",
    "TopologyPointResult",
    "run_backend_point",
    "run_obs_point",
    "run_planner_point",
    "run_point",
    "run_multiselect_point",
    "run_pool_point",
    "run_serve_point",
    "run_session_point",
    "run_series",
    "run_stream_point",
    "run_topology_point",
    "quantile_ranks",
    "PAPER_P_SWEEP",
    "KILO",
]

KILO = 1024
#: The paper's processor sweep (Section 5).
PAPER_P_SWEEP = [2, 4, 8, 16, 32, 64, 128]


@dataclass
class PointResult:
    """One grid point, averaged over trials."""

    algorithm: str
    balancer: str
    distribution: str
    n: int
    p: int
    simulated_time: float
    balance_time: float
    wall_time: float
    iterations: float
    trials: int
    simulated_times: list[float] = field(default_factory=list)

    @property
    def label(self) -> str:
        return (
            f"{self.algorithm}/{self.balancer}/{self.distribution}/"
            f"n={self.n}/p={self.p}"
        )

    def as_row(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "balancer": self.balancer,
            "distribution": self.distribution,
            "n": self.n,
            "p": self.p,
            "simulated_time_s": self.simulated_time,
            "balance_time_s": self.balance_time,
            "wall_time_s": self.wall_time,
            "iterations": self.iterations,
            "trials": self.trials,
        }


def run_point(
    algorithm: str,
    n: int,
    p: int,
    distribution: str = "random",
    balancer: str = "none",
    trials: int = 1,
    seed: int = 0,
    cost_model: CostModel | None = None,
    impl_override: str | None = "introselect",
    fast_params: FastRandomizedParams | None = None,
    k: int | None = None,
) -> PointResult:
    """Run one figure grid point (median selection unless ``k`` given)."""
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    machine = Machine(n_procs=p, cost_model=cost_model or CM5)
    plan = SelectionPlan(
        algorithm=algorithm,
        balancer=balancer,
        seed=seed,
        impl_override=impl_override,
        fast_params=fast_params,
    )
    one_shot = Session(machine, cache=False)
    sims: list[float] = []
    bals: list[float] = []
    walls: list[float] = []
    iters: list[int] = []
    for t in range(trials):
        data = machine.generate(n, distribution=distribution, seed=seed + 1000 * t)
        rep = one_shot.run_select(
            data,
            k if k is not None else median_rank(n),
            plan.replace(seed=seed + t),
        )
        sims.append(rep.simulated_time)
        bals.append(rep.balance_time)
        walls.append(rep.wall_time)
        iters.append(rep.stats.n_iterations)
    return PointResult(
        algorithm=algorithm,
        balancer=balancer,
        distribution=distribution,
        n=n,
        p=p,
        simulated_time=statistics.mean(sims),
        balance_time=statistics.mean(bals),
        wall_time=statistics.mean(walls),
        iterations=statistics.mean(iters),
        trials=trials,
        simulated_times=sims,
    )


def run_series(
    algorithm: str,
    n: int,
    p_sweep: list[int],
    **kwargs,
) -> list[PointResult]:
    """One curve of a figure: fixed everything, sweep p."""
    return [run_point(algorithm, n, p, **kwargs) for p in p_sweep]


def quantile_ranks(n: int, q: int) -> list[int]:
    """``q`` evenly spaced quantile ranks of ``n`` keys (the batched
    workload: deciles for ``q = 9``, etc.)."""
    return [max(1, int(np.ceil(n * i / (q + 1)))) for i in range(1, q + 1)]


def run_multiselect_point(
    algorithm: str,
    n: int,
    p: int,
    q: int,
    distribution: str = "random",
    balancer: str = "none",
    trials: int = 1,
    seed: int = 0,
    cost_model: CostModel | None = None,
    impl_override: str | None = "introselect",
) -> tuple[PointResult, PointResult]:
    """One batched-vs-repeated grid point: ``q`` evenly spaced quantile
    ranks answered by one :func:`repro.multi_select` launch versus ``q``
    independent :func:`repro.select` launches over the same data.

    Returns ``(batched, repeated)`` as :class:`PointResult` rows (the
    repeated row's simulated/balance/wall times and iterations are summed
    over its ``q`` launches — the cost the batched path replaces).
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    machine = Machine(n_procs=p, cost_model=cost_model or CM5)
    plan = SelectionPlan(
        algorithm=algorithm, balancer=balancer, seed=seed,
        impl_override=impl_override,
    )
    one_shot = Session(machine, cache=False)
    ks = quantile_ranks(n, q)
    b_sims, b_bals, b_walls, b_iters = [], [], [], []
    r_sims, r_bals, r_walls, r_iters = [], [], [], []
    for t in range(trials):
        data = machine.generate(n, distribution=distribution, seed=seed + 1000 * t)
        trial_plan = plan.replace(seed=seed + t)
        rep = one_shot.run_multi_select(data, ks, trial_plan)
        b_sims.append(rep.simulated_time)
        b_bals.append(rep.balance_time)
        b_walls.append(rep.wall_time)
        b_iters.append(rep.stats.n_iterations)
        sim = bal = wall = 0.0
        iters = 0
        for k in ks:
            one = one_shot.run_select(data, k, trial_plan)
            sim += one.simulated_time
            bal += one.balance_time
            wall += one.wall_time
            iters += one.stats.n_iterations
        r_sims.append(sim)
        r_bals.append(bal)
        r_walls.append(wall)
        r_iters.append(iters)

    def _mk(label: str, sims, bals, walls, iters) -> PointResult:
        return PointResult(
            algorithm=label,
            balancer=balancer,
            distribution=distribution,
            n=n,
            p=p,
            simulated_time=statistics.mean(sims),
            balance_time=statistics.mean(bals),
            wall_time=statistics.mean(walls),
            iterations=statistics.mean(iters),
            trials=trials,
            simulated_times=list(sims),
        )

    return (
        _mk(f"{algorithm}/multi_select(q={q})", b_sims, b_bals, b_walls, b_iters),
        _mk(f"{algorithm}/{q}x select", r_sims, r_bals, r_walls, r_iters),
    )


@dataclass
class BackendPointResult:
    """One launch measured on several execution backends.

    The simulated cost of a fixed ``(algorithm, data, seed)`` launch is
    backend-independent by construction (every backend charges through the
    same collective engine); what differs is the *wall clock* of the
    simulation itself. ``wall_times`` holds the best-of-``trials`` real
    seconds per backend; the agreement properties are the differential
    claims the ``backend`` experiment and ``bench_backends.py`` assert.
    """

    algorithm: str
    distribution: str
    n: int
    p: int
    backends: tuple[str, ...]
    #: Best-of-trials wall seconds of the simulation, per backend.
    wall_times: dict = field(default_factory=dict)
    #: Simulated seconds per backend (claim: all equal, bit-for-bit).
    simulated_times: dict = field(default_factory=dict)
    #: Selection answer per backend (claim: all equal).
    values: dict = field(default_factory=dict)
    trials: int = 1

    @property
    def values_agree(self) -> bool:
        vals = list(self.values.values())
        return all(v == vals[0] for v in vals)

    @property
    def simulated_times_agree(self) -> bool:
        """Bit-identical simulated seconds across backends."""
        sims = list(self.simulated_times.values())
        return all(s == sims[0] for s in sims)

    def speedup(self, candidate: str = "process",
                baseline: str = "threaded") -> float:
        """Wall-clock ratio ``baseline / candidate`` (>1: candidate wins)."""
        if candidate not in self.wall_times or baseline not in self.wall_times:
            raise ConfigurationError(
                f"speedup needs both {candidate!r} and {baseline!r} measured; "
                f"have {sorted(self.wall_times)}"
            )
        if not self.wall_times[candidate]:
            return float("inf")
        return self.wall_times[baseline] / self.wall_times[candidate]

    def as_points(self) -> list[PointResult]:
        """One CSV-exportable row per backend."""
        return [
            PointResult(
                algorithm=f"{self.algorithm}@{be}",
                balancer="none",
                distribution=self.distribution,
                n=self.n,
                p=self.p,
                simulated_time=self.simulated_times[be],
                balance_time=0.0,
                wall_time=self.wall_times[be],
                iterations=0.0,
                trials=self.trials,
            )
            for be in self.backends
        ]


def run_backend_point(
    algorithm: str,
    n: int,
    p: int,
    distribution: str = "random",
    backends: tuple[str, ...] = ("serial", "threaded", "process"),
    trials: int = 1,
    seed: int = 0,
    cost_model: CostModel | None = None,
    impl_override: str | None = "introselect",
    k: int | None = None,
) -> BackendPointResult:
    """Run ONE fixed launch on every backend and compare wall clocks.

    Unlike :func:`run_point`, the seed is identical across trials: each
    trial repeats the exact same launch, and the per-backend wall time is
    the minimum over trials (the usual best-of-N benchmarking discipline),
    while values and simulated times are asserted comparable.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    result = BackendPointResult(
        algorithm=algorithm, distribution=distribution, n=n, p=p,
        backends=tuple(backends), trials=trials,
    )
    target = k if k is not None else median_rank(n)
    plan = SelectionPlan(
        algorithm=algorithm, balancer="none", seed=seed,
        impl_override=impl_override,
    )
    for be in backends:
        machine = Machine(n_procs=p, cost_model=cost_model or CM5, backend=be)
        one_shot = Session(machine, cache=False)
        data = machine.generate(n, distribution=distribution, seed=seed)
        walls = []
        for _ in range(trials):
            rep = one_shot.run_select(data, target, plan)
            walls.append(rep.wall_time)
        result.wall_times[be] = min(walls)
        result.simulated_times[be] = rep.simulated_time
        result.values[be] = rep.value
    return result


@dataclass
class PoolPointResult:
    """A *repeated-launch* workload measured on several backends.

    The workload the persistent ``pool`` backend exists for: ``launches``
    selections at spread target ranks over the SAME distributed array. A
    per-launch backend (``process``) pays fork + shard pickling on every
    launch; the pool forks once, pins the shards in shared memory, and
    serves every later launch over warm workers. ``wall_times`` holds the
    best-of-``trials`` total real seconds for the whole sequence per
    backend, and ``fork_counts`` the *tracked* spawn events observed over
    the measurement: the pool's claim is exactly 1 for the whole sequence
    (in-process backends never fork; ``process`` re-forks every launch
    but does not track a counter, so it reads 0 here).
    """

    algorithm: str
    distribution: str
    n: int
    p: int
    launches: int
    backends: tuple[str, ...]
    #: Best-of-trials wall seconds for the whole launch sequence.
    wall_times: dict = field(default_factory=dict)
    #: Worker spawn events observed over all trials, per backend.
    fork_counts: dict = field(default_factory=dict)
    #: Sum of simulated seconds over the sequence (claim: all equal).
    simulated_times: dict = field(default_factory=dict)
    #: Tuple of selection answers, one per target rank (claim: all equal).
    values: dict = field(default_factory=dict)
    trials: int = 1

    @property
    def values_agree(self) -> bool:
        vals = list(self.values.values())
        return all(v == vals[0] for v in vals)

    @property
    def simulated_times_agree(self) -> bool:
        """Bit-identical summed simulated seconds across backends."""
        sims = list(self.simulated_times.values())
        return all(s == sims[0] for s in sims)

    def per_launch(self, backend: str) -> float:
        """Mean wall seconds per launch for ``backend``."""
        return self.wall_times[backend] / self.launches

    def speedup(self, candidate: str = "pool",
                baseline: str = "process") -> float:
        """Wall-clock ratio ``baseline / candidate`` (>1: candidate wins)."""
        if candidate not in self.wall_times or baseline not in self.wall_times:
            raise ConfigurationError(
                f"speedup needs both {candidate!r} and {baseline!r} measured; "
                f"have {sorted(self.wall_times)}"
            )
        if not self.wall_times[candidate]:
            return float("inf")
        return self.wall_times[baseline] / self.wall_times[candidate]

    def as_points(self) -> list[PointResult]:
        """One CSV-exportable row per backend: whole-sequence walls, with
        the ``iterations`` column carrying the observed fork count."""
        return [
            PointResult(
                algorithm=f"{self.algorithm}@{be}",
                balancer="none",
                distribution=self.distribution,
                n=self.n,
                p=self.p,
                simulated_time=self.simulated_times[be],
                balance_time=0.0,
                wall_time=self.wall_times[be],
                iterations=float(self.fork_counts[be]),
                trials=self.trials,
            )
            for be in self.backends
        ]

    def as_json(self) -> dict:
        """Schema for the committed ``BENCH_pool.json`` artifacts."""
        return {
            "experiment": "pool",
            "algorithm": self.algorithm,
            "distribution": self.distribution,
            "n": self.n,
            "p": self.p,
            "launches": self.launches,
            "trials": self.trials,
            "wall_times_s": dict(self.wall_times),
            "per_launch_s": {
                be: self.per_launch(be) for be in self.backends
            },
            "fork_counts": dict(self.fork_counts),
            "simulated_time_s": dict(self.simulated_times),
            "values_agree": self.values_agree,
            "simulated_times_agree": self.simulated_times_agree,
        }


def run_pool_point(
    algorithm: str,
    n: int,
    p: int,
    distribution: str = "random",
    backends: tuple[str, ...] = ("threaded", "process", "pool"),
    launches: int = 8,
    trials: int = 1,
    seed: int = 0,
    cost_model: CostModel | None = None,
    impl_override: str | None = "introselect",
) -> PoolPointResult:
    """Measure a repeated-launch selection workload on every backend.

    The sequence selects ``launches`` spread target ranks over one
    generated array; every backend runs the identical sequence and the
    whole sequence's wall clock is taken best-of-``trials``. Fork counts
    come from the :attr:`~repro.core.array.Machine.fork_count` delta over
    the measurement, so a pool point doubles as evidence of the
    "``launches`` launches, one fork" contract.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if launches < 1:
        raise ConfigurationError(f"launches must be >= 1, got {launches}")
    targets = sorted(
        {max(1, (i * n) // (launches + 1)) for i in range(1, launches + 1)}
    )
    result = PoolPointResult(
        algorithm=algorithm, distribution=distribution, n=n, p=p,
        launches=len(targets), backends=tuple(backends), trials=trials,
    )
    plan = SelectionPlan(
        algorithm=algorithm, balancer="none", seed=seed,
        impl_override=impl_override,
    )
    for be in backends:
        machine = Machine(n_procs=p, cost_model=cost_model or CM5, backend=be)
        one_shot = Session(machine, cache=False)
        data = machine.generate(n, distribution=distribution, seed=seed)
        forks_before = machine.fork_count
        walls = []
        for _ in range(trials):
            t0 = time.perf_counter()
            reports = [one_shot.run_select(data, t, plan) for t in targets]
            walls.append(time.perf_counter() - t0)
        result.wall_times[be] = min(walls)
        result.fork_counts[be] = machine.fork_count - forks_before
        result.simulated_times[be] = sum(r.simulated_time for r in reports)
        result.values[be] = tuple(r.value for r in reports)
    return result


@dataclass
class TopologyPointResult:
    """One launch measured on several machine shapes.

    The *values* of a fixed ``(algorithm, data, seed)`` launch are
    topology-independent by construction (collectives exchange the same
    payloads whatever shape prices them); what differs is the simulated
    time the round schedules charge. ``simulated_times`` holds the flat
    cost-model price per topology; ``hierarchical_times`` reprices the
    same launch on a hierarchical model with slow inter-cluster links
    (``cm5_two_level``), which only the ``two-level`` shape can feel —
    the claim the ``topology`` experiment and ``bench_topology.py``
    assert.
    """

    algorithm: str
    distribution: str
    n: int
    p: int
    topologies: tuple[str, ...]
    #: Simulated seconds per topology on the flat cost model.
    simulated_times: dict = field(default_factory=dict)
    #: Simulated seconds per topology with slow inter-cluster links.
    hierarchical_times: dict = field(default_factory=dict)
    #: Selection answer per topology (claim: all equal, bit-for-bit).
    values: dict = field(default_factory=dict)
    #: Per-collective round evidence per topology (traced runs only).
    rounds: dict = field(default_factory=dict)
    wall_times: dict = field(default_factory=dict)
    trials: int = 1

    @property
    def values_agree(self) -> bool:
        vals = list(self.values.values())
        return all(v == vals[0] for v in vals)

    def slowdown(self, topology: str, baseline: str = "crossbar",
                 hierarchical: bool = False) -> float:
        """Simulated-time ratio ``topology / baseline`` (>1: shape hurts)."""
        table = self.hierarchical_times if hierarchical else self.simulated_times
        if topology not in table or baseline not in table:
            raise ConfigurationError(
                f"slowdown needs both {topology!r} and {baseline!r} measured; "
                f"have {sorted(table)}"
            )
        if not table[baseline]:
            return float("inf")
        return table[topology] / table[baseline]

    def as_points(self) -> list[PointResult]:
        """One CSV-exportable row per (topology, cost-model) pair."""
        rows = []
        for hier, table in ((False, self.simulated_times),
                            (True, self.hierarchical_times)):
            suffix = "/hier" if hier else ""
            rows.extend(
                PointResult(
                    algorithm=f"{self.algorithm}@{topo}{suffix}",
                    balancer="none",
                    distribution=self.distribution,
                    n=self.n,
                    p=self.p,
                    simulated_time=table[topo],
                    balance_time=0.0,
                    wall_time=self.wall_times.get(topo, 0.0),
                    iterations=0.0,
                    trials=self.trials,
                )
                for topo in self.topologies
                if topo in table
            )
        return rows


def run_topology_point(
    algorithm: str,
    n: int,
    p: int,
    distribution: str = "random",
    topologies: tuple[str, ...] = (
        "crossbar", "binomial-tree", "hypercube", "two-level"
    ),
    trials: int = 1,
    seed: int = 0,
    cost_model: CostModel | None = None,
    hierarchical_model: CostModel | None = None,
    impl_override: str | None = "introselect",
    k: int | None = None,
    trace: bool = False,
) -> TopologyPointResult:
    """Run ONE fixed launch on every machine shape and compare clocks.

    The same ``(algorithm, data, seed)`` launch runs once per topology on
    the flat cost model and once on a hierarchical one (slow
    inter-cluster links); values are asserted comparable via
    ``values_agree``, and ``trace=True`` additionally collects each
    shape's per-collective round counts.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    result = TopologyPointResult(
        algorithm=algorithm, distribution=distribution, n=n, p=p,
        topologies=tuple(topologies), trials=trials,
    )
    target = k if k is not None else median_rank(n)
    plan = SelectionPlan(
        algorithm=algorithm, balancer="none", seed=seed,
        impl_override=impl_override,
    )
    hier = hierarchical_model if hierarchical_model is not None \
        else cm5_two_level()
    for topo in topologies:
        machine = Machine(
            n_procs=p, cost_model=cost_model or CM5, topology=topo,
            trace=trace,
        )
        one_shot = Session(machine, cache=False)
        data = machine.generate(n, distribution=distribution, seed=seed)
        walls = []
        for _ in range(trials):
            rep = one_shot.run_select(data, target, plan)
            walls.append(rep.wall_time)
        result.wall_times[topo] = min(walls)
        result.simulated_times[topo] = rep.simulated_time
        result.values[topo] = rep.value
        if trace:
            result.rounds[topo] = rep.collective_rounds()

        hier_machine = Machine(n_procs=p, cost_model=hier, topology=topo)
        hier_data = hier_machine.generate(
            n, distribution=distribution, seed=seed
        )
        hier_rep = Session(hier_machine, cache=False).run_select(
            hier_data, target, plan
        )
        result.hierarchical_times[topo] = hier_rep.simulated_time
        assert hier_rep.value == rep.value, (
            "cost model must not change selection values"
        )
    return result


@dataclass
class SessionPointResult:
    """One serving-layer grid point: a coalesced Session flush of ``q``
    same-array rank queries vs ``q`` independent one-shot selects, plus a
    cache replay of the same ``q`` ranks (averaged over trials)."""

    algorithm: str
    balancer: str
    distribution: str
    n: int
    p: int
    q: int
    #: SPMD launches the coalesced flush paid (the claim: exactly 1).
    flush_launches: float
    #: Simulated seconds of the batched flush launch.
    flush_simulated: float
    #: Simulated balance seconds / wall seconds / iterations of that launch.
    flush_balance: float
    flush_wall: float
    flush_iterations: float
    #: Sums over the ``q`` independent ``run_select`` launches.
    independent_simulated: float
    independent_balance: float
    independent_wall: float
    independent_iterations: float
    #: SPMD launches paid re-querying all ``q`` ranks (the claim: 0).
    replay_launches: float
    #: Ranks served from the result cache during the replay.
    replay_hits: float
    trials: int

    @property
    def speedup(self) -> float:
        """Independent-over-coalesced simulated time."""
        if not self.flush_simulated:
            return float("inf")
        return self.independent_simulated / self.flush_simulated

    def as_points(self) -> tuple[PointResult, PointResult]:
        """CSV-exportable rows (coalesced flush, independent selects)."""
        shared = dict(
            balancer=self.balancer, distribution=self.distribution,
            n=self.n, p=self.p, trials=self.trials,
        )
        return (
            PointResult(
                algorithm=f"{self.algorithm}/session-flush(q={self.q})",
                simulated_time=self.flush_simulated,
                balance_time=self.flush_balance,
                wall_time=self.flush_wall,
                iterations=self.flush_iterations,
                **shared,
            ),
            PointResult(
                algorithm=f"{self.algorithm}/{self.q}x select",
                simulated_time=self.independent_simulated,
                balance_time=self.independent_balance,
                wall_time=self.independent_wall,
                iterations=self.independent_iterations,
                **shared,
            ),
        )


def run_session_point(
    algorithm: str,
    n: int,
    p: int,
    q: int,
    distribution: str = "random",
    balancer: str = "none",
    trials: int = 1,
    seed: int = 0,
    cost_model: CostModel | None = None,
    impl_override: str | None = "introselect",
) -> SessionPointResult:
    """Measure the Session serving layer on one grid point.

    Three measurements per trial, over ``q`` evenly spaced quantile ranks
    of the same array:

    1. **Coalesced flush** — all ``q`` ranks queued as futures on a cached
       :class:`~repro.core.session.Session`, answered by ``flush()``; the
       SPMD launch count delta is recorded (the serving claim: exactly 1).
    2. **Cache replay** — the same ``q`` ranks re-queried and flushed; the
       launch delta is recorded again (the caching claim: 0).
    3. **Independent** — ``q`` one-shot uncached ``run_select`` launches
       (pre-Session traffic), summed.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    machine = Machine(n_procs=p, cost_model=cost_model or CM5)
    plan = SelectionPlan(
        algorithm=algorithm, balancer=balancer, seed=seed,
        impl_override=impl_override,
    )
    ks = quantile_ranks(n, q)
    fl_launches, fl_sims, fl_bals, fl_walls, fl_iters = [], [], [], [], []
    rp_launches, rp_hits = [], []
    ind_sims, ind_bals, ind_walls, ind_iters = [], [], [], []
    for t in range(trials):
        data = machine.generate(n, distribution=distribution, seed=seed + 1000 * t)
        trial_plan = plan.replace(seed=seed + t)
        session = machine.session(trial_plan)

        before = machine.launch_count
        futures = [session.select(data, k) for k in ks]
        session.flush()
        fl_launches.append(machine.launch_count - before)
        flush_report = futures[0].result()
        fl_sims.append(flush_report.simulated_time)
        fl_bals.append(flush_report.balance_time)
        fl_walls.append(flush_report.wall_time)
        fl_iters.append(flush_report.stats.n_iterations)

        before = machine.launch_count
        hits_before = session.stats.cache_hits
        replayed = [session.select(data, k) for k in ks]
        session.flush()
        rp_launches.append(machine.launch_count - before)
        rp_hits.append(session.stats.cache_hits - hits_before)
        for fut, orig in zip(replayed, futures):
            assert fut.value == orig.value, "cache served a different answer"

        one_shot = Session(machine, cache=False)
        sim = bal = wall = 0.0
        iters = 0
        for k in ks:
            one = one_shot.run_select(data, k, trial_plan)
            sim += one.simulated_time
            bal += one.balance_time
            wall += one.wall_time
            iters += one.stats.n_iterations
        ind_sims.append(sim)
        ind_bals.append(bal)
        ind_walls.append(wall)
        ind_iters.append(iters)
    return SessionPointResult(
        algorithm=algorithm,
        balancer=balancer,
        distribution=distribution,
        n=n,
        p=p,
        q=q,
        flush_launches=statistics.mean(fl_launches),
        flush_simulated=statistics.mean(fl_sims),
        flush_balance=statistics.mean(fl_bals),
        flush_wall=statistics.mean(fl_walls),
        flush_iterations=statistics.mean(fl_iters),
        independent_simulated=statistics.mean(ind_sims),
        independent_balance=statistics.mean(ind_bals),
        independent_wall=statistics.mean(ind_walls),
        independent_iterations=statistics.mean(ind_iters),
        replay_launches=statistics.mean(rp_launches),
        replay_hits=statistics.mean(rp_hits),
        trials=trials,
    )


@dataclass
class StreamPointResult:
    """One streaming grid point: ingest ``n_batches`` appends, then answer
    ``q`` quantile ranks of the live window with the sketch-prefiltered
    exact path versus the plain contraction (averaged over trials).

    The prefiltered launch rides the stream's ingest-time sketches
    (``prebuilt``), so its simulated time excludes summarisation — that
    work was amortised into the appends, which is the subsystem's claim.
    """

    algorithm: str
    distribution: str
    n: int
    p: int
    q: int
    n_batches: int
    eps: float
    #: Simulated seconds of the prefiltered vs plain batched launch.
    prefiltered_simulated: float
    plain_simulated: float
    prefiltered_wall: float
    plain_wall: float
    #: Surviving key fraction the exact contraction actually ground.
    survivor_fraction: float
    #: Stored keys in the merged cross-rank sketch.
    sketch_size: float
    #: Contraction-iteration halving estimate the pre-filter skipped.
    rounds_saved: float
    #: Re-query of the same ranks after no append (the claim: 0 launches).
    replay_launches: float
    trials: int

    @property
    def speedup(self) -> float:
        """Plain-over-prefiltered simulated time (>1: the sketch wins)."""
        if not self.prefiltered_simulated:
            return float("inf")
        return self.plain_simulated / self.prefiltered_simulated

    def as_points(self) -> tuple[PointResult, PointResult]:
        """CSV-exportable rows (prefiltered, plain)."""
        shared = dict(
            balancer="none", distribution=self.distribution,
            n=self.n, p=self.p, iterations=0.0, balance_time=0.0,
            trials=self.trials,
        )
        return (
            PointResult(
                algorithm=f"{self.algorithm}/sketch-prefiltered(q={self.q})",
                simulated_time=self.prefiltered_simulated,
                wall_time=self.prefiltered_wall,
                **shared,
            ),
            PointResult(
                algorithm=f"{self.algorithm}/plain(q={self.q})",
                simulated_time=self.plain_simulated,
                wall_time=self.plain_wall,
                **shared,
            ),
        )


def run_stream_point(
    algorithm: str,
    n: int,
    p: int,
    q: int = 3,
    n_batches: int = 4,
    distribution: str = "random",
    eps: float = 0.01,
    trials: int = 1,
    seed: int = 0,
    cost_model: CostModel | None = None,
    impl_override: str | None = "introselect",
) -> StreamPointResult:
    """Measure the streaming subsystem on one grid point.

    Per trial: generate the named workload, ingest it as ``n_batches``
    appends into a :class:`~repro.stream.stream.StreamingArray`, then
    answer ``q`` evenly spaced quantile ranks three ways —

    1. **Prefiltered** — ``SelectionPlan(prefilter="sketch")`` over the
       stream (prebuilt ingest-time sketches; ONE batched launch);
    2. **Plain** — the same plan without the pre-filter (the baseline the
       speedup is measured against); values are asserted identical;
    3. **Replay** — the prefiltered ranks again with no append in between
       (the serving claim: zero launches).
    """
    from ..data.generators import generate_shards

    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    machine = Machine(n_procs=p, cost_model=cost_model or CM5)
    plan = SelectionPlan(
        algorithm=algorithm, balancer="none", seed=seed,
        impl_override=impl_override, prefilter="sketch", sketch_eps=eps,
    )
    ks = quantile_ranks(n, q)
    pre_sims, pre_walls, plain_sims, plain_walls = [], [], [], []
    fractions, sizes, rounds, rp_launches = [], [], [], []
    for t in range(trials):
        host = np.concatenate(
            generate_shards(n, 1, distribution, seed + 1000 * t)
        )
        stream = machine.stream()
        batch = max(1, n // n_batches)
        for start in range(0, n, batch):
            stream.append(host[start: start + batch])
        session = machine.session(plan.replace(seed=seed + t))

        pre = session.run_multi_select(stream, ks)
        pre_sims.append(pre.simulated_time)
        pre_walls.append(pre.wall_time)
        fractions.append(pre.prefilter.survivor_fraction)
        sizes.append(pre.prefilter.sketch_size)
        rounds.append(pre.prefilter.rounds_saved)

        before = machine.launch_count
        replay = session.run_multi_select(stream, ks)
        rp_launches.append(machine.launch_count - before)
        assert replay.values == pre.values, "replay served different answers"

        plain = session.run_multi_select(
            stream, ks, plan.replace(seed=seed + t, prefilter=None)
        )
        plain_sims.append(plain.simulated_time)
        plain_walls.append(plain.wall_time)
        assert plain.values == pre.values, (
            "sketch-prefiltered answers must be bit-identical to plain"
        )
    return StreamPointResult(
        algorithm=algorithm,
        distribution=distribution,
        n=n,
        p=p,
        q=q,
        n_batches=n_batches,
        eps=eps,
        prefiltered_simulated=statistics.mean(pre_sims),
        plain_simulated=statistics.mean(plain_sims),
        prefiltered_wall=statistics.mean(pre_walls),
        plain_wall=statistics.mean(plain_walls),
        survivor_fraction=statistics.mean(fractions),
        sketch_size=statistics.mean(sizes),
        rounds_saved=statistics.mean(rounds),
        replay_launches=statistics.mean(rp_launches),
        trials=trials,
    )


@dataclass
class ServePointResult:
    """One serving-tier grid point: a multi-tenant query trace replayed
    through a coalescing :class:`~repro.serve.SelectionService` at several
    client concurrencies, versus the query-at-a-time front door
    (:func:`~repro.serve.trace.direct_answers`) it replaces.

    ``wall_times[c]`` is the best-of-``trials`` wall seconds to answer
    the whole trace with ``c`` closed-loop clients; ``baseline_wall`` is
    the sequential uncached equivalent. The per-concurrency ``p50s`` /
    ``p99s`` come from the service's OWN latency
    :class:`~repro.stream.sketch.QuantileSketch` — the self-observability
    the serving tier ships with, not an external timer.
    """

    algorithm: str
    distribution: str
    n: int
    p: int
    queries: int
    tenants: int
    window: float
    concurrency: tuple[int, ...]
    #: Sequential query-at-a-time wall seconds (best of trials).
    baseline_wall: float = 0.0
    #: Launches the query-at-a-time baseline paid.
    baseline_launches: int = 0
    #: Best-of-trials wall seconds per client concurrency.
    wall_times: dict = field(default_factory=dict)
    #: SPMD launches the service paid per concurrency.
    launches: dict = field(default_factory=dict)
    #: Launches a query-at-a-time front door would have paid extra.
    launches_saved: dict = field(default_factory=dict)
    #: p50 / p99 query latency (seconds) from the service's own sketch.
    p50s: dict = field(default_factory=dict)
    p99s: dict = field(default_factory=dict)
    #: Coalesced answers == direct Session answers, bit for bit.
    answers_agree: bool = True
    trials: int = 1

    @property
    def baseline_qps(self) -> float:
        if not self.baseline_wall:
            return float("inf")
        return self.queries / self.baseline_wall

    def qps(self, c: int) -> float:
        if not self.wall_times[c]:
            return float("inf")
        return self.queries / self.wall_times[c]

    def speedup(self, c: int) -> float:
        """Throughput ratio coalesced-over-baseline at concurrency ``c``
        (>1: the service beats query-at-a-time)."""
        if not self.wall_times[c]:
            return float("inf")
        return self.baseline_wall / self.wall_times[c]

    def as_points(self) -> list[PointResult]:
        """CSV-exportable rows: one per concurrency plus the baseline
        (``iterations`` carries the launch count)."""
        shared = dict(
            balancer="none", distribution=self.distribution, n=self.n,
            p=self.p, simulated_time=0.0, balance_time=0.0,
            trials=self.trials,
        )
        rows = [
            PointResult(
                algorithm=f"{self.algorithm}@serve/query-at-a-time",
                wall_time=self.baseline_wall,
                iterations=float(self.baseline_launches),
                **shared,
            )
        ]
        rows.extend(
            PointResult(
                algorithm=f"{self.algorithm}@serve/c={c}",
                wall_time=self.wall_times[c],
                iterations=float(self.launches[c]),
                **shared,
            )
            for c in self.concurrency
        )
        return rows

    def as_json(self) -> dict:
        """Schema for the committed ``BENCH_serve.json`` artifact."""
        return {
            "experiment": "serve",
            "algorithm": self.algorithm,
            "distribution": self.distribution,
            "n": self.n,
            "p": self.p,
            "queries": self.queries,
            "tenants": self.tenants,
            "window_s": self.window,
            "trials": self.trials,
            "baseline_wall_s": self.baseline_wall,
            "baseline_qps": self.baseline_qps,
            "baseline_launches": self.baseline_launches,
            "wall_times_s": {str(c): self.wall_times[c]
                             for c in self.concurrency},
            "qps": {str(c): self.qps(c) for c in self.concurrency},
            "speedup": {str(c): self.speedup(c) for c in self.concurrency},
            "launches": {str(c): self.launches[c]
                         for c in self.concurrency},
            "launches_saved": {str(c): self.launches_saved[c]
                               for c in self.concurrency},
            "p50_s": {str(c): self.p50s[c] for c in self.concurrency},
            "p99_s": {str(c): self.p99s[c] for c in self.concurrency},
            "answers_agree": self.answers_agree,
        }


def run_serve_point(
    algorithm: str,
    n: int,
    p: int,
    queries: int = 48,
    tenants: int = 4,
    concurrency: tuple[int, ...] = (4, 16),
    window: float = 0.002,
    distribution: str = "random",
    distinct_fracs: int = 32,
    trials: int = 1,
    seed: int = 0,
    cost_model: CostModel | None = None,
    impl_override: str | None = "introselect",
    backend=None,
) -> ServePointResult:
    """Measure the multi-tenant serving tier on one grid point.

    One synthetic trace (mixed select / quantile / multi-rank queries
    over ``tenants`` tenants and one registered array) is answered two
    ways:

    1. **Query-at-a-time** — sequentially, each query its own uncached
       launch on a fresh :class:`~repro.core.session.Session` (the front
       door a service replaces);
    2. **Coalesced** — replayed through a fresh
       :class:`~repro.serve.SelectionService` per client concurrency
       ``c`` (closed loop: each client keeps one query outstanding), so
       concurrent queries share batched launches and repeated ranks hit
       the result cache.

    Answers are asserted bit-identical between the two; the launch
    counts, launches-saved and sketch-read p50/p99 land in the result.
    """
    import asyncio

    from ..serve import SelectionService, direct_answers, replay, \
        synthetic_trace

    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if queries < 1:
        raise ConfigurationError(f"queries must be >= 1, got {queries}")
    plan = SelectionPlan(
        algorithm=algorithm, balancer="none", seed=seed,
        impl_override=impl_override,
    )
    machine = Machine(n_procs=p, cost_model=cost_model or CM5,
                      backend=backend)
    data = machine.generate(n, distribution=distribution, seed=seed)
    trace = synthetic_trace(
        queries, tenants=tenants, arrays=("a",),
        distinct_fracs=distinct_fracs, seed=seed,
    )
    result = ServePointResult(
        algorithm=algorithm, distribution=distribution, n=n, p=p,
        queries=len(trace), tenants=tenants, window=window,
        concurrency=tuple(concurrency), trials=trials,
    )

    base_walls = []
    before = machine.launch_count
    for _ in range(trials):
        t0 = time.perf_counter()
        expected = direct_answers(machine, {"a": data}, trace, plan=plan)
        base_walls.append(time.perf_counter() - t0)
    result.baseline_wall = min(base_walls)
    result.baseline_launches = (machine.launch_count - before) // trials

    async def one_replay(c: int):
        service = SelectionService(
            machine, plan, window=window,
            max_in_flight=max(64, 4 * c), max_per_tenant=max(8, c),
        )
        service.register("a", data)
        async with service:
            t0 = time.perf_counter()
            answers = await replay(service, trace, concurrency=c)
            wall = time.perf_counter() - t0
            stats = service.stats
        return answers, wall, stats

    for c in concurrency:
        walls, answers, stats = [], None, None
        for _ in range(trials):
            answers, wall, stats = asyncio.run(one_replay(c))
            walls.append(wall)
        result.wall_times[c] = min(walls)
        result.launches[c] = stats.launches
        result.launches_saved[c] = stats.launches_saved
        result.p50s[c] = stats.p50_s
        result.p99s[c] = stats.p99_s
        if answers != expected:
            result.answers_agree = False
    return result


@dataclass
class ObsPointResult:
    """One workload measured with observability OFF versus ON.

    The obs contract has two halves and this point measures both: capture
    must be *free where it matters* (values and simulated seconds
    bit-identical, wall overhead bounded) and *useful where it runs* (the
    span capture exports a valid Chrome trace-event document). The ON arm
    runs the identical launch sequence under an active
    :class:`repro.obs.capture` with per-launch tracing forced; the OFF arm
    is the plain default path. Walls are whole-sequence best-of-trials.
    """

    algorithm: str
    distribution: str
    n: int
    p: int
    launches: int
    trials: int = 1
    #: Best-of-trials whole-sequence wall seconds, obs disabled / enabled.
    wall_off: float = 0.0
    wall_on: float = 0.0
    #: Per-launch ``(value, simulated_time)`` tuples for each arm.
    answers_off: tuple = ()
    answers_on: tuple = ()
    #: Spans recorded by one traced sequence and its Chrome export.
    spans: int = 0
    chrome_events: int = 0
    chrome_valid: bool = False

    @property
    def bit_identical(self) -> bool:
        """Values AND simulated times unchanged by capture."""
        return self.answers_off == self.answers_on

    @property
    def overhead(self) -> float:
        """Fractional wall overhead of capture (``on/off - 1``)."""
        if not self.wall_off:
            return 0.0
        return self.wall_on / self.wall_off - 1.0

    def as_json(self) -> dict:
        """Schema for the committed ``BENCH_obs.json`` artifact."""
        return {
            "experiment": "obs",
            "algorithm": self.algorithm,
            "distribution": self.distribution,
            "n": self.n,
            "p": self.p,
            "launches": self.launches,
            "trials": self.trials,
            "wall_off_s": self.wall_off,
            "wall_on_s": self.wall_on,
            "overhead": self.overhead,
            "bit_identical": self.bit_identical,
            "spans": self.spans,
            "chrome_events": self.chrome_events,
            "chrome_valid": self.chrome_valid,
            "simulated_time_s": sum(s for _, s in self.answers_off),
        }


def run_obs_point(
    algorithm: str,
    n: int,
    p: int,
    distribution: str = "random",
    launches: int = 4,
    trials: int = 1,
    seed: int = 0,
    backend: str | None = None,
    cost_model: CostModel | None = None,
    impl_override: str | None = "introselect",
) -> ObsPointResult:
    """Measure one selection workload with capture off versus on.

    Both arms run ``launches`` selections at spread target ranks over an
    identically generated array (fresh machine per arm, cache off so every
    query pays its launch). The ON arm forces per-launch tracing and an
    active span capture — the heaviest capture configuration — and its
    last trial's span set is exported to an in-memory Chrome document and
    schema-validated.
    """
    from .. import obs
    from ..obs.export import chrome_document, validate_chrome

    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    targets = sorted(
        {max(1, (i * n) // (launches + 1)) for i in range(1, launches + 1)}
    )
    plan = SelectionPlan(
        algorithm=algorithm, balancer="none", seed=seed,
        impl_override=impl_override,
    )
    result = ObsPointResult(
        algorithm=algorithm, distribution=distribution, n=n, p=p,
        launches=len(targets), trials=trials,
    )

    def sequence(machine) -> tuple:
        one_shot = Session(machine, cache=False)
        data = machine.generate(n, distribution=distribution, seed=seed)
        reports = [one_shot.run_select(data, t, plan) for t in targets]
        return tuple((r.value, r.simulated_time) for r in reports)

    walls = []
    for _ in range(trials):
        machine = Machine(
            n_procs=p, cost_model=cost_model or CM5, backend=backend
        )
        t0 = time.perf_counter()
        result.answers_off = sequence(machine)
        walls.append(time.perf_counter() - t0)
    result.wall_off = min(walls)

    walls = []
    for _ in range(trials):
        machine = Machine(
            n_procs=p, cost_model=cost_model or CM5, backend=backend,
            trace=True,
        )
        with obs.capture() as rec:
            t0 = time.perf_counter()
            result.answers_on = sequence(machine)
            walls.append(time.perf_counter() - t0)
        result.spans = len(rec.spans)
        doc = chrome_document(rec.spans)
        result.chrome_events = len(doc["traceEvents"])
        result.chrome_valid = not validate_chrome(doc)
    result.wall_on = min(walls)
    return result


# ---------------------------------------------------------------------------
# Planner experiment: static plans vs the auto plan, on one grid point
# ---------------------------------------------------------------------------


@dataclass
class PlannerPointResult:
    """One (n, p, distribution) cell of the planner evaluation grid.

    Every closed-form algorithm runs as an explicit static plan first
    (feeding a fresh residual store through the normal launch path), then
    ``algorithm="auto"`` runs the same query. Per static plan the point
    records predicted-vs-actual relative error *before* (raw closed form)
    and *after* (residual-corrected) calibration; for the auto arm it
    records the chosen algorithm, the pure planning overhead, and the
    speedups the bench gates assert (auto never slower than the default
    plan; auto beats the worst static plan).
    """

    n: int
    p: int
    distribution: str
    trials: int
    #: algorithm -> median simulated seconds of its static plan.
    simulated: dict = field(default_factory=dict)
    #: algorithm -> raw closed-form prediction (seconds).
    predicted: dict = field(default_factory=dict)
    #: algorithm -> residual-corrected prediction (seconds).
    corrected: dict = field(default_factory=dict)
    chosen_algorithm: str = ""
    auto_simulated: float = 0.0
    #: Median wall seconds of one pure ``choose_plan`` call (no launches).
    overhead_s: float = 0.0
    #: Auto's answer equals every static plan's answer (k-th order
    #: statistic; algorithm-independent by construction).
    value_match: bool = False

    def rel_err(self, algorithm: str, corrected: bool) -> float:
        pred = (self.corrected if corrected else self.predicted)[algorithm]
        actual = self.simulated[algorithm]
        return abs(pred - actual) / actual if actual > 0 else 0.0

    def median_rel_err(self, corrected: bool) -> float:
        return statistics.median(
            self.rel_err(a, corrected) for a in self.simulated
        )

    @property
    def default_simulated(self) -> float:
        """The repo-wide default plan's algorithm (fast_randomized)."""
        return self.simulated["fast_randomized"]

    @property
    def best_simulated(self) -> float:
        return min(self.simulated.values())

    @property
    def worst_simulated(self) -> float:
        return max(self.simulated.values())

    @property
    def speedup_vs_default(self) -> float:
        return self.default_simulated / self.auto_simulated

    @property
    def speedup_vs_worst(self) -> float:
        return self.worst_simulated / self.auto_simulated

    def as_row(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "distribution": self.distribution,
            "trials": self.trials,
            "chosen_algorithm": self.chosen_algorithm,
            "auto_simulated_s": self.auto_simulated,
            "default_simulated_s": self.default_simulated,
            "best_simulated_s": self.best_simulated,
            "worst_simulated_s": self.worst_simulated,
            "speedup_vs_default": self.speedup_vs_default,
            "speedup_vs_worst": self.speedup_vs_worst,
            "planner_overhead_s": self.overhead_s,
            "median_rel_err_before": self.median_rel_err(False),
            "median_rel_err_after": self.median_rel_err(True),
            "value_match": self.value_match,
        }

    def as_json(self) -> dict:
        """Schema for the committed ``BENCH_planner.json`` artifact."""
        row = self.as_row()
        row["experiment"] = "planner"
        row["static"] = {
            a: {
                "simulated_s": self.simulated[a],
                "predicted_s": self.predicted[a],
                "corrected_s": self.corrected[a],
                "rel_err_before": self.rel_err(a, corrected=False),
                "rel_err_after": self.rel_err(a, corrected=True),
            }
            for a in sorted(self.simulated)
        }
        return row


def run_planner_point(
    n: int,
    p: int,
    distribution: str = "random",
    trials: int = 3,
    seed: int = 0,
    backend: str | None = None,
    cost_model: CostModel | None = None,
    impl_override: str | None = "introselect",
    overhead_reps: int = 5,
) -> PlannerPointResult:
    """Static plans vs auto on one grid point, with a fresh residual store.

    The store starts empty (``use_store`` isolates the point from the
    process default), the static runs feed it through the ordinary
    ``observe_launch`` path, and the auto run then plans with the learned
    corrections — which is exactly the production calibration loop,
    compressed into one cell.
    """
    from ..planner.planner import choose_plan
    from ..planner.residuals import ResidualStore, use_store

    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    machine = Machine(n_procs=p, cost_model=cost_model or CM5,
                      backend=backend)
    data = machine.generate(n, distribution=distribution, seed=seed)
    k = median_rank(n)
    point = PlannerPointResult(n=n, p=p, distribution=distribution,
                               trials=trials)
    values = set()
    with use_store(ResidualStore()) as store:
        one_shot = Session(machine, cache=False)
        for algorithm in CLOSED_FORM_ALGORITHMS:
            sims = []
            for t in range(trials):
                plan = SelectionPlan(
                    algorithm=algorithm, seed=seed + t,
                    impl_override=impl_override,
                )
                report = one_shot.run_select(data, k, plan)
                sims.append(report.simulated_time)
                values.add(report.value)
                point.predicted[algorithm] = report.predicted_time
            point.simulated[algorithm] = statistics.median(sims)
            point.corrected[algorithm] = (
                point.predicted[algorithm]
                * store.correction(algorithm, machine.topology, p)
            )
        walls = []
        for _ in range(overhead_reps):
            t0 = time.perf_counter()
            decision = choose_plan(n, p, machine.cost_model,
                                   machine.topology, store=store)
            walls.append(time.perf_counter() - t0)
        walls.sort()
        point.overhead_s = walls[len(walls) // 2]
        sims = []
        for t in range(trials):
            # Each auto trial plans against a clone of the post-static
            # store: the arm measures the calibrated choice itself, not
            # its own trial-to-trial feedback, so every trial resolves to
            # the same plan choose_plan returned and its launches stay
            # bit-identical to the matching static trials.
            with use_store(store.clone()):
                plan = SelectionPlan(algorithm="auto", seed=seed + t,
                                     impl_override=impl_override)
                report = one_shot.run_select(data, k, plan)
            sims.append(report.simulated_time)
            values.add(report.value)
            if t == 0:
                point.chosen_algorithm = report.algorithm
                assert report.algorithm == decision.chosen.algorithm, (
                    "launch-path auto resolution disagrees with choose_plan"
                )
        point.auto_simulated = statistics.median(sims)
    point.value_match = len(values) == 1
    return point
