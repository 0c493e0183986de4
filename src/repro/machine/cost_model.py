"""Two-level communication/computation cost model (paper Section 2.1).

The paper models a coarse-grained machine as ``p`` powerful processors behind
a virtual crossbar: every off-processor access costs a start-up latency
``tau`` plus ``mu`` seconds per transferred word, independent of distance and
congestion. All complexity analysis in the paper — and therefore all simulated
timing in this library — happens in that model.

Two ingredient tables live here:

* **Communication**: ``tau`` (message start-up, seconds) and ``mu`` (seconds
  per 8-byte word). The collective *schedules* — which point-to-point
  transfers happen in which round — live in :mod:`repro.machine.topology`;
  the lowering in :mod:`repro.machine.collectives` prices each round with
  these link constants. A **hierarchical** machine (the ``two-level``
  topology: clusters of ranks behind a slower global switch) may carry a
  second link class: ``tau_inter``/``mu_inter`` price transfers that cross
  a cluster boundary, and default to the flat ``tau``/``mu`` when unset, so
  every pre-hierarchy cost model keeps meaning exactly what it did.
* **Computation**: per-element costs for the sequential kernels the selection
  algorithms lean on (partitioning a list, deterministic selection, randomized
  selection, sorting, bucket preprocessing...). These are the constants the
  paper repeatedly appeals to when it argues, e.g., that randomized selection
  wins "due to the low constant associated with the algorithm".

The :data:`CM5` preset is calibrated so simulated times land in the same
sub-second magnitude range as the paper's CM-5 measurements and so the
constant-factor relationships the paper reports (deterministic selection an
order of magnitude slower; bucket-based ~2x faster than median-of-medians)
emerge from the model rather than being hard-coded anywhere.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = [
    "ComputeCosts",
    "CostModel",
    "CM5",
    "cm5",
    "cm5_fast_network",
    "cm5_two_level",
    "zero_cost_model",
]


@dataclass(frozen=True)
class ComputeCosts:
    """Per-element simulated costs (seconds) for local sequential kernels.

    The defaults model a ~33 MHz SPARC CM-5 node executing scalar C loops:
    ~16 cycles (~500 ns) per element for a partition pass, roughly two passes
    for randomized quickselect, and a 24x larger constant for deterministic
    median-of-medians selection (groups of five, recursive calls, two
    partition passes per level on a 1996 compiler) — the constant-factor gap
    the paper's Section 5 attributes most of the deterministic slowdown to.
    Calibration targets (EXPERIMENTS.md, n=2M, p=32, random): randomized
    selection ~0.1 s; median of medians >= 16x slower; bucket-based >= 9x
    slower — matching the paper's headline observation.

    Attributes
    ----------
    partition:
        Cost per element of splitting a list around a pivot (one compare +
        move). Also used for counting scans.
    select_deterministic:
        Cost per element of one full deterministic (Blum et al.) sequential
        selection. The classic implementation touches every element many
        times; 12-15 cycles/element/level across ~4 effective levels gives the
        large constant observed in practice.
    select_randomized:
        Cost per element of one randomized quickselect (expected ~2 scans,
        low constant).
    sort_per_cmp:
        Cost per comparison for sorting; an ``n``-element sort charges
        ``sort_per_cmp * n * log2(max(n, 2))``.
    scan:
        Cost per element of a simple sequential pass (copy, count, sum).
    binary_search_step:
        Cost per probe of a binary search.
    bucket_level:
        Cost per element per level of the bucket-preprocessing recursion
        (Section 3.2: ``O((n/p) log log p)`` total).
    rng_draw:
        Cost of drawing one random number (Step 2 of Algorithm 3).
    """

    partition: float = 450e-9
    select_deterministic: float = 20e-6
    select_randomized: float = 1.0e-6
    sort_per_cmp: float = 500e-9
    scan: float = 300e-9
    binary_search_step: float = 1e-6
    bucket_level: float = 2.5e-6
    rng_draw: float = 10e-6

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and v >= 0 and math.isfinite(v)):
                raise ConfigurationError(
                    f"ComputeCosts.{f.name} must be a finite non-negative "
                    f"number, got {v!r}"
                )


@dataclass(frozen=True)
class CostModel:
    """The paper's two-level machine model plus local compute constants.

    Parameters
    ----------
    tau:
        Message start-up overhead in seconds. The CM-5's CMMD messaging layer
        had a software start-up on the order of 100 microseconds.
    mu:
        Transfer time per 8-byte word in seconds (the paper's ``1/bandwidth``
        data-transfer rate). 10 MB/s effective node bandwidth gives
        ``0.8 us`` per word.
    compute:
        Per-kernel local computation costs, see :class:`ComputeCosts`.
    name:
        Human-readable preset name used in reports.
    tau_inter / mu_inter:
        Hierarchical extension: start-up and per-word cost of a link that
        crosses a cluster boundary on the ``two-level`` topology. ``None``
        (the default) means the machine is flat — inter-cluster links cost
        the same ``tau``/``mu`` as everything else — which keeps every
        existing cost model byte-compatible with its pre-hierarchy
        behaviour. Topologies without a cluster structure never consult
        these fields.
    """

    tau: float = 100e-6
    mu: float = 0.8e-6
    compute: ComputeCosts = field(default_factory=ComputeCosts)
    name: str = "custom"
    tau_inter: float | None = None
    mu_inter: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ConfigurationError(f"tau must be finite and >= 0, got {self.tau!r}")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ConfigurationError(f"mu must be finite and >= 0, got {self.mu!r}")
        for fname in ("tau_inter", "mu_inter"):
            v = getattr(self, fname)
            if v is not None and not (
                isinstance(v, (int, float)) and math.isfinite(v) and v >= 0
            ):
                raise ConfigurationError(
                    f"{fname} must be None or a finite number >= 0, got {v!r}"
                )
        self.compute.validate()

    # -- communication cost formulas shared by several collectives ---------

    def link(self, inter: bool = False) -> tuple[float, float]:
        """``(tau, mu)`` of one link class.

        ``inter=True`` selects the inter-cluster link of a hierarchical
        machine; on a flat model (``tau_inter``/``mu_inter`` unset) both
        classes are the same link, so topologies can price transfers
        uniformly without caring whether the model is hierarchical.
        """
        if not inter:
            return self.tau, self.mu
        return (
            self.tau if self.tau_inter is None else self.tau_inter,
            self.mu if self.mu_inter is None else self.mu_inter,
        )

    def log2p(self, p: int) -> int:
        """``ceil(log2 p)`` with the convention ``log2p(1) == 0``."""
        if p < 1:
            raise ConfigurationError(f"p must be >= 1, got {p}")
        return max(0, int(math.ceil(math.log2(p)))) if p > 1 else 0

    def calibrate(self, machine, **kwargs) -> "CostModel":
        """Re-fit ``tau``/``mu`` from probe launches on ``machine``.

        Convenience front door to
        :func:`repro.planner.calibrate.calibrate_cost_model` (lazy import:
        the planner package imports this module). Returns a new model with
        host-fitted constants; ``self`` and ``machine`` are unchanged.
        """
        from ..planner.calibrate import calibrate_cost_model

        return calibrate_cost_model(machine, model=self, **kwargs)

    def replace(self, **kwargs) -> "CostModel":
        """Return a copy with selected fields replaced (compute merges)."""
        compute_kwargs = {
            k: kwargs.pop(k)
            for k in list(kwargs)
            if k in {f.name for f in dataclasses.fields(ComputeCosts)}
        }
        compute = (
            dataclasses.replace(self.compute, **compute_kwargs)
            if compute_kwargs
            else self.compute
        )
        return dataclasses.replace(self, compute=compute, **kwargs)


def cm5() -> CostModel:
    """The calibrated CM-5-like preset used by all paper reproductions."""
    return CostModel(tau=100e-6, mu=0.8e-6, compute=ComputeCosts(), name="CM5")


#: Module-level singleton preset (immutable, safe to share).
CM5: CostModel = cm5()


def cm5_fast_network() -> CostModel:
    """Alternative calibration with relatively cheap transfers.

    Same two-level model, but the network moves a word for a quarter of the
    ``CM5`` price relative to compute (equivalently: compute is 2x slower
    and bandwidth 1.6x higher). Under this preset the paper's Figure 3/6
    claim — load balancing pays off for *fast randomized* selection on
    sorted data — reproduces, at the cost of the Figure 2 claim that
    balancing never helps plain randomized selection (see EXPERIMENTS.md:
    in a pure two-level model the two claims sit on opposite sides of the
    ``2*mu  vs  rescan-savings`` inequality; the CM-5's 4-byte elements and
    cache effects let the paper have both).
    """
    base = ComputeCosts()
    doubled = ComputeCosts(
        partition=base.partition * 2,
        select_deterministic=base.select_deterministic * 2,
        select_randomized=base.select_randomized * 2,
        sort_per_cmp=base.sort_per_cmp * 2,
        scan=base.scan * 2,
        binary_search_step=base.binary_search_step * 2,
        bucket_level=base.bucket_level * 2,
        rng_draw=base.rng_draw * 2,
    )
    return CostModel(tau=100e-6, mu=0.25e-6, compute=doubled, name="CM5-fastnet")


def cm5_two_level(tau_factor: float = 4.0, mu_factor: float = 8.0) -> CostModel:
    """A hierarchical CM-5-like preset for the ``two-level`` topology.

    Intra-cluster links keep the calibrated ``CM5`` constants; links that
    cross a cluster boundary pay ``tau_factor`` times the start-up and
    ``mu_factor`` times the per-word cost — the usual shape of a cluster
    of SMP-ish nodes behind a slower global switch. On every topology
    without a cluster structure this model behaves exactly like ``CM5``.
    """
    base = cm5()
    return base.replace(
        tau_inter=base.tau * tau_factor,
        mu_inter=base.mu * mu_factor,
        name="CM5-2level",
    )


def zero_cost_model() -> CostModel:
    """A model in which everything is free.

    Useful in tests that check *what* is computed without caring about
    simulated time, and as the base for ablations that isolate one term.
    """
    zero = ComputeCosts(
        partition=0.0,
        select_deterministic=0.0,
        select_randomized=0.0,
        sort_per_cmp=0.0,
        scan=0.0,
        binary_search_step=0.0,
        bucket_level=0.0,
        rng_draw=0.0,
    )
    return CostModel(tau=0.0, mu=0.0, compute=zero, name="zero")
