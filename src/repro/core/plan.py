"""The :class:`SelectionPlan`: a frozen, validated recipe for selection.

Historically every entry point (``select``, ``multi_select``, ``median``,
``quantiles``, the bench harness) re-declared the same eight tuning kwargs
and re-validated them on every call. A plan names that configuration ONCE —
algorithm, balancer, seed, sequential method, endgame/iteration limits,
fast-randomized parameters — validates it at construction (unknown names
raise :class:`~repro.errors.ConfigurationError` listing the available
options), and is then reused across any number of queries. Plans are frozen
and carry a stable :meth:`cache_key`, which is what lets a
:class:`~repro.core.session.Session` coalesce queries and cache results
per ``(array identity, plan, rank)``.

``plan.resolve()`` builds the launch: the one selection program
(:class:`~repro.selection.SelectionProgram`), its
:class:`~repro.selection.SelectionConfig` and the balancer's name.
``balancer="default"`` maps to the paper's pairing (global exchange for
median of medians, nothing otherwise), and a fresh balancer instance is
built per resolution so stateful balancers never leak between launches.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from typing import Sequence, get_args

from ..balance.base import Balancer, get_balancer
from ..errors import ConfigurationError
from ..kernels.select import SelectMethod
from ..machine.backends import available_backends
from ..machine.topology import validate_topology_spec
from ..selection import ALGORITHM_SPECS, ALGORITHMS, SelectionConfig, SelectionProgram
from ..selection.fast_randomized import FastRandomizedParams

__all__ = [
    "SelectionPlan",
    "SEQUENTIAL_METHODS",
    "PREFILTERS",
    "as_plan",
    "validate_rank",
    "validate_targets",
]

#: The sequential kernels ``sequential_method`` / ``impl_override`` accept.
SEQUENTIAL_METHODS: tuple[str, ...] = get_args(SelectMethod)

#: Pre-filter stages a plan may request before the exact contraction.
PREFILTERS: tuple[str, ...] = ("sketch",)


def validate_rank(k, n: int) -> int:
    """Coerce and range-check one 1-based target rank against ``n`` keys.

    This is THE pre-launch validation seam: every query surface (Session,
    the launch primitives, the serve tier) funnels target ranks through
    here *before* any SPMD launch is assembled, so an out-of-range ``k``
    costs a clean :class:`ConfigurationError` and zero launches instead of
    a burned launch surfacing as ``WorkerError``.
    """
    if not isinstance(k, numbers.Integral) or isinstance(k, bool):
        raise ConfigurationError(
            f"rank k must be an integer, got {k!r}"
        )
    k = int(k)
    if not (1 <= k <= max(n, 0)):
        raise ConfigurationError(f"rank k={k} out of range [1, {n}]")
    return k


def validate_targets(ks: Sequence, n: int) -> list[int]:
    """Coerce and range-check a whole multi-select target list (shared by
    every launch path; see :func:`validate_rank`)."""
    return [validate_rank(k, n) for k in ks]


def _check_method(value: str | None, what: str) -> None:
    if value is not None and value not in SEQUENTIAL_METHODS:
        raise ConfigurationError(
            f"unknown {what} {value!r}; available: {sorted(SEQUENTIAL_METHODS)}"
        )


def _as_int(value, what: str, minimum: int | None = None) -> int:
    """Coerce any integral (int, numpy integer) to a plain int; bools and
    non-integrals are configuration errors."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = int(value)
        if minimum is None or value >= minimum:
            return value
    kind = "an integer" if minimum is None else "a non-negative integer"
    raise ConfigurationError(f"{what} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class SelectionPlan:
    """A validated, reusable selection configuration.

    Attributes
    ----------
    algorithm:
        One of :data:`repro.selection.ALGORITHMS`, or ``"auto"`` to let
        the query planner (:mod:`repro.planner`) pick the predicted-fastest
        algorithm per (array, machine shape) at launch time. Auto plans
        answer bit-identically to the plan the planner would return from
        :func:`repro.planner.plan_query` (selection values are
        algorithm-independent: the k-th order statistic).
    balancer:
        Load balancing strategy name (``"none"``, ``"omlb"``,
        ``"modified_omlb"``, ``"dimension_exchange"``, ``"global_exchange"``),
        a :class:`~repro.balance.base.Balancer` class/instance, ``None``
        (no balancing), or ``"default"`` for the paper's pairing.
    seed:
        Drives every stochastic choice; equal seeds give bit-identical runs
        (values *and* simulated times).
    sequential_method:
        Sequential kernel for local medians and the endgame (``None`` = the
        algorithm's paper default).
    endgame_threshold / max_iterations:
        Contraction limits (``None`` = the paper's ``p^2`` bound and the
        ``~4 log2 n`` safety guard).
    fast_params:
        Algorithm 4 tuning knobs; only consumed by ``fast_randomized``.
    impl_override:
        Sequential kernel that *executes* local selections while simulated
        cost still follows ``sequential_method``: ``"introselect"`` runs
        every local selection on ``np.partition`` (the bench harness sets
        it on huge grids). Values and simulated times are unchanged; only
        wall-clock changes.
    backend:
        Execution backend for launches this plan drives (``"serial"``,
        ``"threaded"``, ``"process"`` or ``"pool"``); ``None`` defers to
        the machine's backend (itself defaulting to ``$REPRO_BACKEND`` or
        threaded). Values, RNG streams and simulated times are
        backend-independent; only wall-clock changes.
    topology:
        Machine shape the launches' collectives are lowered onto
        (``"crossbar"``, ``"binomial-tree"``, ``"hypercube"``,
        ``"two-level"`` or ``"two-level:<cluster_size>"``); ``None``
        defers to the machine's topology (itself defaulting to
        ``$REPRO_TOPOLOGY`` or crossbar). Values and RNG streams are
        topology-independent; simulated time is exactly what the shape
        changes, so the spec is part of the cache key.
    prefilter:
        ``"sketch"`` localises every target rank with a mergeable quantile
        sketch (one Global Concatenate + one Combine) and runs the exact
        contraction on the surviving candidate interval only
        (:mod:`repro.stream.refine`). Answers are bit-identical to the
        plain path; ``"none"``/``None`` disables.
    sketch_eps:
        Accuracy of the pre-filter sketch: stored size is ``O(1/eps)``
        and the surviving fraction ``O(eps)``. Only consumed when
        ``prefilter="sketch"``.
    trace:
        Per-launch collective tracing override: ``True`` forces a real
        tracer for launches this plan drives even on an untraced machine
        (so ``report.collective_rounds()`` and the observability layer's
        collective leaf spans are populated), ``False`` forces it off,
        ``None`` defers to the machine (and to :mod:`repro.obs` capture).
        Purely observational — values, RNG streams and simulated times are
        unchanged — so it is deliberately NOT part of :meth:`cache_key`.
    """

    algorithm: str = "fast_randomized"
    balancer: object = "default"
    seed: int = 0
    sequential_method: str | None = None
    endgame_threshold: int | None = None
    max_iterations: int | None = None
    fast_params: FastRandomizedParams | None = None
    impl_override: str | None = None
    backend: str | None = None
    topology: str | None = None
    prefilter: str | None = None
    sketch_eps: float = 0.01
    trace: bool | None = None

    def __post_init__(self) -> None:
        if self.algorithm != "auto" and self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; "
                f"available: {sorted(ALGORITHMS) + ['auto']}"
            )
        if self.balancer != "default":
            # get_balancer raises the registry's "unknown balancer ...;
            # available: ..." message for bad names.
            get_balancer(self.balancer)
        # Coerce integral knobs (numpy integers from sweeps included) to
        # plain ints; the dataclass is frozen, hence object.__setattr__.
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))
        # 0 is meaningful for both limits: max_iterations=0 fires the guard
        # immediately, endgame_threshold=0 clamps to the minimum live set.
        for field_name in ("endgame_threshold", "max_iterations"):
            value = getattr(self, field_name)
            if value is not None:
                object.__setattr__(
                    self, field_name, _as_int(value, field_name, 0)
                )
        _check_method(self.sequential_method, "sequential method")
        _check_method(self.impl_override, "sequential method (impl_override)")
        if self.backend is not None and self.backend not in available_backends():
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; "
                f"available: {sorted(available_backends())}"
            )
        if self.topology is not None:
            # Canonicalise (aliases resolved, cluster size kept) so equal
            # shapes share one cache-key token.
            object.__setattr__(
                self, "topology", validate_topology_spec(self.topology)
            )
        if self.prefilter == "none":
            object.__setattr__(self, "prefilter", None)
        if self.prefilter is not None and self.prefilter not in PREFILTERS:
            raise ConfigurationError(
                f"unknown prefilter {self.prefilter!r}; "
                f"available: {sorted(PREFILTERS) + ['none']}"
            )
        if isinstance(self.sketch_eps, bool) or not isinstance(
            self.sketch_eps, numbers.Real
        ) or not (0.0 < float(self.sketch_eps) <= 0.5):
            raise ConfigurationError(
                f"sketch_eps must be a real number in (0, 0.5], "
                f"got {self.sketch_eps!r}"
            )
        object.__setattr__(self, "sketch_eps", float(self.sketch_eps))
        if self.trace is not None and not isinstance(self.trace, bool):
            raise ConfigurationError(
                f"trace must be True, False or None, got {self.trace!r}"
            )
        if self.fast_params is not None and not isinstance(
            self.fast_params, FastRandomizedParams
        ):
            raise ConfigurationError(
                f"fast_params must be a FastRandomizedParams, "
                f"got {type(self.fast_params).__name__}"
            )

    # ------------------------------------------------------------ resolution

    def resolve(self) -> tuple[SelectionProgram, SelectionConfig, str]:
        """Build ``(program, SelectionConfig, balancer_name)`` for a launch.

        ``program(ctx, shard, ks_sorted, cfg)`` is the one SPMD selection
        program, for one target rank or many. A fresh balancer instance is
        created per call.
        """
        if self.algorithm == "auto":
            raise ConfigurationError(
                "algorithm='auto' must be resolved by the planner before "
                "launch (repro.planner.resolve_auto); launch paths do this "
                "automatically"
            )
        spec = ALGORITHM_SPECS[self.algorithm]
        if self.balancer == "default":
            # Paper defaults: MoM requires balancing (its figures use global
            # exchange); everything else runs without.
            balancer_obj: Balancer = get_balancer(
                "global_exchange" if spec.needs_balancing else None
            )
        else:
            balancer_obj = get_balancer(self.balancer)
        sequential_method = self.sequential_method or spec.sequential_method
        if self.algorithm.startswith("hybrid_"):
            # Section 5: deterministic parallel structure with randomized
            # sequential parts, whatever the plan asks for.
            sequential_method = "randomized"
        cfg = SelectionConfig(
            balancer=balancer_obj,
            sequential_method=sequential_method,
            seed=self.seed,
            endgame_threshold=self.endgame_threshold,
            max_iterations=self.max_iterations,
            impl_override=self.impl_override,
        )
        program = SelectionProgram(self.algorithm, self.fast_params)
        return program, cfg, type(balancer_obj).__name__

    # --------------------------------------------------------------- keying

    def cache_key(self) -> tuple:
        """A hashable token identifying every behaviour-relevant knob.

        Two plans with equal keys produce bit-identical answers and
        simulated times over the same data, which is what the Session
        result cache relies on.
        """
        b = self.balancer
        if b is None:
            balancer_token = "none"
        elif isinstance(b, str):
            balancer_token = b
        elif isinstance(b, type):
            balancer_token = f"class:{b.__name__}"
        else:
            # A live instance: identity matters (it may carry state).
            balancer_token = f"instance:{type(b).__name__}:{id(b)}"
        fp = (
            dataclasses.astuple(self.fast_params)
            if self.fast_params is not None else None
        )
        return (
            self.algorithm,
            balancer_token,
            self.seed,
            self.sequential_method,
            self.endgame_threshold,
            self.max_iterations,
            fp,
            self.impl_override,
            self.backend,
            self.topology,
            self.prefilter,
            # sketch_eps only shapes behaviour when the pre-filter is on.
            self.sketch_eps if self.prefilter is not None else None,
            # trace is deliberately absent: it is purely observational
            # (values and simulated times are identical either way), so a
            # traced and an untraced plan share cached results.
        )

    def replace(self, **changes) -> "SelectionPlan":
        """A new plan with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """One-line human summary (bench tables, example output)."""
        bal = self.balancer if isinstance(self.balancer, str) else (
            "none" if self.balancer is None else type(self.balancer).__name__
        )
        parts = [f"algorithm={self.algorithm}", f"balancer={bal}",
                 f"seed={self.seed}"]
        for name in ("sequential_method", "endgame_threshold",
                     "max_iterations", "impl_override", "backend",
                     "topology", "prefilter", "trace"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}={v}")
        if self.prefilter is not None:
            parts.append(f"sketch_eps={self.sketch_eps}")
        if self.fast_params is not None:
            parts.append(f"fast_params={self.fast_params}")
        return "SelectionPlan(" + ", ".join(parts) + ")"


def as_plan(plan: SelectionPlan | None, overrides: dict) -> SelectionPlan:
    """Normalise ``(plan, kwargs)`` call sites to one validated plan.

    ``None`` + kwargs builds a fresh plan; an existing plan + kwargs is
    :meth:`SelectionPlan.replace`-d (both re-validate).
    """
    if plan is None:
        return SelectionPlan(**overrides)
    if not isinstance(plan, SelectionPlan):
        raise ConfigurationError(
            f"plan must be a SelectionPlan or None, got {type(plan).__name__}"
        )
    return plan.replace(**overrides) if overrides else plan
