"""Candidate enumeration and plan choice: the planner proper.

Given a query's shape (``n``, ``p``), the machine's cost model and
topology, and optional distribution evidence (ingest-time sketches on a
:class:`~repro.stream.StreamingArray`), the planner:

1. enumerates candidate plans — every closed-form algorithm, each plain
   and (when sketches are already paid for) sketch-prefiltered, with the
   base plan's seed / kernel / backend knobs carried through unchanged;
2. prices each candidate analytically on the *actual* machine shape via
   :func:`~repro.selection.cost.predict`;
3. scales every price by the residual store's learned correction for its
   (algorithm, topology, p-bucket) key;
4. returns the corrected-cost argmin as a concrete
   :class:`~repro.core.plan.SelectionPlan`, wrapped in a
   :class:`PlanDecision` that keeps the full ranked table for
   ``python -m repro.planner explain`` and the obs span.

Deviation note (see DESIGN.md): hybrids and ``sort_based`` never appear
as candidates: the paper states no closed-form bound for them, so the
planner has no way to price them (picking them explicitly still works and
simply skips prediction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.plan import SelectionPlan, as_plan
from ..errors import ConfigurationError
from ..machine.cost_model import CostModel
from ..machine.topology import Topology, resolve_topology
from ..obs import get_recorder
from ..selection.cost import CLOSED_FORM_ALGORITHMS, predict, predict_prefilter
from .residuals import ResidualStore, default_store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.array import DistributedArray

__all__ = [
    "Candidate",
    "PlanDecision",
    "choose_plan",
    "enumerate_candidates",
    "plan_query",
    "resolve_auto",
]

#: Fallback algorithm when nothing can be priced (n == 0 queries):
#: the paper's overall winner and the repo-wide default plan.
_FALLBACK_ALGORITHM = "fast_randomized"


@dataclass(frozen=True)
class Candidate:
    """One priced plan: analytic prediction × learned correction."""

    plan: SelectionPlan
    predicted: float
    correction: float

    @property
    def corrected(self) -> float:
        return self.predicted * self.correction

    def label(self) -> str:
        suffix = "+sketch" if self.plan.prefilter == "sketch" else ""
        return f"{self.plan.algorithm}{suffix}"


@dataclass(frozen=True)
class PlanDecision:
    """The chosen plan plus the full ranked candidate table."""

    chosen: SelectionPlan
    candidates: tuple[Candidate, ...]
    n: int
    p: int
    topology: str
    hint: str | None = None

    @property
    def winner(self) -> Candidate | None:
        for cand in self.candidates:
            if cand.plan is self.chosen:
                return cand
        return self.candidates[0] if self.candidates else None

    def table(self) -> str:
        """The ranked candidate table ``explain`` prints."""
        lines = [
            f"query: n={self.n} p={self.p} topology={self.topology}"
            + (f" hint={self.hint}" if self.hint else ""),
            f"{'rank':>4} {'candidate':<28} {'predicted_ms':>13} "
            f"{'correction':>11} {'corrected_ms':>13}",
        ]
        for i, cand in enumerate(self.candidates, 1):
            marker = " <- chosen" if cand.plan is self.chosen else ""
            lines.append(
                f"{i:>4} {cand.label():<28} {cand.predicted * 1e3:>13.4f} "
                f"{cand.correction:>11.3f} {cand.corrected * 1e3:>13.4f}"
                f"{marker}"
            )
        if not self.candidates:
            lines.append(
                f"  (no candidates priced; fell back to "
                f"{self.chosen.algorithm})"
            )
        return "\n".join(lines)


def enumerate_candidates(
    base: SelectionPlan,
    n: int,
    p: int,
    topology: "Topology | str | None",
    model: CostModel,
    store: ResidualStore,
    sketches_available: bool = False,
    hint: str | None = None,
) -> tuple[Candidate, ...]:
    """Price the candidate space for one query shape.

    One candidate per closed-form algorithm, carrying the base plan's
    knobs; when the array maintains ingest-time sketches (and the base
    plan does not already force a prefilter) each algorithm also gets a
    sketch-prefiltered variant. A ``"degenerate"`` hint (all-equal keys:
    the merged sketch window cannot shrink the live set) suppresses the
    prefiltered variants. A ``"sorted"`` hint prices with the paper's
    Table 2 worst-case forms instead of Table 1.
    """
    table = 2 if hint == "sorted" else 1
    prefilters: tuple[str | None, ...]
    if base.prefilter is not None:
        prefilters = (base.prefilter,)
    elif sketches_available and hint != "degenerate":
        prefilters = (None, "sketch")
    else:
        prefilters = (None,)
    out = []
    for algorithm in CLOSED_FORM_ALGORITHMS:
        for prefilter in prefilters:
            plan = base.replace(algorithm=algorithm, prefilter=prefilter)
            if prefilter == "sketch":
                pred = predict_prefilter(algorithm, n, p, model, topology,
                                         eps=plan.sketch_eps, table=table)
            else:
                pred = predict(algorithm, n, p, model, topology, table=table)
            out.append(Candidate(
                plan=plan,
                predicted=pred.total,
                correction=store.correction(algorithm, topology, p),
            ))
    # Stable ranking: corrected cost, then name, so ties never flap.
    out.sort(key=lambda c: (c.corrected, c.label()))
    return tuple(out)


def choose_plan(
    n: int,
    p: int,
    model: CostModel,
    topology: "Topology | str | None" = None,
    base: SelectionPlan | None = None,
    store: ResidualStore | None = None,
    sketches_available: bool = False,
    hint: str | None = None,
) -> PlanDecision:
    """Rank the candidate space and return the predicted winner.

    Pure and analytic — no launches. Emits a ``planner.choose`` span with
    the candidate count and winner so planning is visible in traces.
    """
    base = as_plan(base, {})
    if base.algorithm == "auto":
        base = base.replace(algorithm=_FALLBACK_ALGORITHM)
    if store is None:
        store = default_store()
    topo = resolve_topology(topology, max(p, 1))
    with get_recorder().span("planner.choose", rank=None, n=n, p=p,
                             topology=topo.name) as span:
        if n > 0 and p > 0:
            candidates = enumerate_candidates(
                base, n, p, topo, model, store,
                sketches_available=sketches_available, hint=hint,
            )
        else:
            candidates = ()
        chosen = candidates[0].plan if candidates else base
        span.set(candidates=len(candidates), winner=chosen.algorithm,
                 predicted_s=candidates[0].predicted if candidates else None)
    return PlanDecision(chosen=chosen, candidates=candidates, n=n, p=p,
                        topology=topo.name, hint=hint)


def _distribution_hint(data: "DistributedArray", eps: float) -> str | None:
    """Degenerate-data evidence from ingest-time sketches, if maintained.

    All-equal keys make a sketch prefilter useless (the candidate window
    is the whole array), so detect that for free from the cached
    summaries' global min == max.
    """
    sketches_fn = getattr(data, "local_sketches", None)
    if sketches_fn is None:
        return None
    try:
        sketches = sketches_fn(eps)
    except Exception:  # pragma: no cover - defensive: hints are optional
        return None
    lo = hi = None
    for sk in sketches:
        if sk is None or getattr(sk, "count", 0) == 0 or sk.keys.size == 0:
            continue
        s_min, s_max = sk.keys[0], sk.keys[-1]
        lo = s_min if lo is None else min(lo, s_min)
        hi = s_max if hi is None else max(hi, s_max)
    if lo is not None and lo == hi:
        return "degenerate"
    return None


def plan_query(
    data: "DistributedArray",
    base: SelectionPlan | None = None,
    store: ResidualStore | None = None,
) -> PlanDecision:
    """Plan one query against a concrete array + machine.

    Reads everything the planner needs off the objects themselves: ``n``
    and ``p`` from the array, the cost model and topology from the
    machine (the plan's explicit topology wins, as it does at launch),
    and distribution evidence from ingest-time sketches when the array
    maintains them.
    """
    base = as_plan(base, {})
    machine = data.machine
    topology = (base.topology if base.topology is not None
                else machine.topology)
    sketches_available = getattr(data, "local_sketches", None) is not None
    hint = (_distribution_hint(data, base.sketch_eps)
            if sketches_available else None)
    return choose_plan(
        data.n, data.p, machine.cost_model, topology, base=base,
        store=store, sketches_available=sketches_available, hint=hint,
    )


def resolve_auto(
    data: "DistributedArray",
    plan: SelectionPlan,
    store: ResidualStore | None = None,
) -> SelectionPlan:
    """Resolve an ``algorithm="auto"`` plan to the planner's winner.

    The launch-path entry point: every knob of the incoming plan except
    ``algorithm``/``prefilter`` is preserved, so seeds, sequential
    methods, backend and topology behave exactly as if the user had named
    the winning algorithm explicitly — which is what makes auto
    bit-identical to the explicit plan.
    """
    if plan.algorithm != "auto":
        raise ConfigurationError(
            f"resolve_auto expects algorithm='auto', got {plan.algorithm!r}"
        )
    return plan_query(data, base=plan, store=store).chosen
