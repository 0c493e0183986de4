"""Cost-model-driven query planner: pick the fast plan automatically.

The paper's central argument is that algorithm choice on a coarse-grained
machine is a *cost-model* question — which of the algorithms wins depends
on ``n``, ``p`` and the machine's communication constants. This package
turns that argument into a system component:

* :mod:`~repro.planner.planner` enumerates the candidate space
  (algorithm × prefilter, with the machine's topology and the base plan's
  kernel knobs carried through), prices each candidate with the closed
  forms of :mod:`repro.selection.cost` on the actual topology, applies
  per-(algorithm, topology, p-bucket) residual corrections, and returns
  the predicted winner as a concrete :class:`~repro.core.plan.SelectionPlan`;
* :mod:`~repro.planner.residuals` is the self-calibration loop: every
  executed launch's ``cost_residual`` feeds a correction store that
  scales future predictions;
* :mod:`~repro.planner.calibrate` fits the cost model's tau/mu constants
  from probe launches on the actual host;
* ``python -m repro.planner explain`` prints the ranked candidate table.

Entry points: ``SelectionPlan(algorithm="auto")`` resolves through
:func:`resolve_auto` on every launch, and ``SelectionService`` defaults
to auto when no plan is given.

The predictor itself lives in :mod:`repro.selection.cost` (``predict``,
``predict_prefilter``, ``Prediction``): the former
``repro.planner.predict_on_topology`` is ``predict(..., topology=...)``
there, and this package re-exports only ``CLOSED_FORM_ALGORITHMS``.
"""

from __future__ import annotations

from ..selection.cost import CLOSED_FORM_ALGORITHMS
from .calibrate import calibrate_cost_model
from .planner import (
    Candidate,
    PlanDecision,
    choose_plan,
    enumerate_candidates,
    plan_query,
    resolve_auto,
)
from .residuals import ResidualStore, default_store, reset_default_store, use_store

__all__ = [
    "CLOSED_FORM_ALGORITHMS",
    "Candidate",
    "PlanDecision",
    "ResidualStore",
    "calibrate_cost_model",
    "choose_plan",
    "default_store",
    "enumerate_candidates",
    "plan_query",
    "reset_default_store",
    "resolve_auto",
    "use_store",
]
