"""The query planner: candidate space, pricing, auto bit-identity,
self-calibration, and the degenerate shapes that must never crash it.

The planner's contract has four legs, each pinned here:

* the candidate space is exactly (closed-form algorithm x prefilter
  availability), every candidate is a valid launchable plan, and the
  ranking is deterministic;
* ``algorithm="auto"`` is bit-identical (value AND simulated time) to
  running the planner's chosen plan explicitly;
* the residual store monotonically shrinks the median relative error on
  a replayed trace, and its corrections/mispredictions are observable
  through the metrics registry;
* planning never crashes on n=1, n<p, all-equal keys, empty multi-select
  or streaming arrays.
"""

import statistics

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.plan import SelectionPlan
from repro.core.session import Session, predict_simulated
from repro.errors import ConfigurationError
from repro.machine.cost_model import CM5, cm5, cm5_two_level
from repro.obs.metrics import REGISTRY
from repro.planner import (
    CLOSED_FORM_ALGORITHMS,
    ResidualStore,
    calibrate_cost_model,
    choose_plan,
    enumerate_candidates,
    plan_query,
    resolve_auto,
    use_store,
)
from repro.planner.cli import main as planner_main
from repro.selection.cost import predict, predict_prefilter

N = 20_000
P = 8


@pytest.fixture
def fresh_store():
    with use_store(ResidualStore()) as store:
        yield store


@pytest.fixture
def machine():
    return repro.Machine(n_procs=P)


# ---------------------------------------------------------------------------
# Plan surface: "auto" is a valid algorithm name that never launches raw
# ---------------------------------------------------------------------------


class TestAutoPlanSurface:
    def test_auto_is_accepted(self):
        plan = SelectionPlan(algorithm="auto")
        assert plan.algorithm == "auto"
        assert "auto" in plan.describe()

    def test_unknown_algorithm_message_lists_auto(self):
        with pytest.raises(ConfigurationError, match="auto"):
            SelectionPlan(algorithm="nope")

    def test_auto_resolve_raises_before_launch(self):
        with pytest.raises(ConfigurationError, match="planner"):
            SelectionPlan(algorithm="auto").resolve()

    def test_resolve_auto_rejects_concrete_plans(self, machine, fresh_store):
        data = machine.generate(100, seed=0)
        with pytest.raises(ConfigurationError, match="auto"):
            resolve_auto(data, SelectionPlan(algorithm="randomized"))


# ---------------------------------------------------------------------------
# Candidate space: enumeration and validation
# ---------------------------------------------------------------------------


class TestCandidateSpace:
    def test_plain_space_is_the_closed_form_algorithms(self, fresh_store):
        cands = enumerate_candidates(
            SelectionPlan(), N, P, "crossbar", CM5, fresh_store
        )
        assert sorted(c.plan.algorithm for c in cands) == sorted(
            CLOSED_FORM_ALGORITHMS
        )
        assert all(c.plan.prefilter is None for c in cands)

    def test_sketches_double_the_space(self, fresh_store):
        cands = enumerate_candidates(
            SelectionPlan(), N, P, "crossbar", CM5, fresh_store,
            sketches_available=True,
        )
        assert len(cands) == 2 * len(CLOSED_FORM_ALGORITHMS)
        assert {c.plan.prefilter for c in cands} == {None, "sketch"}

    def test_degenerate_hint_suppresses_prefilter(self, fresh_store):
        cands = enumerate_candidates(
            SelectionPlan(), N, P, "crossbar", CM5, fresh_store,
            sketches_available=True, hint="degenerate",
        )
        assert all(c.plan.prefilter is None for c in cands)

    def test_explicit_prefilter_is_respected(self, fresh_store):
        base = SelectionPlan(prefilter="sketch", sketch_eps=0.02)
        cands = enumerate_candidates(
            base, N, P, "crossbar", CM5, fresh_store
        )
        assert all(c.plan.prefilter == "sketch" for c in cands)
        assert all(c.plan.sketch_eps == 0.02 for c in cands)

    def test_candidates_carry_base_knobs_and_are_launchable(
        self, fresh_store
    ):
        base = SelectionPlan(seed=17, impl_override="introselect",
                             backend="serial")
        cands = enumerate_candidates(
            base, N, P, "crossbar", CM5, fresh_store
        )
        for cand in cands:
            assert cand.plan.seed == 17
            assert cand.plan.impl_override == "introselect"
            assert cand.plan.backend == "serial"
            cand.plan.resolve()  # every candidate must be launchable
            assert cand.predicted > 0
            assert cand.corrected == cand.predicted  # empty store

    def test_ranking_is_sorted_and_deterministic(self, fresh_store):
        a = enumerate_candidates(
            SelectionPlan(), N, P, "crossbar", CM5, fresh_store
        )
        b = enumerate_candidates(
            SelectionPlan(), N, P, "crossbar", CM5, fresh_store
        )
        assert [c.plan.algorithm for c in a] == [
            c.plan.algorithm for c in b
        ]
        assert list(c.corrected for c in a) == sorted(
            c.corrected for c in a
        )

    def test_decision_table_mentions_every_candidate(
        self, machine, fresh_store
    ):
        decision = plan_query(machine.generate(N, seed=0))
        text = decision.table()
        for cand in decision.candidates:
            assert cand.label() in text
        assert decision.chosen.algorithm in text


# ---------------------------------------------------------------------------
# Schedule-based pricing beyond the crossbar
# ---------------------------------------------------------------------------


class TestTopologyPricing:
    def test_crossbar_matches_legacy_closed_forms(self):
        # The crossbar totals of the paper's closed forms, pinned bit for
        # bit at N=20,000, P=8 under CM5.
        pinned = {
            "median_of_medians": 0.11357400000000001,
            "bucket_based": 0.12612440000000003,
            "randomized": 0.0124886,
            "fast_randomized": 0.014952865798397068,
        }
        for algorithm in CLOSED_FORM_ALGORITHMS:
            assert predict(algorithm, N, P, CM5, "crossbar").total == (
                pinned[algorithm]
            )

    @pytest.mark.parametrize(
        "topology", ["binomial-tree", "hypercube", "two-level:4"]
    )
    def test_routed_topologies_price_positive(self, topology):
        model = cm5_two_level() if "two-level" in topology else cm5()
        for algorithm in CLOSED_FORM_ALGORITHMS:
            pred = predict(algorithm, N, P, model, topology)
            assert pred.total > 0
            assert pred.comm > 0

    def test_no_closed_form_still_raises(self):
        with pytest.raises(ConfigurationError):
            predict("sort_based", N, P, CM5, "hypercube")

    def test_prefilter_estimate_cheaper_on_large_n(self):
        # A 1M-key query: scanning once + contracting ~2*eps*n survivors
        # must price below contracting the full input.
        plain = predict("randomized", 1 << 20, P, CM5)
        filtered = predict_prefilter("randomized", 1 << 20, P, CM5)
        assert filtered.total < plain.total

    def test_report_prediction_populates_on_routed_topologies(
        self, fresh_store
    ):
        machine = repro.Machine(n_procs=P, topology="hypercube")
        report = machine.generate(N, seed=1).select(7)
        assert report.predicted_time is not None and report.predicted_time > 0
        assert report.cost_residual is not None

    def test_predict_simulated_matches_plan_topology(self, fresh_store):
        plan = SelectionPlan(algorithm="randomized", topology="hypercube")
        via_session = predict_simulated(plan, N, P, CM5, plan.topology)
        direct = predict("randomized", N, P, CM5, "hypercube")
        assert via_session == direct.total

    def test_single_rank_auto_picks_the_faster_plan(self):
        # At p = 1 no collective is charged, so the closed forms compare
        # compute alone — and fast_randomized's smaller scan wins.
        machine = repro.Machine(n_procs=1)
        data = machine.generate(1000, seed=0)

        def run(algorithm, seed):
            with use_store(ResidualStore()):
                return Session(machine, cache=False).run_select(
                    data, 500, SelectionPlan(algorithm=algorithm, seed=seed)
                )

        def median_sim(algorithm):
            return statistics.median(
                run(algorithm, seed).simulated_time for seed in range(3)
            )

        assert run("auto", 0).algorithm == "fast_randomized"
        assert median_sim("fast_randomized") < median_sim("randomized")


# ---------------------------------------------------------------------------
# Auto bit-identity: the acceptance criterion
# ---------------------------------------------------------------------------


class TestAutoBitIdentity:
    @pytest.mark.parametrize("distribution", ["random", "sorted"])
    def test_select_bit_identical_to_chosen_plan(self, distribution):
        auto = SelectionPlan(algorithm="auto", seed=3)
        m1 = repro.Machine(n_procs=P)
        d1 = m1.generate(N, distribution=distribution, seed=5)
        with use_store(ResidualStore()):
            chosen = plan_query(d1, auto).chosen
            assert chosen.algorithm in CLOSED_FORM_ALGORITHMS
            got = Session(m1, cache=False).run_select(d1, N // 3, auto)
        m2 = repro.Machine(n_procs=P)
        d2 = m2.generate(N, distribution=distribution, seed=5)
        with use_store(ResidualStore()):
            want = Session(m2, cache=False).run_select(d2, N // 3, chosen)
        assert got.value == want.value
        assert got.simulated_time == want.simulated_time
        assert got.algorithm == want.algorithm == chosen.algorithm

    def test_multi_select_bit_identical(self, fresh_store, machine):
        data = machine.generate(N, seed=9)
        auto = SelectionPlan(algorithm="auto", seed=1)
        chosen = plan_query(data, auto).chosen
        session = Session(machine, cache=False)
        ks = [1, N // 2, N // 2, N]
        got = session.run_multi_select(data, ks, auto)
        want = session.run_multi_select(data, ks, chosen)
        assert got.values == want.values
        assert got.simulated_time == want.simulated_time

    def test_auto_report_names_the_resolved_algorithm(
        self, fresh_store, machine
    ):
        report = machine.generate(N, seed=2).select(5, algorithm="auto")
        assert report.algorithm in CLOSED_FORM_ALGORITHMS

    def test_streaming_array_auto_uses_sketches(self, fresh_store, machine):
        stream = machine.stream()
        rng = np.random.default_rng(0)
        for _ in range(4):
            stream.append(rng.normal(size=N // 4))
        decision = plan_query(stream, SelectionPlan(algorithm="auto"))
        assert any(
            c.plan.prefilter == "sketch" for c in decision.candidates
        ), "streaming arrays must offer sketch-prefiltered candidates"
        report = stream.select(N // 2, algorithm="auto")
        oracle = float(np.sort(stream.gather())[N // 2 - 1])
        assert report.value == oracle

    def test_service_default_plan_is_auto(self, machine):
        svc = repro.SelectionService(machine)
        assert svc._session.plan.algorithm == "auto"


# ---------------------------------------------------------------------------
# Self-calibration: the residual store
# ---------------------------------------------------------------------------


class TestResidualCalibration:
    def test_replayed_trace_monotonically_shrinks_error(self):
        """Replaying one launch's (predicted, actual) pair: the error is
        the raw modelling error on the first observation and collapses to
        ~0 for every later one — monotone non-increasing throughout."""
        store = ResidualStore()
        predicted, actual = 0.010, 0.017
        errs = [
            store.observe("randomized", "crossbar", P, predicted, actual)
            for _ in range(6)
        ]
        assert errs[0] == pytest.approx(abs(predicted - actual) / actual)
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[-1] == pytest.approx(0.0, abs=1e-12)

    def test_varied_trace_shrinks_median_error(self, machine):
        """A replayed trace of real launches with varied seeds: the
        second pass through the same trace must see a smaller median
        relative error than the first (the acceptance criterion)."""
        data = machine.generate(N, seed=4)
        session = Session(machine, cache=False)
        reports = []
        with use_store(ResidualStore()):
            for t in range(4):
                plan = SelectionPlan(algorithm="randomized", seed=t)
                reports.append(session.run_select(data, N // 2, plan))
        trace = [
            (r.predicted_time, r.simulated_time) for r in reports
        ]
        store = ResidualStore()
        first = [
            store.observe("randomized", "crossbar", P, pred, act)
            for pred, act in trace
        ]
        second = [
            store.observe("randomized", "crossbar", P, pred, act)
            for pred, act in trace
        ]
        assert np.median(second) < np.median(first)

    def test_corrections_scale_choose_plan(self, fresh_store):
        uncorrected = choose_plan(N, P, CM5, store=fresh_store)
        fastest = uncorrected.candidates[0]
        # Teach the store that the predicted winner actually runs 100x
        # slower than its closed form claims; the ranking must flip.
        for _ in range(5):
            fresh_store.observe(
                fastest.plan.algorithm, "crossbar", P,
                fastest.predicted, fastest.predicted * 100.0,
            )
        corrected = choose_plan(N, P, CM5, store=fresh_store)
        assert (corrected.chosen.algorithm != fastest.plan.algorithm)

    def test_launches_feed_the_default_store(self, machine):
        with use_store(ResidualStore()) as store:
            machine.generate(N, seed=0).select(3, algorithm="randomized")
            snap = store.snapshot()
        assert ("randomized", "crossbar", 3) in snap
        count, correction = snap[("randomized", "crossbar", 3)]
        assert count == 1 and correction > 0

    def test_correction_gauge_and_mispredict_counter(self):
        REGISTRY.clear()
        store = ResidualStore()
        store.observe("randomized", "crossbar", P, 0.010, 0.011)
        gauges = [
            m for m in REGISTRY.find("repro.planner.correction")
        ]
        assert gauges and gauges[0].value == pytest.approx(1.1)
        assert not list(REGISTRY.find("repro.planner.mispredict"))
        # Second observation: corrected prediction is 0.011, actual is
        # 10x that -> relative error ~0.9 > threshold -> mispredict.
        store.observe("randomized", "crossbar", P, 0.010, 0.110)
        counters = list(REGISTRY.find("repro.planner.mispredict"))
        assert counters and counters[0].value == 1

    def test_planner_choose_span(self, machine):
        with use_store(ResidualStore()), obs.capture() as rec:
            machine.generate(N, seed=0).select(5, algorithm="auto")
        spans = [s for s in rec.spans if s.name == "planner.choose"]
        assert len(spans) == 1
        assert spans[0].attrs["candidates"] == len(CLOSED_FORM_ALGORITHMS)
        assert spans[0].attrs["winner"] in CLOSED_FORM_ALGORITHMS


# ---------------------------------------------------------------------------
# CostModel.calibrate: probe-fit constants
# ---------------------------------------------------------------------------


class TestCalibrate:
    def test_calibrate_fits_positive_constants(self):
        machine = repro.Machine(n_procs=4)
        fitted = calibrate_cost_model(
            machine, reps=2, sizes=(1, 4096), trials=1
        )
        assert fitted.tau > 0 and fitted.mu > 0
        assert fitted.name.endswith("-calibrated")
        # The machine's own model is untouched.
        assert machine.cost_model.name == CM5.name

    def test_method_front_door_preserves_hierarchy_ratios(self):
        machine = repro.Machine(n_procs=4)
        model = cm5_two_level()
        fitted = model.calibrate(
            machine, reps=2, sizes=(1, 4096), trials=1
        )
        assert fitted.tau_inter is not None
        assert fitted.tau_inter / fitted.tau == pytest.approx(
            model.tau_inter / model.tau
        )
        assert fitted.mu_inter / fitted.mu == pytest.approx(
            model.mu_inter / model.mu
        )

    def test_bad_arguments_rejected(self):
        machine = repro.Machine(n_procs=2)
        with pytest.raises(ConfigurationError):
            calibrate_cost_model(machine, reps=0)
        with pytest.raises(ConfigurationError):
            calibrate_cost_model(machine, sizes=(8,))


# ---------------------------------------------------------------------------
# Edge grid: planning must never crash on degenerate shapes
# ---------------------------------------------------------------------------


class TestAutoEdgeGrid:
    def test_single_element(self, fresh_store):
        machine = repro.Machine(n_procs=4)
        data = machine.distribute(np.array([7.25]))
        assert data.select(1, algorithm="auto").value == 7.25

    def test_fewer_keys_than_processors(self, fresh_store):
        machine = repro.Machine(n_procs=8)
        data = machine.distribute(np.array([5.0, 1.0, 3.0]))
        got = [data.select(k, algorithm="auto").value for k in (1, 2, 3)]
        assert got == [1.0, 3.0, 5.0]

    def test_all_equal_keys(self, fresh_store):
        machine = repro.Machine(n_procs=4)
        data = machine.distribute(np.full(500, 5.0))
        assert data.select(250, algorithm="auto").value == 5.0

    def test_all_equal_streaming_hint_degenerate(self, fresh_store):
        machine = repro.Machine(n_procs=4)
        stream = machine.stream()
        stream.append(np.full(400, 2.0))
        decision = plan_query(stream, SelectionPlan(algorithm="auto"))
        assert decision.hint == "degenerate"
        assert all(
            c.plan.prefilter is None for c in decision.candidates
        )
        assert stream.select(200, algorithm="auto").value == 2.0

    def test_empty_multi_select(self, fresh_store):
        machine = repro.Machine(n_procs=4)
        data = machine.generate(100, seed=0)
        assert data.multi_select(
            [], algorithm="auto"
        ).values == []

    def test_empty_array_fails_clean_without_launch(self, fresh_store):
        machine = repro.Machine(n_procs=4)
        data = machine.distribute(np.array([]))
        before = machine.launch_count
        with pytest.raises(ConfigurationError):
            data.select(1, algorithm="auto")
        assert machine.launch_count == before

    def test_choose_plan_n_zero_falls_back(self, fresh_store):
        decision = choose_plan(0, P, CM5, store=fresh_store)
        assert decision.candidates == ()
        assert decision.chosen.algorithm == "fast_randomized"


# ---------------------------------------------------------------------------
# The explain CLI
# ---------------------------------------------------------------------------


class TestExplainCli:
    def test_explain_prints_ranked_table(self, capsys):
        assert planner_main(
            ["explain", "--n", "100000", "--p", "8"]
        ) == 0
        out = capsys.readouterr().out
        for algorithm in CLOSED_FORM_ALGORITHMS:
            assert algorithm in out
        assert "winner:" in out and "<- chosen" in out

    def test_explain_sketch_and_topology(self, capsys):
        assert planner_main([
            "explain", "--n", "100000", "--p", "16",
            "--topology", "hypercube", "--sketch",
        ]) == 0
        out = capsys.readouterr().out
        assert "+sketch" in out and "hypercube" in out

    def test_explain_sorted_hint_uses_table2(self, capsys):
        planner_main(["explain", "--n", "100000", "--p", "8",
                      "--hint", "sorted"])
        assert "hint=sorted" in capsys.readouterr().out
