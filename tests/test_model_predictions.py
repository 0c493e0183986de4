"""Tables 1-2 as executable predictions: the closed-form model must track
the simulator within a small factor across the grid."""

import pytest

import repro
from repro.bench.harness import KILO, run_point
from repro.errors import ConfigurationError
from repro.machine.cost_model import CM5
from repro.machine.topology import available_topologies
from repro.selection.cost import (
    CLOSED_FORM_ALGORITHMS,
    Prediction,
    predict,
    predict_prefilter,
)

GRID = [
    (64 * KILO, 4),
    (256 * KILO, 8),
    (512 * KILO, 16),
]

CONFIG = {
    "median_of_medians": "global_exchange",
    "bucket_based": "none",
    "randomized": "none",
    "fast_randomized": "none",
}


@pytest.mark.parametrize("algorithm", sorted(CONFIG))
@pytest.mark.parametrize("n,p", GRID)
def test_table1_prediction_tracks_simulator(algorithm, n, p):
    pred = predict(algorithm, n, p, table=1)
    measured = run_point(algorithm, n, p, distribution="random",
                         balancer=CONFIG[algorithm], trials=2)
    ratio = measured.simulated_time / pred.total
    assert 1 / 3 < ratio < 3, (
        f"{algorithm} n={n} p={p}: predicted {pred.total:.4f}s, "
        f"measured {measured.simulated_time:.4f}s"
    )


@pytest.mark.parametrize("algorithm", ["randomized", "median_of_medians"])
def test_table2_worstcase_prediction(algorithm):
    n, p = 512 * KILO, 16
    pred = predict(algorithm, n, p, table=2)
    measured = run_point(algorithm, n, p, distribution="sorted",
                         balancer="none", trials=2)
    ratio = measured.simulated_time / pred.total
    assert 1 / 3 < ratio < 3


class TestModelShape:
    def test_worst_case_exceeds_expected(self):
        for algo in ("randomized", "median_of_medians", "bucket_based"):
            assert predict(algo, 1 << 20, 16, table=2).total > predict(
                algo, 1 << 20, 16, table=1
            ).total

    def test_deterministic_predicted_slower(self):
        n, p = 1 << 20, 32
        assert (predict("median_of_medians", n, p).total
                > 5 * predict("randomized", n, p).total)

    def test_fast_randomized_comm_term_smaller_factor(self):
        # O(log log n) vs O(log n) iterations => smaller comm at huge n/p.
        n, p = 1 << 21, 128
        assert (predict("fast_randomized", n, p).comm
                < predict("randomized", n, p).comm * 5)

    def test_prediction_fields(self):
        pr = predict("randomized", 1 << 16, 8)
        assert isinstance(pr, Prediction)
        assert pr.total == pytest.approx(pr.compute + pr.comm)

    def test_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            predict("sort_based", 1024, 2)
        with pytest.raises(ConfigurationError):
            predict("randomized", 1024, 2, table=3)


class TestSingleRank:
    """At p = 1 there is no one to talk to: the simulator charges no
    communication, and the closed forms must not either, on any shape."""

    @pytest.mark.parametrize("topology", available_topologies())
    def test_predictions_charge_no_communication(self, topology):
        for algorithm in CLOSED_FORM_ALGORITHMS:
            for table in (1, 2):
                for n in (1, 1000, 1 << 20):
                    plain = predict(algorithm, n, 1, CM5, topology, table)
                    filtered = predict_prefilter(algorithm, n, 1, CM5,
                                                 topology, table=table)
                    assert plain.comm == 0.0
                    assert filtered.comm == 0.0

    @pytest.mark.parametrize("algorithm", CLOSED_FORM_ALGORITHMS)
    def test_simulator_agrees(self, algorithm):
        report = repro.Machine(1).generate(1000, seed=0).select(
            500, algorithm=algorithm
        )
        assert report.breakdown.comm == 0.0
        assert predict(algorithm, 1000, 1).comm == report.breakdown.comm
