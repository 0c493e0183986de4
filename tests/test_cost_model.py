"""Unit tests for the two-level cost model (repro.machine.cost_model)."""

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError
from repro.machine.cost_model import CM5, ComputeCosts, CostModel, cm5, zero_cost_model


class TestComputeCosts:
    def test_defaults_are_positive(self):
        c = ComputeCosts()
        for f in dataclasses.fields(c):
            assert getattr(c, f.name) > 0

    def test_deterministic_constant_dominates_partition(self):
        # The calibration that drives the paper's order-of-magnitude claim.
        c = ComputeCosts()
        assert c.select_deterministic / c.partition > 10

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ComputeCosts)])
    def test_rejects_negative(self, field):
        with pytest.raises(ConfigurationError):
            ComputeCosts(**{field: -1e-9}).validate()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ConfigurationError):
            ComputeCosts(partition=bad).validate()


class TestCostModel:
    def test_cm5_preset_identity(self):
        assert CM5.name == "CM5"
        assert cm5() == CM5
        assert CM5.tau > 0 and CM5.mu > 0

    @pytest.mark.parametrize(
        "p,expect", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (128, 7)]
    )
    def test_log2p(self, p, expect):
        assert CM5.log2p(p) == expect

    def test_log2p_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            CM5.log2p(0)

    def test_rejects_negative_tau(self):
        with pytest.raises(ConfigurationError):
            CostModel(tau=-1.0)

    def test_rejects_nan_mu(self):
        with pytest.raises(ConfigurationError):
            CostModel(mu=math.nan)

    def test_replace_top_level_field(self):
        m = CM5.replace(tau=42.0)
        assert m.tau == 42.0
        assert m.mu == CM5.mu
        assert CM5.tau != 42.0  # original untouched

    def test_replace_compute_field_merges(self):
        m = CM5.replace(partition=7e-9)
        assert m.compute.partition == 7e-9
        assert m.compute.scan == CM5.compute.scan

    def test_replace_mixed(self):
        m = CM5.replace(mu=0.0, rng_draw=0.0)
        assert m.mu == 0.0 and m.compute.rng_draw == 0.0


class TestZeroModel:
    def test_everything_free(self):
        z = zero_cost_model()
        assert z.tau == 0 and z.mu == 0
        for f in dataclasses.fields(ComputeCosts):
            assert getattr(z.compute, f.name) == 0.0
