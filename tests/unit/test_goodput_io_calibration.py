"""Tests for cost conversions and the calibration."""

import pytest

from repro.hardware import TPU_V4
from repro.model import PALM_540B
from repro.perf.calibrate import (
    TABLE2_ANCHORS,
    EfficiencyModel,
    calibrate,
    model_seconds,
    objective,
    report,
)
from repro.perf.goodput import (
    PricedPoint,
    fleet_tokens_per_second,
    mfu_from_cost,
    usd_per_million_tokens,
)


class TestGoodput:
    def test_unit_conversion(self):
        # 0.0036 chip-seconds/token at $1/chip-hour = $1 per M tokens.
        assert usd_per_million_tokens(0.0036, 1.0) == pytest.approx(1.0)

    def test_priced_point_identities(self):
        p = PricedPoint(chip_seconds_per_token=0.0072,
                        chip_hour_price_usd=2.0)
        assert p.usd_per_token * p.tokens_per_usd == pytest.approx(1.0)
        assert p.usd_per_million_tokens == pytest.approx(4.0)

    def test_fleet_throughput(self):
        assert fleet_tokens_per_second(64, 0.008) == pytest.approx(8000)

    def test_mfu_identity_roundtrip(self):
        """cost = n*t/(B*L) and MFU = 2N*B*L/(t*n*peak) are reciprocal
        through 2N/peak — the Section 4.4 statement."""
        cost = 0.008
        mfu = mfu_from_cost(cost, PALM_540B.n_params, TPU_V4.peak_flops)
        back = 2 * PALM_540B.n_params / (mfu * TPU_V4.peak_flops)
        assert back == pytest.approx(cost)
        assert 0 < mfu < 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PricedPoint(0.0, 1.0)
        with pytest.raises(ValueError):
            fleet_tokens_per_second(0, 1.0)


class TestCalibration:
    def test_defaults_within_band(self):
        """Every Table 2 anchor within 1.5x under the shipped defaults,
        and the two headline anchors within 5%."""
        eff = EfficiencyModel()
        for anchor in TABLE2_ANCHORS:
            ratio = model_seconds(anchor, eff) / anchor.paper_seconds
            assert 1 / 1.5 < ratio < 1.5, anchor.name
        headline = {a.name: model_seconds(a, eff) / a.paper_seconds
                    for a in TABLE2_ANCHORS}
        assert abs(headline["ll-decode"] - 1) < 0.05
        assert abs(headline["ht-prefill"] - 1) < 0.05

    def test_objective_regression_bound(self):
        # Shipped defaults: ~0.22.  Fails if a model change drifts them.
        assert objective(EfficiencyModel()) < 0.35

    def test_calibrate_improves_or_matches(self):
        best, value = calibrate(sweeps=1, points_per_axis=5)
        assert value <= objective(EfficiencyModel()) + 1e-9
        # And the optimum stays a sane efficiency model.
        assert 0 < best.flops_efficiency <= 1

    def test_report_format(self):
        text = report()
        assert "ll-decode" in text
        assert "objective" in text
