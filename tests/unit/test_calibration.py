"""Tests for the efficiency-model calibration against Table 2."""

from repro.perf.calibrate import (
    TABLE2_ANCHORS,
    EfficiencyModel,
    calibrate,
    model_seconds,
    objective,
    report,
)


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
