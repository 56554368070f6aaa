"""Tests for the analytical estimator, efficiency model, memory, Pareto."""

import pytest

from repro.hardware import TPU_V4, Torus3D
from repro.model import PALM_540B, PALM_540B_PADDED, PALM_62B
from repro.partitioning import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from repro.perf import (
    IDEAL,
    EfficiencyModel,
    InferenceEstimator,
    footprint,
    pareto_frontier,
    sweep_decode,
    sweep_prefill,
    weight_bytes_per_chip,
)

TORUS64 = Torus3D(4, 4, 4)
WS2D_BATCH = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.BATCH)
WS2D_HEAD = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)
WS1D_BATCH = LayoutPlan(FfnLayoutKind.WS_1D, AttentionLayoutKind.BATCH)
WG_XYZ = LayoutPlan(FfnLayoutKind.WG_XYZ, AttentionLayoutKind.BATCH)


def estimator(config=PALM_540B_PADDED, torus=TORUS64, **kwargs):
    kwargs.setdefault("mfu_params", PALM_540B.n_params)
    return InferenceEstimator(config, TPU_V4, torus, **kwargs)


class TestEfficiencyModel:
    def test_matmul_efficiency_monotone(self):
        eff = EfficiencyModel()
        values = [eff.matmul_efficiency(r) for r in (1, 16, 256, 65536)]
        assert values == sorted(values)
        assert values[-1] <= eff.flops_efficiency

    def test_half_peak_at_named_rows(self):
        eff = EfficiencyModel(rows_half_peak=128)
        assert eff.matmul_efficiency(128) == pytest.approx(
            eff.flops_efficiency / 2)

    def test_ideal_model_hits_roofline(self):
        est = InferenceEstimator(PALM_540B, TPU_V4, TORUS64,
                                 efficiency=IDEAL)
        cost = est.prefill_cost(WG_XYZ, 512, 2048)
        floor = (PALM_540B.matmul_flops_per_token * 512 * 2048
                 / (64 * TPU_V4.peak_flops))
        # Compute time equals the roofline floor exactly; total adds only
        # fully-exposed communication.
        assert cost.compute_s >= floor * 0.99
        assert cost.comm_exposed_s == pytest.approx(cost.comm_s)

    def test_validation(self):
        with pytest.raises(ValueError):
            EfficiencyModel(hbm_efficiency=0.0)
        with pytest.raises(ValueError):
            EfficiencyModel(overlap_fraction=1.0)
        with pytest.raises(ValueError):
            EfficiencyModel().matmul_efficiency(0)


class TestPhaseCosts:
    def test_decode_low_batch_is_memory_bound(self):
        # Section 2.1: at small batch, weight loading dominates.
        cost = estimator(weight_dtype_bytes=1).decode_step_cost(
            WS2D_BATCH, 4, 2048)
        assert cost.memory_s > cost.compute_s

    def test_prefill_large_batch_is_compute_bound(self):
        cost = estimator().prefill_cost(WG_XYZ, 512, 2048)
        assert cost.compute_s > cost.memory_s

    def test_int8_halves_weight_load_time(self):
        bf16 = estimator(weight_dtype_bytes=2).decode_step_cost(
            WS2D_BATCH, 4, 2048)
        int8 = estimator(weight_dtype_bytes=1).decode_step_cost(
            WS2D_BATCH, 4, 2048)
        assert int8.weight_load_s == pytest.approx(bf16.weight_load_s / 2)
        assert int8.time_s < bf16.time_s

    def test_int8_neutral_at_large_batch(self):
        # Section 4.4: at large batch, cost is compute-dominated, so int8
        # weights barely move the needle (matmuls stay bf16).
        bf16 = estimator(weight_dtype_bytes=2).prefill_cost(WG_XYZ, 512,
                                                            2048)
        int8 = estimator(weight_dtype_bytes=1).prefill_cost(WG_XYZ, 512,
                                                            2048)
        assert int8.time_s == pytest.approx(bf16.time_s, rel=0.05)

    def test_batch_attention_cuts_kv_time(self):
        batch = estimator().decode_step_cost(WS2D_BATCH, 256, 2048)
        head = estimator().decode_step_cost(WS2D_HEAD, 256, 2048)
        assert head.kv_load_s == pytest.approx(64 * batch.kv_load_s)

    def test_ws2d_communicates_less_than_ws1d_on_64_chips(self):
        # Figure 6's mechanism.
        c2d = estimator().decode_step_cost(WS2D_BATCH, 512, 2048)
        c1d = estimator().decode_step_cost(WS1D_BATCH, 512, 2048)
        assert c2d.comm_s < c1d.comm_s

    def test_mfu_in_unit_interval_and_padding_charged(self):
        padded = estimator().prefill_cost(WG_XYZ, 512, 2048)
        unpadded = InferenceEstimator(
            PALM_540B, TPU_V4, TORUS64).prefill_cost(WG_XYZ, 512, 2048)
        assert 0 < padded.mfu < 1
        # Padding adds FLOPs that do not count as useful work.
        assert padded.mfu < unpadded.mfu

    def test_cost_metric_definition(self):
        cost = estimator().prefill_cost(WG_XYZ, 16, 2048)
        assert cost.cost_chip_seconds_per_token == pytest.approx(
            64 * cost.time_s / (16 * 2048))

    def test_generate_cost_aggregates_steps(self):
        est = estimator()
        gen = est.generate_cost(WS2D_BATCH, 64, 2048, 64)
        assert gen.total_s == pytest.approx(64 * gen.per_step.time_s)
        assert gen.latency_per_token_s == pytest.approx(gen.per_step.time_s)
        with pytest.raises(ValueError):
            est.generate_cost(WS2D_BATCH, 64, 2048, 0)

    def test_overlap_hides_communication(self):
        # Section 3.5: Looped CollectiveEinsum hides communication behind
        # the matmuls; with nothing hidden the decode step is slower.
        on = estimator().decode_step_cost(WS2D_BATCH, 512, 2048)
        off = estimator(efficiency=EfficiencyModel(
            overlap_fraction=0.0)).decode_step_cost(WS2D_BATCH, 512, 2048)
        assert off.comm_exposed_s == off.comm_s
        assert on.comm_exposed_s < on.comm_s
        assert off.time_s > on.time_s

    def test_overlap_gain_grows_with_comm_share(self):
        """1D weight-stationary communication is constant in chip count
        while compute shrinks (Section 3.2.1), so overlap buys more at
        higher chip counts."""
        plan_1d = LayoutPlan(FfnLayoutKind.WS_1D, AttentionLayoutKind.HEAD)
        no_overlap = EfficiencyModel(overlap_fraction=0.0)

        def gain(torus):
            on = estimator(torus=torus).decode_step_cost(plan_1d, 512, 2048)
            off = estimator(torus=torus, efficiency=no_overlap
                            ).decode_step_cost(plan_1d, 512, 2048)
            return off.time_s / on.time_s

        assert gain(Torus3D(4, 8, 8)) > gain(Torus3D(2, 2, 2))

    def test_longer_context_costs_more(self):
        est = estimator()
        short = est.decode_step_cost(WS2D_BATCH, 256, 512)
        long = est.decode_step_cost(WS2D_BATCH, 256, 8192)
        assert long.time_s > short.time_s
        assert long.kv_load_s > short.kv_load_s


class TestMemory:
    def test_weight_bytes_per_chip(self):
        per = weight_bytes_per_chip(PALM_540B, 64, 2)
        assert per == pytest.approx(PALM_540B.n_params * 2 / 64)

    def test_540b_bf16_needs_many_chips(self):
        # 1.08 TB of weights cannot fit 8 x 32 GiB.
        small = footprint(PALM_540B, WS2D_BATCH, Torus3D(2, 2, 2), 1, 128)
        assert not small.fits(TPU_V4)
        large = footprint(PALM_540B, WS2D_BATCH, Torus3D(4, 4, 4), 1, 128)
        assert large.fits(TPU_V4)

    def test_kv_cache_can_evict_a_fitting_config(self):
        fits = footprint(PALM_540B, WS2D_BATCH, TORUS64, 64, 1024)
        assert fits.fits(TPU_V4)
        head = footprint(PALM_540B, WS2D_HEAD, TORUS64, 512, 8192)
        assert not head.fits(TPU_V4)


class TestPareto:
    def test_sweep_returns_memory_feasible_points(self):
        points = sweep_decode(PALM_62B, TPU_V4, chip_counts=(8, 16, 32),
                              batches=(1, 16, 256))
        assert points
        for p in points:
            assert footprint(PALM_62B, p.plan, p.torus, p.batch,
                             2048 + 64).fits(TPU_V4)

    def test_frontier_is_monotone(self):
        points = sweep_decode(PALM_62B, TPU_V4, chip_counts=(8, 16, 32, 64),
                              batches=(1, 4, 16, 64, 256))
        frontier = pareto_frontier(points)
        lat = [p.latency_s for p in frontier]
        cost = [p.cost_chip_seconds_per_token for p in frontier]
        assert lat == sorted(lat)
        assert cost == sorted(cost, reverse=True)

    def test_frontier_subset_and_dominance(self):
        points = sweep_prefill(PALM_62B, TPU_V4, chip_counts=(16, 32),
                               batches=(1, 16, 256))
        frontier = pareto_frontier(points, x=lambda p: p.latency_s,
                                   y=lambda p: p.cost_chip_seconds_per_token)
        assert set(id(p) for p in frontier) <= set(id(p) for p in points)
        for f in frontier:
            dominated = [p for p in points
                         if p.latency_s < f.latency_s
                         and p.cost_chip_seconds_per_token
                         < f.cost_chip_seconds_per_token]
            assert not dominated

    def test_larger_batch_improves_decode_cost(self):
        points = sweep_decode(PALM_62B, TPU_V4, chip_counts=(16,),
                              batches=(1, 256))
        by_batch = {p.batch: p for p in points}
        assert by_batch[256].cost_chip_seconds_per_token < \
            by_batch[1].cost_chip_seconds_per_token
        assert by_batch[1].latency_s < by_batch[256].latency_s
