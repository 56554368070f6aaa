"""Analytical model of the FasterTransformer A100 baselines (Section 5).

FasterTransformer's K-way tensor parallelism is our 1D weight-stationary
layout on a degenerate ``1 x 1 x K`` torus (all-reduce of the full
activations between every fused matmul pair), so the same estimator models
it.  The pipeline-parallel PP3/TP8 configuration is modelled by
:mod:`repro.perf.pipeline`.

This exists to sanity-check the *shape* of the published FT columns
(MFU rising with batch, TP32 communication-bound below TP16's MFU at
equal batch) — the absolute numbers we report for "theirs" in the
Figure 9 bench come from the published tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.chip import A100_80GB, ChipSpec
from repro.hardware.topology import Torus3D
from repro.model.config import ModelConfig
from repro.partitioning.plan import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from repro.perf.efficiency import EfficiencyModel
from repro.perf.estimator import InferenceEstimator

#: FT runs multihead models, so attention stays head-sharded.
TP_PLAN = LayoutPlan(FfnLayoutKind.WS_1D, AttentionLayoutKind.HEAD)


@dataclass(frozen=True)
class GpuBenchResult:
    batch: int
    time_s: float
    mfu: float


def tensor_parallel_estimator(config: ModelConfig, tp_degree: int,
                              chip: ChipSpec = A100_80GB,
                              efficiency: EfficiencyModel | None = None
                              ) -> InferenceEstimator:
    """An estimator for K-way tensor parallelism on GPUs."""
    torus = Torus3D(1, 1, tp_degree)
    return InferenceEstimator(config, chip, torus, efficiency=efficiency)


def run_workload(config: ModelConfig, tp_degree: int, batch: int,
                 input_len: int, output_len: int, *,
                 chip: ChipSpec = A100_80GB,
                 efficiency: EfficiencyModel | None = None
                 ) -> GpuBenchResult:
    """End-to-end (prefill + generate) time for one FT-style benchmark."""
    est = tensor_parallel_estimator(config, tp_degree, chip, efficiency)
    prefill = est.prefill_cost(TP_PLAN, batch, input_len)
    generate = est.generate_cost(TP_PLAN, batch, input_len, output_len)
    total = prefill.time_s + generate.total_s
    tokens = batch * (input_len + output_len)
    mfu = (2.0 * config.n_params * tokens
           / (total * tp_degree * chip.peak_flops))
    return GpuBenchResult(batch=batch, time_s=total, mfu=mfu)
