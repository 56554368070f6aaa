"""Calibrated efficiency parameters for the analytical performance model.

The paper's published constants (peak FLOPs, HBM bandwidth, interconnect
bandwidth) bound performance from above; real systems achieve a fraction
of each.  This module concentrates every such fraction in one dataclass so
the calibration is explicit and auditable (DESIGN.md Section 4):

* ``flops_efficiency`` — achievable fraction of peak FLOPs for large
  matmuls.
* ``rows_half_peak`` — matmul M-dimension (per-chip tokens) at which
  efficiency is half of ``flops_efficiency``; models the skinny-matmul
  penalty that makes decode MFU much lower than prefill MFU (Figure C.1).
* ``hbm_efficiency`` / ``network_efficiency`` — achievable bandwidth
  fractions.
* ``overlap_fraction`` — fraction of communication hidden behind compute
  by the Looped CollectiveEinsum technique.  Section 3.5 reports ~1.4x
  from overlap plus scheduling; 0.55 hidden gives 1.10x over none hidden
  at the batch-512 WS-2D decode point on 4x4x4
  (``benchmarks/bench_ablations.py``, row 2).
* ``per_layer_overhead`` / ``per_step_overhead`` — fixed costs
  (layernorms, sampling, dispatch) that dominate nothing but keep
  low-batch decode honest.

Defaults were calibrated once against the paper's Table 2 operating points
(see ``benchmarks/bench_table2_palm540b.py`` and EXPERIMENTS.md for
paper-vs-model numbers); all *relative* results (layout crossovers, who
wins) are insensitive to them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class EfficiencyModel:
    flops_efficiency: float = 0.80
    rows_half_peak: float = 32.0
    attention_flops_efficiency: float = 0.30
    hbm_efficiency: float = 0.72
    network_efficiency: float = 0.80
    overlap_fraction: float = 0.55
    per_layer_overhead: float = 140e-6
    per_step_overhead: float = 1e-3
    #: Optional per-hop collective latency (alpha in an alpha-beta
    #: model); 0 = the paper's pure-bandwidth Appendix A.1 model.
    link_latency: float = 0.0

    def __post_init__(self) -> None:
        for name in ("flops_efficiency", "attention_flops_efficiency",
                     "hbm_efficiency", "network_efficiency",
                     "overlap_fraction"):
            value = getattr(self, name)
            if not 0 < value <= 1 and name != "overlap_fraction":
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if not 0 <= self.overlap_fraction < 1:
            raise ValueError("overlap_fraction must be in [0, 1)")

    def matmul_efficiency(self, rows_per_chip: float) -> float:
        """Achieved fraction of peak FLOPs for a matmul with M rows/chip.

        A saturating ramp: tiny-M decode matmuls run far below peak (they
        are bandwidth-bound per weight tile), wide prefill matmuls approach
        ``flops_efficiency``.
        """
        if rows_per_chip <= 0:
            raise ValueError("rows_per_chip must be positive")
        ramp = rows_per_chip / (rows_per_chip + self.rows_half_peak)
        return self.flops_efficiency * ramp

    def with_overrides(self, **kwargs) -> "EfficiencyModel":
        return replace(self, **kwargs)


#: The paper's idealized setting: all roofline bounds achieved, all
#: communication exposed.  Useful for reproducing pure-formula plots
#: (Figures 3 and the Appendix A derivations) and for ablations.
IDEAL = EfficiencyModel(
    flops_efficiency=1.0, rows_half_peak=1e-9,
    attention_flops_efficiency=1.0, hbm_efficiency=1.0,
    network_efficiency=1.0, overlap_fraction=0.0,
    per_layer_overhead=0.0, per_step_overhead=0.0, link_latency=0.0)
