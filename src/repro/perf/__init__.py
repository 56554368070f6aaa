"""Analytical performance model: latency, MFU, cost, memory, Pareto."""

from repro.perf.comm_model import (
    AnalyticCollective,
    comm_time,
    comm_volume_bytes,
    forward_comm_events,
)
from repro.perf.calibrate import calibrate, objective as calibration_objective
from repro.perf.efficiency import IDEAL, EfficiencyModel
from repro.perf.estimator import GenerateCost, InferenceEstimator, PhaseCost
from repro.perf.memory import (
    DEFAULT_USABLE_FRACTION,
    fits_with_transients,
    peak_activation_bytes,
    TABLE1_KV_FRACTION,
    MemoryFootprint,
    footprint,
    table1_max_context,
    weight_bytes_per_chip,
)
from repro.perf.pareto import (
    OperatingPoint,
    pareto_frontier,
    sweep_decode,
    sweep_prefill,
)

__all__ = [
    "AnalyticCollective",
    "calibrate",
    "calibration_objective",
    "fits_with_transients",
    "peak_activation_bytes",
    "DEFAULT_USABLE_FRACTION",
    "EfficiencyModel",
    "GenerateCost",
    "IDEAL",
    "InferenceEstimator",
    "MemoryFootprint",
    "OperatingPoint",
    "PhaseCost",
    "TABLE1_KV_FRACTION",
    "comm_time",
    "comm_volume_bytes",
    "footprint",
    "forward_comm_events",
    "pareto_frontier",
    "sweep_decode",
    "sweep_prefill",
    "table1_max_context",
    "weight_bytes_per_chip",
]
