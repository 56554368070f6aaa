"""Reproduction of "Efficiently Scaling Transformer Inference"
(Pope et al., MLSYS 2023).

The package layers (see DESIGN.md for the full inventory):

* :mod:`repro.hardware` — TPU v4 / A100 chip constants, 3D torus slices.
* :mod:`repro.sharding` — the ``BLE_xyz`` partitioning notation.
* :mod:`repro.mesh` — a virtual multi-chip mesh with functional
  collectives (the XLA/GSPMD stand-in).
* :mod:`repro.model` — PaLM / MT-NLG configs and the reference numerics.
* :mod:`repro.layouts` — the partitioned Transformer executing every
  Section 3 layout on the virtual mesh, numerically verified.
* :mod:`repro.partitioning` — the analytical framework: layout plans,
  closed-form costs, the layout selector.
* :mod:`repro.perf` — latency/MFU/cost estimation (the one chip-level
  time model, comm/compute overlap included) and Pareto sweeps.
* :mod:`repro.serving` — the two-phase (prefill -> decode) serving recipe.
* :mod:`repro.baselines` — published FasterTransformer comparisons.

Quickstart::

    from repro import quickstart_estimate
    print(quickstart_estimate())
"""

from repro.hardware import TPU_V4, ChipSpec, Torus3D
from repro.layouts import ShardedTransformer
from repro.mesh import ShardedTensor, VirtualMesh
from repro.model import (
    MEGATRON_530B,
    PALM_540B,
    PALM_62B,
    PALM_8B,
    ModelConfig,
    ReferenceTransformer,
    get_model,
    init_weights,
)
from repro.partitioning import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from repro.partitioning.selector import Phase, SelectionContext, select_plan
from repro.perf import (
    EfficiencyModel,
    InferenceEstimator,
    pareto_frontier,
    sweep_decode,
    sweep_prefill,
)

__version__ = "0.1.0"


def quickstart_estimate() -> str:
    """A one-call demo: the paper's headline operating point.

    Estimates PaLM 540B int8 decode latency per token at batch 64 on 64
    TPU v4 chips with the paper's recommended layout (2D weight-stationary
    + batch-sharded multiquery attention).
    """
    from repro.model import PALM_540B_PADDED

    torus = Torus3D(4, 4, 4)
    plan = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.BATCH)
    estimator = InferenceEstimator(PALM_540B_PADDED, TPU_V4, torus,
                                   weight_dtype_bytes=1,
                                   mfu_params=PALM_540B.n_params)
    gen = estimator.generate_cost(plan, batch=64, context_before=2048,
                                  n_steps=64)
    return (f"PaLM 540B (int8) on 64 TPU v4, batch 64, context 2048: "
            f"{gen.latency_per_token_s * 1e3:.1f} ms/token "
            f"(paper: 28.5 ms/token)")


__all__ = [
    "AttentionLayoutKind",
    "ChipSpec",
    "EfficiencyModel",
    "FfnLayoutKind",
    "InferenceEstimator",
    "LayoutPlan",
    "MEGATRON_530B",
    "ModelConfig",
    "PALM_540B",
    "PALM_62B",
    "PALM_8B",
    "Phase",
    "ReferenceTransformer",
    "SelectionContext",
    "ShardedTensor",
    "ShardedTransformer",
    "TPU_V4",
    "Torus3D",
    "VirtualMesh",
    "get_model",
    "init_weights",
    "pareto_frontier",
    "quickstart_estimate",
    "select_plan",
    "sweep_decode",
    "sweep_prefill",
]
