"""The paper's analytical partitioning framework (Section 3)."""

from repro.partitioning.plan import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from repro.partitioning.degraded import (
    DegradedDeployment,
    SubSlice,
    healthy_subslices,
    largest_healthy_subslice,
    plan_batch_group,
    replan_after_failure,
    select_degraded_plan,
)

__all__ = [
    "AttentionLayoutKind",
    "DegradedDeployment",
    "FfnLayoutKind",
    "LayoutPlan",
    "SubSlice",
    "healthy_subslices",
    "largest_healthy_subslice",
    "plan_batch_group",
    "replan_after_failure",
    "select_degraded_plan",
]
