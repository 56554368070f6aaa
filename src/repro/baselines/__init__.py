"""Baselines: the published FasterTransformer tables (Section 5)."""

from repro.baselines.fastertransformer import (
    FT_BASELINES,
    FT_PP3_TP8,
    FT_TP16,
    FT_TP32,
    PAPER_MTNLG_TOTAL,
    PAPER_PALM_TOTAL,
    WORKLOADS,
    PublishedResult,
    Workload,
    pareto_frontier_cells,
)

__all__ = [
    "FT_BASELINES",
    "FT_PP3_TP8",
    "FT_TP16",
    "FT_TP32",
    "PAPER_MTNLG_TOTAL",
    "PAPER_PALM_TOTAL",
    "PublishedResult",
    "WORKLOADS",
    "Workload",
    "pareto_frontier_cells",
]
