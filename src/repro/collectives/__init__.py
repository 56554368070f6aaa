"""Collective communication: analytic costs (Appendix A.1)."""

from repro.collectives.cost import (
    CollectiveCost,
    all_gather_time,
    all_reduce_time,
    all_to_all_time,
    reduce_scatter_time,
)

__all__ = [
    "CollectiveCost",
    "all_gather_time",
    "all_reduce_time",
    "all_to_all_time",
    "reduce_scatter_time",
]
