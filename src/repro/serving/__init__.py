"""Serving layer: engines, scheduling, the two-phase recipe."""

from repro.serving.chunked import chunked_prefill, chunked_prefill_cost
from repro.serving.continuous import (
    ContinuousBatchingEngine,
    SlotState,
    slot_decode_step,
)
from repro.serving.engine import (
    Completion,
    Request,
    TwoPhaseServer,
    merge_caches,
)
from repro.serving.resilient import CostModel
from repro.serving.scheduler import group_requests
from repro.serving.sharded import merge_sharded_caches

__all__ = [
    "Completion",
    "ContinuousBatchingEngine",
    "CostModel",
    "SlotState",
    "slot_decode_step",
    "Request",
    "TwoPhaseServer",
    "chunked_prefill",
    "chunked_prefill_cost",
    "group_requests",
    "merge_caches",
    "merge_sharded_caches",
]
