"""Serving layer: requests, the slot engine, chunked prefill, the KV merge."""

from repro.serving.chunked import chunked_prefill, chunked_prefill_cost
from repro.serving.continuous import ContinuousBatchingEngine
from repro.serving.engine import Completion, Request
from repro.serving.sharded import merge_sharded_caches

__all__ = [
    "Completion",
    "ContinuousBatchingEngine",
    "Request",
    "chunked_prefill",
    "chunked_prefill_cost",
    "merge_sharded_caches",
]
