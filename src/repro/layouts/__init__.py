"""Partitioned model execution on the virtual mesh (Section 3 layouts)."""

from repro.layouts.helpers import (
    local_attention,
    sharded_rmsnorm,
    sharded_rope,
    zip_shards,
)
from repro.layouts.kv_cache import ShardedKVCache
from repro.layouts.model import ShardedTransformer

__all__ = [
    "ShardedKVCache",
    "ShardedTransformer",
    "local_attention",
    "sharded_rmsnorm",
    "sharded_rope",
    "zip_shards",
]
