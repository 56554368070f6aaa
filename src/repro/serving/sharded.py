"""The KV hand-off of two-phase serving on the partitioned model (§4.4).

The cluster's :class:`~repro.cluster.replica.GroupRun` serves the
recipe on ``ShardedTransformer`` backends: a batch-1 prefill model
(head-sharded attention — a single sequence cannot be split over batch)
feeds a batch-N decode model.  That decode model is head-sharded
multiquery too in every benchmark and chaos scenario: they decode at
``decode_batch=4``, and batch-sharded attention needs the batch to be a
multiple of the chip count.  This module holds the cache merge in
between (in place when both share one KV layout, host-mediated
otherwise).  Weights are shared between the two models via
:meth:`ShardedTransformer.with_plan` whenever their storage layouts
match, exactly as deployed in the paper.
"""

from __future__ import annotations

from typing import Sequence

from repro.layouts.kv_cache import ShardedKVCache, reshard_kv
from repro.layouts.model import ShardedTransformer
from repro.sharding.spec import parse


def merge_sharded_caches(per_request: Sequence[Sequence[ShardedKVCache]],
                         decode_model: ShardedTransformer
                         ) -> list[ShardedKVCache]:
    """Concatenate per-request caches into the decode model's layout.

    All caches must have equal length (the control plane groups by
    prompt length).  When every request cache already lives on the decode
    model's (stacked) mesh with the decode spec, and that spec does not
    shard B, the KV never leaves the page layout the buffers hold: a
    single request's caches *are* the decode caches, and a batch is one
    slice copy per row into arena-backed caches.  Any other combination
    is the host-mediated hand-off of Section 4.4, through global arrays
    in :func:`~repro.layouts.kv_cache.reshard_kv`.  Stacked buffers hold
    one copy of each replicated value (checked when the KV was written);
    loop caches have their replicas checked as the merge reads them.
    """
    if not per_request:
        raise ValueError("cannot merge an empty list of request caches")
    lengths = {caches[0].length for caches in per_request}
    if len(lengths) != 1:
        raise ValueError(f"cannot merge caches of different lengths "
                         f"{sorted(lengths)}; group requests by length")
    length = lengths.pop()
    batch = sum(caches[0].global_shape[0] for caches in per_request)
    cfg = decode_model.config
    mesh = decode_model.mesh
    spec = parse(decode_model.cache_spec())
    same_layout = not spec.axes_for("B") and all(
        c.is_stacked and c.mesh is mesh and c.spec == spec
        for caches in per_request for c in caches)
    if same_layout and len(per_request) == 1:
        return list(per_request[0])
    # The cache records its element dtype; probing a shard would depend
    # on the backend's storage layout (object array vs dense stack).
    dtype = per_request[0][0].dtype
    merged = []
    for layer in range(len(per_request[0])):
        cache = ShardedKVCache(mesh, spec, batch,
                               per_request[-1][layer].max_len,
                               cfg.n_kv_heads, cfg.d_head, dtype=dtype,
                               arena=getattr(decode_model, "kv_arena",
                                             None))
        if same_layout:
            row = 0
            for caches in per_request:
                src = caches[layer]
                b = src.global_shape[0]
                cache.write(*src.read(0, length), length,
                            rows=slice(row, row + b))
                row += b
        else:
            reshard_kv(cache, [caches[layer] for caches in per_request])
        merged.append(cache)
    return merged
