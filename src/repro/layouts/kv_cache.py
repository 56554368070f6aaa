"""Sharded KV cache (Section 3.3).

The cache's layout is the crux of the paper's attention optimization: the
same logical ``[B, M, K, D]`` history can be

* replicated per chip (baseline multiquery, Figure 4b) — per-chip memory
  ``B * M * 2 * D``;
* sharded over heads (multihead, Figure 4a) — per-chip ``B * M * 2 * D *
  ceil(H / n)``;
* sharded over batch (optimized multiquery, Figure 4c) — per-chip reduced
  by the full chip count.

``ShardedKVCache`` stores one preallocated (k, v) buffer pair per device
under a sharding spec for the ``B`` and ``K`` dims (``M`` — the time dim —
and ``D`` are never sharded).

The buffers follow the mesh backend: an object array of per-device
buffers on the ``loop`` backend, or one dense ``mesh.shape + local``
array on the ``stacked`` backend, in which case appends and views are
single whole-mesh slice operations.

With an ``arena`` (:class:`repro.kvstore.arena.KVBufferArena`) the
buffers are *leased* from a per-replica pool instead of freshly
allocated — the cache becomes a view over pooled pages, returned to the
arena when the cache is garbage collected.  Leased buffers arrive
zeroed, so pooling is invisible to numerics; either way appends stay
single whole-mesh slice ops.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.mesh import ShardedTensor, VirtualMesh
from repro.sharding.spec import ShardingError, ShardSpec, parse


class ShardedKVCache:
    """Per-device KV history buffers under a ``BMKD`` sharding spec."""

    def __init__(self, mesh: VirtualMesh, spec: ShardSpec | str,
                 batch: int, max_len: int, n_kv_heads: int, d_head: int,
                 dtype=np.float64, arena=None):
        if isinstance(spec, str):
            spec = parse(spec)
        if spec.dims != ("B", "M", "K", "D"):
            raise ShardingError(
                f"KV cache spec must have dims BMKD, got {spec}")
        if spec.axes_for("M") or spec.axes_for("D") or spec.partial_sum:
            raise ShardingError(
                f"KV cache shards only B and K, got {spec}")
        spec.validate(mesh.topology)
        self.mesh = mesh
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.global_shape = (batch, max_len, n_kv_heads, d_head)
        local = spec.local_shape(self.global_shape, mesh.topology)
        if arena is not None:
            key, self.k, self.v = arena.lease(mesh, local, dtype)
            # Return the buffers when this cache dies; finalize keeps
            # them alive until then, so views stay valid for our
            # lifetime and the arena re-zeroes on the next lease.
            self._reclaimer = weakref.finalize(
                self, arena.reclaim, key, self.k, self.v)
        elif mesh.backend == "stacked":
            self.k = np.zeros(mesh.shape + local, dtype=dtype)
            self.v = np.zeros(mesh.shape + local, dtype=dtype)
        else:
            self.k = mesh.map_devices(lambda c: np.zeros(local, dtype=dtype))
            self.v = mesh.map_devices(lambda c: np.zeros(local, dtype=dtype))
        self.length = 0

    @property
    def is_stacked(self) -> bool:
        return self.k.dtype != object

    @property
    def max_len(self) -> int:
        return self.global_shape[1]

    def per_chip_bytes(self) -> int:
        """Per-chip KV memory — the quantity Table 1 budgets against.

        Computed from the local shard shape, not by indexing the buffer
        (whose leading axes are the mesh shape, so indexing would bake
        in an assumed mesh rank).
        """
        local = self.spec.local_shape(self.global_shape,
                                      self.mesh.topology)
        return 2 * int(np.prod(local)) * self.dtype.itemsize

    def _check_compatible(self, t: ShardedTensor) -> None:
        # New K/V tensors arrive as B?L?K?D with L = tokens being appended.
        if t.spec.dims != ("B", "L", "K", "D"):
            raise ShardingError(
                f"appended tensor must be BLKD, got {t.spec}")
        for cache_dim, new_dim in (("B", "B"), ("K", "K")):
            if t.spec.axes_for(new_dim) != self.spec.axes_for(cache_dim):
                raise ShardingError(
                    f"appended {new_dim} sharding {t.spec} does not match "
                    f"cache layout {self.spec}")
        if t.spec.partial_sum:
            raise ShardingError("cannot append partial sums to the cache")

    def append(self, k_new: ShardedTensor, v_new: ShardedTensor) -> int:
        """Append new tokens' K/V; returns the query offset (old length)."""
        self._check_compatible(k_new)
        self._check_compatible(v_new)
        n = k_new.dim_size("L")
        if self.length + n > self.max_len:
            raise ShardingError(
                f"KV cache overflow: {self.length} + {n} > {self.max_len}")
        start, stop = self.length, self.length + n
        stacked = self.is_stacked and k_new.is_stacked and v_new.is_stacked
        if stacked:
            # One whole-mesh write: M is dense axis 4 (after the three
            # device axes and B).
            self.k[:, :, :, :, start:stop] = k_new.shards
            self.v[:, :, :, :, start:stop] = v_new.shards
        else:
            for coord in self.mesh.devices():
                self.k[coord][:, start:stop] = k_new.shards[coord]
                self.v[coord][:, start:stop] = v_new.shards[coord]
        offset = self.length
        self.length = stop

        recorder = getattr(self.mesh, "capture", None)
        if recorder is not None and recorder.recording:
            idx = recorder.cache_index(self)
            if idx is not None:
                def replay(ctx, ks, vs, idx=idx, n=n, stacked=stacked):
                    cache = ctx.caches[idx]
                    if cache.length + n > cache.max_len:
                        raise ShardingError(
                            f"KV cache overflow: {cache.length} + {n} > "
                            f"{cache.max_len}")
                    s, e = cache.length, cache.length + n
                    if stacked:
                        cache.k[:, :, :, :, s:e] = ks
                        cache.v[:, :, :, :, s:e] = vs
                    else:
                        for coord in cache.mesh.devices():
                            cache.k[coord][:, s:e] = ks[coord]
                            cache.v[coord][:, s:e] = vs[coord]
                    cache.length = e

                recorder.record(replay, (recorder.CTX, k_new.shards,
                                         v_new.shards), None, "kv_append")
        return offset

    def load_prefix(self, k_t: ShardedTensor, v_t: ShardedTensor,
                    length: int) -> None:
        """Fill positions ``[0, length)`` from sharded ``[B, M, K, D]``
        tensors whose M extent is ``length`` (cache hand-off/resharding)."""
        if self.is_stacked and k_t.is_stacked and v_t.is_stacked:
            self.k[:, :, :, :, :length] = k_t.shards
            self.v[:, :, :, :, :length] = v_t.shards
        else:
            for coord in self.mesh.devices():
                self.k[coord][:, :length] = k_t.shards[coord]
                self.v[coord][:, :length] = v_t.shards[coord]
        self.length = length

    def views(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-device ``[B_loc, length, K_loc, D]`` views — an object array
        on the loop backend, a dense view on the stacked one."""
        if self.is_stacked:
            k_view = self.k[:, :, :, :, :self.length]
            v_view = self.v[:, :, :, :, :self.length]

            def replay_k(ctx, idx=None):
                cache = ctx.caches[idx]
                return cache.k[:, :, :, :, :cache.length]

            def replay_v(ctx, idx=None):
                cache = ctx.caches[idx]
                return cache.v[:, :, :, :, :cache.length]
        else:
            length = self.length
            k_view = self.mesh.map_devices(lambda c: self.k[c][:, :length])
            v_view = self.mesh.map_devices(lambda c: self.v[c][:, :length])

            def replay_k(ctx, idx=None):
                cache = ctx.caches[idx]
                return cache.mesh.map_devices(
                    lambda c: cache.k[c][:, :cache.length])

            def replay_v(ctx, idx=None):
                cache = ctx.caches[idx]
                return cache.mesh.map_devices(
                    lambda c: cache.v[c][:, :cache.length])

        recorder = getattr(self.mesh, "capture", None)
        if recorder is not None and recorder.recording:
            idx = recorder.cache_index(self)
            if idx is not None:
                recorder.record(lambda ctx: replay_k(ctx, idx),
                                (recorder.CTX,), k_view, "kv_view_k")
                recorder.record(lambda ctx: replay_v(ctx, idx),
                                (recorder.CTX,), v_view, "kv_view_v")
        return k_view, v_view

    def as_sharded(self) -> tuple[ShardedTensor, ShardedTensor]:
        """The filled prefix as proper sharded tensors (for inspection)."""
        shape = (self.global_shape[0], self.length, *self.global_shape[2:])
        k_view, v_view = self.views()
        spec = ShardSpec(("B", "M", "K", "D"), self.spec.axes)
        return (ShardedTensor(self.mesh, spec, shape, k_view),
                ShardedTensor(self.mesh, spec, shape, v_view))
