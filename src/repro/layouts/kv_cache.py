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

KV leaves a cache in its **page layout**: on the stacked backend, the
dense buffer with every mesh axis the spec leaves unsharded collapsed
to size 1 — one copy per shard position, exactly the bytes of the
global form — keyed by :attr:`ShardedKVCache.page_layout` (layout
signature plus mesh shape).  Store pages and same-layout decode merges
move KV as slices of that layout (:meth:`~ShardedKVCache.read`,
:meth:`~ShardedKVCache.write`); only layouts that really differ go
through global arrays, in :func:`reshard_kv`.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.mesh import ShardedTensor, VirtualMesh
from repro.mesh.stacked import collapse_replicas, reassemble
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
        # Spec, batch, heads, dtype and backend are fixed from here on:
        # the capture signature and the page layout key read these.
        self.signature = (str(spec), batch, n_kv_heads, d_head,
                          str(self.dtype), self.is_stacked)
        #: Key of pages read from this cache; ``None`` means pages hold
        #: global arrays (the loop backend, the oracle).
        self.page_layout = ((self.signature, tuple(mesh.shape))
                            if self.is_stacked else None)

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

    def read(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Positions ``[start, stop)`` of K/V in :attr:`page_layout`.

        Stacked: views of the buffers with unsharded mesh axes collapsed
        to size 1 (copy them to keep them past the next write).  Loop:
        fresh global arrays.  Either way the replicas of the span are
        checked, as ``ShardedTensor.to_global`` checks them, and a
        disagreement raises :class:`ShardingError`.
        """
        if not self.is_stacked:
            return tuple(t.to_global() for t in self.as_sharded(start, stop))
        return (collapse_replicas(self.spec, self.k[:, :, :, :, start:stop]),
                collapse_replicas(self.spec, self.v[:, :, :, :, start:stop]))

    def write(self, k: np.ndarray, v: np.ndarray, length: int,
              rows: slice = slice(None)) -> None:
        """Fill positions ``[0, length)`` of batch ``rows`` from
        page-layout arrays (stacked only): one broadcasting slice each."""
        self.k[:, :, :, rows, :length] = k
        self.v[:, :, :, rows, :length] = v
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
                specs = (None, self.spec)
                recorder.record(lambda ctx: replay_k(ctx, idx),
                                (recorder.CTX,), k_view, "kv_view_k",
                                meta=("kv_view", idx, "k"), specs=specs)
                recorder.record(lambda ctx: replay_v(ctx, idx),
                                (recorder.CTX,), v_view, "kv_view_v",
                                meta=("kv_view", idx, "v"), specs=specs)
        return k_view, v_view

    def as_sharded(self, start: int = 0, stop: int | None = None
                   ) -> tuple[ShardedTensor, ShardedTensor]:
        """Positions ``[start, stop)`` (default: the filled prefix) as
        sharded tensors over views of the buffers."""
        stop = self.length if stop is None else stop
        shape = (self.global_shape[0], stop - start, *self.global_shape[2:])
        spec = ShardSpec(("B", "M", "K", "D"), self.spec.axes)
        if self.is_stacked:
            k_view = self.k[:, :, :, :, start:stop]
            v_view = self.v[:, :, :, :, start:stop]
        else:
            k_view = self.mesh.map_devices(lambda c: self.k[c][:, start:stop])
            v_view = self.mesh.map_devices(lambda c: self.v[c][:, start:stop])
        return (ShardedTensor(self.mesh, spec, shape, k_view),
                ShardedTensor(self.mesh, spec, shape, v_view))


def layout_to_global(arr: np.ndarray, layout) -> np.ndarray:
    """A page-layout array (see :attr:`ShardedKVCache.page_layout`) in
    global ``[B, M, K, D]`` form; ``layout=None`` means it already is.
    A pure reshuffle (:func:`repro.mesh.stacked.reassemble`), so exact.
    """
    if layout is None:
        return arr
    (spec_text, *_), _ = layout
    return reassemble(parse(spec_text), arr)


def reshard_kv(target, parts, *, axis: int = 0) -> None:
    """Load KV into ``target`` through global arrays: the one conversion
    between KV layouts that really differ.

    ``parts`` are KV caches (their filled prefixes, replica-checked by
    :meth:`ShardedKVCache.read`) or ``(k, v, page_layout)`` triples such
    as store pages.  Each is brought to global ``[B, M, K, D]`` form, the
    parts are concatenated along ``axis`` (0: a merge's batch rows; 1: a
    prefix's pages), and the result fills ``target[:, :M]`` — a
    :class:`ShardedKVCache` (``from_global`` then ``load_prefix``) or
    the reference model's plain buffers.  Callers: the store's install
    fallback, the cross-layout decode merge, and
    :meth:`ShardedTransformer.reshard_cache` (cache migration).

    Within one mesh shape the conversion is exact.  Across mesh shapes
    (disaggregated page adoption, migration to a replanned mesh) the
    bytes carry the *source* mesh's reduction order, so the result
    matches a recompute on the target only to the last ulp
    (``atol=1e-15``).  This function is the single home of that known
    weak spot (see ``ROADMAP.md``).
    """
    ks, vs = [], []
    for part in parts:
        k, v, layout = part if isinstance(part, tuple) else (
            *part.read(0, part.length), part.page_layout)
        ks.append(layout_to_global(k, layout))
        vs.append(layout_to_global(v, layout))
    k = ks[0] if len(ks) == 1 else np.concatenate(ks, axis=axis)
    v = vs[0] if len(vs) == 1 else np.concatenate(vs, axis=axis)
    length = k.shape[1]
    if not hasattr(target, "load_prefix"):
        target.k[:, :length] = k
        target.v[:, :length] = v
        target.length = length
        return
    target.load_prefix(
        ShardedTensor.from_global(target.mesh, k, target.spec),
        ShardedTensor.from_global(target.mesh, v, target.spec), length)
