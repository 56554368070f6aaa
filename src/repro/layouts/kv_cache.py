"""Sharded KV cache (Section 3.3).

The cache's layout is the crux of the paper's attention optimization: the
same logical ``[B, M, K, D]`` history can be

* replicated per chip (baseline multiquery, Figure 4b) — per-chip memory
  ``B * M * 2 * D``;
* sharded over heads (multihead, Figure 4a) — per-chip ``B * M * 2 * D *
  ceil(H / n)``;
* sharded over batch (optimized multiquery, Figure 4c) — per-chip reduced
  by the full chip count.

``ShardedKVCache`` stores a preallocated (k, v) buffer pair under a
sharding spec for the ``B`` and ``K`` dims (``M`` — the time dim — and
``D`` are never sharded).

The buffers follow the mesh backend.  On the ``loop`` backend (the
oracle) they are an object array of per-device buffers.  On the
``stacked`` backend each is one dense array in the cache's **page
layout**: the stacked layout of every value (:mod:`repro.mesh.stacked`),
the device grid with every mesh axis the spec leaves unsharded at size
1 (a missing axis is one the value is replicated on, Section 3.1), so
the buffer holds one copy per shard position — exactly the bytes of
the global form — and appends are single whole-mesh slice writes.
Incoming K/V already hold one copy; an eager append or
:meth:`~ShardedKVCache.load_prefix` of a widened one (see
:meth:`repro.mesh.faults.FaultState.post_collective`) keeps copy 0 and
raises :class:`ShardingError` if the other copies disagree.
:meth:`~ShardedKVCache.views` and :meth:`~ShardedKVCache.as_sharded`
hand out the buffers' slices as they are.

With an ``arena`` (:class:`repro.kvstore.arena.KVBufferArena`) the
buffers are *leased* from a per-replica pool instead of freshly
allocated, and returned to the arena when the cache is garbage
collected.  Leased buffers arrive zeroed, so pooling is invisible to
numerics.

Store pages and same-layout decode merges move KV as slices of the
buffer (:meth:`~ShardedKVCache.read`, :meth:`~ShardedKVCache.write`),
keyed by :attr:`ShardedKVCache.page_layout` (layout signature plus mesh
shape); only layouts that really differ go through global arrays, in
:func:`reshard_kv`.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.mesh import ShardedTensor, VirtualMesh
from repro.mesh.stacked import collapse_replicas, reassemble, replicated_axes
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
        dtype = self.dtype
        if mesh.backend == "stacked":
            # The page layout: one copy along each replicated mesh axis.
            rep = replicated_axes(spec)
            grid = tuple(1 if i in rep else n
                         for i, n in enumerate(mesh.shape))

            def zeros():
                return np.zeros(grid + local, dtype=dtype)
        else:
            grid = tuple(mesh.shape)

            def zeros():
                return mesh.map_devices(lambda c: np.zeros(local, dtype=dtype))
        if arena is None:
            self.k, self.v = zeros(), zeros()
        else:
            key = (mesh.backend, grid + local, dtype.str)
            self.k, self.v = arena.lease(key, zeros)
            # Return the buffers when this cache dies; finalize keeps
            # them alive until then, so views stay valid for our
            # lifetime and the arena re-zeroes on the next lease.
            self._reclaimer = weakref.finalize(
                self, arena.reclaim, key, self.k, self.v)
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

        Derived from the local shard shape, not from the buffer: Table 1
        budgets physical chips, and every chip along a mesh axis the spec
        leaves unsharded holds its own copy, while the stacked buffer
        holds one copy per shard position.
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

    def _fill(self, k: ShardedTensor, v: ShardedTensor, start: int,
              stop: int) -> None:
        """Write positions ``[start, stop)`` from sharded K/V.  Stacked:
        one copy of each replicated axis — of a widened value copy 0, the
        other copies checked bit for bit against it (a disagreement
        raises :class:`ShardingError`)."""
        if self.is_stacked:
            k, v = (collapse_replicas(self.spec, t.shards) for t in (k, v))
        else:
            k, v = k.shards, v.shards
        self._store(k, v, start, stop)

    def _store(self, ks: np.ndarray, vs: np.ndarray, start: int,
               stop: int) -> None:
        """The cache's writer: positions ``[start, stop)`` from K/V shards
        in the buffers' layout (stacked: one copy of each replicated
        axis); the filled length becomes ``stop``."""
        if stop > self.max_len:
            raise ShardingError(
                f"KV cache overflow: {start} + {stop - start} > "
                f"{self.max_len}")
        if self.is_stacked:
            # One whole-mesh write: M is dense axis 4 (after the three
            # device axes and B).
            self.k[:, :, :, :, start:stop] = ks
            self.v[:, :, :, :, start:stop] = vs
        else:
            for coord in self.mesh.devices():
                self.k[coord][:, start:stop] = ks[coord]
                self.v[coord][:, start:stop] = vs[coord]
        self.length = stop

    def append(self, k_new: ShardedTensor, v_new: ShardedTensor) -> None:
        """Append new tokens' K/V."""
        self._check_compatible(k_new)
        self._check_compatible(v_new)
        n = k_new.dim_size("L")
        self._fill(k_new, v_new, self.length, self.length + n)

        recorder = getattr(self.mesh, "capture", None)
        if recorder is not None and recorder.recording:
            idx = recorder.cache_index(self)
            if idx is not None:
                def replay(ctx, ks, vs, idx=idx, n=n):
                    cache = ctx.caches[idx]
                    cache._store(ks, vs, cache.length, cache.length + n)

                recorder.record(replay, (recorder.CTX, k_new.shards,
                                         v_new.shards), None, "kv_append")

    def load_prefix(self, k_t: ShardedTensor, v_t: ShardedTensor,
                    length: int) -> None:
        """Fill positions ``[0, length)`` from sharded ``[B, M, K, D]``
        tensors whose M extent is ``length`` (cache hand-off/resharding),
        replicas checked as :meth:`append` checks them."""
        self._fill(k_t, v_t, 0, length)

    def read(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Positions ``[start, stop)`` of K/V in :attr:`page_layout`.

        Stacked: views of the buffers, which hold that layout (copy them
        to keep them past the next write).  Loop: fresh global arrays,
        the replicas of the span checked as ``ShardedTensor.to_global``
        checks them (a disagreement raises :class:`ShardingError`).
        """
        if self.is_stacked:
            return (self._span(self.k, start, stop),
                    self._span(self.v, start, stop))
        return tuple(t.to_global() for t in self.as_sharded(start, stop))

    def write(self, k: np.ndarray, v: np.ndarray, length: int,
              rows: slice = slice(None)) -> None:
        """Fill positions ``[0, length)`` of batch ``rows`` from
        page-layout arrays (stacked only): one slice copy each."""
        self.k[:, :, :, rows, :length] = k
        self.v[:, :, :, rows, :length] = v
        self.length = length

    def _span(self, buffer: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Positions ``[start, stop)`` of ``buffer`` (``self.k`` or
        ``self.v``): per-device views on the loop backend; on the stacked
        one, the buffer's slice."""
        if not self.is_stacked:
            return self.mesh.map_devices(lambda c: buffer[c][:, start:stop])
        return buffer[:, :, :, :, start:stop]

    def views(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-device ``[B_loc, length, K_loc, D]`` views — an object array
        on the loop backend; on the stacked one, the buffers' slice, which
        the attention kernel broadcasts against the query's grid."""
        k_view = self._span(self.k, 0, self.length)
        v_view = self._span(self.v, 0, self.length)
        recorder = getattr(self.mesh, "capture", None)
        if recorder is not None and recorder.recording:
            idx = recorder.cache_index(self)
            if idx is not None:
                for name, view in (("k", k_view), ("v", v_view)):
                    def replay(ctx, name=name):
                        cache = ctx.caches[idx]
                        return cache._span(getattr(cache, name), 0,
                                           cache.length)

                    recorder.record(replay, (recorder.CTX,), view,
                                    f"kv_view_{name}", meta=("kv_view",))
        return k_view, v_view

    def as_sharded(self, start: int = 0, stop: int | None = None
                   ) -> tuple[ShardedTensor, ShardedTensor]:
        """Positions ``[start, stop)`` (default: the filled prefix) as
        sharded tensors over views of the buffers."""
        stop = self.length if stop is None else stop
        shape = (self.global_shape[0], stop - start, *self.global_shape[2:])
        spec = ShardSpec(("B", "M", "K", "D"), self.spec.axes)
        return tuple(ShardedTensor(self.mesh, spec, shape,
                                   self._span(buffer, start, stop))
                     for buffer in (self.k, self.v))


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

    ``parts`` are KV caches (their filled prefixes, read by
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
        target.lengths[:] = length
        return
    target.load_prefix(
        ShardedTensor.from_global(target.mesh, k, target.spec),
        ShardedTensor.from_global(target.mesh, v, target.spec), length)
