"""The paged arena: sealed KV pages + the device-buffer pool.

Two kinds of memory live here.

**Pages** are the unit of sharing: a fixed span of ``page_tokens``
token ids plus the per-layer K/V those tokens produced, stored in the
source cache's *page layout* (see :mod:`repro.layouts.kv_cache`): on
the stacked backend, a copied slice of the cache buffer, which holds one
copy per shard position (unsharded mesh axes at size 1) — the same
bytes as the global form — and global arrays otherwise.  Each page
carries that layout's key, so a cache with the same key installs it as
a slice copy, and any other cache spec or mesh converts it through
global arrays (:func:`~repro.layouts.kv_cache.reshard_kv`).  Pages are
sealed read-only at creation (``setflags(write=False)``): sharing is
copy-on-write by construction, because a request that diverges from a
cached prefix never mutates the shared page — it computes fresh K/V
into its own cache and seals *new* pages for the divergent span.

**The buffer arena** recycles the device buffers behind
:class:`~repro.layouts.kv_cache.ShardedKVCache`: instead of a fresh
allocation per request, a cache leases a (k, v) buffer pair keyed by
the buffers' actual geometry (backend, shape, dtype) and returns it
when garbage collected (a ``weakref.finalize`` hook), so steady-state
serving reuses a small set of slabs instead of churning allocations.
The cache supplies the allocation; the arena only pools.  Leased
buffers are zeroed, keeping pooled caches bit-identical to freshly
allocated ones.
"""

from __future__ import annotations

import numpy as np


class Page:
    """One sealed span of KV history: ``page_tokens`` tokens x layers.

    ``k``/``v`` hold one array per layer, each owning its bytes (never
    a view of a cache buffer) and marked read-only: global
    ``[1, page_tokens, n_kv_heads, d_head]`` when ``layout`` is ``None``,
    else the page layout ``layout`` names (device axes first, tokens on
    axis 4).  ``refcount`` counts live leases (decode slots pinning the
    page); ``last_use`` is the LRU clock.
    """

    __slots__ = ("k", "last_use", "layout", "page_id", "refcount", "tokens",
                 "v")

    def __init__(self, page_id: int, tokens: tuple[int, ...],
                 k: tuple[np.ndarray, ...], v: tuple[np.ndarray, ...],
                 layout=None):
        if len(k) != len(v) or not k:
            raise ValueError("need matching per-layer k/v arrays")
        m_axis = 1 if layout is None else 4
        for arr in (*k, *v):
            if arr.shape[m_axis] != len(tokens):
                raise ValueError(
                    f"page arrays must span {len(tokens)} tokens, got "
                    f"{arr.shape}")
            arr.setflags(write=False)
        self.page_id = page_id
        self.tokens = tokens
        self.k = k
        self.v = v
        self.layout = layout
        self.refcount = 0
        self.last_use = 0.0

    @property
    def page_tokens(self) -> int:
        return len(self.tokens)

    @property
    def nbytes(self) -> int:
        """Host bytes held by this page (both K and V, all layers)."""
        return sum(a.nbytes for a in self.k) + sum(a.nbytes for a in self.v)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Page(id={self.page_id}, tokens={self.tokens}, "
                f"refcount={self.refcount})")


def _zero(buffer: np.ndarray) -> None:
    """Zero a cache buffer in place, dense or per-device object array."""
    if buffer.dtype == object:
        for shard in buffer.flat:
            shard.fill(0)
    else:
        buffer.fill(0)


class KVBufferArena:
    """Free-list pool of (k, v) device buffer pairs, keyed by geometry.

    ``lease`` pops a matching pair (zeroed) or allocates a fresh one;
    ``reclaim`` — normally reached via the cache's ``weakref.finalize``
    — pushes the pair back.  A reused buffer is indistinguishable from a
    fresh allocation, so pooling cannot affect numerics.
    """

    def __init__(self):
        self._free: dict[tuple, list[tuple[np.ndarray, np.ndarray]]] = {}
        self.leases = 0
        self.reuses = 0
        self.allocs = 0
        self.reclaims = 0

    def lease(self, key: tuple, alloc) -> tuple[np.ndarray, np.ndarray]:
        """A zeroed (k, v) pair of the geometry ``key`` names: a pooled
        pair, or two fresh ``alloc()`` buffers.  Pass ``key`` back to
        :meth:`reclaim` with the pair."""
        free = self._free.get(key)
        if free:
            k, v = free.pop()
            _zero(k)
            _zero(v)
            self.reuses += 1
        else:
            k, v = alloc(), alloc()
            self.allocs += 1
        self.leases += 1
        return k, v

    def reclaim(self, key: tuple, k: np.ndarray, v: np.ndarray) -> None:
        """Return a leased pair to the free list."""
        self._free.setdefault(key, []).append((k, v))
        self.reclaims += 1

    def clear(self) -> None:
        """Drop all pooled buffers (mesh geometry changed / restart)."""
        self._free.clear()

    def stats(self) -> dict:
        pooled = sum(len(pairs) for pairs in self._free.values())
        return {
            "arena_leases": self.leases,
            "arena_reuses": self.reuses,
            "arena_allocs": self.allocs,
            "arena_reclaims": self.reclaims,
            "arena_pooled_buffers": pooled,
        }
