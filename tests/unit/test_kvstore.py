"""Tests for the paged KV prefix-sharing layer (``repro.kvstore``).

Three layers of guarantees:

* **Radix index properties** (hypothesis) — longest-prefix lookup
  matches a brute-force oracle over every inserted prefix; eviction is
  LRU over unpinned leaves only and never frees a page with a live
  lease, under randomized insert/pin/evict interleavings.
* **Differential prefix caching** — a prefill served from cached pages
  is *bit-identical* (logits, KV contents, and the decode steps that
  follow) to the cold recompute path, on the reference model and on
  both mesh backends; pages kept in the mesh's page layout install to
  the same bits as the conversion through global arrays, and KV whose
  replicas disagree never reaches a page: a loop cache's commit checks
  the span it reads, a stacked cache's append or prefix load checks
  what it is given.
* **One layout** — a stacked cache buffer is its page layout: on the
  serving benchmark's deployments every cache holds exactly the bytes
  of its global K/V.
* **Memory accounting** — ``ShardedKVCache.per_chip_bytes`` agrees with
  every device's shard bytes on 1D/2D/3D meshes (degenerate torus axes)
  under replicated, batch-sharded and head-sharded specs, and the
  buffer arena recycles zeroed slabs without touching numerics.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterControlPlane,
    ClusterPolicy,
    ClusterSubmission,
)
from repro.kvstore import KVBufferArena, KVStore, Page, RadixIndex
from repro.layouts import ShardedTransformer
from repro.layouts.kv_cache import (
    ShardedKVCache,
    layout_to_global,
    reshard_kv,
)
from repro.mesh import ShardedTensor, VirtualMesh
from repro.model import ReferenceTransformer, init_weights, tiny_test_config
from repro.partitioning import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from repro.partitioning.degraded import build_deployment
from repro.serving import Request
from repro.serving.chunked import chunked_prefill
from repro.sharding.spec import ShardingError
from tests.unit.grid import every_device, widened

CFG = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                       d_head=8, vocab_size=32)
WEIGHTS = init_weights(CFG, seed=0)
PAGE = 2  # page_tokens used throughout (a multiple of the chunk below)


def make_page(page_id: int, span) -> Page:
    """A distinguishable fake page: contents encode the page id."""
    span = tuple(int(t) for t in span)
    k = (np.full((1, len(span), 1, 2), float(page_id)),)
    v = (np.full((1, len(span), 1, 2), float(-page_id)),)
    return Page(page_id, span, k, v)


def fresh_pages(counter, tokens, page_tokens=PAGE):
    """One fake page per whole page of ``tokens``."""
    pages = []
    for start in range(0, (len(tokens) // page_tokens) * page_tokens,
                       page_tokens):
        counter[0] += 1
        pages.append(make_page(counter[0],
                               tokens[start:start + page_tokens]))
    return pages


# Small alphabet so random sequences actually share prefixes.
token_seqs = st.lists(st.integers(min_value=0, max_value=2), min_size=0,
                      max_size=10)


class TestRadixProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(token_seqs, max_size=8), token_seqs)
    def test_lookup_is_longest_prefix_brute_force(self, inserted, query):
        idx = RadixIndex(PAGE)
        counter = [0]
        prefixes: set[tuple] = set()
        for seq in inserted:
            idx.insert(seq, fresh_pages(counter, seq))
            for n in range(1, len(seq) // PAGE + 1):
                prefixes.add(tuple(seq[:n * PAGE]))
        chain = idx.lookup(query)
        best = 0
        for n in range(len(query) // PAGE, 0, -1):
            if tuple(query[:n * PAGE]) in prefixes:
                best = n
                break
        assert len(chain) == best
        spelled = [t for page in chain for t in page.tokens]
        assert spelled == list(query[:best * PAGE])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(token_seqs, min_size=1, max_size=6),
           st.data())
    def test_evict_skips_pinned_and_interior_pages(self, inserted, data):
        idx = RadixIndex(PAGE)
        counter = [0]
        for seq in inserted:
            idx.insert(seq, fresh_pages(counter, seq))
        pages = idx.pages()
        assert idx.n_pages == len(pages)
        pinned = []
        if pages:
            for i in data.draw(st.lists(
                    st.integers(0, len(pages) - 1), max_size=4,
                    unique=True)):
                pages[i].refcount += 1
                pinned.append(pages[i])
        evicted = idx.evict(data.draw(st.integers(0, len(pages) + 2)))
        for page in evicted:
            assert page.refcount == 0, "evicted a pinned page"
        assert not (set(id(p) for p in evicted)
                    & set(id(p) for p in pinned))
        remaining = idx.pages()
        assert idx.n_pages == len(remaining)
        # Every pinned page survived and is still reachable.
        assert set(id(p) for p in pinned) <= set(id(p) for p in remaining)

    def test_evict_is_lru_over_leaves(self):
        idx = RadixIndex(PAGE)
        counter = [0]
        idx.insert([0, 0, 1, 1], fresh_pages(counter, [0, 0, 1, 1]))
        idx.insert([2, 2], fresh_pages(counter, [2, 2]))
        # Touch the [2, 2] leaf so the [0, 0, 1, 1] leaf is LRU.
        idx.lookup([2, 2], clock=5.0)
        evicted = idx.evict(1)
        assert [p.tokens for p in evicted] == [(1, 1)]
        # The interior (0, 0) page only becomes evictable once its
        # child is gone.
        assert {p.tokens for p in idx.pages()} == {(0, 0), (2, 2)}


# One interleaving step: adopt a chain, take a lease, or release one.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("adopt"), token_seqs),
        st.tuples(st.just("match"), token_seqs),
        st.tuples(st.just("release"), st.integers(0, 10**6)),
    ),
    max_size=40)


class TestStoreLeaseProperties:
    @settings(max_examples=60, deadline=None)
    @given(_ops)
    def test_interleavings_never_free_a_pinned_page(self, ops):
        store = KVStore(page_tokens=PAGE, capacity_pages=3)
        counter = [0]
        active: list[tuple] = []
        for kind, payload in ops:
            if kind == "adopt":
                pages = fresh_pages(counter, payload)
                if pages:
                    store.adopt(payload, pages)
            elif kind == "match":
                lease = store.match(payload)
                if lease is not None:
                    active.append((lease, list(payload)))
            elif active:
                lease, _ = active.pop(payload % len(active))
                assert lease.release() is True
                assert lease.release() is False  # idempotent
            for lease, tokens in active:
                assert all(p.refcount >= 1 for p in lease.pages)
                chain = store.lookup_pages(tokens)
                got = [p.page_id for p in chain[:lease.n_pages]]
                assert got == [p.page_id for p in lease.pages], \
                    "a live lease's pages left the index"
            assert store.pinned_pages == len(
                {id(p) for lease, _ in active for p in lease.pages})
        stats = store.stats()
        assert stats["releases"] + len(active) == stats["leases"]


class TestStoreSemantics:
    def test_match_caps_at_last_token(self):
        store = KVStore(page_tokens=PAGE, capacity_pages=8)
        counter = [0]
        store.adopt([1, 2, 3, 4], fresh_pages(counter, [1, 2, 3, 4]))
        # A 4-token prompt fully covered by pages still recomputes its
        # final token: only (4 - 1) // 2 == 1 page is usable.
        assert store.peek([1, 2, 3, 4]) == 2
        lease = store.match([1, 2, 3, 4])
        assert lease.n_tokens == 2
        lease.release()
        # lookup_pages (adoption path) has no cap: both pages.
        assert len(store.lookup_pages([1, 2, 3, 4])) == 2

    def test_invalidate_bumps_epoch_and_counts_stale_release(self):
        store = KVStore(page_tokens=PAGE, capacity_pages=8)
        counter = [0]
        store.adopt([1, 2, 3, 4, 5], fresh_pages(counter, [1, 2, 3, 4, 5]))
        lease = store.match([1, 2, 3, 4, 5])
        assert lease is not None
        store.invalidate("replan")
        assert store.peek([1, 2, 3, 4, 5]) == 0
        assert lease.release() is True  # first release still reports
        stats = store.stats()
        assert stats["stale_releases"] == 1
        assert stats["invalidation_reasons"] == {"replan": 1}

    def test_capacity_eviction_spares_pinned(self):
        store = KVStore(page_tokens=PAGE, capacity_pages=2)
        counter = [0]
        store.adopt([0, 0, 0, 0], fresh_pages(counter, [0, 0, 0, 0]))
        lease = store.match([0, 0, 0, 0, 9])  # pins both pages
        assert lease.n_pages == 2
        store.adopt([1, 1, 2, 2], fresh_pages(counter, [1, 1, 2, 2]))
        # Over capacity (4 > 2): both unpinned pages of the new chain
        # are evicted (the parent becomes a leaf once its child goes),
        # but the pinned chain survives even though we stay at capacity.
        assert store.stats()["pages"] == 2
        assert store.stats()["evictions"] == 2
        assert store.lookup_pages([1, 1, 2, 2]) == []
        assert [p.page_id for p in store.lookup_pages([0, 0, 0, 0])] \
            == [p.page_id for p in lease.pages]
        lease.release()


def _ref_prefill(prompt, chunk, max_len, store=None):
    model = ReferenceTransformer(WEIGHTS)
    return chunked_prefill(model, prompt, chunk, max_len, kvstore=store)


class TestDifferentialReference:
    def test_cache_hit_bit_identical_to_recompute(self):
        rng = np.random.default_rng(0)
        shared = rng.integers(0, CFG.vocab_size, size=6)
        p1 = np.concatenate([shared, rng.integers(0, CFG.vocab_size,
                                                  size=4)])[None, :]
        p2 = np.concatenate([shared, rng.integers(0, CFG.vocab_size,
                                                  size=4)])[None, :]
        store = KVStore(page_tokens=PAGE, capacity_pages=32)
        warm1, _ = _ref_prefill(p1, PAGE, 12, store)
        reuse1 = store.take_last_reuse()
        assert reuse1.lease is None and reuse1.matched_tokens == 0
        warm2, warm_caches = _ref_prefill(p2, PAGE, 12, store)
        reuse2 = store.take_last_reuse()
        assert reuse2.matched_tokens == len(shared)
        cold2, cold_caches = _ref_prefill(p2, PAGE, 12)
        assert np.array_equal(warm2, cold2), \
            "cached prefill logits diverged from recompute"
        for warm_c, cold_c in zip(warm_caches, cold_caches):
            assert np.array_equal(warm_c.lengths, cold_c.lengths)
            assert np.array_equal(warm_c.k, cold_c.k)
            assert np.array_equal(warm_c.v, cold_c.v)
        reuse2.lease.release()
        cold1, _ = _ref_prefill(p1, PAGE, 12)
        assert np.array_equal(warm1, cold1)

    def test_decode_continues_bit_identical_from_cached_prefill(self):
        rng = np.random.default_rng(1)
        shared = rng.integers(0, CFG.vocab_size, size=6)
        prompt = np.concatenate([shared, rng.integers(
            0, CFG.vocab_size, size=2)])[None, :]
        store = KVStore(page_tokens=PAGE, capacity_pages=32)
        _ref_prefill(np.concatenate([shared, rng.integers(
            0, CFG.vocab_size, size=2)])[None, :], PAGE, 12, store)
        warm_logits, warm_caches = _ref_prefill(prompt, PAGE, 12, store)
        assert store.take_last_reuse().matched_tokens == len(shared)
        cold_logits, cold_caches = _ref_prefill(prompt, PAGE, 12)
        model = ReferenceTransformer(WEIGHTS)
        token = np.argmax(warm_logits, -1)
        for _ in range(3):
            warm = model.decode_step(token, warm_caches)
            cold = model.decode_step(token, cold_caches)
            assert np.array_equal(warm, cold)
            token = np.argmax(warm, -1)

    def test_validation(self):
        store = KVStore(page_tokens=3, capacity_pages=8)
        model = ReferenceTransformer(WEIGHTS)
        prompt = np.zeros((1, 6), dtype=np.int64)
        with pytest.raises(ValueError, match="multiple"):
            chunked_prefill(model, prompt, 2, 8, kvstore=store)
        batch2 = np.zeros((2, 6), dtype=np.int64)
        with pytest.raises(ValueError, match="batch"):
            chunked_prefill(model, batch2, 3, 8,
                            kvstore=KVStore(page_tokens=3))


@pytest.mark.parametrize("backend", ["loop", "stacked"])
class TestDifferentialSharded:
    PLAN = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)

    def test_cache_hit_bit_identical_across_backend(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        model = ShardedTransformer(WEIGHTS, mesh, self.PLAN)
        rng = np.random.default_rng(2)
        shared = rng.integers(0, CFG.vocab_size, size=6)
        p1 = np.concatenate([shared, rng.integers(0, CFG.vocab_size,
                                                  size=4)])[None, :]
        p2 = np.concatenate([shared, rng.integers(0, CFG.vocab_size,
                                                  size=4)])[None, :]
        store = KVStore(page_tokens=PAGE, capacity_pages=32)
        chunked_prefill(model, p1, PAGE, 12, kvstore=store)
        warm, warm_caches = chunked_prefill(model, p2, PAGE, 12,
                                            kvstore=store)
        reuse = store.take_last_reuse()
        assert reuse.matched_tokens == len(shared)
        cold, cold_caches = chunked_prefill(model, p2, PAGE, 12)
        assert np.array_equal(warm, cold)
        for warm_c, cold_c in zip(warm_caches, cold_caches):
            wk, wv = warm_c.as_sharded()
            ck, cv = cold_c.as_sharded()
            assert np.array_equal(wk.to_global(), ck.to_global())
            assert np.array_equal(wv.to_global(), cv.to_global())
        if reuse.lease is not None:
            reuse.lease.release()

    def test_hit_after_arena_reuse_bit_identical_to_recompute(self,
                                                             backend):
        """Pages committed from arena-backed caches stay valid after the
        caches die and their buffers serve another prompt."""
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        model = ShardedTransformer(WEIGHTS, mesh, self.PLAN)
        model.kv_arena = KVBufferArena()
        rng = np.random.default_rng(9)
        prompt = rng.integers(0, CFG.vocab_size, size=(1, 8))
        other = rng.integers(0, CFG.vocab_size, size=(1, 8))
        store = KVStore(page_tokens=PAGE, capacity_pages=32)
        _, caches = chunked_prefill(model, prompt, PAGE, 12, kvstore=store)
        del caches
        gc.collect()
        chunked_prefill(model, other, PAGE, 12)
        assert model.kv_arena.stats()["arena_reuses"] > 0
        warm, warm_caches = chunked_prefill(model, prompt, PAGE, 12,
                                            kvstore=store)
        reuse = store.take_last_reuse()
        assert reuse.matched_tokens == 6
        cold, cold_caches = chunked_prefill(
            ShardedTransformer(WEIGHTS, mesh, self.PLAN), prompt, PAGE, 12)
        assert np.array_equal(warm, cold)
        for warm_c, cold_c in zip(warm_caches, cold_caches):
            assert_same_buffers(warm_c, cold_c)
        reuse.lease.release()

    def test_pages_install_across_meshes(self, backend):
        """A page extracted on one mesh shape installs on another.

        Bit-identity holds within a mesh shape (the replica-local serving
        path, asserted above); across shapes the page bytes reflect the
        source mesh's reduction order, so the contract is last-ulp
        closeness with identical greedy tokens — what the disaggregated
        adoption path (Section 4.4 handoff) needs."""
        rng = np.random.default_rng(3)
        prompt = rng.integers(0, CFG.vocab_size, size=(1, 8))
        store = KVStore(page_tokens=PAGE, capacity_pages=32)
        src = ShardedTransformer(WEIGHTS, VirtualMesh((2, 2, 2),
                                                      backend=backend),
                                 self.PLAN)
        chunked_prefill(src, prompt, PAGE, 12, kvstore=store)
        dst = ShardedTransformer(WEIGHTS, VirtualMesh((2, 1, 1),
                                                      backend=backend),
                                 self.PLAN)
        warm, _ = chunked_prefill(dst, prompt, PAGE, 12, kvstore=store)
        reuse = store.take_last_reuse()
        assert reuse.matched_tokens > 0
        cold, _ = chunked_prefill(dst, prompt, PAGE, 12)
        np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-15)
        assert np.array_equal(warm.argmax(-1), cold.argmax(-1))
        assert store.stats()["pages_converted"] == reuse.lease.n_pages
        reuse.lease.release()

    def test_same_shape_install_bit_identical_to_recompute(self, backend):
        """Pages committed on one mesh install on another mesh of the
        same shape as slice copies (stacked), bit-identical to
        recomputing there."""
        rng = np.random.default_rng(5)
        prompt = rng.integers(0, CFG.vocab_size, size=(1, 8))
        store = KVStore(page_tokens=PAGE, capacity_pages=32)
        src = ShardedTransformer(WEIGHTS, VirtualMesh((2, 2, 2),
                                                      backend=backend),
                                 self.PLAN)
        chunked_prefill(src, prompt, PAGE, 12, kvstore=store)
        dst = ShardedTransformer(WEIGHTS, VirtualMesh((2, 2, 2),
                                                      backend=backend),
                                 self.PLAN)
        warm, warm_caches = chunked_prefill(dst, prompt, PAGE, 12,
                                            kvstore=store)
        reuse = store.take_last_reuse()
        assert reuse.matched_tokens == 6
        cold, cold_caches = chunked_prefill(dst, prompt, PAGE, 12)
        assert np.array_equal(warm, cold)
        for warm_c, cold_c in zip(warm_caches, cold_caches):
            assert_same_buffers(warm_c, cold_c)
        converted = store.stats()["pages_converted"]
        assert converted == (0 if backend == "stacked" else 3)
        reuse.lease.release()

    def test_adoption_across_mesh_shapes_converts(self, backend):
        """The disaggregated handoff: a decode-side store adopts pages
        sealed on a 2x2x2 prefill mesh and installs them on 2x1x1."""
        rng = np.random.default_rng(6)
        prompt = rng.integers(0, CFG.vocab_size, size=(1, 8))
        prefill_store = KVStore(page_tokens=PAGE, capacity_pages=32)
        decode_store = KVStore(page_tokens=PAGE, capacity_pages=32)
        src = ShardedTransformer(WEIGHTS, VirtualMesh((2, 2, 2),
                                                      backend=backend),
                                 self.PLAN)
        chunked_prefill(src, prompt, PAGE, 12, kvstore=prefill_store)
        pages = prefill_store.lookup_pages(prompt[0])
        assert decode_store.adopt(prompt[0], pages) == len(pages)
        dst = ShardedTransformer(WEIGHTS, VirtualMesh((2, 1, 1),
                                                      backend=backend),
                                 self.PLAN)
        chunked_prefill(dst, prompt, PAGE, 12, kvstore=decode_store)
        reuse = decode_store.take_last_reuse()
        assert decode_store.stats()["pages_converted"] \
            == reuse.lease.n_pages > 0
        reuse.lease.release()


def test_same_shape_fleet_converts_no_pages():
    """A stacked fleet of one mesh shape keeps every page in the mesh
    layout: store hits install without a global round-trip."""
    plane = ClusterControlPlane(
        WEIGHTS, [(2, 2, 2), (2, 2, 2)], backend="stacked",
        decode_batch=2, policy=ClusterPolicy(kvstore_pages=64))
    rng = np.random.default_rng(7)
    head = rng.integers(0, CFG.vocab_size, size=4)
    plane.serve([ClusterSubmission(Request(i, np.concatenate(
        [head, rng.integers(0, CFG.vocab_size, size=2)]), 3),
        arrival_s=0.1 * i) for i in range(8)])
    stats = [r.kvstore.stats() for r in plane.replicas]
    assert sum(s["pages_hit"] for s in stats) > 0
    assert sum(s["pages_converted"] for s in stats) == 0


def filled_cache(mesh, spec, length=6, max_len=8, seed=0, arena=None,
                 batch=4):
    """A cache whose first ``length`` positions hold random KV."""
    cache = ShardedKVCache(mesh, spec, batch=batch, max_len=max_len,
                           n_kv_heads=4, d_head=2, arena=arena)
    rng = np.random.default_rng(seed)
    k, v = (rng.standard_normal((batch, length, 4, 2)) for _ in range(2))
    cache.load_prefix(ShardedTensor.from_global(mesh, k, cache.spec),
                      ShardedTensor.from_global(mesh, v, cache.spec),
                      length)
    return cache


def cache_globals(cache):
    k, v = cache.as_sharded()
    return k.to_global(), v.to_global()


def reload_with_disagreeing_replica(cache, position):
    """Write the cache's filled prefix back with the last device's copy
    of K off by one at ``position``.  A loop cache stores the per-device
    copies as given; a stacked cache checks them on the way in."""
    k, v = cache.as_sharded()
    if cache.is_stacked:
        shards = np.array(every_device(k))
        shards[-1, -1, -1, 0, position, 0, 0] += 1.0
    else:
        shards = cache.mesh.map_devices(lambda c: k.shards[c].copy())
        shards[tuple(n - 1 for n in cache.mesh.shape)][0, position, 0, 0] \
            += 1.0
    cache.load_prefix(ShardedTensor(cache.mesh, k.spec, k.global_shape,
                                    shards), v, cache.length)


def assert_same_buffers(a, b):
    """Bit-identical device buffers, replicas and unfilled tail included."""
    assert a.length == b.length
    for x, y in ((a.k, b.k), (a.v, b.v)):
        if x.dtype == object:
            for coord in a.mesh.devices():
                assert np.array_equal(x[coord], y[coord])
        else:
            assert np.array_equal(x, y)


@pytest.mark.parametrize("backend", ["loop", "stacked"])
@pytest.mark.parametrize("shape", [(2, 2, 2), (4, 1, 1)])
@pytest.mark.parametrize("spec", ["BMKD", "B_xMKD", "BMK_xD"])
class TestPageLayout:
    """Pages in the mesh's page layout vs the global-array conversion."""

    def test_install_fast_path_matches_conversion(self, backend, shape,
                                                  spec):
        mesh = VirtualMesh(shape, backend=backend)
        src = filled_cache(mesh, spec)
        tokens = list(range(6))
        store = KVStore(page_tokens=PAGE, capacity_pages=8)
        assert store.commit(tokens, [src]) == 3
        lease = store.match(tokens + [9])
        assert lease.n_tokens == 6
        fast = ShardedKVCache(mesh, spec, 4, 8, 4, 2)
        store.install(lease, [fast])
        converted = ShardedKVCache(mesh, spec, 4, 8, 4, 2)
        reshard_kv(converted, [(p.k[0], p.v[0], p.layout)
                               for p in lease.pages], axis=1)
        assert_same_buffers(fast, converted)
        for got, want in zip(cache_globals(fast), cache_globals(src)):
            assert np.array_equal(got, want)
        # The stacked backend keeps KV in the mesh layout; the loop
        # backend (the oracle) always converts.
        expect = 3 if backend == "loop" else 0
        assert store.stats()["pages_converted"] == expect
        # A page holds exactly the bytes of its global form.
        assert lease.pages[0].nbytes == 2 * 4 * PAGE * 4 * 2 * 8

    def test_pages_survive_arena_reuse(self, backend, shape, spec):
        """Pages own their bytes: a committing cache's buffers, returned
        to the arena and leased (zeroed, refilled) by the next cache,
        leave the sealed pages untouched."""
        mesh = VirtualMesh(shape, backend=backend)
        arena = KVBufferArena()
        # Batch 1 where the spec allows it: each page's span is then
        # contiguous in the buffer, so a slice of it would be a view.
        batch = 4 if spec.startswith("B_") else 1
        src = filled_cache(mesh, spec, arena=arena, batch=batch)
        store = KVStore(page_tokens=PAGE, capacity_pages=8)
        tokens = list(range(6))
        assert store.commit(tokens, [src]) == 3
        want = cache_globals(src)
        del src
        gc.collect()
        reused = filled_cache(mesh, spec, seed=1, arena=arena, batch=batch)
        assert arena.stats()["arena_reuses"] == 1
        lease = store.match(tokens + [9])
        for page in lease.pages:
            for arr in (*page.k, *page.v):
                assert arr.base is None and not arr.flags.writeable
        fresh = ShardedKVCache(mesh, spec, batch, 8, 4, 2)
        store.install(lease, [fresh])
        for got, old in zip(cache_globals(fresh), want):
            assert np.array_equal(got, old)
        assert not np.array_equal(cache_globals(reused)[0], want[0])

    def test_commit_checks_replicas_of_the_span(self, backend, shape,
                                                spec):
        """No page is sealed from KV whose replicas disagree.  A loop
        cache holds every device's copy, so the commit checks the span
        it reads; a stacked cache holds one copy, so the disagreement
        raises where it enters the cache, before any commit."""
        mesh = VirtualMesh(shape, backend=backend)
        cache = filled_cache(mesh, spec)
        store = KVStore(page_tokens=PAGE, capacity_pages=8)
        if cache.spec.replication_factor(mesh.topology) == 1:
            # Every device holds a distinct shard: nothing to disagree.
            reload_with_disagreeing_replica(cache, 3)
            store.commit(list(range(6)), [cache])
            return
        with pytest.raises(ShardingError, match="replicas disagree"):
            reload_with_disagreeing_replica(cache, 3)
            store.commit(list(range(6)), [cache])
        assert store.stats()["inserts"] == 0


@pytest.mark.parametrize("spec", ["B_xzyMKD", "B_yxMK_zD", "BMK_zyD"])
def test_layout_to_global_inverts_sharding(spec):
    """Page layout -> global is exact for any axis order in the spec."""
    mesh = VirtualMesh((2, 2, 2), backend="stacked")
    cache = ShardedKVCache(mesh, spec, batch=8, max_len=4, n_kv_heads=4,
                           d_head=2)
    k = np.random.default_rng(8).standard_normal((8, 3, 4, 2))
    cache.load_prefix(ShardedTensor.from_global(mesh, k, cache.spec),
                      ShardedTensor.from_global(mesh, -k, cache.spec), 3)
    k_page, v_page = cache.read(1, 3)
    assert k_page.nbytes == k[:, 1:3].nbytes
    assert np.array_equal(layout_to_global(k_page, cache.page_layout),
                          k[:, 1:3])
    assert np.array_equal(layout_to_global(v_page, cache.page_layout),
                          -k[:, 1:3])


# The serving benchmark's models and meshes (bench/workloads.py).
BENCH_DEPLOYMENTS = {
    "A": (tiny_test_config(n_layers=2, d_model=64, d_ff=128, n_heads=16,
                           d_head=4, vocab_size=32), (4, 4, 4)),
    "B": (CFG, (2, 2, 2)),
}


class TestOneLayout:
    """A stacked cache buffer is its page layout: one copy per shard
    position, with the replica check where KV enters it."""

    @pytest.mark.parametrize("name", BENCH_DEPLOYMENTS)
    def test_bench_caches_hold_each_value_once(self, name):
        cfg, shape = BENCH_DEPLOYMENTS[name]
        mesh = VirtualMesh(shape, backend="stacked")
        models = build_deployment(init_weights(cfg, seed=0), mesh,
                                  decode_batch=4, prompt_len=64)
        for model, batch in zip(models, (1, 4)):
            for cache in model.new_cache(batch, 64):
                global_bytes = 2 * cache.dtype.itemsize * np.prod(
                    cache.global_shape)
                assert cache.k.nbytes + cache.v.nbytes == global_bytes, \
                    cache.spec

    @pytest.mark.parametrize("spec", ["BMKD", "B_xMKD", "BMK_xD"])
    def test_append_checks_replicas(self, spec):
        mesh = VirtualMesh((2, 2, 2), backend="stacked")
        cache = filled_cache(mesh, spec, length=2)
        before = cache.k.copy()
        k_new = ShardedTensor.from_global(
            mesh, np.ones((4, 1, 4, 2)), spec.replace("M", "L"))
        k_new = widened(k_new)
        k_new.shards[-1, -1, -1, 0, 0, 0, 0] += 1.0
        with pytest.raises(ShardingError, match="replicas disagree"):
            cache.append(k_new, k_new)
        assert cache.length == 2 and np.array_equal(cache.k, before)


@pytest.mark.parametrize("backend", ["loop", "stacked"])
@pytest.mark.parametrize("shape", [(4, 1, 1), (2, 2, 1), (2, 2, 2)])
class TestPerChipBytes:
    SPECS = ("BMKD", "B_xMKD", "BMK_xD")

    def test_matches_actual_buffer_bytes(self, backend, shape):
        """Every chip's shard: what Table 1 budgets, although the stacked
        buffer holds one copy per shard position."""
        mesh = VirtualMesh(shape, backend=backend)
        for spec in self.SPECS:
            cache = ShardedKVCache(mesh, spec, batch=4, max_len=8,
                                   n_kv_heads=4, d_head=2)
            k, v = (every_device(t) for t in cache.as_sharded(
                0, cache.max_len))
            for coord in mesh.devices():
                actual = k[coord].nbytes + v[coord].nbytes
                assert cache.per_chip_bytes() == actual, \
                    f"per_chip_bytes wrong for {spec} on {shape} {backend}"

    def test_sharded_dims_divide_bytes(self, backend, shape):
        mesh = VirtualMesh(shape, backend=backend)
        replicated = ShardedKVCache(mesh, "BMKD", batch=4, max_len=8,
                                    n_kv_heads=4, d_head=2)
        sharded = ShardedKVCache(mesh, "B_xMKD", batch=4, max_len=8,
                                 n_kv_heads=4, d_head=2)
        assert replicated.per_chip_bytes() \
            == sharded.per_chip_bytes() * shape[0]


@pytest.mark.parametrize("backend", ["loop", "stacked"])
class TestBufferArena:
    def test_reclaimed_buffers_are_reused_and_zeroed(self, backend):
        mesh = VirtualMesh((2, 1, 1), backend=backend)
        arena = KVBufferArena()
        cache = ShardedKVCache(mesh, "BMKD", batch=2, max_len=4,
                               n_kv_heads=2, d_head=2, arena=arena)
        if backend == "stacked":
            cache.k[...] = 7.0
        else:
            for coord in mesh.devices():
                cache.k[coord][...] = 7.0
        del cache
        gc.collect()
        assert arena.stats()["arena_reclaims"] == 1
        again = ShardedKVCache(mesh, "BMKD", batch=2, max_len=4,
                               n_kv_heads=2, d_head=2, arena=arena)
        stats = arena.stats()
        assert stats["arena_reuses"] == 1 and stats["arena_allocs"] == 1
        if backend == "stacked":
            assert not again.k.any()
        else:
            assert all(not again.k[c].any() for c in mesh.devices())

    def test_arena_backed_model_is_bit_identical(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        plan = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)
        prompt = np.random.default_rng(4).integers(
            0, CFG.vocab_size, size=(1, 6))
        plain = ShardedTransformer(WEIGHTS, mesh, plan)
        base, _ = plain.prefill(prompt, max_len=8)
        pooled = ShardedTransformer(WEIGHTS, mesh, plan)
        pooled.kv_arena = KVBufferArena()
        logits, caches = pooled.prefill(prompt, max_len=8)
        assert np.array_equal(base, logits)
        del caches
        gc.collect()
        assert pooled.kv_arena.stats()["arena_reclaims"] > 0
