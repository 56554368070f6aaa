"""Tests for the serving layer (two-phase recipe, scheduler, merges)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.layouts import ShardedTransformer
from repro.layouts.kv_cache import ShardedKVCache, reshard_kv
from repro.mesh import VirtualMesh
from repro.model import ReferenceTransformer, init_weights, tiny_test_config
from repro.partitioning import AttentionLayoutKind, FfnLayoutKind, LayoutPlan
from repro.serving import (
    Request,
    TwoPhaseServer,
    group_requests,
    merge_caches,
    merge_sharded_caches,
)
from repro.sharding.spec import ShardingError
from tests.unit.test_kvstore import (
    assert_same_buffers,
    cache_globals,
    filled_cache,
    reload_with_disagreeing_replica,
)

CFG = tiny_test_config()


def model(seed=0):
    return ReferenceTransformer(init_weights(CFG, seed=seed))


def make_request(rid, length, n_new=4, seed=None):
    rng = np.random.default_rng(seed if seed is not None else rid)
    return Request(rid, rng.integers(0, CFG.vocab_size, size=length),
                   n_new)


class TestRequests:
    def test_validation(self):
        with pytest.raises(ValueError, match="1D"):
            Request(0, np.zeros((2, 2), dtype=int), 4)
        with pytest.raises(ValueError, match="max_new_tokens"):
            Request(0, np.zeros(3, dtype=int), 0)

    def test_rejects_non_integer_token_dtype(self):
        with pytest.raises(ValueError, match="integer token ids"):
            Request(0, np.array([1.0, 2.0]), 4)

    def test_rejects_negative_token_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            Request(0, np.array([3, -1, 2]), 4)

    def test_rejects_empty_prompt(self):
        # An empty prompt has no token to prefill; it must be refused
        # before any engine admits it.
        with pytest.raises(ValueError, match="at least one token"):
            Request(0, np.zeros(0, dtype=np.int64), 1)


class TestScheduler:
    def test_groups_by_length(self):
        requests = [make_request(0, 4), make_request(1, 6),
                    make_request(2, 4)]
        groups = group_requests(requests, max_batch=8)
        assert [len(g) for g in groups] == [2, 1]
        assert {r.request_id for r in groups[0]} == {0, 2}

    def test_respects_max_batch(self):
        requests = [make_request(i, 4) for i in range(10)]
        groups = group_requests(requests, max_batch=4)
        assert [len(g) for g in groups] == [4, 4, 2]

    def test_preserves_order_within_group(self):
        requests = [make_request(i, 4) for i in range(5)]
        groups = group_requests(requests, max_batch=8)
        assert [r.request_id for r in groups[0]] == [0, 1, 2, 3, 4]

    def test_fifo_order_survives_length_interleaving(self):
        # Arrival order must be preserved within every length class even
        # when lengths interleave and groups split at max_batch.
        lengths = [4, 6, 4, 6, 4, 6, 4, 6]
        requests = [make_request(i, lengths[i]) for i in range(8)]
        groups = group_requests(requests, max_batch=2)
        by_length = {4: [], 6: []}
        for group in groups:
            assert len({len(r.prompt) for r in group}) == 1
            by_length[len(group[0].prompt)].extend(
                r.request_id for r in group)
        assert by_length[4] == [0, 2, 4, 6]
        assert by_length[6] == [1, 3, 5, 7]

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            group_requests([], 0)


class TestMergeCaches:
    def test_merge_concatenates_batch(self):
        m = model()
        p1 = np.array([[1, 2, 3]])
        p2 = np.array([[4, 5, 6]])
        _, c1 = m.prefill(p1, 8)
        _, c2 = m.prefill(p2, 8)
        merged = merge_caches([c1, c2])
        assert merged[0].k.shape[0] == 2
        assert merged[0].length == 3
        np.testing.assert_array_equal(merged[0].k[0], c1[0].k[0])
        np.testing.assert_array_equal(merged[0].k[1], c2[0].k[0])

    def test_mismatched_lengths_rejected(self):
        m = model()
        _, c1 = m.prefill(np.array([[1, 2, 3]]), 8)
        _, c2 = m.prefill(np.array([[1, 2]]), 8)
        with pytest.raises(ValueError, match="group requests by length"):
            merge_caches([c1, c2])

    def test_empty_request_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            merge_caches([])


def decode_stub(mesh, spec):
    """The slice of a decode model the merge reads: mesh, spec, dims."""
    return SimpleNamespace(mesh=mesh, cache_spec=lambda: spec,
                           config=SimpleNamespace(n_kv_heads=4, d_head=2))


@pytest.mark.parametrize("backend", ["loop", "stacked"])
@pytest.mark.parametrize("shape", [(2, 2, 2), (4, 1, 1)])
@pytest.mark.parametrize("spec", ["BMKD", "B_xMKD", "BMK_xD"])
class TestMergeShardedLayouts:
    """The in-layout merge vs the conversion through global arrays."""

    def test_padded_merge_equals_global_merge(self, backend, shape, spec):
        mesh = VirtualMesh(shape, backend=backend)
        c1 = [filled_cache(mesh, spec, seed=1)]
        c2 = [filled_cache(mesh, spec, seed=2)]
        per_request = [c1, c2, c2, c2]
        merged = merge_sharded_caches(per_request, decode_stub(mesh, spec))
        converted = ShardedKVCache(mesh, spec, 16, 8, 4, 2)
        reshard_kv(converted, [caches[0] for caches in per_request])
        assert_same_buffers(merged[0], converted)
        for got, parts in zip(cache_globals(merged[0]),
                              zip(*(cache_globals(c[0])
                                    for c in per_request))):
            assert np.array_equal(got, np.concatenate(parts, axis=0))

    def test_single_request_merge(self, backend, shape, spec):
        mesh = VirtualMesh(shape, backend=backend)
        caches = [filled_cache(mesh, spec, seed=3)]
        merged = merge_sharded_caches([caches], decode_stub(mesh, spec))
        in_layout = backend == "stacked" and spec != "B_xMKD"
        assert (merged[0] is caches[0]) == in_layout
        converted = ShardedKVCache(mesh, spec, 4, 8, 4, 2)
        reshard_kv(converted, caches)
        assert_same_buffers(merged[0], converted)

    @pytest.mark.parametrize("n_requests", [1, 2])
    @pytest.mark.parametrize("same_mesh", [True, False])
    def test_merge_checks_replicas(self, backend, shape, spec, n_requests,
                                   same_mesh):
        mesh = VirtualMesh(shape, backend=backend)
        decode_mesh = mesh if same_mesh else VirtualMesh(shape,
                                                         backend=backend)
        """No merge hands on KV whose replicas disagree: a loop cache's
        are checked as the merge reads them, a stacked cache's as they
        enter it."""
        caches = [filled_cache(mesh, spec, seed=4)]
        if caches[0].spec.replication_factor(mesh.topology) == 1:
            return  # every device holds a distinct shard
        with pytest.raises(ShardingError, match="replicas disagree"):
            reload_with_disagreeing_replica(caches[0], 1)
            merge_sharded_caches([caches] * n_requests,
                                 decode_stub(decode_mesh, spec))


class TestSingleRequestDecode:
    def test_uncopied_merge_decodes_like_a_copy(self):
        """A lone request's prefill caches serve as its decode caches;
        decoding them matches decoding a copied merge bit for bit."""
        cfg = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                               d_head=8, vocab_size=32)
        plan = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)
        model = ShardedTransformer(
            init_weights(cfg, seed=0),
            VirtualMesh((2, 2, 2), backend="stacked"), plan)
        logits, caches = model.prefill(np.array([[3, 1, 4, 1, 5]]), 9)
        copied = model.reshard_cache(caches, model)
        merged = merge_sharded_caches([caches], model)
        assert all(m is c for m, c in zip(merged, caches))
        current = [np.argmax(logits, -1)] * 2
        for _ in range(4):
            steps = [model.decode_step(tok, kv)
                     for tok, kv in zip(current, (merged, copied))]
            assert np.array_equal(steps[0], steps[1])
            current = [np.argmax(s, -1) for s in steps]


class TestTwoPhaseServer:
    def test_matches_direct_batched_generation(self):
        """The paper's pipelined recipe is a pure scheduling change: the
        generated tokens must equal ordinary batched greedy decoding."""
        m = model()
        rng = np.random.default_rng(0)
        prompts = rng.integers(0, CFG.vocab_size, size=(3, 5))
        direct = m.generate(prompts, n_steps=4)

        server = TwoPhaseServer(m, decode_batch=8)
        requests = [Request(i, prompts[i], 4) for i in range(3)]
        completions = server.serve(requests)
        for i, completion in enumerate(completions):
            np.testing.assert_array_equal(completion.tokens, direct[i])
        assert server.prefill_count == 3
        assert server.decode_batches == 1

    def test_mixed_lengths_and_budgets(self):
        m = model()
        requests = [make_request(0, 4, n_new=3), make_request(1, 6, n_new=5),
                    make_request(2, 4, n_new=2)]
        completions = TwoPhaseServer(m, decode_batch=4).serve(requests)
        assert [c.request_id for c in completions] == [0, 1, 2]
        assert [len(c.tokens) for c in completions] == [7, 11, 6]
        assert [c.n_generated for c in completions] == [3, 5, 2]

    def test_completion_matches_solo_generation(self):
        """Sharing a decode batch must not change any request's output."""
        m = model()
        requests = [make_request(i, 5, n_new=4) for i in range(4)]
        batched = TwoPhaseServer(m, decode_batch=4).serve(requests)
        for request, completion in zip(requests, batched):
            solo = m.generate(request.prompt[None, :], 4)[0]
            np.testing.assert_array_equal(completion.tokens, solo)

    def test_generated_property(self):
        m = model()
        completion = TwoPhaseServer(m).serve([make_request(0, 4, 3)])[0]
        assert len(completion.generated) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoPhaseServer(model(), decode_batch=0)

    def test_duplicate_request_ids_rejected(self):
        # Completions are keyed by id: a repeat would hand one request
        # the other's tokens, so it is refused before any prefill runs.
        server = TwoPhaseServer(model(), decode_batch=4)
        requests = [Request(0, np.array([1, 2, 3, 4]), 3),
                    Request(0, np.array([5, 6, 7, 8]), 3)]
        with pytest.raises(ValueError, match="duplicate request id 0"):
            server.serve(requests)
        assert server.prefill_count == 0


class TestSampledGeneration:
    def test_reproducible_sampling(self):
        from repro.model import make_sampler

        prompts = np.array([[1, 2, 3, 4]])
        a = model().generate(prompts, 5, make_sampler(top_k=4),
                             np.random.default_rng(1))
        b = model().generate(prompts, 5, make_sampler(top_k=4),
                             np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)
