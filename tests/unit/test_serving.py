"""Tests for the serving layer (requests, completions, KV merges)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.layouts import ShardedTransformer
from repro.layouts.kv_cache import ShardedKVCache, reshard_kv
from repro.mesh import VirtualMesh
from repro.model import ReferenceTransformer, init_weights, tiny_test_config
from repro.partitioning import AttentionLayoutKind, FfnLayoutKind, LayoutPlan
from repro.serving import Completion, Request, merge_sharded_caches
from repro.serving.engine import require_unique_ids
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


class TestCompletion:
    def test_generated_property(self):
        completion = Completion(0, np.array([5, 6, 7, 8, 1, 2, 3]), 3)
        np.testing.assert_array_equal(completion.generated, [1, 2, 3])

    def test_duplicate_request_ids_rejected(self):
        # Completions are keyed by id: a repeat would hand one request
        # the other's tokens, so every engine refuses it up front.
        requests = [Request(0, np.array([1, 2, 3, 4]), 3),
                    Request(0, np.array([5, 6, 7, 8]), 3)]
        with pytest.raises(ValueError, match="duplicate request id 0"):
            require_unique_ids(requests)
        require_unique_ids(requests[:1])


class TestSampledGeneration:
    def test_reproducible_sampling(self):
        from repro.model import make_sampler

        prompts = np.array([[1, 2, 3, 4]])
        a = model().generate(prompts, 5, make_sampler(top_k=4),
                             np.random.default_rng(1))
        b = model().generate(prompts, 5, make_sampler(top_k=4),
                             np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)
