"""Two-phase serving on the partitioned model.

Weight-gathered batch prefill feeding a WS-2D decoder through a cache
reshard must generate exactly what the unsharded reference generates,
and the Section 4.4 cache merge rejects what it cannot merge.  The full
serving path (batch-1 prefill, host-mediated cache merge, batch-N decode
on shared weight storage) runs on a one-replica cluster control plane
and must generate exactly what the unsharded reference server
generates.
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterControlPlane,
    ClusterRequestStatus,
    ClusterSubmission,
)
from repro.layouts import ShardedTransformer
from repro.mesh import VirtualMesh
from repro.model import (
    ReferenceTransformer,
    init_weights,
    tiny_test_config,
)
from repro.partitioning import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from repro.serving import Request
from repro.serving.sharded import merge_sharded_caches

CFG = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                       d_head=8, vocab_size=32)
WEIGHTS = init_weights(CFG, seed=0)
PREFILL_PLAN = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)
DECODE_PLAN = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.BATCH)


def make_models():
    """A batch-1 prefill model and a decode model sharing its weights."""
    prefill_model = ShardedTransformer(WEIGHTS, VirtualMesh((2, 2, 2)),
                                       PREFILL_PLAN)
    return prefill_model, prefill_model.with_plan(DECODE_PLAN)


def make_requests(n, length=4, n_new=3):
    rng = np.random.default_rng(9)
    return [Request(i, rng.integers(0, CFG.vocab_size, size=length),
                    n_new) for i in range(n)]


def serve_both(requests, decode_batch=8):
    """Serve on a one-replica plane, and generate each request alone on
    the reference model."""
    plane = ClusterControlPlane(WEIGHTS, [(2, 2, 2)],
                                decode_batch=decode_batch)
    reference = ReferenceTransformer(WEIGHTS)
    outcomes = plane.serve([ClusterSubmission(r) for r in requests])
    assert all(o.status is ClusterRequestStatus.COMPLETED for o in outcomes)
    return (plane.replicas[0], [o.completion for o in outcomes],
            [reference.generate(r.prompt[None, :], r.max_new_tokens)[0]
             for r in requests])


class TestShardedTwoPhase:
    def test_matches_reference_server(self):
        replica, got, want = serve_both(make_requests(8))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.tokens, w)
        # The Section 4.4 deployment: batch-1 head-sharded prefill feeding
        # a batch-sharded multiquery decoder on one weight storage.
        prefill = replica.prefill_model
        decode = replica.decode_model
        assert prefill.plan.attention is AttentionLayoutKind.HEAD
        assert decode.plan.attention is AttentionLayoutKind.BATCH
        assert prefill.weights is decode.weights

    def test_wg_prefill_model(self):
        """Weight-gathered prefill + WS-2D decode, as in Table 2."""
        prefill_model = ShardedTransformer(
            WEIGHTS, VirtualMesh((2, 2, 2)),
            LayoutPlan(FfnLayoutKind.WG_XYZ, AttentionLayoutKind.BATCH))
        decode_model = prefill_model.with_plan(DECODE_PLAN)
        # WG prefill shards batch over all 8 chips, so prefill in one
        # batch-8 group rather than batch-1 (single sequences cannot be
        # batch-sharded); decoding still matches.
        requests = make_requests(8)
        prompts = np.stack([r.prompt for r in requests])
        logits, caches = prefill_model.prefill(prompts, 7)
        caches = prefill_model.reshard_cache(caches, decode_model)
        current = np.argmax(logits, -1)
        outputs = [current[:, None]]
        for _ in range(2):
            current = np.argmax(decode_model.decode_step(current, caches),
                                -1)
            outputs.append(current[:, None])
        generated = np.concatenate(outputs, axis=1)

        reference = ReferenceTransformer(WEIGHTS)
        expected = reference.generate(prompts, 3)[:, 4:]
        np.testing.assert_array_equal(generated, expected)

    def test_mixed_request_budgets(self):
        # The decode batch must divide over the batch-sharding group (the
        # paper's minimum-torus-axis constraint), so serve groups of 8
        # with varying per-request generation budgets.
        base = make_requests(8)
        requests = [Request(r.request_id, r.prompt, 2 + i % 4)
                    for i, r in enumerate(base)]
        _, got, want = serve_both(requests, decode_batch=8)
        for g, w, r in zip(got, want, requests):
            np.testing.assert_array_equal(g.tokens, w)
            assert g.n_generated == r.max_new_tokens


class TestMergeShardedCaches:
    def test_empty_request_list_rejected(self):
        _, decode_model = make_models()
        with pytest.raises(ValueError, match="empty"):
            merge_sharded_caches([], decode_model)

    def test_mismatched_lengths_rejected(self):
        prefill_model, decode_model = make_models()
        _, c1 = prefill_model.prefill(np.array([[1, 2, 3]]), 8)
        _, c2 = prefill_model.prefill(np.array([[1, 2]]), 8)
        with pytest.raises(ValueError, match="group requests by length"):
            merge_sharded_caches([c1, c2], decode_model)

    def test_dtype_comes_from_cache_attribute(self):
        # The merge must not probe shard storage for the dtype (the
        # layout differs between backends); the cache records it.
        prefill_model, decode_model = make_models()
        _, caches = prefill_model.prefill(np.array([[1, 2, 3]]), 8)
        merged = merge_sharded_caches([caches] * 8, decode_model)
        assert merged[0].dtype == caches[0].dtype
        assert merged[0].global_shape[0] == 8
