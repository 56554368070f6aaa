"""Tests for virtual-mesh infrastructure and failure detection.

Covers the group/rank machinery the collectives are built on, the
sharded KV cache's error paths, and SPMD-divergence detection: a
corrupted shard on one chip must be caught, not silently averaged away.
"""

import numpy as np
import pytest

from repro.layouts import ShardedKVCache, ShardedTransformer
from repro.mesh import ShardedTensor, VirtualMesh
from repro.model import init_weights, tiny_test_config
from repro.partitioning import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from repro.sharding import ShardingError
from tests.unit.grid import widened

RNG = np.random.default_rng(6)


class TestGroups:
    def test_groups_partition_devices(self):
        mesh = VirtualMesh((2, 4, 2))
        for axes in [("x",), ("y",), ("x", "z"), ("x", "y", "z")]:
            seen = set()
            for group in mesh.groups(axes):
                assert len(group) == mesh.group_size(axes)
                for coord in group:
                    assert coord not in seen
                    seen.add(coord)
            assert len(seen) == mesh.num_chips

    def test_group_ordering_is_row_major(self):
        mesh = VirtualMesh((1, 2, 2))
        group = next(mesh.groups(("y", "z")))
        assert group == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
        group_zy = next(mesh.groups(("z", "y")))
        assert group_zy == [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)]

    def test_rank_in_group_consistent_with_groups(self):
        mesh = VirtualMesh((2, 2, 2))
        for axes in [("x",), ("z", "y"), ("x", "y", "z")]:
            for group in mesh.groups(axes):
                for rank, coord in enumerate(group):
                    assert mesh.rank_in_group(coord, axes) == rank

    def test_rank_with_empty_axes_is_zero(self):
        mesh = VirtualMesh((2, 2, 2))
        assert mesh.rank_in_group((1, 1, 1), ()) == 0

    def test_coords_projection(self):
        mesh = VirtualMesh((2, 4, 8))
        assert mesh.coords_on((1, 3, 5), ("z", "x")) == (5, 1)


class TestShardedKVCacheErrors:
    def cache(self):
        mesh = VirtualMesh((2, 2, 2))
        return mesh, ShardedKVCache(mesh, "B_xMKD", batch=4, max_len=4,
                                    n_kv_heads=1, d_head=2)

    def test_bad_dims_rejected(self):
        mesh = VirtualMesh((2, 2, 2))
        with pytest.raises(ShardingError, match="BMKD"):
            ShardedKVCache(mesh, "BLKD", 4, 4, 1, 2)
        with pytest.raises(ShardingError, match="only B and K"):
            ShardedKVCache(mesh, "BM_xKD", 4, 4, 1, 2)

    def test_append_spec_mismatch(self):
        mesh, cache = self.cache()
        wrong = ShardedTensor.from_global(
            mesh, RNG.normal(size=(4, 1, 1, 2)), "B_yLKD")
        with pytest.raises(ShardingError, match="does not match"):
            cache.append(wrong, wrong)

    def test_overflow(self):
        mesh, cache = self.cache()
        new = ShardedTensor.from_global(
            mesh, RNG.normal(size=(4, 3, 1, 2)), "B_xLKD")
        cache.append(new, new)
        with pytest.raises(ShardingError, match="overflow"):
            cache.append(new, new)

    def test_partial_sum_append_rejected(self):
        mesh, cache = self.cache()
        spec = ShardedTensor.from_global(
            mesh, RNG.normal(size=(4, 1, 1, 2)), "B_xLKD").spec
        shards = mesh.map_devices(lambda c: RNG.normal(size=(2, 1, 1, 2)))
        t = ShardedTensor(mesh, spec.with_partial_sum(("y",)),
                          (4, 1, 1, 2), shards)
        with pytest.raises(ShardingError, match="partial sums"):
            cache.append(t, t)


class TestSpmdDivergenceDetection:
    def test_corrupted_replicated_tensor_is_caught(self):
        """A bit-flip in one chip's copy of a *replicated* tensor (the
        embedding) makes the replicated logits disagree; ``to_global``'s
        replica check must refuse to return.  (A flip in a *unique* weight
        shard instead reconverges into a consistent wrong answer — the
        collectives mix it identically into every replica — which is why
        real systems need checksums, not just replica comparison.)"""
        config = tiny_test_config(n_layers=1, d_model=16, d_ff=32,
                                  n_heads=8, d_head=8, vocab_size=32)
        weights = init_weights(config, seed=0)
        mesh = VirtualMesh((2, 2, 2))
        model = ShardedTransformer(
            weights, mesh,
            LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD))
        # Corrupt one chip's copy of the (replicated) embedding table.
        model.embedding = widened(model.embedding)
        model.embedding.shards[1, 0, 0] = \
            model.embedding.shards[1, 0, 0] + 100.0
        prompt = np.zeros((8, 2), dtype=int)
        with pytest.raises(ShardingError, match="replicas disagree"):
            model.prefill(prompt, 4)

    def test_corrupted_unique_shard_reconverges_consistently(self):
        """The counterpart: a unique-shard flip yields consistent (wrong)
        logits — no replica divergence, by SPMD construction."""
        config = tiny_test_config(n_layers=1, d_model=16, d_ff=32,
                                  n_heads=8, d_head=8, vocab_size=32)
        weights = init_weights(config, seed=0)
        mesh = VirtualMesh((2, 2, 2))
        model = ShardedTransformer(
            weights, mesh,
            LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD))
        clean, _ = model.prefill(np.zeros((8, 2), dtype=int), 4)
        model.layers[0]["w_in"].shards[1, 0, 0][0, 0] += 100.0
        corrupted, _ = model.prefill(np.zeros((8, 2), dtype=int), 4)
        assert not np.allclose(clean, corrupted)  # wrong ...
        # ... but it returned without a replica error: consistent.

    def test_corrupted_activation_detected_without_check_skip(self):
        mesh = VirtualMesh((1, 2, 2))
        x = RNG.normal(size=(4, 8))
        t = widened(ShardedTensor.from_global(mesh, x, "BE_y"))
        t.shards[0, 1, 1][:] += 1.0  # one replica along z diverges
        with pytest.raises(ShardingError):
            t.to_global()
        # Escape hatch for intentional per-rank float divergence.
        assert t.to_global(check_replication=False).shape == x.shape
