"""Degraded-mesh replanning: sub-slices, plan re-selection, rebuilds."""

import numpy as np
import pytest

from repro.events import REPLANNED, EventLog
from repro.hardware.topology import Torus3D
from repro.layouts import ShardedTransformer
from repro.mesh import VirtualMesh
from repro.mesh.virtual_mesh import BACKENDS
from repro.model import (
    ReferenceTransformer,
    init_weights,
    tiny_test_config,
)
from repro.partitioning import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
    SubSlice,
    healthy_subslices,
    largest_healthy_subslice,
    plan_batch_group,
    replan_after_failure,
    select_degraded_plan,
)
from repro.partitioning.degraded import build_deployment
from repro.partitioning.selector import Phase

CFG = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                       d_head=8, vocab_size=32)
WEIGHTS = init_weights(CFG, seed=0)


class TestSubSlices:
    def test_single_dead_chip_cuts_slabs(self):
        boxes = healthy_subslices((2, 2, 2), [(0, 1, 0)])
        assert all(not b.contains((0, 1, 0)) for b in boxes)
        best = boxes[0]
        assert best.num_chips == 4  # half the mesh survives

    def test_largest_is_deterministic(self):
        a = largest_healthy_subslice((4, 4, 4), [(1, 2, 0)])
        b = largest_healthy_subslice((4, 4, 4), [(1, 2, 0)])
        assert a == b
        assert a.num_chips == 48  # cut the z=0 layer holding the chip

    def test_corner_chip_keeps_most(self):
        best = largest_healthy_subslice((4, 4, 4), [(0, 0, 0)])
        assert best.num_chips == 48  # cut one layer off one axis

    def test_dead_chip_outside_mesh_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            healthy_subslices((2, 2, 2), [(2, 0, 0)])

    def test_all_dead_gives_nothing(self):
        dead = [(x, y, z) for x in range(2) for y in range(2)
                for z in range(2)]
        with pytest.raises(ValueError, match="no healthy"):
            largest_healthy_subslice((2, 2, 2), dead)

    def test_to_local_translation(self):
        box = SubSlice(origin=(1, 0, 2), shape=(2, 2, 2))
        assert box.to_local((1, 0, 2)) == (0, 0, 0)
        assert box.to_local((2, 1, 3)) == (1, 1, 1)


class TestDegradedPlanSelection:
    def test_plans_validate_on_shrunken_torus(self):
        for shape in [(2, 1, 2), (1, 1, 2), (2, 2, 1), (1, 1, 1)]:
            torus = Torus3D(*shape)
            plan = select_degraded_plan(CFG, torus, Phase.DECODE,
                                        batch=4, tokens_per_seq=1)
            assert 4 % max(plan_batch_group(plan, torus), 1) == 0

    def test_batch_divisibility_is_enforced(self):
        torus = Torus3D(2, 2, 2)
        plan = select_degraded_plan(CFG, torus, Phase.DECODE, batch=4,
                                    tokens_per_seq=1)
        # batch 4 on 8 chips cannot use the 8-way batch-sharded layout.
        assert plan_batch_group(plan, torus) <= 4


GQA_CFG = CFG.replace(kv_heads=2)  # 8 query heads share 2 KV heads


class TestGroupedQueryDeployment:
    """A grouped-query model's 2 KV heads cannot shard over a 4-chip head
    group, and with query heads sharded the executor cannot replicate
    them either.  Every plan a deployment serves must be one the model
    constructor accepts: ``with_plan`` runs the constructor's checks,
    and the degraded selector offers no other plan."""

    @pytest.mark.parametrize("shape", [(1, 2, 2), (2, 2, 1)])
    @pytest.mark.parametrize("decode_batch", [1, 4])
    def test_prefill_matches_reference_or_build_refuses(self, shape,
                                                        decode_batch):
        weights = init_weights(GQA_CFG, seed=0)
        mesh = VirtualMesh(shape)
        try:
            prefill_model, decode_model = build_deployment(
                weights, mesh, decode_batch=decode_batch, prompt_len=8)
        except ValueError as err:
            assert "KV heads cannot shard" in str(err)
            return
        prompt = np.random.default_rng(1).integers(0, 32, size=(1, 8))
        logits, _ = prefill_model.prefill(prompt, 9)
        want, _ = ReferenceTransformer(weights).prefill(prompt, 9)
        np.testing.assert_allclose(logits, want, atol=1e-12)
        for model in (prefill_model, decode_model):
            model.plan.shards_kv_heads(GQA_CFG, mesh.topology)

    def test_with_plan_runs_the_constructors_check(self):
        mesh = VirtualMesh((1, 2, 2))
        model = ShardedTransformer(init_weights(GQA_CFG, seed=0), mesh,
                                   LayoutPlan(FfnLayoutKind.WS_1D,
                                              AttentionLayoutKind.BATCH))
        head = LayoutPlan(FfnLayoutKind.WS_1D, AttentionLayoutKind.HEAD)
        with pytest.raises(ValueError, match="KV heads cannot shard"):
            ShardedTransformer(model.weights, mesh, head)
        with pytest.raises(ValueError, match="KV heads cannot shard"):
            model.with_plan(head)


@pytest.mark.parametrize("backend", BACKENDS)
class TestReplanAfterFailure:
    def test_rebuild_generates_identically(self, backend):
        log = EventLog()
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        deploy = replan_after_failure(WEIGHTS, mesh, [(0, 1, 0)],
                                      decode_batch=4, event_log=log)
        assert deploy.mesh.num_chips < mesh.num_chips
        assert not deploy.subslice.contains((0, 1, 0))
        assert deploy.prefill_model.weights is deploy.decode_model.weights

        rng = np.random.default_rng(3)
        prompts = rng.integers(0, CFG.vocab_size, size=(4, 5))
        want = ReferenceTransformer(WEIGHTS).generate(prompts, 4)
        got = deploy.decode_model.generate(prompts, 4)
        np.testing.assert_array_equal(got, want)

        replans = log.of_kind(REPLANNED)
        assert len(replans) == 1
        assert replans[0]["dead_chips"] == [(0, 1, 0)]
        assert replans[0]["new_shape"] == deploy.subslice.shape

    def test_cache_migration_continues_decode(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        healthy = replan_after_failure(WEIGHTS, mesh, [(1, 1, 1)],
                                       decode_batch=8)
        # Build caches on the full mesh, then move them to the sub-slice.
        from repro.layouts import ShardedTransformer
        from repro.partitioning import AttentionLayoutKind, FfnLayoutKind
        from repro.partitioning.plan import LayoutPlan

        full = ShardedTransformer(
            WEIGHTS, mesh,
            LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.BATCH))
        rng = np.random.default_rng(5)
        prompts = rng.integers(0, CFG.vocab_size, size=(8, 5))
        logits, caches = full.prefill(prompts, max_len=12)
        moved = full.reshard_cache(caches, healthy.decode_model)

        from repro.model.sampling import greedy
        current = greedy(logits)
        want_logits, _ = _reference_next(prompts, current)
        got_logits = healthy.decode_model.decode_step(current, moved)
        np.testing.assert_allclose(got_logits, want_logits, atol=1e-10)

    def test_no_dead_chips_rejected(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        with pytest.raises(ValueError, match="at least one"):
            replan_after_failure(WEIGHTS, mesh, [], decode_batch=4)


def _reference_next(prompts, current):
    """Reference logits for the token after ``prompts + current``."""
    model = ReferenceTransformer(WEIGHTS)
    _, caches = model.prefill(prompts, max_len=12)
    return model.decode_step(current, caches), caches
