"""Replica-collapsed captured programs (``repro.mesh.replay_opt``).

A stacked-backend program computes a value replicated along a mesh axis
once along it, and stays bit-identical to eager execution:

* what collapses is pinned on the serving benchmark's two deployments:
  Model A (4x4x4, WS-2D/head) decoding at batch 1 runs attention on 16
  of 64 positions and the vocab einsum on 1; Model B (2x2x2,
  WS-1D/head) runs attention on all 8 and the vocab einsum on 1;
* each block of either deployment issues one input projection
  (Q|K|V|in|gate, the model's Section 3.4 fusion) and one rope call,
  on the Q|K slab of its output;
* loop-backend programs are untouched: no optimizer, every instruction
  on the whole mesh;
* decode steps and prefill chunks of both deployments, at batch 1 and
  4, replay eager logits and KV caches bit for bit;
* the prebound ``to_global``/``from_global`` and the indexed collectives
  equal the generic kernels on full and collapsed operands, partial sums
  included, down to a single-column reduction;
* the replication checker (:mod:`tests.unit.replica_check`, also run by
  every capture here) rejects a replica claim the arrays do not bear
  out.
"""

import numpy as np
import pytest

from repro.layouts import ShardedTransformer
from repro.mesh import VirtualMesh, stacked
from repro.mesh.capture import capture_decode_step, capture_prefill_chunk
from repro.model import init_weights, tiny_test_config
from repro.partitioning import AttentionLayoutKind, FfnLayoutKind, LayoutPlan
from repro.sharding.spec import parse
from tests.unit.replica_check import (  # noqa: F401
    collapsed_replicas_are_real,
    replica_mismatches,
)

# The serving benchmark's models and the plans its deployments pick.
MODEL_A = tiny_test_config(n_layers=2, d_model=64, d_ff=128, n_heads=16,
                           d_head=4, vocab_size=32)
MODEL_B = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                           d_head=8, vocab_size=32)
DEPLOYMENTS = {
    "A": (MODEL_A, (4, 4, 4),
          LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)),
    "B": (MODEL_B, (2, 2, 2),
          LayoutPlan(FfnLayoutKind.WS_1D, AttentionLayoutKind.HEAD)),
}
WEIGHTS = {name: init_weights(cfg, seed=0)
           for name, (cfg, _, _) in DEPLOYMENTS.items()}
VOCAB = "einsum:ble,ve->blv"


def deploy(name, backend="stacked"):
    _, shape, plan = DEPLOYMENTS[name]
    return ShardedTransformer(WEIGHTS[name], VirtualMesh(shape, backend),
                              plan)


def decode_program(name, backend="stacked"):
    """Capture one batch-1 decode step of deployment ``name``."""
    model = deploy(name, backend)
    prompt = np.random.default_rng(1).integers(0, 32, size=(1, 5))
    logits, caches = model.prefill(prompt, 12)
    _, program = capture_decode_step(model, np.argmax(logits, -1), caches)
    return program


def positions(captures, label):
    """Device-grid positions each ``label`` instruction of the last
    capture computes per replay (its output's leading three axes as the
    program holds it)."""
    recorder, program = captures[-1]
    return [int(np.prod(np.shape(recorder._values[ins.out])[:3]))
            for ins in program._instrs if ins.label == label]


def attention(captures):
    return positions(captures, "attention") + positions(captures,
                                                        "attention_flat")


def rope_rows(captures):
    """Heads each rope call of the last capture rotates together."""
    recorder, program = captures[-1]
    return [recorder._values[ins.out].shape[-2] for ins in program._instrs
            if ins.label in ("rope", "rope_cached", "rope_inplace")]


def one_projection_and_rope_per_block(captures):
    """One fused projection per block, and one rope call per block on
    its Q|K slab: one local query head (16 heads over 16 chips on A, 8
    over 8 on B) plus the shared multiquery K head."""
    assert len(positions(captures, "projection")) == 2
    assert rope_rows(captures) == [1 + 1] * 2


class TestWhatCollapses:
    def test_model_a_decode(self, collapsed_replicas_are_real):
        decode_program("A")
        assert attention(collapsed_replicas_are_real) == [16, 16]
        assert positions(collapsed_replicas_are_real, VOCAB) == [1]
        one_projection_and_rope_per_block(collapsed_replicas_are_real)

    def test_model_b_decode(self, collapsed_replicas_are_real):
        decode_program("B")
        captures = collapsed_replicas_are_real
        assert attention(captures) == [8, 8]
        assert positions(captures, VOCAB) == [1]
        # The head gather and every norm statistic: one copy each.
        assert set(positions(captures, "all_gather")) == {1}
        assert set(positions(captures, "all_reduce")) == {1}
        one_projection_and_rope_per_block(captures)

    @pytest.mark.parametrize("name", DEPLOYMENTS)
    def test_loop_programs_unchanged(self, name,
                                     collapsed_replicas_are_real):
        program = decode_program(name, backend="loop")
        recorder, _ = collapsed_replicas_are_real[-1]
        n_devices = int(np.prod(DEPLOYMENTS[name][1]))
        assert not program.optimized and not recorder.collapsed
        assert attention(collapsed_replicas_are_real) == [n_devices] * 2
        assert positions(collapsed_replicas_are_real, VOCAB) == [n_devices]


def caches_equal(a_caches, b_caches):
    return all(a.length == b.length and np.array_equal(a.k, b.k)
               and np.array_equal(a.v, b.v)
               for a, b in zip(a_caches, b_caches))


class TestBitIdentity:
    @pytest.mark.parametrize("name", DEPLOYMENTS)
    @pytest.mark.parametrize("batch", [1, 4])
    def test_decode_steps(self, name, batch, collapsed_replicas_are_real):
        model = deploy(name)
        prompt = np.random.default_rng(batch).integers(0, 32,
                                                       size=(batch, 5))
        logits, eager_caches = model.prefill(prompt, 12)
        _, caches = model.prefill(prompt, 12)
        tok = np.argmax(logits, -1)
        eager = model.decode_step(tok, eager_caches)
        _, program = capture_decode_step(model, tok, caches)
        assert collapsed_replicas_are_real[-1][0].collapsed
        tok = np.argmax(eager, -1)
        for _ in range(4):
            eager = model.decode_step(tok, eager_caches)
            got = program.replay(tok, caches)
            assert np.array_equal(got, eager)
            assert caches_equal(eager_caches, caches)
            tok = np.argmax(eager, -1)

    @pytest.mark.parametrize("name", DEPLOYMENTS)
    @pytest.mark.parametrize("batch", [1, 4])
    def test_prefill_chunks(self, name, batch):
        model = deploy(name)
        chunks = np.random.default_rng(batch).integers(
            0, 32, size=(3, batch, 4))
        eager_caches = model.new_cache(batch, 12)
        caches = model.new_cache(batch, 12)
        eager = model.forward(chunks[0], eager_caches)
        got, program = capture_prefill_chunk(model, chunks[0], caches)
        assert np.array_equal(got, eager)
        for chunk in chunks[1:]:
            eager = model.forward(chunk, eager_caches)
            assert np.array_equal(program.replay(chunk, caches), eager)
            assert caches_equal(eager_caches, caches)


def bits_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


SPECS = ["BLV", "BLV_x", "B_zLV_x", "BLE_xyz", "B_yLH_zD"]


def replicated(mesh, spec, local, rng):
    """A stacked array that really is replicated as ``spec`` says."""
    first = rng.standard_normal(
        tuple(1 if i in stacked.replicated_axes(spec) else n
              for i, n in enumerate(mesh.shape)) + local)
    return np.ascontiguousarray(
        np.broadcast_to(first, mesh.shape + local)), first


class TestPrebound:
    @pytest.mark.parametrize("text", SPECS + ["BLV(partialsum-yz)",
                                              "B_xLV(partialsum-z)"])
    def test_to_global_on_full_and_collapsed(self, text):
        spec = parse(text)
        mesh = VirtualMesh((2, 2, 2), "stacked")
        gshape = (2, 4, 8, 2)[:len(spec.dims)]
        local = spec.local_shape(gshape, mesh.topology)
        full, first = replicated(mesh, spec, local,
                                 np.random.default_rng(0))
        want = stacked.to_global(mesh, spec, gshape, full, False)
        for operand in (full, first):
            got = stacked.prebind_to_global(spec, gshape,
                                            operand.shape)(operand)
            assert bits_equal(got, want)

    @pytest.mark.parametrize("text", SPECS)
    def test_from_global_collapsed(self, text):
        spec = parse(text)
        mesh = VirtualMesh((2, 2, 2), "stacked")
        gshape = (2, 4, 8, 2)[:len(spec.dims)]
        local = spec.local_shape(gshape, mesh.topology)
        array = np.random.default_rng(1).standard_normal(gshape)
        want = stacked.from_global(mesh, array, spec, local)
        rep = stacked.replicated_axes(spec)
        lead = tuple(1 if i in rep else n
                     for i, n in enumerate(mesh.shape))
        got = stacked.prebind_from_global(mesh, spec, gshape, local,
                                          array.dtype, lead)(array)
        assert bits_equal(got, want[tuple(slice(0, n) for n in lead)])

    @pytest.mark.parametrize("kind, axes, dim_idx, in_rep, local", [
        ("all_reduce", ("x", "y", "z"), None, (), (1, 1)),
        ("all_reduce", ("x",), None, (), (1, 1, 1, 4)),
        ("reduce_scatter", ("y", "z"), 2, (), (2, 1, 32)),
        ("all_gather", ("y", "z"), 2, (), (1, 1, 1)),
        ("all_gather", ("x",), 2, (1, 2), (1, 1, 16)),
    ])
    def test_indexed_collectives_collapsed(self, kind, axes, dim_idx,
                                           in_rep, local):
        """Collapsed operand and result through the index tables: the
        meta kernel's bits at every kept position, on 4x4x4 where a
        fully collapsed sum has a single column (the ordered-row-sum
        edge case)."""
        mesh = VirtualMesh((4, 4, 4), "stacked")
        rng = np.random.default_rng(2)
        first = rng.standard_normal(
            tuple(1 if i in in_rep else 4 for i in range(3)) + local)
        first *= 10.0 ** rng.integers(-6, 6, first.shape)
        full = np.ascontiguousarray(
            np.broadcast_to(first, mesh.shape + local))
        want = stacked.prebind_collective(mesh, kind, axes, dim_idx)(full)
        out_rep = set(in_rep)
        if kind != "reduce_scatter":
            out_rep |= set(mesh.axis_indices(axes))
        out_lead = tuple(1 if i in out_rep else 4 for i in range(3))
        for operand, lead in ((full, out_lead), (first, out_lead),
                              (first, mesh.shape)):
            run = stacked.prebind_collective_indexed(
                mesh, kind, axes, dim_idx, operand.shape, scratch={},
                out_lead=lead)
            assert bits_equal(run(operand), np.ascontiguousarray(
                want[tuple(slice(0, n) for n in lead)]))


class TestChecker:
    def test_rejects_a_false_replica_claim(self):
        """Claim an axis the array is not replicated on: the checker
        names it."""
        rng = np.random.default_rng(3)
        real = np.broadcast_to(rng.standard_normal((1, 2, 1, 3)),
                               (2, 2, 2, 3))
        assert replica_mismatches({7: (real, frozenset({0, 2}))}) == []
        assert replica_mismatches({7: (real, frozenset({1}))}) == [
            "value 7 differs along device axes [1]"]

    def test_negative_zero_is_not_a_replica_of_zero(self):
        arr = np.zeros((2, 1, 1, 1))
        arr[1] = -0.0
        assert replica_mismatches({1: (arr, frozenset({0}))})
