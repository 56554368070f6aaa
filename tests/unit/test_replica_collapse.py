"""One copy of a replicated value, eager and captured (``repro.mesh``).

A stacked tensor holds one copy along every mesh axis its spec
replicates, so a captured program computes each replicated value once
and stays bit-identical to eager execution:

* what a program computes once is pinned on the serving benchmark's two
  deployments: Model A (4x4x4, WS-2D/head) decoding at batch 1 runs
  attention on 16 of 64 positions and the vocab einsum on 1; Model B
  (2x2x2, WS-1D/head) runs attention on all 8 and the vocab einsum on 1;
* each block of either deployment issues one input projection
  (Q|K|V|in|gate, the model's Section 3.4 fusion) and two rope calls,
  one on the Q and one on the K columns of its output, against the
  rows of the shared rotation table the forward slices once;
* loop-backend programs are untouched: no optimizer, every instruction
  on the whole mesh;
* every elementwise kernel of either deployment's decode and prefill
  programs (RMSNorm, Swish, the SwiGLU product, RoPE) replays into an
  arena buffer of its own, not a fresh allocation per step;
* decode steps and prefill chunks of both deployments, at batch 1 and
  4, replay eager logits and KV caches bit for bit;
* every stacked tensor of a fault-free forward and capture of either
  deployment holds one copy along each axis its spec replicates;
* the replay ``to_global``/``from_global`` and the view-recipe
  collectives equal the eager conversions and the loop kernels on
  one-copy and widened operands, partial sums included, down to a
  single-column reduction;
* the fused projection's check of the copies it narrows rejects a
  replica claim the arrays do not bear out, bit for bit: ``-0.0`` is not
  a copy of ``0.0``.
"""

import itertools

import numpy as np
import pytest

from repro.layouts import ShardedTransformer
from repro.mesh import ShardedTensor, VirtualMesh, stacked
from repro.mesh import ops as mesh_ops
from repro.mesh.capture import capturing
from repro.mesh.ops import concat_weights, fused_projection
from repro.model import init_weights, tiny_test_config
from repro.partitioning import AttentionLayoutKind, FfnLayoutKind, LayoutPlan
from repro.sharding.spec import ShardingError, parse

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


def capture(model, tokens, caches):
    """``(recorder, program)`` of one captured forward chunk."""
    with capturing(model.mesh, caches) as recorder:
        logits = model.forward(tokens, caches)
    return recorder, recorder.finalize(logits)


def decode_program(name, backend="stacked"):
    """Capture one batch-1 decode step of deployment ``name``."""
    model = deploy(name, backend)
    prompt = np.random.default_rng(1).integers(0, 32, size=(1, 5))
    logits, caches = model.prefill(prompt, 12)
    return capture(model, np.argmax(logits, -1)[:, None], caches)


def prefill_program(name):
    """Capture one batch-1, four-token prefill chunk of deployment
    ``name``."""
    model = deploy(name)
    chunk = np.random.default_rng(1).integers(0, 32, size=(1, 4))
    return capture(model, chunk, model.new_cache(1, 12))


def positions(captured, label):
    """Device-grid positions each ``label`` instruction of a capture
    computes per replay (its output's leading three axes as the program
    holds it)."""
    recorder, program = captured
    return [int(np.prod(np.shape(recorder._values[ins.out])[:3]))
            for ins in program._instrs if ins.label == label]


def attention(captured):
    return positions(captured, "attention")


def rope_rows(captured):
    """Heads each rope call of a capture rotates."""
    recorder, program = captured
    return [recorder._values[ins.out].shape[-2] for ins in program._instrs
            if ins.label in ("rope", "rope_cached")]


def one_projection_and_q_k_ropes_per_block(captured):
    """One rotation-table slice per step, one fused projection per
    block, and one rope call each for its Q and its K, each on one local
    head: the local query head (16 heads over 16 chips on A, 8 over 8 on
    B), then the shared multiquery K head."""
    assert len(positions(captured, "projection")) == 2
    assert [ins.label for ins in captured[1]._instrs].count(
        "rope_tables") == 1
    assert rope_rows(captured) == [1, 1] * 2


class TestWhatCollapses:
    def test_model_a_decode(self):
        captured = decode_program("A")
        assert attention(captured) == [16, 16]
        assert positions(captured, VOCAB) == [1]
        one_projection_and_q_k_ropes_per_block(captured)

    def test_model_b_decode(self):
        captured = decode_program("B")
        assert attention(captured) == [8, 8]
        assert positions(captured, VOCAB) == [1]
        # The head gather and every norm statistic: one copy each.
        assert set(positions(captured, "all_gather")) == {1}
        assert set(positions(captured, "all_reduce")) == {1}
        one_projection_and_q_k_ropes_per_block(captured)

    @pytest.mark.parametrize("name", DEPLOYMENTS)
    @pytest.mark.parametrize("capture", [decode_program, prefill_program])
    def test_elementwise_kernels_own_arena_buffers(self, name, capture):
        """Without its buffer a kernel still replays the right bits, just
        into a fresh allocation every step — so check the buffers."""
        kernels = [ins for ins in capture(name)[1]._instrs if ins.label in
                   ("rmsnorm", "swish", "multiply", "rope_cached")]
        assert {ins.label for ins in kernels} == {
            "rmsnorm", "swish", "multiply", "rope_cached"}
        assert all(ins.buffer is not None for ins in kernels)

    @pytest.mark.parametrize("name", DEPLOYMENTS)
    def test_loop_programs_unchanged(self, name):
        captured = decode_program(name, backend="loop")
        n_devices = int(np.prod(DEPLOYMENTS[name][1]))
        assert not captured[1].optimized
        assert attention(captured) == [n_devices] * 2
        assert positions(captured, VOCAB) == [n_devices]


class TestOneCopy:
    @pytest.mark.parametrize("name", DEPLOYMENTS)
    def test_every_stacked_tensor_holds_one_copy(self, name, monkeypatch):
        """Weight placement, an eager prefill and a captured decode step:
        every stacked tensor built is size 1 on each axis its spec
        replicates (and the mesh size elsewhere)."""
        grids = []
        init = ShardedTensor.__init__

        def recording(self, mesh, spec, global_shape, shards):
            init(self, mesh, spec, global_shape, shards)
            rep = stacked.replicated_axes(self.spec)
            grids.append((str(self.spec), shards.shape[:3], tuple(
                1 if i in rep else n for i, n in enumerate(mesh.shape))))

        monkeypatch.setattr(ShardedTensor, "__init__", recording)
        decode_program(name)
        assert len(grids) > 100
        assert [entry for entry in grids if entry[1] != entry[2]] == []


def caches_equal(a_caches, b_caches):
    return all(a.length == b.length and np.array_equal(a.k, b.k)
               and np.array_equal(a.v, b.v)
               for a, b in zip(a_caches, b_caches))


class TestBitIdentity:
    @pytest.mark.parametrize("name", DEPLOYMENTS)
    @pytest.mark.parametrize("batch", [1, 4])
    def test_decode_steps(self, name, batch):
        model = deploy(name)
        prompt = np.random.default_rng(batch).integers(0, 32,
                                                       size=(batch, 5))
        logits, eager_caches = model.prefill(prompt, 12)
        _, caches = model.prefill(prompt, 12)
        tok = np.argmax(logits, -1)
        eager = model.decode_step(tok, eager_caches)
        captured = capture(model, tok[:, None], caches)
        program = captured[1]
        assert positions(captured, VOCAB) == [1]
        tok = np.argmax(eager, -1)
        for _ in range(4):
            eager = model.decode_step(tok, eager_caches)
            got = program.replay(tok[:, None], caches)[:, -1]
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
        with capturing(model.mesh, caches) as recorder:
            got = model.forward(chunks[0], caches)
        program = recorder.finalize(got)
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
        for operand, fixed in itertools.product((full, first),
                                                (False, True)):
            run = stacked.replay_kernel(mesh.shape,
                                        ("to_global", spec, gshape),
                                        operand, {}, np.empty_like(want),
                                        fixed)
            assert bits_equal(run(operand), want)

    @pytest.mark.parametrize("text", SPECS)
    def test_from_global_collapsed(self, text):
        spec = parse(text)
        mesh = VirtualMesh((2, 2, 2), "stacked")
        gshape = (2, 4, 8, 2)[:len(spec.dims)]
        local = spec.local_shape(gshape, mesh.topology)
        array = np.random.default_rng(1).standard_normal(gshape)
        want = stacked.from_global(mesh, array, spec, local)
        rep = stacked.replicated_axes(spec)
        assert want.shape[:3] == tuple(1 if i in rep else n
                                       for i, n in enumerate(mesh.shape))
        for fixed in (False, True):
            got = stacked.replay_kernel(
                mesh.shape, ("from_global", spec, local), array, {},
                np.empty_like(want), fixed)(array)
            assert bits_equal(got, want)

    @pytest.mark.parametrize("kind, axes, dim_idx, in_rep, local", [
        ("all_reduce", ("x", "y", "z"), None, (), (1, 1)),
        ("all_reduce", ("x",), None, (), (1, 1, 1, 4)),
        ("reduce_scatter", ("y", "z"), 2, (), (2, 1, 32)),
        ("all_gather", ("y", "z"), 2, (), (1, 1, 1)),
        ("all_gather", ("x",), 2, (1, 2), (1, 1, 16)),
    ])
    def test_indexed_collectives_collapsed(self, kind, axes, dim_idx,
                                           in_rep, local):
        """One-copy and widened operands through the view recipes that
        replaced the index tables: the loop kernel's bits at every copy,
        eager and through the replay closure, on 4x4x4 where a sum kept
        once has a single element (the accumulate edge case)."""
        mesh = VirtualMesh((4, 4, 4), "stacked")
        rng = np.random.default_rng(2)
        first = rng.standard_normal(
            tuple(1 if i in in_rep else 4 for i in range(3)) + local)
        first *= 10.0 ** rng.integers(-6, 6, first.shape)
        full = np.ascontiguousarray(
            np.broadcast_to(first, mesh.shape + local))
        groups = list(mesh.groups(axes))
        loop = getattr(mesh_ops, f"_loop_{kind}")
        params = () if kind == "all_reduce" else (dim_idx,)
        want = loop(mesh.map_devices(lambda c: full[c]), *params, groups)
        meta = (kind, axes) + params
        for operand in (full, first):
            got = stacked.collective(mesh.shape, meta)(operand)
            for fixed in (False, True):
                run = stacked.replay_kernel(mesh.shape, meta, operand, {},
                                            np.empty_like(got), fixed)
                assert bits_equal(run(operand), got)
            wide = np.broadcast_to(got, mesh.shape + got.shape[3:])
            for coord in mesh.devices():
                assert bits_equal(np.ascontiguousarray(wide[coord]),
                                  want[coord])


class TestChecker:
    """The fused projection narrows a part replicated along an axis
    another part shards to one copy, checking the other copies."""

    def test_rejects_a_false_replica_claim(self):
        """Multiquery K beside head-sharded Q: K's columns are one copy
        along x only if every copy agrees, bit for bit."""
        mesh = VirtualMesh((2, 2, 2), "stacked")
        rng = np.random.default_rng(3)
        x = ShardedTensor.from_global(mesh, rng.standard_normal((1, 2, 4)),
                                      "BLE")
        wq = ShardedTensor.from_global(
            mesh, rng.standard_normal((4, 2, 3)), "EH_xD")
        wk = ShardedTensor.from_global(
            mesh, rng.standard_normal((4, 1, 3)), "EKD")
        w_cat, _ = concat_weights([wq, wk])
        parts = [("ble,ehd->blhd", wq), ("ble,ekd->blkd", wk)]
        q, k = fused_projection(x, parts, w_cat)
        assert k.shards.shape[:3] == (1, 1, 1)
        np.testing.assert_allclose(k.to_global(), np.einsum(
            "ble,ekd->blkd", x.to_global(), wk.to_global()), rtol=1e-12)
        w_cat = w_cat.copy()
        w_cat[1, 0, 0, :, -1] += 1.0  # copy 1 of a K column differs
        with pytest.raises(ShardingError, match="replicas disagree"):
            fused_projection(x, parts, w_cat)

    def test_negative_zero_is_not_a_replica_of_zero(self):
        arr = np.zeros((2, 1, 1, 1))
        arr[1] = -0.0
        with pytest.raises(ShardingError, match="replicas disagree"):
            stacked.collapse_replicas(parse("D"), arr)
