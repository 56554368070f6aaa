"""Capture-and-replay decode programs (``repro.mesh.capture``).

The contract under test: a :class:`CapturedProgram` traced from one eager
decode step (the one-token forward chunk, :func:`capture_chunk`) replays
later steps **bit-identically** on both mesh backends,
on any mesh of the same shape with the same weights, invalidates on any
shape/plan/weights/batch-shape change, falls back to eager
execution whenever a scheduled fault is live, and emits one condensed
``kind="replay"`` span per step.
"""

import dataclasses

import numpy as np
import pytest

from repro.cli import decode_config
from repro.layouts import ShardedTransformer
from repro.mesh import (
    BACKENDS,
    ShardedTensor,
    VirtualMesh,
    all_gather,
    sharded_einsum,
)
from repro.mesh.capture import (
    CaptureError,
    StepCompiler,
    capture_chunk,
    capturing,
)
from repro.mesh.faults import (
    ChipKill,
    CollectiveFault,
    CollectiveTimeout,
    FaultPlan,
)
from repro.model import init_weights, tiny_test_config
from repro.partitioning import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)

CFG = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                       d_head=8, vocab_size=32)
WEIGHTS = init_weights(CFG, seed=0)
PROMPT = np.random.default_rng(5).integers(0, CFG.vocab_size, size=(8, 4))

WG_BATCH = LayoutPlan(FfnLayoutKind.WG_XY, AttentionLayoutKind.BATCH)
WS2D_BATCH = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.BATCH)
WS2D_HEAD = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)
PLANS = [WG_BATCH, WS2D_BATCH, WS2D_HEAD]


def build(backend="stacked", plan=WG_BATCH, mesh_shape=(2, 2, 2),
          steps=6):
    """A fresh (model, caches, next-token) triple after an eager prefill."""
    mesh = VirtualMesh(mesh_shape, backend=backend)
    model = ShardedTransformer(WEIGHTS, mesh, plan)
    logits, caches = model.prefill(PROMPT, PROMPT.shape[1] + steps)
    return model, caches, np.argmax(logits, -1)


def plan_id(plan):
    return f"{plan.ffn.value}/{plan.attention.value}"


def capture_step(model, tok, caches):
    """One eager decode step, captured as the ``[B, 1]`` forward chunk:
    ``(logits [B, V], program)``."""
    logits, program = capture_chunk(model, tok[:, None], caches)
    return logits[:, -1], program


def replay_step(program, tok, caches):
    """Replay a decode program on ``[B]`` tokens; ``[B, V]`` logits."""
    return program.replay(tok[:, None], caches)[:, -1]


def valid(program, model, tok, caches):
    return program.mismatch(model, tok[:, None], caches) is None


class TestDifferentialReplay:
    """Replay must be bit-identical to eager, step after step."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("plan", PLANS, ids=plan_id)
    def test_replay_bit_identical_multi_step(self, backend, plan):
        eager_model, eager_caches, eager_tok = build(backend, plan)
        replay_model, replay_caches, replay_tok = build(backend, plan)

        eager = eager_model.decode_step(eager_tok, eager_caches)
        captured, program = capture_step(replay_model, replay_tok,
                                         replay_caches)
        assert program is not None
        # The capture step itself ran eagerly and matches its twin.
        assert np.array_equal(captured, eager)

        tok = np.argmax(eager, -1)
        for _ in range(3):
            eager = eager_model.decode_step(tok, eager_caches)
            assert valid(program, replay_model, tok, replay_caches)
            replayed = replay_step(program, tok, replay_caches)
            assert replayed.dtype == eager.dtype
            assert np.array_equal(eager, replayed)
            tok = np.argmax(eager, -1)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mesh_shape", [(1, 1, 1), (1, 1, 2)])
    def test_small_meshes(self, backend, mesh_shape):
        eager_model, eager_caches, tok = build(backend,
                                               mesh_shape=mesh_shape)
        replay_model, replay_caches, _ = build(backend,
                                               mesh_shape=mesh_shape)
        eager_model.decode_step(tok, eager_caches)
        _, program = capture_step(replay_model, tok, replay_caches)
        assert program is not None
        tok = np.argmax(PROMPT[:, :1], -1)  # any valid token batch
        eager = eager_model.decode_step(tok, eager_caches)
        replayed = replay_step(program, tok, replay_caches)
        assert np.array_equal(eager, replayed)

    def test_weight_gathers_constant_folded(self):
        """WG_XY re-gathers weights each step; folding hoists them out."""
        model, caches, tok = build("stacked", WG_BATCH)
        _, program = capture_step(model, tok, caches)
        assert program.collectives_folded > 0
        assert program.collectives_live < program.collectives_captured
        assert program.n_instructions > 0

    def test_most_weight_gathers_folded_on_4x4x4(self):
        """On the paper's 64-chip torus the 16-layer WG_XY decode step
        folds more collectives than it leaves live in the replay."""
        config = decode_config()
        model = ShardedTransformer(init_weights(config, seed=0),
                                   VirtualMesh((4, 4, 4), backend="stacked"),
                                   WG_BATCH)
        prompt = np.random.default_rng(1).integers(
            0, config.vocab_size, size=(16, 4))
        logits, caches = model.prefill(prompt, 6)
        _, program = capture_step(model, np.argmax(logits, -1), caches)
        assert program.collectives_folded > program.collectives_live > 0

    def test_replay_output_not_arena_backed(self):
        """Logits survive the next replay (output is freshly allocated)."""
        model, caches, tok = build()
        _, program = capture_step(model, tok, caches)
        first = replay_step(program, tok, caches)
        snapshot = first.copy()
        replay_step(program, tok, caches)
        assert np.array_equal(first, snapshot)


class TestInvalidation:
    def test_matches_same_deployment(self):
        model, caches, tok = build()
        _, program = capture_step(model, tok, caches)
        assert valid(program, model, tok, caches)

    def test_batch_shape_change_invalidates(self):
        model, caches, tok = build()
        _, program = capture_step(model, tok, caches)
        assert not valid(program, model, tok[:4], caches)
        assert not valid(program, model, tok.astype(np.int32), caches)

    def test_plan_change_invalidates(self):
        model, caches, tok = build(plan=WG_BATCH)
        _, program = capture_step(model, tok, caches)
        switched = model.with_plan(WS2D_BATCH)  # same mesh, new layouts
        assert not valid(program, switched, tok, caches)

    def test_structural_mesh_rule(self):
        """Validity is structural: a fresh mesh of the same shape with
        the same weights replays; another shape, another weights object,
        a dead chip, or caches on another mesh do not."""
        model, caches, tok = build()
        _, program = capture_step(model, tok, caches)
        other_model, other_caches, other_tok = build()
        assert other_model.mesh is not model.mesh
        assert valid(program, other_model, other_tok, other_caches)
        tok, other_tok = tok[:, None], other_tok[:, None]
        # Caches living on a different mesh invalidate, even when the
        # owning model matches.
        assert program.mismatch(model, tok, other_caches) == "caches"
        assert program.mismatch(other_model, other_tok, caches) == "caches"
        small, small_caches, small_tok = build(mesh_shape=(1, 2, 2))
        assert program.mismatch(small, small_tok[:, None],
                                small_caches) == "mesh"
        # Weights compare by identity: equal values in another object
        # (or different values) never match.
        for weights in (dataclasses.replace(WEIGHTS),
                        init_weights(CFG, seed=1)):
            twin = ShardedTransformer(weights, other_model.mesh,
                                      other_model.plan)
            assert program.mismatch(twin, other_tok,
                                    other_caches) == "weights"
        other_model.mesh.install_faults(FaultPlan((ChipKill((0, 1, 0)),)))
        assert program.mismatch(other_model, other_tok,
                                other_caches) == "degraded"

    def test_cache_fill_level_is_free(self):
        """max_len and fill level are not part of the signature."""
        model, caches, tok = build()
        _, program = capture_step(model, tok, caches)
        before = caches[0].length
        replay_step(program, tok, caches)
        assert caches[0].length == before + 1
        assert valid(program, model, tok, caches)


class TestStepCompiler:
    def test_redeploy_replays_same_shape_recaptures_changed(self):
        model, caches, tok = build()
        compiler = StepCompiler()
        for _ in range(2):
            tok = np.argmax(compiler.decode_step(model, tok, caches), -1)
        assert compiler.captures == 1 and compiler.replays == 1
        # A redeploy hands the compiler a brand-new mesh + model + caches
        # of the same shape, plan and weights: the program replays there.
        model2, caches2, tok2 = build()
        eager_model, eager_caches, _ = build()
        for _ in range(2):
            eager = eager_model.decode_step(tok2, eager_caches)
            assert np.array_equal(
                compiler.decode_step(model2, tok2, caches2), eager)
            tok2 = np.argmax(eager, -1)
        assert compiler.captures == 1 and compiler.replays == 3
        for a, b in zip(eager_caches, caches2):
            for x, y in zip(a.as_sharded(), b.as_sharded()):
                assert np.array_equal(x.to_global(), y.to_global())
        # A changed shape, plan or weights object is another key: a miss
        # and a fresh capture on the new deployment, never a replay.
        changed = [build(mesh_shape=(1, 2, 2)), build(plan=WS2D_BATCH)]
        other = ShardedTransformer(init_weights(CFG, seed=1),
                                   VirtualMesh((2, 2, 2)), WG_BATCH)
        logits, other_caches = other.prefill(PROMPT, PROMPT.shape[1] + 6)
        changed.append((other, other_caches, np.argmax(logits, -1)))
        for n, (model3, caches3, tok3) in enumerate(changed, start=2):
            replays = compiler.replays
            compiler.decode_step(model3, tok3, caches3)
            assert compiler.captures == n and compiler.replays == replays
        assert compiler.invalidations == 0

    def test_live_fault_forces_eager_then_replay_resumes(self):
        """A scheduled fault fires exactly as it would eagerly."""
        model, caches, tok = build()
        state = model.mesh.install_faults(FaultPlan((
            CollectiveFault(kind="timeout", at_step=3, phase="decode"),)))
        compiler = StepCompiler()

        state.advance("decode")
        logits = compiler.decode_step(model, tok, caches)   # capture
        assert compiler.captures == 1
        state.advance("decode")
        tok = np.argmax(logits, -1)
        compiler.decode_step(model, tok, caches)            # replay
        assert compiler.replays == 1

        state.advance("decode")
        assert not state.quiescent()
        fill_before = caches[0].length
        with pytest.raises(CollectiveTimeout):
            compiler.decode_step(model, tok, caches)
        assert compiler.replays == 1  # the faulted step never replayed
        # The timeout fired on the step's first collective, before any
        # cache write, so the program can resume on the same caches.
        assert caches[0].length == fill_before

        state.advance("decode")
        assert state.quiescent()  # the one-shot fault is spent
        compiler.decode_step(model, tok, caches)
        assert compiler.replays == 2

    def test_replay_advances_fault_op_counter(self):
        model, caches, tok = build()
        state = model.mesh.install_faults(FaultPlan(()))
        _, program = capture_step(model, tok, caches)
        before = state.op_counter
        replay_step(program, tok, caches)
        assert state.op_counter == before + program.collectives_captured


def shards_equal(mesh, a, b):
    if a.dtype == object or b.dtype == object:
        return all(np.array_equal(a[c], b[c]) for c in mesh.devices())
    return np.array_equal(a, b)


class TestTapeApi:
    """The generic ``capturing()`` tape on a gather-then-einsum program."""

    @staticmethod
    def _gather_einsum(x, w):
        return sharded_einsum("ble,ef->blf", all_gather(x, ("y",), "E"), w)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gather_einsum_captures_and_replays(self, backend):
        """A program whose output is a stacked einsum replays: the
        output has no arena buffer, so its einsum runs without ``out``."""
        mesh = VirtualMesh((1, 4, 1), backend=backend)
        rng = np.random.default_rng(3)
        w = ShardedTensor.from_global(mesh, rng.normal(size=(16, 24)),
                                      "EF")
        x = ShardedTensor.from_global(mesh, rng.normal(size=(4, 2, 16)),
                                      "BLE_y")
        with capturing(mesh) as recorder:
            # Mark the activation as step-varying: it enters through the
            # replay context, so the gather below cannot fold away.
            recorder.record(lambda ctx: ctx.tokens, (recorder.CTX,),
                            x.shards, "input")
            out = self._gather_einsum(x, w)
            assert recorder.collectives == 1
            program = recorder.finalize(out.shards)
        assert program is not None
        assert program.collectives_live == 1

        x2 = ShardedTensor.from_global(mesh, rng.normal(size=(4, 2, 16)),
                                       "BLE_y")
        expected = self._gather_einsum(x2, w)
        replayed = program.replay(tokens=x2.shards)
        assert shards_equal(mesh, replayed, expected.shards)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_constant_gather_einsum_folds_to_nothing(self, backend):
        """With no live inputs the gather and einsum fold; there is
        nothing to replay and ``finalize`` says so by returning
        ``None``."""
        mesh = VirtualMesh((1, 4, 1), backend=backend)
        rng = np.random.default_rng(3)
        x = ShardedTensor.from_global(mesh, rng.normal(size=(4, 2, 16)),
                                      "BLE_y")
        w = ShardedTensor.from_global(mesh, rng.normal(size=(16, 24)),
                                      "EF")
        with capturing(mesh) as recorder:
            out = self._gather_einsum(x, w)
            assert recorder.collectives == 1
            program = recorder.finalize(out.shards)
        assert program is None

    def test_collective_output_survives_the_next_replay(self):
        """A stacked program ending in a collective still hands each
        replay a fresh output, not the optimizer's reused buffer."""
        mesh = VirtualMesh((1, 4, 1), backend="stacked")
        rng = np.random.default_rng(4)
        x = ShardedTensor.from_global(mesh, rng.normal(size=(4, 16)),
                                      "BE_y")
        with capturing(mesh) as recorder:
            recorder.record(lambda ctx: ctx.tokens, (recorder.CTX,),
                            x.shards, "input")
            program = recorder.finalize(all_gather(x, ("y",), "E").shards)
        assert program.optimized
        first = program.replay(tokens=x.shards)
        snapshot = first.copy()
        program.replay(tokens=2 * x.shards)
        assert np.array_equal(first, snapshot)

    def test_nested_capture_rejected(self):
        mesh = VirtualMesh((1, 2, 1))
        with capturing(mesh):
            with pytest.raises(CaptureError, match="already active"):
                with capturing(mesh):
                    pass
        assert getattr(mesh, "capture", None) is None


class TestReplaySpan:
    def test_replay_emits_one_condensed_span(self):
        model, caches, tok = build()
        _, program = capture_step(model, tok, caches)
        tracer = model.mesh.install_tracer()
        replay_step(program, tok, caches)
        replay_spans = [s for s in tracer.spans if s.kind == "replay"]
        assert len(replay_spans) == 1
        span = replay_spans[0]
        assert span.phase == "decode"
        assert span.attrs["instructions"] == program.n_instructions
        assert span.attrs["collectives"] == program.collectives_live
        assert span.attrs["collectives_folded"] == \
            program.collectives_folded
        # Condensed means condensed: no per-op collective spans leaked.
        assert not [s for s in tracer.spans if s.kind == "collective"]

