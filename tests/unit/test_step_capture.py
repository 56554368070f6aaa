"""Capture-and-replay decode programs (``repro.mesh.capture``).

The contract under test: a :class:`CapturedProgram` traced from one eager
decode step replays later steps **bit-identically** on both mesh backends,
invalidates on any mesh/plan/batch-shape change, falls back to eager
execution whenever a scheduled fault is live, and emits one condensed
``kind="replay"`` span per step.  Alongside it, the satellites: the
``backend="auto"`` heuristic, and ``stack_shards``/``unstack_shards``
round-trips (including the no-copy contiguous unstack).
"""

import numpy as np
import pytest

from repro.layouts import ShardedTransformer
from repro.mesh import (
    AUTO_BACKEND_MIN_CHIPS,
    BACKEND_CHOICES,
    BACKENDS,
    ShardedTensor,
    VirtualMesh,
    all_gather,
    resolve_backend,
)
from repro.mesh.capture import (
    CaptureError,
    StepCompiler,
    capture_decode_step,
    capturing,
)
from repro.mesh.faults import CollectiveFault, CollectiveTimeout, FaultPlan
from repro.mesh.looped import all_gather_einsum
from repro.mesh.stacked import stack_shards, unstack_shards
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


class TestDifferentialReplay:
    """Replay must be bit-identical to eager, step after step."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("plan", PLANS, ids=plan_id)
    def test_replay_bit_identical_multi_step(self, backend, plan):
        eager_model, eager_caches, eager_tok = build(backend, plan)
        replay_model, replay_caches, replay_tok = build(backend, plan)

        eager = eager_model.decode_step(eager_tok, eager_caches)
        captured, program = replay_model.capture_decode_step(
            replay_tok, replay_caches)
        assert program is not None
        # The capture step itself ran eagerly and matches its twin.
        assert np.array_equal(captured, eager)

        tok = np.argmax(eager, -1)
        for _ in range(3):
            eager = eager_model.decode_step(tok, eager_caches)
            assert program.matches(replay_model, tok, replay_caches)
            replayed = program.replay(tok, replay_caches)
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
        _, program = replay_model.capture_decode_step(tok, replay_caches)
        assert program is not None
        tok = np.argmax(PROMPT[:, :1], -1)  # any valid token batch
        eager = eager_model.decode_step(tok, eager_caches)
        replayed = program.replay(tok, replay_caches)
        assert np.array_equal(eager, replayed)

    def test_weight_gathers_constant_folded(self):
        """WG_XY re-gathers weights each step; folding hoists them out."""
        model, caches, tok = build("stacked", WG_BATCH)
        _, program = model.capture_decode_step(tok, caches)
        assert program.collectives_folded > 0
        assert program.collectives_live < program.collectives_captured
        assert program.n_instructions > 0

    def test_replay_output_not_arena_backed(self):
        """Logits survive the next replay (output is freshly allocated)."""
        model, caches, tok = build()
        _, program = model.capture_decode_step(tok, caches)
        first = program.replay(tok, caches)
        snapshot = first.copy()
        program.replay(tok, caches)
        assert np.array_equal(first, snapshot)


class TestInvalidation:
    def test_matches_same_deployment(self):
        model, caches, tok = build()
        _, program = model.capture_decode_step(tok, caches)
        assert program.matches(model, tok, caches)

    def test_batch_shape_change_invalidates(self):
        model, caches, tok = build()
        _, program = model.capture_decode_step(tok, caches)
        assert not program.matches(model, tok[:4], caches)
        assert not program.matches(model, tok.astype(np.int32), caches)

    def test_plan_change_invalidates(self):
        model, caches, tok = build(plan=WG_BATCH)
        _, program = model.capture_decode_step(tok, caches)
        switched = model.with_plan(WS2D_BATCH)  # same mesh, new layouts
        assert not program.matches(switched, tok, caches)

    def test_new_mesh_invalidates(self):
        """Replanning/failover build a new VirtualMesh: identity test."""
        model, caches, tok = build()
        _, program = model.capture_decode_step(tok, caches)
        other_model, other_caches, other_tok = build()
        assert not program.matches(other_model, other_tok, other_caches)
        # Caches living on a different mesh also invalidate, even when
        # the owning model matches.
        assert not program.matches(model, tok, other_caches)

    def test_cache_fill_level_is_free(self):
        """max_len and fill level are not part of the signature."""
        model, caches, tok = build()
        _, program = model.capture_decode_step(tok, caches)
        before = caches[0].length
        program.replay(tok, caches)
        assert caches[0].length == before + 1
        assert program.matches(model, tok, caches)


class TestStepCompiler:
    def test_warmup_capture_replay_lifecycle(self):
        eager_model, eager_caches, tok = build()
        model, caches, _ = build()
        compiler = StepCompiler(warmup_steps=1)
        for _ in range(4):
            eager = eager_model.decode_step(tok, eager_caches)
            compiled = compiler.decode_step(model, tok, caches)
            assert np.array_equal(eager, compiled)
            tok = np.argmax(eager, -1)
        assert compiler.eager_steps == 1
        assert compiler.captures == 1
        assert compiler.replays == 2

    def test_redeploy_invalidates_and_recaptures(self):
        model, caches, tok = build()
        compiler = StepCompiler(warmup_steps=1)
        for _ in range(3):
            tok = np.argmax(compiler.decode_step(model, tok, caches), -1)
        assert compiler.captures == 1 and compiler.replays == 1
        # A replan hands the compiler a brand-new mesh + model + caches.
        model2, caches2, tok2 = build()
        compiler.decode_step(model2, tok2, caches2)
        assert compiler.invalidations == 1
        assert compiler.captures == 2  # re-captured on the new deployment
        tok2 = PROMPT[:, -1]
        compiler.decode_step(model2, tok2, caches2)
        assert compiler.replays == 2

    def test_explicit_invalidate(self):
        model, caches, tok = build()
        compiler = StepCompiler(warmup_steps=0)
        compiler.decode_step(model, tok, caches)
        assert compiler.program is not None
        compiler.invalidate()
        assert compiler.program is None
        assert compiler.invalidations == 1

    def test_live_fault_forces_eager_then_replay_resumes(self):
        """A scheduled fault fires exactly as it would eagerly."""
        model, caches, tok = build()
        state = model.mesh.install_faults(FaultPlan((
            CollectiveFault(kind="timeout", at_step=3, phase="decode"),)))
        compiler = StepCompiler(warmup_steps=1)

        state.advance("decode")
        logits = compiler.decode_step(model, tok, caches)   # eager warmup
        state.advance("decode")
        tok = np.argmax(logits, -1)
        compiler.decode_step(model, tok, caches)            # capture
        assert compiler.captures == 1

        state.advance("decode")
        assert not state.quiescent()
        fill_before = caches[0].length
        with pytest.raises(CollectiveTimeout):
            compiler.decode_step(model, tok, caches)
        assert compiler.replays == 0  # the faulted step never replayed
        # The timeout fired on the step's first collective, before any
        # cache write, so the program can resume on the same caches.
        assert caches[0].length == fill_before

        state.advance("decode")
        assert state.quiescent()  # the one-shot fault is spent
        compiler.decode_step(model, tok, caches)
        assert compiler.replays == 1

    def test_replay_advances_fault_op_counter(self):
        model, caches, tok = build()
        state = model.mesh.install_faults(FaultPlan(()))
        _, program = capture_decode_step(model, tok, caches)
        before = state.op_counter
        program.replay(tok, caches)
        assert state.op_counter == before + program.collectives_captured


def shards_equal(mesh, a, b):
    if a.dtype == object or b.dtype == object:
        return all(np.array_equal(a[c], b[c]) for c in mesh.devices())
    return np.array_equal(a, b)


class TestTapeApi:
    """The generic ``capturing()`` tape under the looped envelopes."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_looped_envelope_captures_and_replays(self, backend):
        mesh = VirtualMesh((1, 4, 1), backend=backend)
        rng = np.random.default_rng(3)
        w = ShardedTensor.from_global(mesh, rng.normal(size=(16, 24)),
                                      "EF")
        x = ShardedTensor.from_global(mesh, rng.normal(size=(4, 2, 16)),
                                      "BLE_y")
        with capturing(mesh) as recorder:
            # Mark the activation as step-varying: it enters through the
            # replay context, so the envelope below cannot fold away.
            recorder.record(lambda ctx: ctx.tokens, (recorder.CTX,),
                            x.shards, "input")
            fused, _ = all_gather_einsum("ble,ef->blf", x, w, "y")
            assert recorder.collectives == 1  # one whole-loop envelope
            program = recorder.finalize(fused.shards)
        assert program is not None
        assert program.collectives_live == 1

        x2 = ShardedTensor.from_global(mesh, rng.normal(size=(4, 2, 16)),
                                       "BLE_y")
        expected, _ = all_gather_einsum("ble,ef->blf", x2, w, "y")
        replayed = program.replay(tokens=x2.shards)
        assert shards_equal(mesh, replayed, expected.shards)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_constant_program_folds_to_nothing(self, backend):
        """With no live inputs the envelope folds; there is nothing to
        replay and ``finalize`` says so by returning ``None``."""
        mesh = VirtualMesh((1, 4, 1), backend=backend)
        rng = np.random.default_rng(3)
        x = ShardedTensor.from_global(mesh, rng.normal(size=(4, 2, 16)),
                                      "BLE_y")
        w = ShardedTensor.from_global(mesh, rng.normal(size=(16, 24)),
                                      "EF")
        with capturing(mesh) as recorder:
            fused, _ = all_gather_einsum("ble,ef->blf", x, w, "y")
            assert recorder.collectives == 1
            program = recorder.finalize(fused.shards)
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
        _, program = model.capture_decode_step(tok, caches)
        tracer = model.mesh.install_tracer()
        program.replay(tok, caches)
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


class TestAutoBackend:
    def test_resolve_heuristic(self, monkeypatch):
        monkeypatch.delenv("REPRO_MESH_BACKEND", raising=False)
        assert resolve_backend("auto", 1) == "loop"
        assert resolve_backend("auto", AUTO_BACKEND_MIN_CHIPS - 1) == "loop"
        assert resolve_backend("auto", AUTO_BACKEND_MIN_CHIPS) == "stacked"
        assert resolve_backend("auto", 64) == "stacked"
        # Concrete choices pass through untouched.
        assert resolve_backend("loop", 64) == "loop"
        assert resolve_backend("stacked", 1) == "stacked"

    def test_mesh_resolves_auto_by_size(self, monkeypatch):
        monkeypatch.delenv("REPRO_MESH_BACKEND", raising=False)
        assert VirtualMesh((1, 1, 2), backend="auto").backend == "loop"
        assert VirtualMesh((1, 2, 2), backend="auto").backend == "stacked"
        assert VirtualMesh((2, 2, 2), backend="auto").backend == "stacked"

    def test_env_override_beats_heuristic(self, monkeypatch):
        monkeypatch.setenv("REPRO_MESH_BACKEND", "stacked")
        assert VirtualMesh((1, 1, 1), backend="auto").backend == "stacked"
        monkeypatch.setenv("REPRO_MESH_BACKEND", "loop")
        assert VirtualMesh((4, 4, 4), backend="auto").backend == "loop"

    def test_env_auto_resolves_by_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_MESH_BACKEND", "auto")
        assert VirtualMesh((1, 1, 1)).backend == "loop"
        assert VirtualMesh((2, 2, 2)).backend == "stacked"

    def test_choices_and_validation(self):
        assert "auto" in BACKEND_CHOICES
        assert set(BACKENDS) < set(BACKEND_CHOICES)
        with pytest.raises(ValueError, match="backend"):
            VirtualMesh((1, 1, 1), backend="vectorised")
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("vectorised", 8)


class TestStackUnstackShards:
    """Satellites: the no-copy contiguous unstack and round-trips."""

    def test_contiguous_unstack_is_a_view(self):
        mesh = VirtualMesh((1, 2, 2), backend="stacked")
        dense = np.empty(mesh.shape + (3, 5))
        dense[...] = np.arange(4 * 3 * 5).reshape(dense.shape)
        shards = unstack_shards(mesh, dense)
        for coord in mesh.devices():
            assert shards[coord].base is dense  # view, not a copy
            assert np.array_equal(shards[coord], dense[coord])

    def test_noncontiguous_unstack_copies_correctly(self):
        mesh = VirtualMesh((1, 2, 2), backend="stacked")
        dense = np.arange(4 * 3 * 5, dtype=np.float64).reshape(
            mesh.shape + (3, 5))
        swapped = dense.swapaxes(-1, -2)  # slices are not C-contiguous
        shards = unstack_shards(mesh, swapped)
        for coord in mesh.devices():
            assert shards[coord].flags["C_CONTIGUOUS"]
            assert np.array_equal(shards[coord], swapped[coord])

    def test_round_trip_noncontiguous_shards(self):
        mesh = VirtualMesh((1, 2, 2), backend="loop")
        rng = np.random.default_rng(0)
        shards = mesh.empty_shards()
        for coord in mesh.devices():
            shards[coord] = rng.normal(size=(5, 3)).T  # F-contiguous
        dense = stack_shards(mesh, shards)
        assert dense.shape == mesh.shape + (3, 5)
        back = unstack_shards(mesh, dense)
        for coord in mesh.devices():
            assert np.array_equal(back[coord], shards[coord])

    def test_round_trip_zero_size_shards(self):
        mesh = VirtualMesh((1, 1, 2), backend="loop")
        shards = mesh.empty_shards()
        for coord in mesh.devices():
            shards[coord] = np.zeros((0, 4))
        dense = stack_shards(mesh, shards)
        assert dense.shape == mesh.shape + (0, 4)
        back = unstack_shards(mesh, dense)
        for coord in mesh.devices():
            assert back[coord].shape == (0, 4)

    def test_stack_of_stacked_is_identity(self):
        mesh = VirtualMesh((1, 1, 2), backend="stacked")
        dense = np.ones(mesh.shape + (2, 2))
        assert stack_shards(mesh, dense) is dense
