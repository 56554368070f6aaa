"""One program family: a decode step is a one-token forward chunk.

Paper Section 2 prices decode as a forward pass over one new token
against the KV cache, and :class:`~repro.mesh.capture.StepCompiler` runs
it as exactly that: the ``[B, 1]`` chunk of ``model.forward``.  On both
mesh backends:

* a one-token prefill chunk and a decode step of one deployment share
  one stored program, whichever runs first, and both replay eager
  logits and KV caches bit for bit;
* the first quiet decode step is captured (no eager warm-up step), and
  every later step replays;
* one RoPE table serves the deployment: the first forward builds it
  over the cache's capacity, and every later forward, capture and
  replay slices it.
"""

import numpy as np
import pytest

from repro.layouts import ShardedTransformer
from repro.mesh import BACKENDS, VirtualMesh
from repro.mesh.capture import ReplayContext, StepCompiler
from repro.model import init_weights, rope, tiny_test_config
from repro.partitioning import AttentionLayoutKind, FfnLayoutKind, LayoutPlan

# The serving benchmark's Model B deployment (2x2x2, WS-1D/head), whose
# prefill and decode plans coincide.
CFG = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                       d_head=8, vocab_size=32)
WEIGHTS = init_weights(CFG, seed=0)
PLAN = LayoutPlan(FfnLayoutKind.WS_1D, AttentionLayoutKind.HEAD)
PROMPT = np.random.default_rng(3).integers(0, CFG.vocab_size, size=(1, 4))


def deployment(backend, prefill_steps=8):
    """A model and its caches after an eager prefill of :data:`PROMPT`."""
    model = ShardedTransformer(WEIGHTS, VirtualMesh((2, 2, 2), backend),
                               PLAN)
    logits, caches = model.prefill(PROMPT, PROMPT.shape[1] + prefill_steps)
    return model, caches, np.argmax(logits, -1)


def caches_equal(a_caches, b_caches):
    """Fill level and every K/V bit equal, layer by layer."""
    return all(a.length == b.length and all(
        np.array_equal(x.to_global(), y.to_global())
        for x, y in zip(a.as_sharded(), b.as_sharded()))
        for a, b in zip(a_caches, b_caches))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("decode_first", [False, True],
                         ids=["chunk-first", "decode-first"])
def test_one_token_chunk_and_decode_step_share_a_program(backend,
                                                         decode_first):
    eager, eager_caches, tok = deployment(backend)
    model, caches, _ = deployment(backend)
    compiler = StepCompiler()

    def chunk(tok):
        want = eager.forward(tok[:, None], eager_caches)
        got = compiler.prefill_chunk(model, tok[:, None], caches)
        assert got.shape == (1, 1, CFG.vocab_size)
        assert np.array_equal(got, want)
        return np.argmax(got[:, -1], -1)

    def decode(tok):
        want = eager.decode_step(tok, eager_caches)
        got = compiler.decode_step(model, tok, caches)
        assert np.array_equal(got, want)
        return np.argmax(got, -1)

    steps = [decode, chunk] if decode_first else [chunk, decode]
    for step in steps + steps:
        tok = step(tok)
    assert compiler.captures == 1 and compiler.n_programs == 1
    assert compiler.replays == 3 and compiler.eager_steps == 0
    assert compiler.program.kind == "decode"
    assert caches_equal(eager_caches, caches)


@pytest.mark.parametrize("backend", BACKENDS)
def test_first_quiet_decode_step_captures(backend):
    eager, eager_caches, tok = deployment(backend)
    model, caches, _ = deployment(backend)
    compiler = StepCompiler()
    for step in range(4):
        want = eager.decode_step(tok, eager_caches)
        assert np.array_equal(compiler.decode_step(model, tok, caches), want)
        if step == 0:
            assert (compiler.captures, compiler.replays) == (1, 0)
        tok = np.argmax(want, -1)
    assert compiler.eager_steps == 0
    assert (compiler.captures, compiler.replays) == (1, 3)
    assert (compiler.hits, compiler.misses) == (3, 1)
    assert caches_equal(eager_caches, caches)


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_rope_table_serves_every_forward_and_replay(backend,
                                                        monkeypatch):
    calls = []
    rope_tables = rope.rope_tables

    def counting(*args, **kwargs):
        calls.append(args[0])
        return rope_tables(*args, **kwargs)

    monkeypatch.setattr(rope, "_TABLES", {})
    monkeypatch.setattr(rope, "rope_tables", counting)
    model, caches, tok = deployment(backend)
    # The prefill builds the one table, over the cache's capacity.
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.arange(caches[0].max_len))
    table = rope._TABLES[CFG.d_head, CFG.rope_theta]
    tok = np.argmax(model.decode_step(tok, caches), -1)
    compiler = StepCompiler()
    for _ in range(3):  # a capture, then replays
        tok = np.argmax(compiler.decode_step(model, tok, caches), -1)
    assert (compiler.captures, compiler.replays) == (1, 2)
    assert len(calls) == 1
    assert rope._TABLES == {(CFG.d_head, CFG.rope_theta): table}
    # The replayed table instruction slices rows of that table.
    program, = compiler._programs.values()
    slicer, = (ins.fn for ins in program._instrs
               if ins.label == "rope_tables")
    rows = slicer(ReplayContext(None, caches))
    assert rows.base is table
    assert np.array_equal(rows, table[caches[0].length:][:1])
