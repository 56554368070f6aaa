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
* an eager forward builds its RoPE tables once, for every layer's query
  and key rotations.
"""

import numpy as np
import pytest

import repro.layouts.model as sharded_model
from repro.layouts import ShardedTransformer
from repro.mesh import BACKENDS, VirtualMesh
from repro.mesh.capture import StepCompiler
from repro.model import init_weights, tiny_test_config
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
def test_eager_forward_builds_rope_tables_once(backend, monkeypatch):
    calls = []
    rope_tables = sharded_model.rope_tables

    def counting(*args, **kwargs):
        calls.append(args[0])
        return rope_tables(*args, **kwargs)

    monkeypatch.setattr(sharded_model, "rope_tables", counting)
    model, caches, tok = deployment(backend)
    assert len(calls) == 1  # the prefill: one forward over 4 tokens
    assert np.array_equal(calls[0], np.arange(PROMPT.shape[1]))
    model.decode_step(tok, caches)
    assert len(calls) == 2
    assert np.array_equal(calls[1], [PROMPT.shape[1]])
