"""One attention kernel (``repro.model.reference.attention``).

The reference model, both mesh backends, every captured replay and the
slot engine call the same grouped-query function, so:

* for multiquery, multihead and grouped-query configs, on both backends,
  the sharded model's attention outputs equal the kernel's on the
  gathered global Q/K/V (what the reference model runs), and a captured
  replay's equal the eager step's, bit for bit — decode steps and
  prefill chunks;
* the grouped kernel stays within 1e-15 of an explicit
  broadcast-to-multihead formulation (the oracle is checked against a
  second formulation);
* a batch whose rows have different causal offsets gives each row the
  bits it gets alone (the slot engine's use).
"""

import numpy as np
import pytest

from repro.layouts import ShardedTransformer, helpers
from repro.layouts import model as layouts_model
from repro.mesh import VirtualMesh
from repro.mesh.capture import capture_chunk
from repro.model import init_weights, tiny_test_config
from repro.model.config import AttentionKind
from repro.model.functional import causal_mask, masked_softmax
from repro.model.reference import attention
from repro.partitioning import AttentionLayoutKind, FfnLayoutKind, LayoutPlan

HEAD = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)
BATCH = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.BATCH)
CFG = dict(n_layers=2, d_model=16, d_ff=32, n_heads=8, d_head=8,
           vocab_size=32)
# (config, plan): 2x2x2 head-sharded attention puts H/4 query heads on a
# device, batch-sharded attention all 8, so "gqa" runs 8 query heads
# over 2 KV heads per device.
CASES = {
    "mq-head": (tiny_test_config(**CFG), HEAD),
    "mq-batch": (tiny_test_config(**CFG), BATCH),
    "mha-head": (tiny_test_config(attention=AttentionKind.MULTIHEAD, **CFG),
                 HEAD),
    "gqa-batch": (tiny_test_config(**CFG).replace(kv_heads=2), BATCH),
    "gqa-head": (tiny_test_config(**CFG).replace(kv_heads=4), HEAD),
}


def bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


def spy_kernel(monkeypatch):
    """Record a copy of every output of the kernel as the layouts call
    it (eager and replayed)."""
    outs = []

    def spy(q, k, v, q_offset, scratch=None):
        out = attention(q, k, v, q_offset, scratch)
        outs.append(np.array(out))
        return out

    monkeypatch.setattr(helpers, "attention", spy)
    return outs


def spy_layer(monkeypatch):
    """Record ``(global Q, global output)`` per sharded attention."""
    calls = []
    real = layouts_model.local_attention

    def spy(mesh, out_spec, out_shape, q, k_shards, v_shards):
        out = real(mesh, out_spec, out_shape, q, k_shards, v_shards)
        calls.append((q.to_global(), out.to_global()))
        return out

    monkeypatch.setattr(layouts_model, "local_attention", spy)
    return calls


@pytest.mark.parametrize("chunk", [1, 2], ids=["decode", "prefill"])
@pytest.mark.parametrize("backend", ["loop", "stacked"])
@pytest.mark.parametrize("case", CASES)
def test_every_path_gives_the_kernel_bits(case, backend, chunk,
                                          monkeypatch):
    config, plan = CASES[case]
    model = ShardedTransformer(init_weights(config, seed=0),
                               VirtualMesh((2, 2, 2), backend), plan)
    rng = np.random.default_rng(3)
    prompt = rng.integers(0, 32, size=(8, 3))
    first, second = rng.integers(0, 32, size=(2, 8, chunk))
    _, eager_caches = model.prefill(prompt, 12)
    _, caches = model.prefill(prompt, 12)

    # Eager sharded model vs the kernel on gathered global operands.
    calls = spy_layer(monkeypatch)
    model.forward(first, eager_caches)
    assert len(calls) == config.n_layers
    # The chunk's queries follow the 3-token prompt.
    for (q, out), cache in zip(calls, eager_caches):
        k, v = (t.to_global() for t in cache.as_sharded())
        assert k.shape[1] == 3 + chunk
        assert bits_equal(out, attention(q, k, v, 3))

    # Captured replay vs the eager step it replays.
    _, program = capture_chunk(model, first, caches)
    assert program is not None
    eager = spy_kernel(monkeypatch)
    want = model.forward(second, eager_caches)
    replayed = spy_kernel(monkeypatch)
    got = program.replay(second, caches)
    assert bits_equal(got, want)
    assert len(replayed) == len(eager) > 0
    for r, e in zip(replayed, eager):
        # A replica-collapsed program computes replicated positions once.
        assert bits_equal(np.ascontiguousarray(np.broadcast_to(r, e.shape)),
                          e)


def broadcast_multihead(q, k, v, q_offset):
    """The grouped attention written out: each shared KV head copied to
    its query heads, then plain multihead attention."""
    group = q.shape[2] // k.shape[2]
    k = np.repeat(k, group, axis=2)
    v = np.repeat(v, group, axis=2)
    scores = np.einsum("blhd,bmhd->bhlm", q, k) / np.sqrt(q.shape[-1])
    probs = masked_softmax(scores,
                           causal_mask(q.shape[1], k.shape[1], q_offset))
    return np.einsum("bhlm,bmhd->blhd", probs, v)


@pytest.mark.parametrize("kv", [2, 4])
@pytest.mark.parametrize("l, m", [(1, 1), (1, 9), (4, 4), (4, 11)])
def test_grouped_query_matches_broadcast_multihead(kv, l, m):
    rng = np.random.default_rng(kv * 100 + l * 10 + m)
    q = rng.standard_normal((3, l, 8, 8))
    k, v = rng.standard_normal((2, 3, m, kv, 8))
    np.testing.assert_allclose(attention(q, k, v, m - l),
                               broadcast_multihead(q, k, v, m - l),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("kv", [1, 2, 8])
@pytest.mark.parametrize("l", [1, 3])
def test_per_row_offsets_match_rows_alone(kv, l):
    """Rows at different positions in one batch, as the slot engine runs
    them: each row gets exactly its bits at batch 1, same KV length."""
    rng = np.random.default_rng(kv + l)
    m = 9
    offsets = np.array([m - l, 0, 4, m - l - 2])
    q = rng.standard_normal((4, l, 8, 8))
    k, v = rng.standard_normal((2, 4, m, kv, 8))
    batch = attention(q, k, v, offsets)
    reused = attention(q, k, v, offsets, {})
    for row, offset in enumerate(offsets):
        alone = attention(q[row:row + 1], k[row:row + 1], v[row:row + 1],
                          int(offset))
        assert bits_equal(batch[row:row + 1], alone)
        assert bits_equal(reused[row:row + 1], alone)
