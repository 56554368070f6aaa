"""Tests for the single-device reference Transformer.

The central invariant: incremental decoding with a KV cache produces the
same logits as one full forward pass over the whole sequence — this is what
makes prefill/decode a valid split of inference (Section 2.2).
"""

import numpy as np
import pytest

from repro.model import (
    AttentionKind,
    FfnKind,
    KVCache,
    ReferenceTransformer,
    attention,
    init_weights,
    make_sampler,
    tiny_test_config,
)


def build(attention_kind=AttentionKind.MULTIQUERY, ffn=FfnKind.SWIGLU,
          parallel=True, seed=0):
    cfg = tiny_test_config(attention=attention_kind, ffn=ffn,
                           parallel_block=parallel)
    return ReferenceTransformer(init_weights(cfg, seed=seed))


class TestKVCache:
    def test_append_and_view(self):
        cache = KVCache.empty(2, 8, 1, 4)
        k = np.ones((2, 3, 1, 4))
        cache.append(k, 2 * k)
        np.testing.assert_array_equal(cache.lengths, [3, 3])
        kv, vv = cache.view()
        assert kv.shape == (2, 3, 1, 4)
        np.testing.assert_array_equal(vv, 2.0)

    def test_overflow_raises(self):
        cache = KVCache.empty(1, 2, 1, 4)
        with pytest.raises(ValueError, match="overflow"):
            cache.append(np.zeros((1, 3, 1, 4)), np.zeros((1, 3, 1, 4)))

    def test_rows_append_at_their_own_lengths(self):
        cache = KVCache.empty(2, 8, 1, 4)
        cache.lengths[:] = [1, 3]
        k = np.arange(16.0).reshape(2, 2, 1, 4)
        cache.append(k, -k)
        np.testing.assert_array_equal(cache.lengths, [3, 5])
        np.testing.assert_array_equal(cache.k[0, 1:3], k[0])
        np.testing.assert_array_equal(cache.k[1, 3:5], k[1])
        np.testing.assert_array_equal(cache.v[1, 3:5], -k[1])
        assert not cache.k[0, 3:].any() and not cache.k[1, :3].any()
        assert cache.view()[0].shape == (2, 5, 1, 4)


class TestPerRowPositions:
    """Rows at different cache lengths share one forward pass."""

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_each_row_gets_its_solo_rope_rotation(self, chunk):
        """Layer 0's keys are the rope-rotated projection of each token:
        a row continuing from its own length in a mixed batch writes the
        keys it writes alone, bit for bit."""
        model = build()
        rng = np.random.default_rng(0)
        vocab = model.config.vocab_size
        prefixes = [rng.integers(0, vocab, size=n) for n in (2, 5, 0)]
        chunk_tokens = rng.integers(0, vocab, size=(3, chunk))
        caches = model.new_cache(3, 12)
        solo_keys = []
        for row, prefix in enumerate(prefixes):
            alone = model.new_cache(1, 12)
            if len(prefix):
                model.forward(prefix[None, :], alone)
            for cache, part in zip(caches, alone):
                cache.k[row], cache.v[row] = part.k[0], part.v[0]
                cache.lengths[row] = part.lengths[0]
            model.forward(chunk_tokens[row:row + 1], alone)
            solo_keys.append(alone[0].k[0])
        model.forward(chunk_tokens, caches)
        for row, prefix in enumerate(prefixes):
            n = len(prefix)
            assert np.array_equal(caches[0].k[row, n:n + chunk],
                                  solo_keys[row][n:n + chunk])


class TestAttention:
    def test_causality(self):
        """Changing a later token never affects an earlier position."""
        rng = np.random.default_rng(0)
        q = rng.normal(size=(1, 4, 2, 8))
        k = rng.normal(size=(1, 4, 1, 8))
        v = rng.normal(size=(1, 4, 1, 8))
        base = attention(q, k, v, q_offset=0)
        k2, v2 = k.copy(), v.copy()
        k2[:, 3], v2[:, 3] = 99.0, 99.0
        pert = attention(q, k2, v2, q_offset=0)
        np.testing.assert_allclose(base[:, :3], pert[:, :3])

    def test_grouped_heads_match_explicit_repeat(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(2, 3, 4, 8))
        k = rng.normal(size=(2, 3, 1, 8))
        v = rng.normal(size=(2, 3, 1, 8))
        grouped = attention(q, k, v, 0)
        expanded = attention(q, np.repeat(k, 4, 2), np.repeat(v, 4, 2), 0)
        np.testing.assert_allclose(grouped, expanded)

    def test_indivisible_heads_rejected(self):
        q = np.zeros((1, 1, 3, 4))
        kv = np.zeros((1, 1, 2, 4))
        with pytest.raises(ValueError, match="divisible"):
            attention(q, kv, kv, 0)

    def test_uniform_values_passthrough(self):
        """If V is constant, output equals that constant (probs sum to 1)."""
        rng = np.random.default_rng(0)
        q = rng.normal(size=(1, 2, 2, 4))
        k = rng.normal(size=(1, 2, 1, 4))
        v = np.full((1, 2, 1, 4), 3.0)
        np.testing.assert_allclose(attention(q, k, v, 0), 3.0)


@pytest.mark.parametrize("attn_kind", list(AttentionKind))
@pytest.mark.parametrize("parallel", [True, False])
class TestDecodeEquivalence:
    def test_incremental_decode_matches_full_forward(self, attn_kind,
                                                     parallel):
        model = build(attn_kind, parallel=parallel)
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, model.config.vocab_size, size=(2, 6))

        full = model.forward(tokens, model.new_cache(2, 6))

        caches = model.new_cache(2, 6)
        model.forward(tokens[:, :3], caches)  # prefill 3 tokens
        for i in range(3, 6):                 # decode the rest one by one
            step_logits = model.forward(tokens[:, i:i + 1], caches)
        np.testing.assert_allclose(step_logits[:, 0], full[:, -1],
                                   rtol=1e-9, atol=1e-12)

    def test_prefill_plus_decode_api(self, attn_kind, parallel):
        model = build(attn_kind, parallel=parallel)
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, model.config.vocab_size, size=(1, 5))
        last, caches = model.prefill(tokens[:, :4], max_len=5)
        step = model.decode_step(tokens[:, 4], caches)
        full = model.forward(tokens, model.new_cache(1, 5))
        np.testing.assert_allclose(last, full[:, 3], rtol=1e-9)
        np.testing.assert_allclose(step, full[:, 4], rtol=1e-9)


class TestGenerate:
    def test_greedy_generation_deterministic(self):
        model = build()
        prompt = np.array([[1, 2, 3]])
        out1 = model.generate(prompt, n_steps=4)
        out2 = model.generate(prompt, n_steps=4)
        assert out1.shape == (1, 7)
        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_array_equal(out1[:, :3], prompt)

    def test_sampled_generation_reproducible_with_seed(self):
        model = build()
        prompt = np.array([[5, 6]])
        sampler = make_sampler(temperature=1.0, top_k=8)
        a = model.generate(prompt, 5, sampler, np.random.default_rng(7))
        b = model.generate(prompt, 5, sampler, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_generation_matches_manual_loop(self):
        model = build()
        prompt = np.array([[1, 2, 3, 4]])
        generated = model.generate(prompt, n_steps=3)

        logits, caches = model.prefill(prompt, max_len=7)
        t1 = np.argmax(logits, -1)
        t2 = np.argmax(model.decode_step(t1, caches), -1)
        t3 = np.argmax(model.decode_step(t2, caches), -1)
        np.testing.assert_array_equal(generated[0, 4:], [t1[0], t2[0], t3[0]])

    def test_serial_and_parallel_blocks_differ(self):
        # Sanity: the two formulations are different functions.
        par = build(parallel=True)
        ser = build(parallel=False)
        tokens = np.array([[1, 2, 3]])
        a = par.forward(tokens, par.new_cache(1, 3))
        b = ser.forward(tokens, ser.new_cache(1, 3))
        assert not np.allclose(a, b)

    def test_weight_count_matches_config(self):
        for attn in AttentionKind:
            for ffn in FfnKind:
                cfg = tiny_test_config(attention=attn, ffn=ffn)
                weights = init_weights(cfg)
                assert weights.n_params == cfg.n_params
