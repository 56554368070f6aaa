"""Tests for numerical building blocks, RoPE, and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.model.functional import (
    causal_mask,
    masked_softmax,
    rmsnorm,
    softmax,
    softmax_base2,
    swish,
    swish_base2,
)
from repro.model.rope import apply_rope, rope_frequencies
from repro.model.sampling import (
    apply_temperature,
    greedy,
    sample,
    top_k_mask,
    top_k_mask_sorted,
    top_p_mask,
)

RNG = np.random.default_rng(1)

finite_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=2,
                                 max_side=16),
    elements=st.floats(-30, 30))


class TestFunctional:
    @given(finite_arrays)
    def test_softmax_base2_matches_softmax(self, x):
        np.testing.assert_allclose(softmax_base2(x), softmax(x),
                                   rtol=1e-10, atol=1e-12)

    @given(finite_arrays)
    def test_swish_base2_matches_swish(self, x):
        np.testing.assert_allclose(swish_base2(x), swish(x),
                                   rtol=1e-10, atol=1e-12)

    def test_swish_keeps_the_one_expression_bits(self):
        """The in-place kernel, allocating or into ``out=``, gives the bits
        of ``x / (1.0 + exp(-x))`` — overflowing ``exp`` included."""
        rng = np.random.default_rng(7)
        x = rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-8, 4,
                                                                   100_000)
        with np.errstate(over="ignore"):
            expected = x / (1.0 + np.exp(-x))
            buf = np.empty_like(x)
            np.testing.assert_array_equal(swish(x), expected)
            assert swish(x, out=buf) is buf
        np.testing.assert_array_equal(buf, expected)

    @given(finite_arrays)
    def test_softmax_rows_sum_to_one(self, x):
        np.testing.assert_allclose(softmax(x).sum(-1), 1.0)

    def test_softmax_shift_invariance(self):
        x = RNG.normal(size=(4, 8))
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0))

    def test_rmsnorm_unit_rms(self):
        x = RNG.normal(size=(4, 64)) * 7.0
        normed = rmsnorm(x, np.ones(64))
        rms = np.sqrt(np.mean(normed**2, axis=-1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-3)

    def test_causal_mask_shape_and_content(self):
        mask = causal_mask(2, 5, q_offset=3)
        # Query global positions 3 and 4 can see kv positions <= themselves.
        np.testing.assert_array_equal(
            mask, [[True, True, True, True, False],
                   [True, True, True, True, True]])

    def test_masked_softmax_zeroes_disallowed(self):
        scores = RNG.normal(size=(1, 1, 2, 5))
        mask = causal_mask(2, 5, q_offset=0)
        probs = masked_softmax(scores, mask)
        assert probs[0, 0, 0, 1:].sum() == 0.0
        np.testing.assert_allclose(probs.sum(-1), 1.0)


class TestRope:
    def test_frequencies_shape(self):
        freqs = rope_frequencies(8)
        assert freqs.shape == (4,)
        assert freqs[0] == 1.0

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            rope_frequencies(7)

    def test_position_zero_is_identity(self):
        x = RNG.normal(size=(2, 1, 3, 8))
        np.testing.assert_allclose(apply_rope(x, np.array([0])), x)

    def test_preserves_norm(self):
        x = RNG.normal(size=(2, 4, 3, 8))
        rotated = apply_rope(x, np.arange(4))
        np.testing.assert_allclose(
            np.linalg.norm(rotated, axis=-1), np.linalg.norm(x, axis=-1))

    def test_relative_position_property(self):
        """q.k after RoPE depends only on the position *difference*."""
        d = 16
        q = RNG.normal(size=(1, 1, 1, d))
        k = RNG.normal(size=(1, 1, 1, d))

        def dot(pq, pk):
            qr = apply_rope(q, np.array([pq]))
            kr = apply_rope(k, np.array([pk]))
            return float(np.sum(qr * kr))

        np.testing.assert_allclose(dot(5, 3), dot(9, 7), rtol=1e-10)
        np.testing.assert_allclose(dot(12, 2), dot(20, 10), rtol=1e-10)

    def test_batch_positions_broadcast(self):
        x = RNG.normal(size=(2, 4, 1, 8))
        one = apply_rope(x, np.arange(4) + 7)
        # Same positions given per-batch explicitly.
        two = apply_rope(x, np.broadcast_to(np.arange(4) + 7, (2, 4)))
        np.testing.assert_array_equal(one, two)

    def test_matches_pairwise_rotation(self):
        """Each (even, odd) pair turns by +angle:
        ``(x1·cos − x2·sin, x1·sin + x2·cos)``."""
        x = np.random.default_rng(5).normal(size=(2, 5, 3, 8))
        positions = np.array([0, 1, 7, 300, 4095])
        angles = positions[:, None, None] * rope_frequencies(8)
        cos, sin = np.cos(angles), np.sin(angles)
        x1, x2 = x[..., 0::2], x[..., 1::2]
        expected = np.empty_like(x)
        expected[..., 0::2] = x1 * cos - x2 * sin
        expected[..., 1::2] = x1 * sin + x2 * cos
        np.testing.assert_allclose(apply_rope(x, positions), expected,
                                   rtol=0, atol=1e-15)


class TestSampling:
    def test_greedy(self):
        logits = np.array([[0.0, 2.0, 1.0], [3.0, -1.0, 0.0]])
        np.testing.assert_array_equal(greedy(logits), [1, 0])

    def test_temperature_preserves_argmax(self):
        logits = RNG.normal(size=(4, 10))
        np.testing.assert_array_equal(
            greedy(apply_temperature(logits, 0.3)), greedy(logits))
        with pytest.raises(ValueError):
            apply_temperature(logits, 0.0)

    @given(st.integers(1, 20))
    @settings(deadline=None)
    def test_top_k_fast_matches_sorted(self, k):
        logits = np.random.default_rng(k).normal(size=(5, 20))
        np.testing.assert_array_equal(top_k_mask(logits, k),
                                      top_k_mask_sorted(logits, k))

    def test_top_k_keeps_exactly_k(self):
        logits = RNG.permutation(20.0 * np.arange(16))[None, :]
        masked = top_k_mask(logits, 5)
        assert np.isfinite(masked).sum() == 5

    def test_top_p_keeps_argmax_always(self):
        logits = RNG.normal(size=(8, 32))
        masked = top_p_mask(logits, 0.01)
        np.testing.assert_array_equal(greedy(masked), greedy(logits))

    def test_top_p_mass_at_least_p(self):
        logits = RNG.normal(size=(8, 32))
        for p in (0.3, 0.7, 0.95):
            masked = top_p_mask(logits, p)
            kept = softmax(logits) * np.isfinite(masked)
            assert (kept.sum(-1) >= p - 1e-9).all()

    def test_top_p_one_keeps_everything(self):
        logits = RNG.normal(size=(2, 10))
        assert np.isfinite(top_p_mask(logits, 1.0)).all()

    def test_sample_respects_top_k_support(self):
        rng = np.random.default_rng(0)
        logits = RNG.normal(size=(64, 100))
        tokens = sample(logits, rng, top_k=3)
        allowed = np.isfinite(top_k_mask(logits, 3))
        assert all(allowed[i, t] for i, t in enumerate(tokens))

    def test_sample_distribution_roughly_matches(self):
        rng = np.random.default_rng(0)
        logits = np.log(np.array([[0.7, 0.2, 0.1]])).repeat(4000, axis=0)
        tokens = sample(logits, rng)
        freq = np.bincount(tokens, minlength=3) / len(tokens)
        np.testing.assert_allclose(freq, [0.7, 0.2, 0.1], atol=0.03)

    def test_sample_validates(self):
        logits = RNG.normal(size=(2, 10))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample(logits, rng, top_k=0)
        with pytest.raises(ValueError):
            sample(logits, rng, top_p=0.0)
