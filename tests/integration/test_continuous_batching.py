"""Continuous batching must be invisible to every individual request.

The correctness bar for slot-based serving: whatever the interleaving of
admissions, retirements, and slot reuse, each request's output equals
generating it alone (greedy).  These tests stress heterogeneous prompt
lengths, budgets, slot starvation, and slot reuse.
"""

import numpy as np
import pytest

from repro.model import (
    AttentionKind,
    ReferenceTransformer,
    init_weights,
    tiny_test_config,
)
from repro.serving import Request
from repro.serving.continuous import ContinuousBatchingEngine

CFG = tiny_test_config()
MODEL = ReferenceTransformer(init_weights(CFG, seed=0))


def make_request(rid, length, budget, seed=None):
    rng = np.random.default_rng(rid if seed is None else seed)
    return Request(rid, rng.integers(0, CFG.vocab_size, size=length),
                   budget)


def solo(request):
    return MODEL.generate(request.prompt[None, :],
                          request.max_new_tokens)[0]


def slot_caches(prompts, max_len):
    """One cache row per prompt, each loaded from its batch-1 prefill as
    the engine admits it; returns the caches and each row's solo
    caches and first greedy token."""
    caches = MODEL.new_cache(len(prompts), max_len)
    solo_caches, tokens = [], []
    for row, prompt in enumerate(prompts):
        logits, prefilled = MODEL.prefill(np.array([prompt]), max_len)
        for cache, part in zip(caches, prefilled):
            cache.k[row], cache.v[row] = part.k[0], part.v[0]
            cache.lengths[row] = part.lengths[0]
        solo_caches.append(prefilled)
        tokens.append(int(np.argmax(logits[0])))
    return caches, solo_caches, np.array(tokens)


class TestSlotDecodeStep:
    """The engine's step: one reference ``decode_step`` over rows at
    their own cache lengths."""

    def test_single_slot_matches_plain_decode(self):
        caches, (solo_caches,), token = slot_caches([[3, 1, 4, 1]], 8)
        step_ref = MODEL.decode_step(token, solo_caches)
        step_slot = MODEL.decode_step(token, caches)
        np.testing.assert_array_equal(step_slot, step_ref)
        np.testing.assert_array_equal(caches[0].lengths, [5])

    def test_heterogeneous_lengths_in_one_batch(self):
        """Slots with different context lengths decode exactly as solo."""
        caches, solo_caches, tokens = slot_caches(
            [[1, 2, 3], [7, 6, 5, 4, 3]], 10)
        step = MODEL.decode_step(tokens, caches)
        for row in range(2):
            ref = MODEL.decode_step(tokens[row:row + 1], solo_caches[row])
            np.testing.assert_allclose(step[row], ref[0], rtol=1e-9,
                                       atol=1e-12)
        np.testing.assert_array_equal(caches[0].lengths, [4, 6])

    def test_inactive_slot_untouched(self):
        """An idle slot keeps its cursor and its prefix; the active slot
        advances."""
        engine = ContinuousBatchingEngine(MODEL, max_slots=2, max_len=8)
        caches, _, tokens = slot_caches([[1, 2, 3], [4, 5]], 8)
        before = [(c.k[0, :3].copy(), c.v[0, :3].copy()) for c in caches]
        engine._decode(tokens, caches, np.array([True, False]))
        for cache, (k, v) in zip(caches, before):
            np.testing.assert_array_equal(cache.lengths, [3, 3])
            np.testing.assert_array_equal(cache.k[0, :3], k)
            np.testing.assert_array_equal(cache.v[0, :3], v)
        # A slot retired at capacity writes its throwaway entry in bounds
        # and keeps its cursor.
        for cache in caches:
            cache.lengths[0] = 8
        engine._decode(tokens, caches, np.array([True, False]))
        np.testing.assert_array_equal(caches[0].lengths, [8, 4])

    def test_capacity_guard(self):
        caches = MODEL.new_cache(2, 3)
        caches[0].lengths[0] = 3
        with pytest.raises(ValueError, match="overflow"):
            MODEL.decode_step(np.array([0, 0]), caches)


class TestEngine:
    @pytest.mark.parametrize("max_slots", [1, 2, 4])
    def test_matches_solo_generation(self, max_slots):
        requests = [make_request(0, 3, 4), make_request(1, 5, 2),
                    make_request(2, 4, 6), make_request(3, 2, 3),
                    make_request(4, 6, 1)]
        engine = ContinuousBatchingEngine(MODEL, max_slots=max_slots,
                                          max_len=16)
        completions = engine.serve(requests)
        for request, completion in zip(requests, completions):
            np.testing.assert_array_equal(completion.tokens,
                                          solo(request))

    def test_slot_reuse_does_not_leak(self):
        """A long request outlives several short ones cycling through the
        other slot; its output must be unaffected."""
        requests = [make_request(0, 4, 12)] + \
            [make_request(i, 3, 2) for i in range(1, 6)]
        engine = ContinuousBatchingEngine(MODEL, max_slots=2, max_len=20)
        completions = engine.serve(requests)
        np.testing.assert_array_equal(completions[0].tokens,
                                      solo(requests[0]))
        assert engine.admissions == 6

    def test_more_slots_fewer_steps(self):
        requests = [make_request(i, 4, 6) for i in range(8)]
        narrow = ContinuousBatchingEngine(MODEL, max_slots=1, max_len=12)
        wide = ContinuousBatchingEngine(MODEL, max_slots=8, max_len=12)
        narrow.serve(requests)
        wide.serve(requests)
        assert wide.steps < narrow.steps

    def test_matches_reference_model_multihead(self):
        config = tiny_test_config(attention=AttentionKind.MULTIHEAD)
        model = ReferenceTransformer(init_weights(config, seed=1))
        rng = np.random.default_rng(0)
        requests = [Request(i, rng.integers(0, config.vocab_size, size=4),
                            3) for i in range(3)]
        engine = ContinuousBatchingEngine(model, max_slots=2, max_len=8)
        for request, completion in zip(requests, engine.serve(requests)):
            expected = model.generate(request.prompt[None, :], 3)[0]
            np.testing.assert_array_equal(completion.tokens, expected)

    def test_serial_block_model(self):
        config = tiny_test_config(parallel_block=False)
        model = ReferenceTransformer(init_weights(config, seed=2))
        rng = np.random.default_rng(1)
        requests = [Request(i, rng.integers(0, config.vocab_size, size=3),
                            4) for i in range(3)]
        engine = ContinuousBatchingEngine(model, max_slots=2, max_len=8)
        for request, completion in zip(requests, engine.serve(requests)):
            expected = model.generate(request.prompt[None, :], 4)[0]
            np.testing.assert_array_equal(completion.tokens, expected)

    def test_budget_one_never_decodes(self):
        requests = [make_request(0, 3, 1)]
        engine = ContinuousBatchingEngine(MODEL, max_slots=1, max_len=8)
        completions = engine.serve(requests)
        assert engine.steps == 0
        np.testing.assert_array_equal(completions[0].tokens,
                                      solo(requests[0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuousBatchingEngine(MODEL, max_slots=0, max_len=8)

    def test_duplicate_request_ids_rejected(self):
        # Completions are keyed by id: a repeat would hand one request
        # the other's tokens, so it is refused before any admission.
        engine = ContinuousBatchingEngine(MODEL, max_slots=2, max_len=8)
        requests = [Request(0, np.array([1, 2, 3, 4]), 3),
                    Request(0, np.array([5, 6, 7, 8]), 3)]
        with pytest.raises(ValueError, match="duplicate request id 0"):
            engine.serve(requests)
        assert engine.admissions == 0
