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
from repro.serving.continuous import (
    ContinuousBatchingEngine,
    SlotState,
    slot_decode_step,
)

CFG = tiny_test_config()
MODEL = ReferenceTransformer(init_weights(CFG, seed=0))


def make_request(rid, length, budget, seed=None):
    rng = np.random.default_rng(rid if seed is None else seed)
    return Request(rid, rng.integers(0, CFG.vocab_size, size=length),
                   budget)


def solo(request):
    return MODEL.generate(request.prompt[None, :],
                          request.max_new_tokens)[0]


class TestSlotDecodeStep:
    def test_single_slot_matches_plain_decode(self):
        prompt = np.array([[3, 1, 4, 1]])
        logits_ref, caches = MODEL.prefill(prompt, 8)
        state = SlotState(MODEL, max_slots=1, max_len=8)
        state.load_prefill(0, caches)
        token = np.argmax(logits_ref, -1)
        step_ref = MODEL.decode_step(token, caches)
        step_slot = slot_decode_step(MODEL, token, state,
                                     np.array([True]))
        np.testing.assert_allclose(step_slot, step_ref, rtol=1e-9,
                                   atol=1e-12)
        assert state.lengths[0] == 5

    def test_heterogeneous_lengths_in_one_batch(self):
        """Slots with different context lengths decode exactly as solo."""
        prompts = [np.array([[1, 2, 3]]), np.array([[7, 6, 5, 4, 3]])]
        state = SlotState(MODEL, max_slots=2, max_len=10)
        tokens, refs = [], []
        for slot, prompt in enumerate(prompts):
            logits, caches = MODEL.prefill(prompt, 10)
            state.load_prefill(slot, caches)
            token = np.argmax(logits, -1)
            tokens.append(token[0])
            refs.append(MODEL.decode_step(token, caches)[0])
        step = slot_decode_step(MODEL, np.array(tokens), state,
                                np.array([True, True]))
        for slot in range(2):
            np.testing.assert_allclose(step[slot], refs[slot], rtol=1e-9,
                                       atol=1e-12)

    def test_inactive_slot_untouched(self):
        prompt = np.array([[1, 2, 3]])
        _, caches = MODEL.prefill(prompt, 8)
        state = SlotState(MODEL, max_slots=2, max_len=8)
        state.load_prefill(0, caches)
        before = state.k[0][0, :3].copy()
        slot_decode_step(MODEL, np.array([0, 0]), state,
                         np.array([False, False]))
        np.testing.assert_array_equal(state.lengths, [3, 0])
        np.testing.assert_array_equal(state.k[0][0, :3], before)

    def test_capacity_guard(self):
        state = SlotState(MODEL, max_slots=1, max_len=3)
        state.lengths[0] = 3
        with pytest.raises(ValueError, match="capacity"):
            slot_decode_step(MODEL, np.array([0]), state,
                             np.array([True]))


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
