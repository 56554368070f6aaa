"""Continuous batching: keeping the decoder's slots full.

The paper's Section 4.4 recipe batches sequences that start and stop
together; continuous batching (the engine behind modern LLM servers)
generalizes it — finished sequences retire from their decode slots and
queued requests are admitted mid-stream.  This example serves a bursty
mix of short and long requests three ways and counts decode steps:

1. one-at-a-time (batch 1),
2. static batching (wait for a full batch, drain it fully),
3. continuous batching (slots refill as they free up),

then verifies the continuous engine returned exactly the tokens each
request would get alone.

Run:  python examples/continuous_batching.py
"""

import numpy as np

from repro.model import ReferenceTransformer, init_weights, tiny_test_config
from repro.serving import ContinuousBatchingEngine, Request

CONFIG = tiny_test_config()
MODEL = ReferenceTransformer(init_weights(CONFIG, seed=0))
SLOTS = 4


def make_requests():
    rng = np.random.default_rng(7)
    budgets = [2, 9, 3, 8, 2, 7, 3, 2, 6, 2, 2, 5]
    return [Request(i, rng.integers(0, CONFIG.vocab_size, size=4), b)
            for i, b in enumerate(budgets)]


def static_batch_steps(requests, batch):
    """Static batching pads every batch to its longest budget."""
    steps = 0
    for start in range(0, len(requests), batch):
        group = requests[start:start + batch]
        steps += max(r.max_new_tokens for r in group) - 1
    return steps


def main():
    requests = make_requests()
    total_tokens = sum(r.max_new_tokens for r in requests)
    print(f"{len(requests)} requests, {total_tokens} tokens to generate, "
          f"{SLOTS} decode slots\n")

    one_at_a_time = sum(r.max_new_tokens - 1 for r in requests)
    static = static_batch_steps(requests, SLOTS)
    engine = ContinuousBatchingEngine(MODEL, max_slots=SLOTS, max_len=16)
    completions = engine.serve(requests)

    print(f"decode steps, batch 1          : {one_at_a_time:4d}")
    print(f"decode steps, static batch of {SLOTS}: {static:4d}  "
          f"(drained batches pad to the longest request)")
    print(f"decode steps, continuous       : {engine.steps:4d}  "
          f"({engine.admissions} admissions into {SLOTS} slots)")

    for request, completion in zip(requests, completions):
        expected = MODEL.generate(request.prompt[None, :],
                                  request.max_new_tokens)[0]
        assert np.array_equal(completion.tokens, expected)
    print("\nverified: every request's tokens equal solo generation —")
    print("slot sharing and mid-stream admission changed nothing.")


if __name__ == "__main__":
    main()
