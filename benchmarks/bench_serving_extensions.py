"""Serving-layer extension bench: continuous batching.

An efficiency mechanism adjacent to the paper's batching story (Section
4.4), measured on an executable workload: decode steps spent serving a
bursty request mix with slot reuse, vs static (drain-the-batch) batching
and batch-1, with the outputs verified token-identical to solo
generation.
"""

import numpy as np

from repro.model import ReferenceTransformer, init_weights, tiny_test_config
from repro.serving import ContinuousBatchingEngine, Request

CONFIG = tiny_test_config()
MODEL = ReferenceTransformer(init_weights(CONFIG, seed=0))


def requests(budgets):
    rng = np.random.default_rng(1)
    return [Request(i, rng.integers(0, CONFIG.vocab_size, size=4), b)
            for i, b in enumerate(budgets)]


def static_steps(reqs, batch):
    steps = 0
    for start in range(0, len(reqs), batch):
        group = reqs[start:start + batch]
        steps += max(r.max_new_tokens for r in group) - 1
    return steps


def generate_table() -> str:
    budgets = [2, 9, 3, 8, 2, 7, 3, 2, 6, 2, 2, 5, 4, 9, 2, 3]
    reqs = requests(budgets)
    engine = ContinuousBatchingEngine(MODEL, max_slots=4, max_len=16)
    engine.serve(reqs)
    batch1 = sum(b - 1 for b in budgets)
    static = static_steps(reqs, 4)

    return "\n".join([
        "Serving extensions",
        f"continuous batching, {len(budgets)} requests, 4 slots:",
        f"   decode steps: batch-1 {batch1}, static {static}, "
        f"continuous {engine.steps} "
        f"({static / engine.steps:.2f}x vs static)",
    ])


def test_serving_extensions(benchmark, save_result):
    table = benchmark.pedantic(generate_table, rounds=1, iterations=1)
    save_result("serving_extensions", table)

    budgets = [2, 9, 3, 8, 2, 7, 3, 2, 6, 2, 2, 5, 4, 9, 2, 3]
    reqs = requests(budgets)
    engine = ContinuousBatchingEngine(MODEL, max_slots=4, max_len=16)
    completions = engine.serve(reqs)
    assert engine.steps < static_steps(reqs, 4)
    # Correctness under the benchmark workload, not just speed.
    for request, completion in zip(reqs, completions):
        solo = MODEL.generate(request.prompt[None, :],
                              request.max_new_tokens)[0]
        np.testing.assert_array_equal(completion.tokens, solo)
