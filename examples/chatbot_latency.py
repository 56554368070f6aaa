"""The paper's chatbot scenario (Section 1).

"For an interactive application such as a chatbot running on PaLM 540B
with int8 weights, our implementation on 64 TPU v4 chips can process 64
tokens of text from a user, consult a cached conversation history of 1920
tokens, and generate a 64-token response in a total of 1.9 seconds."

This example (a) reproduces that number with the analytical model, using
batch-1 incremental prefill plus batch-64 decode (the Section 4.4 mixture
of batch sizes), and (b) serves the same two-phase schedule numerically
on a small model: a one-replica ``ClusterControlPlane`` on a 2x2x2
virtual mesh prefills each request at batch 1 and decodes them together.

Run:  python examples/chatbot_latency.py
"""

import numpy as np

from repro import (
    TPU_V4,
    AttentionLayoutKind,
    FfnLayoutKind,
    InferenceEstimator,
    LayoutPlan,
    Torus3D,
)
from repro.cluster import ClusterControlPlane, ClusterSubmission
from repro.model import (
    PALM_540B,
    PALM_540B_PADDED,
    ReferenceTransformer,
    init_weights,
    tiny_test_config,
)
from repro.serving import Request

HISTORY_TOKENS = 1920
USER_TOKENS = 64
REPLY_TOKENS = 64


def analytical_turn_latency():
    torus = Torus3D(4, 4, 4)
    estimator = InferenceEstimator(
        PALM_540B_PADDED, TPU_V4, torus, weight_dtype_bytes=1,
        mfu_params=PALM_540B.n_params)
    # Incremental prefill (Section 3.5 "incremental processing of
    # sequences during prefill"): only the 64 new user tokens are run,
    # attending to the 1920 cached history tokens.  Batch 1 for latency.
    prefill_plan = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)
    prefill = estimator.phase_cost(prefill_plan, batch=1,
                                   l_new=USER_TOKENS,
                                   context_before=HISTORY_TOKENS)
    # Decode at batch 64: "we can increase the batch size up to 64 with
    # negligible latency impact" (Section 4.4) — e.g. 64 concurrent users.
    decode_plan = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.BATCH)
    generate = estimator.generate_cost(
        decode_plan, batch=64,
        context_before=HISTORY_TOKENS + USER_TOKENS, n_steps=REPLY_TOKENS)
    total = prefill.time_s + generate.total_s
    print("Chatbot turn on PaLM 540B (int8), 64 TPU v4:")
    print(f"  prefill {USER_TOKENS} new tokens against {HISTORY_TOKENS} "
          f"cached: {prefill.time_s * 1e3:6.1f} ms")
    print(f"  generate {REPLY_TOKENS}-token reply (batch 64): "
          f"{generate.total_s:5.2f} s "
          f"({generate.latency_per_token_s * 1e3:.1f} ms/token)")
    print(f"  total turn latency: {total:.2f} s   (paper: 1.9 s)")


def numerical_two_phase_demo():
    """The same serving pattern, executed for real on a tiny model."""
    config = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                              d_head=8, vocab_size=32)
    weights = init_weights(config, seed=0)
    plane = ClusterControlPlane(weights, [(2, 2, 2)], decode_batch=4,
                                prompt_len_hint=6)
    rng = np.random.default_rng(0)
    requests = [Request(i, rng.integers(0, config.vocab_size, size=6),
                        max_new_tokens=5) for i in range(4)]
    outcomes = plane.serve([ClusterSubmission(r) for r in requests])
    replica = plane.replicas[0]
    print(f"\nOne-replica plane demo (tiny model, 2x2x2 mesh): batch-1 "
          f"prefill ({replica.prefill_model.plan.describe()}) feeding "
          f"batch-{len(requests)} decode "
          f"({replica.decode_model.plan.describe()})")
    for outcome in outcomes:
        print(f"  request {outcome.request_id}: generated "
              f"{[int(t) for t in outcome.completion.generated]}")
    # Each reply is identical to what the user would get served alone.
    model = ReferenceTransformer(weights)
    for request, outcome in zip(requests, outcomes):
        solo = model.generate(request.prompt[None, :],
                              request.max_new_tokens)[0]
        assert outcome.ok and np.array_equal(outcome.completion.tokens, solo)
    print("  (verified: batching changed no one's reply)")


if __name__ == "__main__":
    analytical_turn_latency()
    numerical_two_phase_demo()
