"""Inference serving on top of the reference / sharded models.

Implements the paper's Section 4.4 low-latency recipe: "batch size 1
achieves the best latency in the prefill phase, but for the generate phase
we can increase the batch size up to 64 with negligible latency impact
... by pipelining a batch-1 prefill server into a batch-64 decoding
server".  :class:`TwoPhaseServer` does exactly that: each request is
prefilled alone, the resulting KV caches are merged into decode batches,
and generation proceeds batched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.model.reference import KVCache, ReferenceTransformer
from repro.model.sampling import greedy


@dataclass(frozen=True)
class Request:
    """One generation request."""

    request_id: int
    prompt: np.ndarray          # [L] token ids
    max_new_tokens: int

    def __post_init__(self) -> None:
        if self.prompt.ndim != 1:
            raise ValueError("prompt must be a 1D token array")
        if not np.issubdtype(self.prompt.dtype, np.integer):
            raise ValueError(
                f"prompt must hold integer token ids, got dtype "
                f"{self.prompt.dtype}")
        if self.prompt.size == 0:
            raise ValueError("prompt must hold at least one token")
        if int(self.prompt.min()) < 0:
            raise ValueError(
                f"prompt token ids must be non-negative, got "
                f"{int(self.prompt.min())}")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")


@dataclass
class Completion:
    request_id: int
    tokens: np.ndarray          # prompt + generated
    n_generated: int

    @property
    def generated(self) -> np.ndarray:
        return self.tokens[len(self.tokens) - self.n_generated:]


def group_completions(group: Sequence[Request],
                      generated: Sequence[np.ndarray]) -> list[Completion]:
    """Completions for a decoded group from its per-step ``[B, 1]`` tokens.

    Rows past ``len(group)`` are decode-batch padding and are dropped;
    each request keeps its own ``max_new_tokens``.
    """
    all_generated = np.concatenate(generated, axis=1)
    return [Completion(r.request_id,
                       np.concatenate([r.prompt,
                                       all_generated[i, :r.max_new_tokens]]),
                       r.max_new_tokens)
            for i, r in enumerate(group)]


def require_unique_ids(requests: Sequence[Request]) -> None:
    """Raise ``ValueError`` if two requests share an id (completions are
    keyed by id, so a repeat would return another request's tokens)."""
    seen: set[int] = set()
    for request in requests:
        if request.request_id in seen:
            raise ValueError(f"duplicate request id {request.request_id}")
        seen.add(request.request_id)


def merge_caches(per_request: Sequence[Sequence[KVCache]]
                 ) -> list[KVCache]:
    """Concatenate per-request (batch-1) KV caches into one batched cache.

    All requests must have the same cache length (the scheduler groups by
    prompt length so this holds; real systems left-pad instead).
    """
    if not per_request:
        raise ValueError("cannot merge an empty list of request caches")
    lengths = {caches[0].length for caches in per_request}
    if len(lengths) != 1:
        raise ValueError(f"cannot merge caches of different lengths "
                         f"{sorted(lengths)}; group requests by length")
    merged = []
    n_layers = len(per_request[0])
    for layer in range(n_layers):
        k = np.concatenate([c[layer].k for c in per_request], axis=0)
        v = np.concatenate([c[layer].v for c in per_request], axis=0)
        merged.append(KVCache(k=k, v=v, length=per_request[0][0].length))
    return merged


class TwoPhaseServer:
    """Batch-1 prefill pipelined into batch-N decode (Section 4.4)."""

    def __init__(self, model: ReferenceTransformer, decode_batch: int = 64):
        if decode_batch < 1:
            raise ValueError("decode_batch must be >= 1")
        self.model = model
        self.decode_batch = decode_batch
        self.prefill_count = 0
        self.decode_batches = 0

    def _serve_group(self, group: list[Request]) -> list[Completion]:
        n_steps = max(r.max_new_tokens for r in group)
        max_len = len(group[0].prompt) + n_steps
        # Phase 1: low-latency batch-1 prefill per request.
        caches_per_request, first_logits = [], []
        for request in group:
            logits, caches = self.model.prefill(request.prompt[None, :],
                                                max_len)
            caches_per_request.append(caches)
            first_logits.append(logits)
            self.prefill_count += 1
        # Phase 2: merge into one decode batch and generate together.
        caches = merge_caches(caches_per_request)
        self.decode_batches += 1
        current = greedy(np.concatenate(first_logits, axis=0))
        generated = [current[:, None]]
        for _ in range(n_steps - 1):
            current = greedy(self.model.decode_step(current, caches))
            generated.append(current[:, None])
        return group_completions(group, generated)

    def serve(self, requests: Sequence[Request]) -> list[Completion]:
        """Serve all requests; returns completions in request order."""
        from repro.serving.scheduler import group_requests

        require_unique_ids(requests)
        completions: dict[int, Completion] = {}
        for group in group_requests(requests, self.decode_batch):
            for completion in self._serve_group(group):
                completions[completion.request_id] = completion
        return [completions[r.request_id] for r in requests]
