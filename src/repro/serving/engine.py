"""Requests and completions, shared by every serving engine.

The paper's Section 4.4 low-latency recipe — "pipelining a batch-1
prefill server into a batch-64 decoding server" — is served on the mesh
by :class:`~repro.cluster.replica.GroupRun` on a one-replica
:class:`~repro.cluster.control_plane.ClusterControlPlane`, and on the
reference model by
:class:`~repro.serving.continuous.ContinuousBatchingEngine`.  Both take
:class:`Request` and return :class:`Completion`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


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
