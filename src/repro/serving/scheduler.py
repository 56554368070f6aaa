"""Request batching for two-phase serving.

Groups requests by prompt length (merged KV caches must align; production
systems left-pad instead — see ``merge_caches``) and caps each group at
the decode batch size, preserving arrival order within a length class.
The reference ``TwoPhaseServer`` batches with it.
"""

from __future__ import annotations

from typing import Sequence

from repro.serving.engine import Request


def group_requests(requests: Sequence[Request], max_batch: int
                   ) -> list[list[Request]]:
    """Batch requests: same prompt length, at most ``max_batch`` each."""
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    by_length: dict[int, list[Request]] = {}
    order: list[int] = []
    for request in requests:
        length = len(request.prompt)
        if length not in by_length:
            by_length[length] = []
            order.append(length)
        by_length[length].append(request)
    groups = []
    for length in order:
        queue = by_length[length]
        for start in range(0, len(queue), max_batch):
            groups.append(queue[start:start + max_batch])
    return groups
