"""Continuous batching: per-slot decode with mid-stream admission.

Section 4.4's low-latency recipe (batch-1 prefill feeding a batch-N
decoder) assumes all N sequences start and stop together.  Production
serving generalizes it: the decoder owns ``max_slots`` sequence *slots*
with independent context lengths; finished sequences retire and fresh
requests are admitted into their slots without draining the batch.  This
module implements that engine on the reference model.

The engine holds one ``max_slots``-row reference cache.  Each admission's
batch-1 prefill is copied into a free row, and every step is one
:meth:`~repro.model.reference.ReferenceTransformer.decode_step` over all
rows: the cache keeps one length per row, so each row is rotated and
attends at its own position.  Correctness bar: every request's tokens are
identical to generating it alone, no matter how admissions interleave —
asserted in ``tests/integration``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.model.reference import KVCache, ReferenceTransformer
from repro.model.sampling import greedy
from repro.serving.chunked import DEFAULT_PREFILL_CHUNK, chunked_prefill
from repro.serving.engine import Completion, Request, require_unique_ids


@dataclass
class _RunningSequence:
    request: Request
    generated: list[int] = field(default_factory=list)
    pending_token: int = 0  # sampled but not yet fed through decode

    @property
    def remaining(self) -> int:
        return self.request.max_new_tokens - len(self.generated)


class ContinuousBatchingEngine:
    """Slot-based decoder with batch-1 prefill admission."""

    def __init__(self, model: ReferenceTransformer, max_slots: int,
                 max_len: int):
        if max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        self.model = model
        self.max_slots = max_slots
        self.max_len = max_len
        self.steps = 0
        self.admissions = 0

    def serve(self, requests: list[Request]) -> list[Completion]:
        require_unique_ids(requests)
        queue = deque(requests)
        slots: list[_RunningSequence | None] = [None] * self.max_slots
        caches = self.model.new_cache(self.max_slots, self.max_len)
        completions: dict[int, Completion] = {}

        def admit() -> None:
            for slot_idx in range(self.max_slots):
                if slots[slot_idx] is not None or not queue:
                    continue
                request = queue.popleft()
                # Admission prefills run chunked (bounded activation
                # memory; equal to whole-prompt up to last-bit rounding,
                # see chunked_prefill).
                logits, prefilled = chunked_prefill(
                    self.model, request.prompt[None, :],
                    DEFAULT_PREFILL_CHUNK, self.max_len)
                for cache, row in zip(caches, prefilled):
                    cache.k[slot_idx] = row.k[0]
                    cache.v[slot_idx] = row.v[0]
                    cache.lengths[slot_idx] = row.lengths[0]
                first = int(greedy(logits)[0])
                running = _RunningSequence(request, pending_token=first)
                running.generated.append(first)
                slots[slot_idx] = running
                self.admissions += 1
                self._retire_if_done(slots, slot_idx, completions)

        def any_active() -> bool:
            return any(s is not None for s in slots)

        admit()
        while queue or any_active():
            if not any_active():
                admit()
                continue
            idle = np.array([s is None for s in slots])
            tokens = np.array([s.pending_token if s else 0
                               for s in slots])
            logits = self._decode(tokens, caches, idle)
            self.steps += 1
            for slot_idx, running in enumerate(slots):
                if running is None:
                    continue
                token = int(greedy(logits[slot_idx]))
                running.generated.append(token)
                running.pending_token = token
                self._retire_if_done(slots, slot_idx, completions)
            admit()
        return [completions[r.request_id] for r in requests]

    def _decode(self, tokens: np.ndarray, caches: list[KVCache],
                idle: np.ndarray) -> np.ndarray:
        """One decode step over every slot; returns logits ``[S, V]``.

        Idle slots (``idle`` ``[S]`` bool) are computed too and their
        logits ignored: each writes a throwaway entry at its cursor,
        clamped so a slot retired at capacity stays in bounds (the entry
        is overwritten when the slot is re-admitted), and keeps its
        cursor.
        """
        held = caches[0].lengths[idle]
        for cache in caches:
            cache.lengths[idle] = np.minimum(held, self.max_len - 1)
        logits = self.model.decode_step(tokens, caches)
        for cache in caches:
            cache.lengths[idle] = held
        return logits

    def _retire_if_done(self, slots, slot_idx, completions) -> None:
        running = slots[slot_idx]
        if running is None or running.remaining > 0:
            return
        tokens = np.concatenate([
            running.request.prompt,
            np.array(running.generated, dtype=running.request.prompt.dtype)])
        completions[running.request.request_id] = Completion(
            running.request.request_id, tokens,
            running.request.max_new_tokens)
        slots[slot_idx] = None
