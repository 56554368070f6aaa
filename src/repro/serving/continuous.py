"""Continuous batching: per-slot decode with mid-stream admission.

Section 4.4's low-latency recipe (batch-1 prefill feeding a batch-N
decoder) assumes all N sequences start and stop together.  Production
serving generalizes it: the decoder owns ``max_slots`` sequence *slots*
with independent context lengths; finished sequences retire and fresh
requests are admitted into their slots without draining the batch.  This
module implements that engine on the reference model.

The enabling pieces are per-row positions (RoPE already accepts them) and
per-row causal offsets (the attention kernel takes one per row, so each
slot attends to its own prefix only), with KV buffers indexed by per-slot
write cursors.  Correctness bar: every request's tokens are identical to
generating it alone, no matter how admissions interleave — asserted in
``tests/integration``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.model.config import FfnKind
from repro.model.functional import rmsnorm, swish
from repro.model.reference import ReferenceTransformer, attention
from repro.model.rope import apply_rope
from repro.model.sampling import greedy
from repro.serving.chunked import DEFAULT_PREFILL_CHUNK, chunked_prefill
from repro.serving.engine import Completion, Request, require_unique_ids


class SlotState:
    """Per-slot KV buffers and write cursors shared across layers."""

    def __init__(self, model: ReferenceTransformer, max_slots: int,
                 max_len: int):
        cfg = model.config
        dtype = model.weights.embedding.dtype
        shape = (max_slots, max_len, cfg.n_kv_heads, cfg.d_head)
        self.k = [np.zeros(shape, dtype=dtype)
                  for _ in range(cfg.n_layers)]
        self.v = [np.zeros(shape, dtype=dtype)
                  for _ in range(cfg.n_layers)]
        self.lengths = np.zeros(max_slots, dtype=np.int64)
        self.max_len = max_len
        self.max_slots = max_slots
        # The row index vector for cursor writes, prepared once.
        self.rows = np.arange(max_slots)

    def load_prefill(self, slot: int, caches) -> None:
        """Install a batch-1 prefill's caches into one slot."""
        length = caches[0].length
        if length > self.max_len:
            raise ValueError(f"prefix {length} exceeds slot capacity "
                             f"{self.max_len}")
        for layer, cache in enumerate(caches):
            self.k[layer][slot, :length] = cache.k[0, :length]
            self.v[layer][slot, :length] = cache.v[0, :length]
        self.lengths[slot] = length


def slot_decode_step(model: ReferenceTransformer, tokens: np.ndarray,
                     state: SlotState, active: np.ndarray) -> np.ndarray:
    """One decode step over all slots with per-slot context lengths.

    ``tokens`` ``[S]`` (ignored for inactive slots), ``active`` ``[S]``
    bool.  Active slots' cursors advance; inactive slots are computed but
    masked into self-attention-only no-ops and their state is untouched.
    Returns logits ``[S, V]``.
    """
    cfg, w = model.config, model.weights
    state_lengths = state.lengths
    if (active & (state_lengths + 1 > state.max_len)).any():
        raise ValueError("slot KV capacity exceeded")
    positions = state_lengths[:, None]                     # [S, 1]
    x = w.embedding[tokens][:, None, :]                    # [S, 1, E]
    max_kv = min(int(state_lengths.max()) + 1, state.max_len) \
        if len(state_lengths) else 1

    for layer_idx, layer in enumerate(w.layers):
        def attn(y):
            q = np.einsum("ble,ehd->blhd", y, layer.wq)
            k_new = np.einsum("ble,ekd->blkd", y, layer.wk)
            v_new = np.einsum("ble,ekd->blkd", y, layer.wv)
            q = apply_rope(q, positions, cfg.rope_theta)
            k_new = apply_rope(k_new, positions, cfg.rope_theta)
            k_buf, v_buf = state.k[layer_idx], state.v[layer_idx]
            rows = state.rows
            # Inactive slots write a throwaway entry; clamp their cursor
            # so a slot retired exactly at capacity stays in bounds (the
            # garbage is overwritten when the slot is re-admitted).
            write_pos = np.minimum(state_lengths, state.max_len - 1)
            k_buf[rows, write_pos] = k_new[:, 0]
            v_buf[rows, write_pos] = v_new[:, 0]
            # Each slot sees its own prefix plus the token being written
            # now: its query sits at offset ``length``.
            out = attention(q, k_buf[:, :max_kv], v_buf[:, :max_kv],
                            state_lengths)
            return np.einsum("blhd,hde->ble", out, layer.wo)

        def ffn(y):
            hidden = swish(y @ layer.w_in)
            if cfg.ffn is FfnKind.SWIGLU:
                hidden = hidden * (y @ layer.w_gate)
            return hidden @ layer.w_out

        if cfg.parallel_block:
            y = rmsnorm(x, layer.ln_scale)
            x = x + attn(y) + ffn(y)
        else:
            x = x + attn(rmsnorm(x, layer.ln_scale))
            x = x + ffn(rmsnorm(x, layer.ln2_scale))

    state.lengths = state_lengths + active.astype(np.int64)
    x = rmsnorm(x, w.final_ln_scale)
    return np.einsum("ble,ve->blv", x, w.embedding)[:, 0]


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
        state = SlotState(self.model, self.max_slots, self.max_len)
        completions: dict[int, Completion] = {}

        def admit() -> None:
            for slot_idx in range(self.max_slots):
                if slots[slot_idx] is not None or not queue:
                    continue
                request = queue.popleft()
                # Admission prefills run chunked (bounded activation
                # memory; equal to whole-prompt up to last-bit rounding,
                # see chunked_prefill).
                logits, caches = chunked_prefill(
                    self.model, request.prompt[None, :],
                    DEFAULT_PREFILL_CHUNK, self.max_len)
                state.load_prefill(slot_idx, caches)
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
            active = np.array([s is not None for s in slots])
            tokens = np.array([s.pending_token if s else 0
                               for s in slots])
            logits = slot_decode_step(self.model, tokens, state, active)
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
