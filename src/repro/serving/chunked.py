"""Incremental (chunked) prefill — Section 3.5's last low-level item.

Long prompts can be prefilled in fixed-size chunks, each attending to the
KV cache built by earlier chunks (this is how FasterTransformer bounds
activation memory, and how a chat server folds new user turns into an
existing conversation cache).  Both the reference and the sharded models
support it directly because ``forward`` appends to the caches; this module
adds the driver plus the analytical cost of a chunked schedule.
"""

from __future__ import annotations

import numpy as np

from repro.partitioning.plan import LayoutPlan
from repro.perf.estimator import InferenceEstimator, PhaseCost

#: Chunk size every server admits prompts with (tokens per chunk).
DEFAULT_PREFILL_CHUNK = 4


def chunked_prefill(model, tokens: np.ndarray, chunk_size: int,
                    max_len: int, *, compiler=None, kvstore=None):
    """Prefill ``tokens`` ``[B, L]`` in chunks of ``chunk_size``.

    Works with any model exposing ``new_cache`` / ``forward`` (reference
    or sharded).  Returns ``(last_logits [B, V], caches)``.  The result
    is bit-identical for the same partition into chunks, not across
    partitions: each chunk's softmax sums over a KV view as long as the
    prefix so far, and numpy's pairwise sum groups its terms by that
    length, so chunks of 4 and a single pass differ in the last bits
    (up to 8.3e-17 in logits on a 37-token prompt) while agreeing to
    ``allclose``.  The KV store's page-aligned contract rests on the
    same-partition case (see ``docs/kvstore.md``).

    With ``compiler`` (a :class:`~repro.mesh.capture.StepCompiler`) each
    chunk runs through :meth:`~repro.mesh.capture.StepCompiler.
    prefill_chunk`: the first chunk of each length bucket is captured and
    every later same-shape chunk — including across prompts — replays
    the traced program, bit-identically.  Every chunk but the last
    replays only the program's KV body (its logits would be discarded).

    With ``kvstore`` (a :class:`~repro.kvstore.KVStore`; batch 1 only)
    the prompt's longest cached whole-page prefix is *installed* instead
    of computed — only the uncached suffix runs through the model — and
    the finished caches are committed back as new pages.  The store's
    page size must be a multiple of ``chunk_size`` so the suffix sees
    the exact chunk partitioning of the cold path, keeping hits
    bit-identical to the recompute (the differential tests' contract).
    The caller collects the pinned prefix via
    :meth:`~repro.kvstore.KVStore.take_last_reuse` and must release its
    lease once decode retires.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    batch, length = tokens.shape
    if max_len < length:
        raise ValueError(f"max_len {max_len} < prompt length {length}")
    if kvstore is not None and batch != 1:
        raise ValueError("kvstore prefix reuse requires batch-1 prefill")
    if kvstore is not None and kvstore.page_tokens % chunk_size != 0:
        raise ValueError(
            f"page_tokens {kvstore.page_tokens} must be a multiple of "
            f"chunk_size {chunk_size}")
    caches = model.new_cache(batch, max_len)
    start0 = 0
    lease = None
    if kvstore is not None:
        lease = kvstore.match(tokens[0])
        if lease is not None:
            start0 = kvstore.install(lease, caches)
    logits = None
    try:
        for start in range(start0, length, chunk_size):
            chunk = tokens[:, start:start + chunk_size]
            if compiler is not None:
                # Only the last chunk's logits are used: earlier chunks
                # replay the program's KV body alone.
                logits = compiler.prefill_chunk(
                    model, chunk, caches,
                    logits=start + chunk_size >= length)
            else:
                logits = model.forward(chunk, caches)
    except BaseException:
        # A fault mid-suffix must not leak the pin: the lease never
        # reaches the caller (``take_last_reuse``), so unpin here.
        if lease is not None:
            lease.release()
        raise
    if kvstore is not None:
        from repro.kvstore import PrefillReuse

        kvstore.commit(tokens[0], caches)
        kvstore.finish_prefill(PrefillReuse(
            lease=lease, matched_tokens=start0, total_tokens=length))
    return logits[:, -1], caches


def chunked_prefill_cost(estimator: InferenceEstimator, plan: LayoutPlan,
                         batch: int, input_len: int,
                         chunk_size: int) -> tuple[float, list[PhaseCost]]:
    """Total analytical time of a chunked prefill schedule.

    Each chunk is a forward pass over ``batch x chunk`` tokens with the
    previously cached context; the per-chunk costs are returned for
    inspection.  Chunking trades peak activation memory for repeated
    fixed overheads and lower matmul efficiency per chunk.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    costs = []
    done = 0
    while done < input_len:
        step = min(chunk_size, input_len - done)
        costs.append(estimator.phase_cost(plan, batch, step,
                                          context_before=done))
        done += step
    return sum(c.time_s for c in costs), costs
