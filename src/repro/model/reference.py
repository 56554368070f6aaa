"""Single-device reference Transformer (the numerical gold standard).

This is a straightforward numpy implementation of the PaLM-style
decoder-only architecture (multiquery or multihead attention, parallel or
serial block, SwiGLU or MLP feedforward, RoPE positions, tied embeddings).
Every partitioned layout in :mod:`repro.layouts` is validated to produce
the same logits as this module, which is the reproduction's substitute for
"runs the real PaLM weights correctly".

Weight tensor shapes (per layer):

==============  =======================  =========================
tensor          shape                    role
==============  =======================  =========================
``ln_scale``    ``[E]``                  pre-block RMSNorm scale
``ln2_scale``   ``[E]``                  serial-block FFN norm
``wq``          ``[E, H, D]``            query projection
``wk``, ``wv``  ``[E, K, D]``            key/value (K=1 multiquery)
``wo``          ``[H, D, E]``            attention output
``w_in``        ``[E, F]``               FFN in
``w_gate``      ``[E, F]``               SwiGLU gate (SwiGLU only)
``w_out``       ``[F, E]``               FFN out
==============  =======================  =========================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.model.config import AttentionKind, FfnKind, ModelConfig
from repro.model.functional import c_einsum as _einsum
from repro.model.functional import causal_mask, rmsnorm, swish
from repro.model.rope import apply_rope_cached, rope_table


@dataclass
class LayerWeights:
    ln_scale: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray
    w_gate: np.ndarray | None = None
    ln2_scale: np.ndarray | None = None


@dataclass
class TransformerWeights:
    config: ModelConfig
    embedding: np.ndarray            # [V, E], tied with the output head
    layers: list[LayerWeights]
    final_ln_scale: np.ndarray       # [E]

    @property
    def n_params(self) -> int:
        total = self.embedding.size
        for layer in self.layers:
            for name in ("wq", "wk", "wv", "wo", "w_in", "w_out", "w_gate"):
                tensor = getattr(layer, name)
                if tensor is not None:
                    total += tensor.size
        return total


def init_weights(config: ModelConfig, seed: int = 0,
                 dtype=np.float64, scale: float = 0.02
                 ) -> TransformerWeights:
    """Deterministic random weights at the config's shapes.

    Performance depends only on shapes, so random weights exercise exactly
    the tensor program that trained weights would (DESIGN.md, Section 2).
    """
    rng = np.random.default_rng(seed)
    e, f = config.d_model, config.d_ff
    h, k, d = config.n_heads, config.n_kv_heads, config.d_head

    def w(*shape):
        return (rng.standard_normal(shape) * scale).astype(dtype)

    layers = []
    for _ in range(config.n_layers):
        layers.append(LayerWeights(
            ln_scale=np.ones(e, dtype=dtype),
            wq=w(e, h, d),
            wk=w(e, k, d),
            wv=w(e, k, d),
            wo=w(h, d, e),
            w_in=w(e, f),
            w_out=w(f, e),
            w_gate=w(e, f) if config.ffn is FfnKind.SWIGLU else None,
            ln2_scale=(None if config.parallel_block
                       else np.ones(e, dtype=dtype)),
        ))
    return TransformerWeights(
        config=config,
        embedding=w(config.vocab_size, e),
        layers=layers,
        final_ln_scale=np.ones(e, dtype=dtype),
    )


@dataclass
class KVCache:
    """Attention history: ``k``/``v`` of ``[B, T, K, D]``, row ``b``
    filled to ``lengths[b]``.

    Rows may sit at different lengths (a slot engine's sequences); a
    forward pass appends each row at its own length, and the causal mask
    hides every row's unfilled tail.
    """

    k: np.ndarray
    v: np.ndarray
    lengths: np.ndarray              # [B] int64

    @classmethod
    def empty(cls, batch: int, max_len: int, n_kv_heads: int, d_head: int,
              dtype=np.float64) -> "KVCache":
        shape = (batch, max_len, n_kv_heads, d_head)
        return cls(k=np.zeros(shape, dtype=dtype),
                   v=np.zeros(shape, dtype=dtype),
                   lengths=np.zeros(batch, dtype=np.int64))

    @property
    def max_len(self) -> int:
        return self.k.shape[1]

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        n = k_new.shape[1]
        longest = int(self.lengths.max())
        if longest + n > self.max_len:
            raise ValueError(
                f"KV cache overflow: {longest} + {n} > {self.max_len}")
        rows = np.arange(len(self.lengths))[:, None]
        cols = self.lengths[:, None] + np.arange(n)
        self.k[rows, cols] = k_new
        self.v[rows, cols] = v_new
        self.lengths += n

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        """The history up to the longest row (shorter rows' tails are
        masked by their causal offsets)."""
        longest = int(self.lengths.max())
        return self.k[:, :longest], self.v[:, :longest]


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, q_offset,
              scratch: dict | None = None) -> np.ndarray:
    """Causal scaled-dot-product attention with grouped KV heads.

    The one attention kernel: the reference model (and through it the
    slot engine), both mesh backends (per device on the loop backend,
    over the whole device grid on the stacked one) and every captured
    replay call it.
    Query head ``h`` reads KV head ``h // (H / K)``; the sharing is in the
    einsum subscripts, so no KV head is broadcast-copied (Section 3.3).

    Args:
        q: ``[..., L, H, D]`` queries.
        k, v: ``[..., M, K, D]`` full key/value history (K divides H).
            Their leading axes broadcast to ``q``'s: a size-1 axis (a
            collapsed replica of the device grid) reads one copy.
        q_offset: Global position of the first query (for the causal
            mask): a scalar, or an integer array of ``q``'s leading shape
            holding one offset per row.
        scratch: A dict the kernel keeps its buffers in, for a caller
            that replays the same query shape: the output and reduction
            buffers per query shape, the scores (and the mask of a
            scalar offset) per KV length.  The returned array is then
            the output buffer, overwritten by the next call.

    Returns:
        ``[..., L, H, D]`` attention outputs.
    """
    l, h, d = q.shape[-3:]
    m, kv = k.shape[-3], k.shape[-2]
    if h % kv:
        raise ValueError(f"{h} query heads not divisible by {kv} KV heads")
    scratch = {} if scratch is None else scratch
    fixed = scratch.get(q.shape)
    if fixed is None:
        out = np.empty(q.shape[:-2] + (kv, h // kv, d), q.dtype)
        fixed = scratch[q.shape] = (
            out, out.reshape(q.shape), np.empty((out.size // d, 1), q.dtype),
            1.0 / np.sqrt(d), np.finfo(q.dtype).min, {})
    out, result, red, scale, neg, per_m = fixed
    rowwise = isinstance(q_offset, np.ndarray)
    key = (m, None if rowwise else q_offset)
    cached = per_m.get(key)
    if cached is None:
        scores = np.empty(q.shape[:-3] + (kv, h // kv, l, m), q.dtype)
        cached = per_m[key] = (scores, scores.reshape(-1, m), None
                               if rowwise else _hidden(l, m, q_offset))
    scores, rows, hidden = cached
    if rowwise:
        hidden = _hidden(l, m, q_offset)
    _einsum("...lkgd,...mkd->...kglm",
            q.reshape(q.shape[:-2] + (kv, h // kv, d)), k, out=scores)
    np.multiply(rows, scale, out=rows)
    if hidden is not None:
        np.copyto(scores, neg, where=hidden)
    # masked_softmax's max, sub, exp, sum, div, written in place (np.max
    # and np.sum wrap these same ufunc reductions, so the bits match).
    np.maximum.reduce(rows, axis=-1, keepdims=True, out=red)
    np.subtract(rows, red, out=rows)
    np.exp(rows, out=rows)
    np.add.reduce(rows, axis=-1, keepdims=True, out=red)
    np.divide(rows, red, out=rows)
    _einsum("...kglm,...mkd->...lkgd", scores, v, out=out)
    return result


def _hidden(l: int, m: int, q_offset) -> np.ndarray | None:
    """Where the causal mask hides a key from a query, shaped against
    ``[..., K, G, L, M]`` scores; ``None`` when every query sees its
    whole history (the mask is all-True)."""
    low = q_offset.min() if isinstance(q_offset, np.ndarray) else q_offset
    if low >= m - 1:
        return None
    allowed = causal_mask(l, m, q_offset)
    return ~allowed.reshape(allowed.shape[:-2] + (1, 1, l, m))


class ReferenceTransformer:
    """Unsharded forward pass; prefill + autoregressive decode."""

    def __init__(self, weights: TransformerWeights):
        self.weights = weights
        self.config = weights.config

    # -- layer pieces -------------------------------------------------------

    def _attn(self, y: np.ndarray, layer: LayerWeights, cache: KVCache,
              positions: np.ndarray, rope: np.ndarray) -> np.ndarray:
        q = np.einsum("ble,ehd->blhd", y, layer.wq)
        k = np.einsum("ble,ekd->blkd", y, layer.wk)
        v = np.einsum("ble,ekd->blkd", y, layer.wv)
        q = apply_rope_cached(q, rope)
        k = apply_rope_cached(k, rope)
        cache.append(k, v)
        k_all, v_all = cache.view()
        # Each row's first query sits at its own pre-append length.
        out = attention(q, k_all, v_all, positions[:, 0])
        return np.einsum("blhd,hde->ble", out, layer.wo)

    def _ffn(self, y: np.ndarray, layer: LayerWeights) -> np.ndarray:
        hidden = swish(y @ layer.w_in)
        if self.config.ffn is FfnKind.SWIGLU:
            hidden = hidden * (y @ layer.w_gate)
        return hidden @ layer.w_out

    def _block(self, x: np.ndarray, layer: LayerWeights, cache: KVCache,
               positions: np.ndarray, rope: np.ndarray) -> np.ndarray:
        if self.config.parallel_block:
            # One shared norm; attention and FFN applied in parallel and
            # summed (Section 3.4).
            y = rmsnorm(x, layer.ln_scale)
            return x + self._attn(y, layer, cache, positions, rope) + \
                self._ffn(y, layer)
        x = x + self._attn(rmsnorm(x, layer.ln_scale), layer, cache,
                           positions, rope)
        return x + self._ffn(rmsnorm(x, layer.ln2_scale), layer)

    # -- public API -----------------------------------------------------------

    def new_cache(self, batch: int, max_len: int) -> list[KVCache]:
        cfg = self.config
        return [KVCache.empty(batch, max_len, cfg.n_kv_heads, cfg.d_head,
                              dtype=self.weights.embedding.dtype)
                for _ in range(cfg.n_layers)]

    def forward(self, tokens: np.ndarray, caches: list[KVCache]
                ) -> np.ndarray:
        """Run one forward pass over ``tokens`` ``[B, L]``, appending to the
        caches, and return logits ``[B, L, V]``.

        Used for both phases: prefill passes the whole prompt (L = prompt
        length), decode passes one token per sequence (L = 1).  Row ``b``
        continues from its own cache length: its positions and causal
        offset start there, so rows at different lengths share the pass.
        """
        w, cfg = self.weights, self.config
        positions = caches[0].lengths[:, None] + np.arange(tokens.shape[1])
        # Each row's rotations, gathered once per forward from the shared
        # table (which covers the cache's capacity, or past it, where the
        # append then raises the overflow).
        rows = max(int(positions.max(initial=0)) + 1, caches[0].max_len)
        rope = rope_table(cfg.d_head, cfg.rope_theta, rows)[positions]
        x = w.embedding[tokens]
        for layer, cache in zip(w.layers, caches):
            x = self._block(x, layer, cache, positions, rope)
        x = rmsnorm(x, w.final_ln_scale)
        return np.einsum("ble,ve->blv", x, w.embedding)

    def prefill(self, tokens: np.ndarray, max_len: int
                ) -> tuple[np.ndarray, list[KVCache]]:
        """Process the prompt; returns last-position logits and the caches."""
        caches = self.new_cache(tokens.shape[0], max_len)
        logits = self.forward(tokens, caches)
        return logits[:, -1], caches

    def decode_step(self, tokens: np.ndarray, caches: list[KVCache]
                    ) -> np.ndarray:
        """One generation step: ``tokens`` ``[B]`` -> next logits ``[B, V]``."""
        logits = self.forward(tokens[:, None], caches)
        return logits[:, -1]

    def generate(self, prompt: np.ndarray, n_steps: int,
                 sampler=None, rng: np.random.Generator | None = None
                 ) -> np.ndarray:
        """Greedy (or sampled) generation of ``n_steps`` tokens.

        Returns ``[B, prompt_len + n_steps]`` including the prompt.
        """
        from repro.model.sampling import greedy

        sampler = sampler or (lambda logits, rng: greedy(logits))
        rng = rng or np.random.default_rng(0)
        max_len = prompt.shape[1] + n_steps
        logits, caches = self.prefill(prompt, max_len)
        tokens = [prompt]
        current = sampler(logits, rng)
        for _ in range(n_steps - 1):
            tokens.append(current[:, None])
            logits = self.decode_step(current, caches)
            current = sampler(logits, rng)
        tokens.append(current[:, None])
        return np.concatenate(tokens, axis=1)
