"""Numerical building blocks for the reference and sharded transformers.

Includes the paper's "log-base-2" softmax/swish trick (Section 3.5): on
real hardware ``exp2`` is cheaper than ``exp``, so softmax is computed as
``exp2(x * log2(e) - max2)``.  Numerically both forms are identical up to
float rounding; tests assert agreement so either can back the models.
"""

from __future__ import annotations

import numpy as np

LOG2_E = float(np.log2(np.e))

try:  # the C kernel np.einsum dispatches to, without its Python wrapper
    from numpy._core._multiarray_umath import c_einsum
except ImportError:  # pragma: no cover - older numpy layouts
    c_einsum = np.einsum


def rmsnorm(x: np.ndarray, scale: np.ndarray, eps: float = 1e-6
            ) -> np.ndarray:
    """Root-mean-square layer norm over the last axis."""
    variance = np.mean(np.square(x), axis=-1, keepdims=True)
    return x * scale / np.sqrt(variance + eps)


def swish(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Swish / SiLU: ``x * sigmoid(x)``, as ``x / (1.0 + exp(-x))``.

    Four ufuncs on one buffer — ``out`` when given (captured replay
    passes an arena buffer), else one fresh array.  Adding ``1.0`` after
    ``exp`` gives the bits of ``1.0 + exp(-x)``: IEEE addition is
    commutative.
    """
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(x, out, out=out)


def swish_base2(x: np.ndarray) -> np.ndarray:
    """Swish via ``exp2`` (the paper's faster hardware formulation)."""
    return x / (1.0 + np.exp2(-x * LOG2_E))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


def softmax_base2(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax computed with base-2 exponentials (Section 3.5)."""
    scaled = x * LOG2_E
    shifted = scaled - np.max(scaled, axis=axis, keepdims=True)
    exps = np.exp2(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


def causal_mask(q_len: int, kv_len: int, q_offset: int = 0) -> np.ndarray:
    """Boolean mask [..., q_len, kv_len]: True where attention is allowed.

    Query position ``i`` (global position ``q_offset + i``) may attend to
    kv positions ``<= q_offset + i``.  ``q_offset`` may be an integer
    array holding one offset per row; its shape then leads the mask's.
    """
    q_pos = np.arange(q_len)[:, None] + np.asarray(q_offset)[..., None, None]
    return np.arange(kv_len) <= q_pos


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with disallowed positions masked out."""
    neg = np.finfo(scores.dtype).min if scores.dtype.kind == "f" else -1e30
    return softmax(np.where(mask, scores, neg), axis=-1)
