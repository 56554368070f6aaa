"""Rotary position embeddings (RoPE), as used by PaLM.

RoPE acts elementwise per (position, head-dim-pair), so it commutes with
sharding over batch or heads — which is what lets the partitioned attention
layouts of Section 3.3 apply it locally on each chip.

Each (even, odd) pair of a head vector is read as one complex number
(real, imaginary), so a rotation is one complex multiply against a table
of ``cos + i·sin``: :func:`apply_rope_cached` is the one kernel every
path calls — the reference model, both mesh backends and captured replay.
"""

from __future__ import annotations

import numpy as np


def rope_frequencies(d_head: int, theta: float = 10_000.0) -> np.ndarray:
    """Inverse frequencies for each rotated pair, shape ``[d_head // 2]``."""
    if d_head % 2:
        raise ValueError(f"d_head must be even for RoPE, got {d_head}")
    exponents = np.arange(0, d_head, 2, dtype=np.float64) / d_head
    return theta ** -exponents


def rope_tables(positions: np.ndarray, d_head: int,
                theta: float = 10_000.0) -> np.ndarray:
    """The ``complex128`` rotation table ``cos + i·sin`` for ``positions``.

    Shape ``[..., L, 1, d_head // 2]`` (the 1 broadcasts over heads), one
    entry per (position, dimension pair).  A forward builds it once and
    every query/key rotation at those positions reads it through
    :func:`apply_rope_cached`.
    """
    freqs = rope_frequencies(d_head, theta)
    angles = np.asarray(positions, dtype=np.float64)[..., None, None] * freqs
    table = np.empty(angles.shape, np.complex128)
    table.real = np.cos(angles)
    table.imag = np.sin(angles)
    return table


def apply_rope_cached(x: np.ndarray, table: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Rotate float64 ``x`` (last axis contiguous) by a :func:`rope_tables`
    table: each pair ``(x1, x2)`` becomes
    ``(x1·cos − x2·sin, x1·sin + x2·cos)``, one complex multiply.

    With ``out`` (float64, last axis contiguous; captured replay passes
    an arena buffer) the product is written into its complex view and
    ``out`` is returned.
    """
    if out is None:
        return (x.view(np.complex128) * table).view(np.float64)
    np.multiply(x.view(np.complex128), table, out=out.view(np.complex128))
    return out


def apply_rope(x: np.ndarray, positions: np.ndarray,
               theta: float = 10_000.0) -> np.ndarray:
    """Rotate query/key vectors by position-dependent angles.

    Args:
        x: Array of shape ``[..., L, n_heads, d_head]`` (heads axis may be 1).
        positions: Integer positions of shape ``[L]`` or broadcastable to
            ``x.shape[:-2]`` + ``(L,)``.
        theta: RoPE base.

    Returns:
        Array of the same shape and dtype as ``x``.
    """
    return apply_rope_cached(x, rope_tables(positions, x.shape[-1], theta))
