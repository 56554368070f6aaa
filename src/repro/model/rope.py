"""Rotary position embeddings (RoPE), as used by PaLM.

RoPE acts elementwise per (position, head-dim-pair), so it commutes with
sharding over batch or heads — which is what lets the partitioned attention
layouts of Section 3.3 apply it locally on each chip.

Each (even, odd) pair of a head vector is read as one complex number
(real, imaginary), so a rotation is one complex multiply against a table
of ``cos + i·sin``: :func:`apply_rope_cached` is the one kernel every
path calls — the reference model, both mesh backends and captured replay.
They all read their tables from one shared table per ``(d_head, theta)``
(:func:`rope_table`), so none of them rebuilds it per forward.
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
    entry per (position, dimension pair), read by every query/key
    rotation at those positions through :func:`apply_rope_cached`.  Each
    entry depends on its own position alone, so a row of a table over
    ``arange(n)`` has the bits of the table of that position alone —
    what lets :func:`rope_table` serve every position from one table.
    """
    freqs = rope_frequencies(d_head, theta)
    angles = np.asarray(positions, dtype=np.float64)[..., None, None] * freqs
    table = np.empty(angles.shape, np.complex128)
    table.real = np.cos(angles)
    table.imag = np.sin(angles)
    return table


_TABLES: dict[tuple[int, float], np.ndarray] = {}


def rope_table(d_head: int, theta: float, rows: int) -> np.ndarray:
    """The shared rotation table of positions ``[0, n)``, ``n >= rows``:
    ``rope_tables(np.arange(n), d_head, theta)``, read-only.

    One table per ``(d_head, theta)`` serves every forward in the
    process: the sharded model and its captured replay slice a chunk's
    rows ``[fill, fill + L)``, and the reference model gathers its
    per-row positions.  A caller asking for more rows than the table has
    rebuilds it at least twice as long; rows already handed out keep
    their bits, which the rebuilt table repeats (``tests/unit/
    test_rope_table.py`` checks slices and gathers, before and after a
    regrowth, against tables of their positions alone).
    """
    key = (d_head, theta)
    table = _TABLES.get(key)
    # Threads racing here may each build a table; all have the same bits.
    if table is None or len(table) < rows:
        n = rows if table is None else max(rows, 2 * len(table))
        table = rope_tables(np.arange(n), d_head, theta)
        table.setflags(write=False)
        _TABLES[key] = table
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
