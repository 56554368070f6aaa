"""One RoPE table per ``(d_head, theta)`` gives every position its own bits.

:func:`repro.model.rope.rope_table` builds ``rope_tables(arange(n))``
once and regrows it by doubling; the sharded model and replay slice a
chunk's rows from it, the reference model gathers per-row positions.
Both must give, bit for bit, the table of those positions alone:

* a slice ``[off, off + L)`` equals ``rope_tables(arange(L) + off)``
  for every even ``d_head`` from 4 to 128, ``L`` from 1 to 16 and
  offsets below 300 — read while the table grows and again after it has
  regrown;
* a gather of a ``[B, L]`` position array (rows at different lengths)
  equals each row's own table.

The bits of ``cos``/``sin`` may depend on the CPU's SIMD dispatch, so
CI runs this file on both BLAS-thread legs of its ``capture`` job.
"""

import numpy as np
import pytest

from repro.model import rope
from repro.model.rope import rope_table, rope_tables

THETA = 10_000.0
D_HEADS = range(4, 129, 2)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.fixture(autouse=True)
def fresh_tables(monkeypatch):
    monkeypatch.setattr(rope, "_TABLES", {})


@pytest.mark.parametrize("d_head", D_HEADS)
def test_slices_match_tables_of_their_positions(d_head):
    rng = np.random.default_rng(d_head)
    probes = [(length, int(off)) for length in range(1, 17)
              for off in rng.integers(0, 300, 9)]
    lengths = set()
    for length, off in probes:  # the table regrows along the way
        table = rope_table(d_head, THETA, off + length)
        lengths.add(len(table))
        assert same_bits(table[off:off + length],
                         rope_tables(np.arange(length) + off, d_head, THETA))
    assert len(lengths) > 1
    grown = rope_table(d_head, THETA, 2 * len(table) + 1)
    assert len(grown) == 2 * len(table) + 1
    for length, off in probes:  # every row again, from the regrown table
        assert same_bits(grown[off:off + length],
                         rope_tables(np.arange(length) + off, d_head, THETA))


@pytest.mark.parametrize("d_head", [4, 8, 64, 128])
def test_per_row_gathers_match_per_row_tables(d_head):
    rng = np.random.default_rng(d_head)
    lengths = rng.integers(0, 300, 5)
    positions = lengths[:, None] + np.arange(7)
    rows = rope_table(d_head, THETA, int(positions.max()) + 1)[positions]
    assert same_bits(rows, rope_tables(positions, d_head, THETA))
    for b, row in enumerate(positions):
        assert same_bits(rows[b], rope_tables(row, d_head, THETA))


def test_one_read_only_table_per_head_size_and_theta():
    table = rope_table(8, THETA, 16)
    assert rope_table(8, THETA, 10) is table
    assert rope_table(8, 500.0, 10) is not table
    assert rope_table(4, THETA, 10) is not table
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0
    assert len(rope_table(8, THETA, 17)) == 32  # regrown by doubling
