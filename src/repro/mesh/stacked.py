"""Vectorized kernels for the stacked-shard mesh backend.

A *stacked* :class:`~repro.mesh.sharded_tensor.ShardedTensor` keeps all of
its per-device shards in one dense numpy array of shape ``mesh.shape +
local_shape`` — the three device axes leading.  Indexing with a device
coordinate still yields that device's shard (as a view), so every
loop-backend code path remains valid on stacked tensors; the kernels here
additionally turn each collective into a single reshape/transpose/reduce
over the device axes instead of a Python loop over communication groups,
and each sharded contraction into one call over the whole device grid
(:func:`contract`: a batched BLAS ``np.matmul`` for weight contractions,
``np.einsum`` otherwise).

Bit-exactness contract
----------------------
The stacked backend is required to produce *bit-identical* shards to the
loop backend (the differential suite in ``tests/unit/test_mesh_backends.py``
asserts exact equality).  Two details make that hold:

* Group reductions accumulate **sequentially, left to right in group
  order** (a short Python loop over the group axis — at most the mesh
  axis-size product of additions, each itself a whole-mesh vectorized
  add), rather than ``np.sum``, whose pairwise summation could reassociate
  floating-point adds.
* Both backends contract through the one kernel, :func:`contract`: the
  loop backend calls it per device, the stacked backend once with the
  device grid as leading batch axes, and capture-replay runners make its
  ``np.matmul`` call with the same operand shapes.  A batched
  ``np.matmul`` runs one BLAS product per batch entry, so its bits equal
  the per-device product's, replicas held as stride-0 or collapsed
  size-1 batch axes included (``tests/unit/test_contraction_kernel.py``).
  What the bits *do* depend on is the product each device runs:
  - A product split by columns can differ in the low bits from the
    full product's columns, so a fused projection must be fused
    everywhere — the model issues it (:mod:`repro.layouts.model`), not
    the replay optimizer.
  - A row's bits depend on the row count M: M = 1 takes a
    matrix-vector kernel.  Batch size and chunk length are part of
    every program's signature, so eager and replay always agree, but
    the same token's logits at two batch sizes need not.
  - A transposed operand (the logits head reads the ``[V, E]``
    embedding as ``[E, V]``) takes another kernel than a contiguous
    copy of it would, so every path reads it through the same view.
  - The remaining ``np.einsum`` contractions keep their older
    guarantee: a leading batch subscript leaves the per-slice
    contraction loop unchanged.

Axis-ordering convention matches :mod:`repro.mesh.ops`: a communication
group over ``axes`` is ordered row-major with the *last* listed axis
innermost, which is exactly the order produced by transposing the device
axes into ``axes`` order and flattening.

Observability: these kernels carry no instrumentation of their own — the
span hooks live at the backend-independent entry points in
:mod:`repro.mesh.ops`, so a tracer sees the same event stream whichever
backend executes it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.hardware.topology import AXIS_NAMES


def is_stacked(shards: np.ndarray) -> bool:
    """True if ``shards`` is a dense stacked array (not an object array)."""
    return isinstance(shards, np.ndarray) and shards.dtype != object


def stack_shards(mesh, shards: np.ndarray) -> np.ndarray:
    """Convert an object array of per-device shards to the dense form."""
    if is_stacked(shards):
        return shards
    first = shards[0, 0, 0]
    out = np.empty(mesh.shape + first.shape, dtype=first.dtype)
    for coord in mesh.devices():
        out[coord] = shards[coord]
    return out


def unstack_shards(mesh, dense: np.ndarray) -> np.ndarray:
    """Convert a dense stacked array to an object array of per-device
    shards.

    A contiguous slice of ``dense`` is kept as a view; only
    non-contiguous slices (e.g. of a transposed stacked array) are
    copied, so the common unstack of a freshly materialized stacked
    tensor allocates nothing.
    """
    out = mesh.empty_shards()
    for coord in mesh.devices():
        shard = dense[coord]
        if not shard.flags["C_CONTIGUOUS"]:
            shard = np.ascontiguousarray(shard)
        out[coord] = shard
    return out


# ---------------------------------------------------------------------------
# Device-axis rearrangement
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _axes_meta(mesh_shape: tuple[int, int, int], part: tuple[int, ...]):
    """Precomputed device-axis bookkeeping for a (mesh, axes) pair.

    Returns ``(rest, part, inverse, rest_shape, part_shape, k)`` where
    ``inverse`` undoes the ``rest + part`` device-axis permutation.  Every
    collective needs this tiny computation; memoizing it (a handful of
    distinct keys per model) keeps the per-call Python work to two dict
    lookups.
    """
    rest = tuple(i for i in range(3) if i not in part)
    order = rest + part
    inverse = tuple(order.index(d) for d in range(3))
    rest_shape = tuple(mesh_shape[i] for i in rest)
    part_shape = tuple(mesh_shape[i] for i in part)
    k = 1
    for size in part_shape:
        k *= size
    return rest, part, inverse, rest_shape, part_shape, k


def _group_view(mesh, shards: np.ndarray, axes: Sequence[str]):
    """Rearrange ``[d0, d1, d2, *local]`` to ``[rest..., K, *local]``.

    The merged ``K`` axis enumerates each communication group row-major in
    ``axes`` order (matching ``mesh.groups``/``rank_in_group``).  Returns
    the rearranged array plus the metadata needed by :func:`_ungroup`.
    """
    meta = _axes_meta(mesh.shape, tuple(mesh.axis_indices(axes)))
    rest, part, _, rest_shape, _, k = meta
    moved = shards.transpose(rest + part + tuple(range(3, shards.ndim)))
    grouped = moved.reshape(rest_shape + (k,) + shards.shape[3:])
    return grouped, meta


def _ungroup(arr: np.ndarray, meta, new_local: Sequence[int],
             materialize: bool = True) -> np.ndarray:
    """Inverse of :func:`_group_view` for a (possibly new) local shape.

    ``np.einsum``'s reduction order — and therefore its low bits — depends
    on operand strides, so stacked results must present each device's
    local block with the same (C-contiguous) layout the loop backend
    produces.  ``materialize=True`` copies per device to guarantee that.
    Replicating collectives instead copy once per *group* before
    broadcasting and pass ``materialize=False``: the device-axis transpose
    below only permutes (possibly zero-stride) device axes, leaving each
    local block contiguous, so replicas stay O(result-per-group) views.
    """
    _, _, inverse, rest_shape, part_shape, _ = meta
    arr = arr.reshape(rest_shape + part_shape + tuple(new_local))
    out = arr.transpose(inverse + tuple(range(3, arr.ndim)))
    return np.ascontiguousarray(out) if materialize else out


def _group_sum(grouped: np.ndarray, group_axis: int) -> np.ndarray:
    """Left-to-right sequential sum over one axis (loop-order bit-exact)."""
    k = grouped.shape[group_axis]
    index = [slice(None)] * grouped.ndim
    index[group_axis] = 0
    total = grouped[tuple(index)]
    for rank in range(1, k):
        index[group_axis] = rank
        total = total + grouped[tuple(index)]
    return total


def _replicate(arr: np.ndarray, meta) -> np.ndarray:
    """Broadcast a per-group result ``[rest..., *local]`` over the group."""
    _, _, _, rest_shape, _, k = meta
    local = arr.shape[len(rest_shape):]
    expanded = arr.reshape(rest_shape + (1,) + local)
    return np.broadcast_to(expanded, rest_shape + (k,) + local)


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------

def _grouped_view_meta(shards: np.ndarray, meta):
    """:func:`_group_view` against already-resolved ``meta``."""
    rest, part, _, rest_shape, _, k = meta
    moved = shards.transpose(rest + part + tuple(range(3, shards.ndim)))
    return moved.reshape(rest_shape + (k,) + shards.shape[3:])


def _all_gather_meta(shards: np.ndarray, dim_idx: int, meta) -> np.ndarray:
    grouped = _grouped_view_meta(shards, meta)
    nrest = len(meta[0])
    k = meta[5]
    local = shards.shape[3:]
    # Move the group axis to sit immediately before the gathered dim, then
    # merge them: concatenation in group order == reshape of (K, l_d).
    merged = np.moveaxis(grouped, nrest, nrest + dim_idx)
    new_local = (local[:dim_idx] + (k * local[dim_idx],)
                 + local[dim_idx + 1:])
    # One copy per group (not per replica): the broadcast replicas then
    # share contiguous local blocks, matching the loop backend's layout.
    gathered = np.ascontiguousarray(merged.reshape(meta[3] + new_local))
    return _ungroup(_replicate(gathered, meta), meta, new_local,
                    materialize=False)


def all_gather(mesh, shards: np.ndarray, axes: Sequence[str],
               dim_idx: int) -> np.ndarray:
    """Concatenate each group's shards along ``dim_idx``, replicated."""
    meta = _axes_meta(mesh.shape, tuple(mesh.axis_indices(axes)))
    return _all_gather_meta(shards, dim_idx, meta)


def _reduce_scatter_meta(shards: np.ndarray, dim_idx: int,
                         meta) -> np.ndarray:
    grouped = _grouped_view_meta(shards, meta)
    nrest = len(meta[0])
    k = meta[5]
    local = shards.shape[3:]
    total = _group_sum(grouped, nrest)
    chunk = local[dim_idx] // k
    split = total.reshape(meta[3] + local[:dim_idx] + (k, chunk)
                          + local[dim_idx + 1:])
    out = np.moveaxis(split, nrest + dim_idx, nrest)
    new_local = local[:dim_idx] + (chunk,) + local[dim_idx + 1:]
    return _ungroup(out, meta, new_local)


def reduce_scatter(mesh, shards: np.ndarray, axes: Sequence[str],
                   dim_idx: int) -> np.ndarray:
    """Sum each group sequentially, scatter chunks of ``dim_idx`` by rank."""
    meta = _axes_meta(mesh.shape, tuple(mesh.axis_indices(axes)))
    return _reduce_scatter_meta(shards, dim_idx, meta)


def _all_reduce_meta(shards: np.ndarray, meta) -> np.ndarray:
    grouped = _grouped_view_meta(shards, meta)
    total = np.ascontiguousarray(_group_sum(grouped, len(meta[0])))
    return _ungroup(_replicate(total, meta), meta, shards.shape[3:],
                    materialize=False)


def all_reduce(mesh, shards: np.ndarray, axes: Sequence[str]) -> np.ndarray:
    """Sum each group sequentially, replicating the total."""
    meta = _axes_meta(mesh.shape, tuple(mesh.axis_indices(axes)))
    return _all_reduce_meta(shards, meta)


def prebind_collective(mesh, kind: str, axes: Sequence[str],
                       dim_idx: int | None = None):
    """A single-argument collective closure with its metadata resolved.

    The capture-replay optimizer swaps a recorded collective's generic
    closure (which re-resolves ``_axes_meta`` per call) for one of
    these: same kernel, same meta, precomputed once — so the per-replay
    Python work drops to the kernel body itself.  Returns ``None`` for
    kinds without a prebound form (the optimizer then leaves the
    instruction untouched).
    """
    meta = _axes_meta(mesh.shape, tuple(mesh.axis_indices(axes)))
    if kind == "all_gather":
        return lambda s: _all_gather_meta(s, dim_idx, meta)
    if kind == "reduce_scatter":
        return lambda s: _reduce_scatter_meta(s, dim_idx, meta)
    if kind == "all_reduce":
        return lambda s: _all_reduce_meta(s, meta)
    return None


# One gather's worth of precomputed indices; above this the index table
# (and the materialized replica copies it implies) stops being worth the
# saved calls — prefill-sized tensors keep the meta-kernel form.
_INDEXED_COLLECTIVE_LIMIT = 1 << 18


def collective_indexable(mesh, kind: str, local_shape) -> bool:
    """True when :func:`prebind_collective_indexed` can trace ``kind`` on
    an operand with per-device shape ``local_shape``."""
    return (kind in ("all_gather", "all_reduce", "reduce_scatter")
            and math.prod(mesh.shape) * math.prod(local_shape)
            <= _INDEXED_COLLECTIVE_LIMIT)


@lru_cache(maxsize=128)
def _full_collective_table(mesh_shape: tuple[int, int, int],
                           part: tuple[int, ...], kind: str,
                           dim_idx: int | None, in_shape: tuple[int, ...]):
    """``(table, out_shape)`` of one indexed collective on full operands."""
    meta = _axes_meta(mesh_shape, part)
    nrest = len(meta[0])
    k = meta[5]
    probe = np.arange(int(np.prod(in_shape))).reshape(in_shape)
    local = in_shape[3:]

    if kind == "all_gather":
        table = np.ascontiguousarray(_all_gather_meta(probe, dim_idx, meta))
        table.setflags(write=False)
        return table, table.shape

    gidx = np.ascontiguousarray(_grouped_view_meta(probe, meta))
    rows = tuple((slice(None),) * nrest + (rank,) for rank in range(k))
    summed_shape = meta[3] + local
    probe2 = np.arange(int(np.prod(summed_shape))).reshape(summed_shape)

    if kind == "all_reduce":
        ridx = np.ascontiguousarray(
            _ungroup(_replicate(probe2, meta), meta, local,
                     materialize=False))
    else:
        chunk = local[dim_idx] // k
        split = probe2.reshape(meta[3] + local[:dim_idx] + (k, chunk)
                               + local[dim_idx + 1:])
        moved = np.moveaxis(split, nrest + dim_idx, nrest)
        new_local = local[:dim_idx] + (chunk,) + local[dim_idx + 1:]
        ridx = np.ascontiguousarray(_ungroup(moved, meta, new_local))

    # Combined table: output position ``o`` sums ``in_flat[comb[r, o]]``
    # over ranks ``r`` in ascending order — the same operands in the same
    # order as the sequential row adds of ``_group_sum`` (an outer-axis
    # ``add.reduce`` accumulates in index order; pairwise blocking only
    # applies to innermost-axis reductions).  One gather, one reduction.
    rflat = ridx.reshape(-1)
    comb = np.stack([
        np.ascontiguousarray(gidx[row]).reshape(-1)[rflat] for row in rows])
    comb.setflags(write=False)
    return comb, ridx.shape


def _remap_collapsed(flat: np.ndarray, full_shape: tuple[int, ...],
                     shape: tuple[int, ...]) -> np.ndarray:
    """Flat indices into a ``full_shape`` array, re-aimed at the same
    elements of its ``shape`` form, whose size-1 mesh axes are collapsed
    replicas: every index on a collapsed axis reads copy 0."""
    coords = np.unravel_index(flat, full_shape)
    coords = tuple(c if n == full else np.zeros_like(c)
                   for c, n, full in zip(coords, shape, full_shape))
    return np.ravel_multi_index(coords, shape)


def _grid_slice(lead) -> tuple:
    return tuple(slice(0, n) for n in lead)


@lru_cache(maxsize=128)
def _collective_index_table(mesh_shape: tuple[int, int, int],
                            part: tuple[int, ...], kind: str,
                            dim_idx: int | None, in_shape: tuple[int, ...],
                            out_lead: tuple[int, int, int]):
    """``(table, out_shape)`` of one indexed collective, read-only.

    ``in_shape`` is the operand as a program holds it: a mesh axis of
    size 1 where the mesh is wider is a collapsed replica (see
    :mod:`repro.mesh.replay_opt`), read at copy 0.  ``out_lead`` is the
    device grid of the result: a size-1 axis keeps only the copy at
    index 0 of a replicated result.  Both are index arithmetic on the
    full-operand table; a reduction keeps every rank, in order.

    Memoized process-wide: every program that replays the same
    collective on the same mesh and operand shape (each layer of a
    model, each program of a deployment, each replica of a fleet) shares
    one table instead of re-tracing and storing its own.  The table is
    frozen (``writeable=False``) because every caller holds the same
    array.
    """
    full_in = mesh_shape + in_shape[3:]
    table, full_out = _full_collective_table(mesh_shape, part, kind,
                                             dim_idx, full_in)
    if in_shape == full_in and out_lead == mesh_shape:
        return table, full_out
    if kind == "all_gather":
        table = table[_grid_slice(out_lead)]
    else:
        k = table.shape[0]
        table = table.reshape((k,) + full_out)
        table = table[(slice(None),) + _grid_slice(out_lead)].reshape(k, -1)
    table = np.ascontiguousarray(_remap_collapsed(table, full_in, in_shape))
    table.setflags(write=False)
    return table, out_lead + full_out[3:]


def _ordered_row_sum(rows: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = rows[0] + rows[1] + ...``, left to right per column.

    An outer-axis ``add.reduce`` keeps that order only while a column
    axis remains: with a single column numpy drops it and the reduction
    becomes an innermost, pairwise one.  That case accumulates instead,
    which is sequential by definition.
    """
    if rows.shape[1] > 1:
        np.add.reduce(rows, axis=0, out=out)
    else:
        out[0] = np.add.accumulate(rows[:, 0])[-1]


def prebind_collective_indexed(mesh, kind: str, axes: Sequence[str],
                               dim_idx: int | None, in_shape,
                               dtype=np.float64, *, scratch: dict,
                               out_lead: tuple[int, int, int]):
    """A collective closure with its data movement traced to one gather.

    The movement portions of a collective (grouping, scattering,
    replication) are pure permutations-with-duplication of the input
    elements, so running the existing kernels once over an ``arange``
    probe yields, at each output position, the flat *index* of the input
    element that lands there — after which replay is a single
    ``np.take`` per movement stage.  The reduction portion keeps the
    exact left-to-right sequential adds of :func:`_group_sum` (on rows
    holding identical values), so every output bit matches the meta
    kernels.  Returns ``None`` when the shape is too large for index
    tables to pay off (the caller falls back to
    :func:`prebind_collective`).

    ``in_shape`` may hold collapsed replicas (size-1 mesh axes) and
    ``out_lead``, the result's device grid, may ask for a collapsed
    result; see :func:`_collective_index_table`.

    The index tables are shared process-wide
    (:func:`_collective_index_table`); each closure owns its output
    buffer.  Reductions gather into a scratch buffer that is dead once
    the closure returns, so closures of one program — which replays
    serially — share one per (shape, dtype) through ``scratch``.
    """
    in_shape, out_lead = tuple(in_shape), tuple(out_lead)
    if not collective_indexable(mesh, kind, in_shape[3:]):
        return None
    part = tuple(mesh.axis_indices(axes))
    full = in_shape[:3] == out_lead == mesh.shape
    if full and _axes_meta(mesh.shape, part)[5] < 2 \
            and kind != "all_gather":
        return None  # nothing to reduce; the generic prebind handles it
    table, out_shape = _collective_index_table(
        mesh.shape, part, kind, dim_idx, in_shape, out_lead)
    dtype = np.dtype(dtype)
    obuf = np.empty(out_shape, dtype)

    if kind == "all_gather":
        def run(a):
            a.reshape(-1).take(table, out=obuf)
            return obuf
    else:
        key = (table.shape, dtype)
        if key not in scratch:
            scratch[key] = np.empty(table.shape, dtype)
        gbuf = scratch[key]
        oflat = obuf.reshape(-1)

        def run(a):
            a.reshape(-1).take(table, out=gbuf)
            _ordered_row_sum(gbuf, oflat)
            return obuf
    run.index_table = table
    run.out_buffer = obuf
    return run


def all_to_all(mesh, shards: np.ndarray, axes: Sequence[str],
               src_idx: int, dst_idx: int) -> np.ndarray:
    """Gather into ``src_idx``, scatter out of ``dst_idx`` (per group)."""
    grouped, meta = _group_view(mesh, shards, axes)
    nrest = len(meta[0])
    k = meta[5]
    local = shards.shape[3:]
    merged = np.moveaxis(grouped, nrest, nrest + src_idx)
    mid_local = (local[:src_idx] + (k * local[src_idx],)
                 + local[src_idx + 1:])
    assembled = merged.reshape(meta[3] + mid_local)
    chunk = mid_local[dst_idx] // k
    split = assembled.reshape(meta[3] + mid_local[:dst_idx] + (k, chunk)
                              + mid_local[dst_idx + 1:])
    out = np.moveaxis(split, nrest + dst_idx, nrest)
    new_local = mid_local[:dst_idx] + (chunk,) + mid_local[dst_idx + 1:]
    return _ungroup(out, meta, new_local)


def split(mesh, shards: np.ndarray, axes: Sequence[str],
          dim_idx: int) -> np.ndarray:
    """Each device keeps its own rank's chunk of its replica (no comm)."""
    grouped, meta = _group_view(mesh, shards, axes)
    nrest = len(meta[0])
    k = meta[5]
    local = shards.shape[3:]
    chunk = local[dim_idx] // k
    arr = grouped.reshape(meta[3] + (k,) + local[:dim_idx] + (k, chunk)
                          + local[dim_idx + 1:])
    # Select the diagonal between the device rank axis and the chunk axis.
    moved = np.moveaxis(arr, (nrest, nrest + 1 + dim_idx), (0, 1))
    ranks = np.arange(k)
    diag = moved[ranks, ranks]
    out = np.moveaxis(diag, 0, nrest)
    new_local = local[:dim_idx] + (chunk,) + local[dim_idx + 1:]
    return _ungroup(out, meta, new_local)


# ---------------------------------------------------------------------------
# Contractions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def matmul_form(lhs: str, rhs: str, out: str) -> tuple[int, bool] | None:
    """``(k, transposed)`` when ``lhs,rhs->out`` is a matrix product on
    trailing axes, else ``None``.

    The form is ``lhs = F + C``, ``out = F + G`` and ``rhs = C + G`` —
    or ``G + C``, ``transposed`` — with ``k = len(C)`` and no letter
    repeated: every weight contraction of the sharded model
    (``ble,ef->blf``, ``ble,ehd->blhd``, ``blhd,hde->ble``,
    ``ble,ve->blv``, ...).  Anything else (a row-wise dot such as
    ``ble,ble->bl``) is not.
    """
    for k in range(1, len(lhs) + 1):
        f, c = lhs[:-k], lhs[-k:]
        g = out[len(f):]
        if (g and out.startswith(f) and rhs in (c + g, g + c)
                and len(set(f + c + g)) == len(f + c + g)):
            return k, rhs == g + c
    return None


@lru_cache(maxsize=1024)
def matmul_shapes(lhs: str, rhs: str, out: str, a_shape: tuple[int, ...],
                  b_shape: tuple[int, ...]):
    """The ``np.matmul`` operand shapes of :func:`contract` on operands
    of shapes ``a_shape``/``b_shape``: ``(a2, b2, o2, out_shape)``, where
    ``b2`` is pre-transpose for a transposed form.  Leading axes beyond
    the subscripts (the device grid) are broadcast batch dims."""
    k, transposed = matmul_form(lhs, rhs, out)
    n_a, n_b, n_g = len(lhs), len(rhs), len(out) - len(lhs) + k
    a_lead = tuple(a_shape[:len(a_shape) - n_a])
    b_lead = tuple(b_shape[:len(b_shape) - n_b])
    f_shape = tuple(a_shape[len(a_shape) - n_a:len(a_shape) - k])
    c = math.prod(a_shape[len(a_shape) - k:])
    if transposed:
        g_shape = tuple(b_shape[len(b_shape) - n_b:len(b_shape) - k])
    else:
        g_shape = tuple(b_shape[len(b_shape) - n_g:])
    m, n = math.prod(f_shape), math.prod(g_shape)
    lead = np.broadcast_shapes(a_lead, b_lead)
    return (a_lead + (m, c),
            b_lead + ((n, c) if transposed else (c, n)),
            lead + (m, n), lead + f_shape + g_shape)


def contract(lhs: str, rhs: str, out_subs: str, a: np.ndarray,
             b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``lhs,rhs->out_subs`` on one device or on the whole device grid.

    Axes of ``a`` and ``b`` before the subscripted ones are batch axes
    that broadcast — the three device axes of stacked shards, none for
    one device's shard — so replicated operands held as zero-stride
    views cost no copies.  A :func:`matmul_form` contraction is one BLAS
    ``np.matmul`` of ``[..., M, C]`` by ``[..., C, N]`` (the transposed
    form reads ``b`` through a transposed view); any other is one
    ``np.einsum``.  ``out`` (a capture-replay buffer, C-contiguous)
    receives the result without changing the kernel.  See the module's
    bit-exactness contract.
    """
    form = matmul_form(lhs, rhs, out_subs)
    if form is None:
        subscripts = f"...{lhs},...{rhs}->...{out_subs}"
        if out is None:
            return np.einsum(subscripts, a, b)
        return np.einsum(subscripts, a, b, out=out)
    a2, b2, o2, out_shape = matmul_shapes(lhs, rhs, out_subs, a.shape,
                                          b.shape)
    bm = b.reshape(b2)
    if form[1]:
        bm = bm.swapaxes(-1, -2)
    if out is None:
        return np.matmul(a.reshape(a2), bm).reshape(out_shape)
    np.matmul(a.reshape(a2), bm, out=out.reshape(o2))
    return out


# ---------------------------------------------------------------------------
# Global <-> stacked conversion
# ---------------------------------------------------------------------------

def from_global(mesh, array: np.ndarray, spec,
                local: Sequence[int]) -> np.ndarray:
    """Shard a global array into the dense stacked representation.

    Splits every sharded dim into its (row-major) axis factors, transposes
    the factors into device-axis position, and broadcasts over any mesh
    axes the spec does not use (replication).
    """
    return _from_global_dense(mesh.shape, array, spec, tuple(local))


def _from_global_dense(mesh_shape: tuple[int, int, int], array: np.ndarray,
                       spec, local: tuple[int, ...]) -> np.ndarray:
    shape: list[int] = []
    axis_pos: dict[str, int] = {}
    dim_pos: list[int] = []
    for axes, loc in zip(spec.axes, local):
        for axis in axes:
            axis_pos[axis] = len(shape)
            shape.append(mesh_shape[AXIS_NAMES.index(axis)])
        dim_pos.append(len(shape))
        shape.append(loc)
    arr = array.reshape(shape)
    used = [a for a in AXIS_NAMES if a in axis_pos]
    arr = arr.transpose([axis_pos[a] for a in used] + dim_pos)
    for i, axis in enumerate(AXIS_NAMES):
        if axis not in axis_pos:
            arr = np.expand_dims(arr, i)
    arr = np.broadcast_to(arr, mesh_shape + local)
    return np.ascontiguousarray(arr)


@lru_cache(maxsize=None)
def replicated_axes(spec) -> tuple[int, ...]:
    """Device axes (0, 1, 2 for x, y, z) that ``spec`` neither shards
    nor partially sums: a mesh axis missing from the spec (Section 3.1),
    along which every device holds the same copy."""
    used = set(spec.mesh_axes_used)
    return tuple(i for i, a in enumerate(AXIS_NAMES) if a not in used)


def collapse_replicas(spec, shards: np.ndarray,
                      check: bool = True) -> np.ndarray:
    """The first-seen replica of a stacked array, as a view.

    Every mesh axis the spec neither shards nor partially sums is cut to
    its all-zero coordinate, kept as a size-1 axis.  With ``check``, the
    other replicas must equal that copy (NaNs matching NaNs), else
    :class:`~repro.sharding.spec.ShardingError`.
    """
    from repro.sharding.spec import ShardingError

    rep_idx = replicated_axes(spec)
    if not any(shards.shape[i] > 1 for i in rep_idx):
        return shards
    first = shards[tuple(slice(0, 1) if i in rep_idx else slice(None)
                         for i in range(3))]
    if check:
        equal = shards == first
        if not equal.all() and shards.dtype.kind in "fc":
            equal |= np.isnan(shards) & np.isnan(first)
        if not equal.all():
            raise ShardingError(
                f"replicas disagree for spec {spec} on mesh "
                f"{shards.shape[:3]}")
    return first


def reassemble(spec, shards: np.ndarray) -> np.ndarray:
    """The global array of a stacked array whose replicated mesh axes
    may already be collapsed to size 1 (:func:`collapse_replicas`).

    Keeps the first replica, sums partial axes sequentially in row-major
    device order (the loop backend's addition order, so bit-identical),
    and inverts :func:`from_global` on the sharded dims.  May return a
    view of ``shards``.
    """
    return _reassemble(spec, shards, lambda parts: _group_sum(parts, 0))


def _reassemble(spec, shards: np.ndarray, reduce) -> np.ndarray:
    """:func:`reassemble` with the partial-sum reduction ``reduce``
    (applied to the ``[k, ...]`` stack of partial sums) pluggable."""
    psum_axes = set(spec.partial_sum)
    rep_idx = replicated_axes(spec)
    arr = shards[tuple(0 if i in rep_idx else slice(None)
                       for i in range(3))]
    remaining = [a for i, a in enumerate(AXIS_NAMES) if i not in rep_idx]
    psum_positions = [remaining.index(a) for a in AXIS_NAMES
                      if a in psum_axes]
    if psum_positions:
        arr = np.moveaxis(arr, psum_positions, range(len(psum_positions)))
        k = int(np.prod(arr.shape[:len(psum_positions)]))
        arr = arr.reshape((k,) + arr.shape[len(psum_positions):])
        arr = reduce(arr)
        remaining = [a for a in remaining if a not in psum_axes]

    # remaining now lists the sharding axes in device-axis order; move each
    # factor next to its dim and merge.
    pos = {a: i for i, a in enumerate(remaining)}
    nshard = len(remaining)
    perm: list[int] = []
    shape: list[int] = []
    for d, axes in enumerate(spec.axes):
        perm.extend(pos[a] for a in axes)
        perm.append(nshard + d)
        shape.append(int(np.prod([arr.shape[pos[a]] for a in axes]))
                     * arr.shape[nshard + d])
    return arr.transpose(perm).reshape(shape)


@lru_cache(maxsize=128)
def _to_global_table(spec, global_shape: tuple[int, ...],
                     in_shape: tuple[int, ...]) -> np.ndarray:
    """Flat operand indices of :func:`reassemble`: ``global_shape``
    without partial sums, else one row per partial-sum rank."""
    probe = np.arange(int(np.prod(in_shape))).reshape(in_shape)
    if not spec.partial_sum:
        table = np.ascontiguousarray(
            _reassemble(spec, probe, None).reshape(global_shape))
    else:
        k = int(np.prod([in_shape[AXIS_NAMES.index(a)]
                         for a in spec.partial_sum]))
        table = np.stack([
            np.ascontiguousarray(
                _reassemble(spec, probe, lambda parts, r=r: parts[r])
            ).reshape(-1) for r in range(k)])
    table.setflags(write=False)
    return table


def prebind_to_global(spec, global_shape: Sequence[int], in_shape):
    """:func:`to_global` without the replica check, traced to one gather.

    ``in_shape`` is the operand as a captured program holds it, whose
    replicated mesh axes may be collapsed to size 1.  Replay is one
    ``np.take`` of a table resolved here, plus, for partial sums, the
    rank-ordered row sum that :func:`reassemble` performs, so the bits
    match.  Every call returns a fresh array (it may be the program
    output).  ``None`` when the operand is too large for a table.
    """
    in_shape, gshape = tuple(in_shape), tuple(global_shape)
    if math.prod(in_shape) > _INDEXED_COLLECTIVE_LIMIT:
        return None
    table = _to_global_table(spec, gshape, in_shape)
    if not spec.partial_sum:
        return lambda a: a.reshape(-1).take(table)

    def run(a):
        out = np.empty(gshape, a.dtype)
        _ordered_row_sum(a.reshape(-1).take(table), out.reshape(-1))
        return out
    return run


@lru_cache(maxsize=128)
def _from_global_table(mesh_shape: tuple[int, int, int], spec,
                       global_shape: tuple[int, ...],
                       local: tuple[int, ...],
                       out_lead: tuple[int, int, int]) -> np.ndarray:
    probe = np.arange(int(np.prod(global_shape))).reshape(global_shape)
    table = np.ascontiguousarray(
        _from_global_dense(mesh_shape, probe, spec, local)[
            _grid_slice(out_lead)])
    table.setflags(write=False)
    return table


def prebind_from_global(mesh, spec, global_shape: Sequence[int],
                        local: Sequence[int], dtype,
                        out_lead: tuple[int, int, int]):
    """:func:`from_global` traced to one gather into a reused buffer.

    ``out_lead`` is the result's device grid: size 1 on a mesh axis the
    spec leaves replicated keeps one copy.  ``None`` when too large for
    a table.
    """
    if math.prod(mesh.shape) * math.prod(local) > _INDEXED_COLLECTIVE_LIMIT:
        return None
    table = _from_global_table(mesh.shape, spec, tuple(global_shape),
                               tuple(local), tuple(out_lead))
    obuf = np.empty(table.shape, dtype)

    def run(g):
        g.reshape(-1).take(table, out=obuf)
        return obuf
    run.out_buffer = obuf
    return run


def to_global(mesh, spec, global_shape: Sequence[int], shards: np.ndarray,
              check_replication: bool = True) -> np.ndarray:
    """Reassemble the global array from a dense stacked representation.

    Mirrors the loop backend exactly: replicas are checked for equality
    against the first-seen (all-zero replica coordinate) copy, partial
    sums accumulate sequentially in row-major device order, and sharded
    dims are reassembled by inverting :func:`from_global`.
    """
    arr = reassemble(spec, collapse_replicas(spec, shards,
                                             check_replication))
    return np.array(arr.reshape(tuple(global_shape)))
