"""Vectorized kernels for the stacked-shard mesh backend.

A *stacked* :class:`~repro.mesh.sharded_tensor.ShardedTensor` keeps all of
its per-device shards in one dense numpy array, the three device axes
leading.  The device grid holds **one copy along every mesh axis the
spec replicates** (an axis missing from the spec, Section 3.1): size 1
there, the mesh size on every axis the spec shards or partially sums.
Every kernel here reads and writes that layout — the device-local
kernels broadcast their size-1 grid axes, each collective takes its
group metadata from its operand's grid and returns one copy of a
replicated result, and :func:`from_global` stores one copy — so a
replicated value is computed and stored once, eager and replayed.
Indexing the grid with a device coordinate, cut to 0 on a size-1 axis,
yields that device's shard (as a view).  Each collective is a single
reshape/transpose/reduce over the device axes instead of a Python loop
over communication groups — below a size limit, one gather through an
index table traced from that kernel (:func:`indexed_collective`), the
same table eagerly and in replay — and each sharded contraction one
call over the whole device grid (:func:`contract`: a batched BLAS
``np.matmul`` for weight contractions, ``np.einsum`` otherwise).

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
  the per-device product's, replicas held as size-1 batch axes
  included (``tests/unit/test_contraction_kernel.py``).
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


# ---------------------------------------------------------------------------
# Device-axis rearrangement
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _axes_meta(mesh_shape: tuple[int, int, int], part: tuple[int, ...],
               grid: tuple[int, int, int]):
    """Precomputed device-axis bookkeeping for groups over the device axes
    ``part`` of an operand held on device ``grid``.

    Returns ``(rest, part, inverse, rest_shape, part_shape, k, grid,
    reduced)``.  ``grid`` is the operand's grid with the group axes at
    their mesh size (an operand replicated along them, as a
    :func:`split` reads, is broadcast to it); ``reduced`` is that grid
    with the group axes at size 1, the grid of a result replicated over
    each group.  ``inverse`` undoes the ``rest + part`` device-axis
    permutation.  Every collective needs this tiny computation;
    memoizing it (a handful of distinct keys per model) keeps the
    per-call Python work to a dict lookup.
    """
    grid = tuple(mesh_shape[i] if i in part else n
                 for i, n in enumerate(grid))
    rest = tuple(i for i in range(3) if i not in part)
    order = rest + part
    inverse = tuple(order.index(d) for d in range(3))
    rest_shape = tuple(grid[i] for i in rest)
    part_shape = tuple(grid[i] for i in part)
    reduced = tuple(1 if i in part else n for i, n in enumerate(grid))
    return (rest, part, inverse, rest_shape, part_shape,
            math.prod(part_shape), grid, reduced)


def group_meta(mesh, axes: Sequence[str], grid: Sequence[int]):
    """The :func:`_axes_meta` of communication groups over ``axes`` for
    an operand on device ``grid``: the resolved parameter the
    collectives below take."""
    return _axes_meta(mesh.shape, tuple(mesh.axis_indices(axes)),
                      tuple(grid))


def _ungroup(arr: np.ndarray, meta, new_local: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`_group_view` for a (possibly new) local shape.

    ``np.einsum``'s reduction order — and therefore its low bits — depends
    on operand strides, so stacked results present each device's local
    block with the same (C-contiguous) layout the loop backend produces:
    the result is copied to C order.
    """
    _, _, inverse, rest_shape, part_shape, _, _, _ = meta
    arr = arr.reshape(rest_shape + part_shape + tuple(new_local))
    return np.ascontiguousarray(
        arr.transpose(inverse + tuple(range(3, arr.ndim))))


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


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------
#
# Every collective takes its groups already resolved (``meta``, from
# :func:`group_meta` on the operand's grid): :mod:`repro.mesh.ops`
# resolves them once per op and records the same call as its replay
# closure.  An operand holds one copy along every mesh axis its spec
# replicates, and so does the result: all-gather and all-reduce results,
# replicated over each group, keep one copy per group.

def _group_view(shards: np.ndarray, meta):
    """Rearrange ``[d0, d1, d2, *local]`` to ``[rest..., K, *local]``.

    The merged ``K`` axis enumerates each communication group row-major in
    the group axes' order (matching ``mesh.groups``/``rank_in_group``);
    ``meta`` is the groups' :func:`group_meta`, which :func:`_ungroup`
    takes to undo it.
    """
    rest, part, _, rest_shape, _, k, _, _ = meta
    moved = shards.transpose(rest + part + tuple(range(3, shards.ndim)))
    return moved.reshape(rest_shape + (k,) + shards.shape[3:])


def all_gather(shards: np.ndarray, dim_idx: int, meta) -> np.ndarray:
    """Concatenate each group's shards along ``dim_idx``: one copy per
    group, size 1 on the group axes."""
    grouped = _group_view(shards, meta)
    nrest = len(meta[0])
    k = meta[5]
    local = shards.shape[3:]
    # Move the group axis to sit immediately before the gathered dim, then
    # merge them: concatenation in group order == reshape of (K, l_d).
    merged = np.moveaxis(grouped, nrest, nrest + dim_idx)
    new_local = (local[:dim_idx] + (k * local[dim_idx],)
                 + local[dim_idx + 1:])
    # The rest axes keep their ascending device order, so size-1 group
    # axes drop into place without a transpose.
    return np.ascontiguousarray(merged.reshape(meta[7] + new_local))


def reduce_scatter(shards: np.ndarray, dim_idx: int, meta) -> np.ndarray:
    """Sum each group sequentially, scatter chunks of ``dim_idx`` by rank."""
    grouped = _group_view(shards, meta)
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


def all_reduce(shards: np.ndarray, meta) -> np.ndarray:
    """Sum each group sequentially: one copy of each group's total."""
    total = _group_sum(_group_view(shards, meta), len(meta[0]))
    return np.ascontiguousarray(total).reshape(meta[7] + shards.shape[3:])


# One gather's worth of precomputed indices (counted over the whole mesh);
# above this the index table stops being worth the saved calls, and the
# collective runs its group kernel, eagerly and in replay alike.
_INDEXED_COLLECTIVE_LIMIT = 1 << 18


@lru_cache(maxsize=128)
def _collective_index_table(mesh_shape: tuple[int, int, int],
                            part: tuple[int, ...], kind: str,
                            dim_idx: int | None, in_shape: tuple[int, ...]):
    """``(table, out_shape)`` of one indexed collective, read-only.

    ``in_shape`` is the operand's stacked shape, one copy along each
    axis its spec replicates (or the mesh size, for a fault-widened
    operand).  The table is the group kernel above run on an ``arange``
    probe of that shape, so it reads and writes the same copies the
    kernel does; a reduction keeps every rank, in order.

    Memoized process-wide: every eager step and every program that runs
    the same collective on the same mesh and operand shape (each layer
    of a model, each program of a deployment, each replica of a fleet)
    shares one table instead of re-tracing and storing its own.  The
    table is frozen (``writeable=False``) because every caller holds the
    same array.
    """
    meta = _axes_meta(mesh_shape, part, in_shape[:3])
    probe = np.arange(math.prod(in_shape)).reshape(in_shape)
    if kind == "all_gather":
        table = all_gather(probe, dim_idx, meta)
        table.setflags(write=False)
        return table, table.shape

    nrest, k, local = len(meta[0]), meta[5], in_shape[3:]
    gidx = np.ascontiguousarray(_group_view(probe, meta))
    summed_shape = meta[3] + local
    order = np.arange(math.prod(summed_shape)).reshape(summed_shape)
    if kind == "all_reduce":
        ridx = order.reshape(meta[7] + local)
    else:
        chunk = local[dim_idx] // k
        split = order.reshape(meta[3] + local[:dim_idx] + (k, chunk)
                              + local[dim_idx + 1:])
        moved = np.moveaxis(split, nrest + dim_idx, nrest)
        ridx = _ungroup(moved, meta,
                        local[:dim_idx] + (chunk,) + local[dim_idx + 1:])

    # Combined table: output position ``o`` sums ``in_flat[comb[r, o]]``
    # over ranks ``r`` in ascending order — the same operands in the same
    # order as the sequential row adds of ``_group_sum`` (an outer-axis
    # ``add.reduce`` accumulates in index order; pairwise blocking only
    # applies to innermost-axis reductions).  One gather, one reduction.
    rflat = ridx.reshape(-1)
    comb = np.stack([
        np.ascontiguousarray(gidx[(slice(None),) * nrest + (rank,)])
        .reshape(-1)[rflat] for rank in range(k)])
    comb.setflags(write=False)
    return comb, ridx.shape


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


def indexed_collective(mesh, meta: tuple, in_shape):
    """A collective with its data movement traced to one gather, or
    ``None`` when it keeps its group kernel.

    ``meta`` is the op as :mod:`repro.mesh.ops` records it,
    ``(kind, axes)`` or ``(kind, axes, dim_idx)`` for an ``all_gather``,
    ``reduce_scatter`` or ``all_reduce``; ``in_shape`` is the operand's
    stacked shape.  The movement portions of a collective (grouping,
    scattering) are pure permutations-with-duplication of the input
    elements, so the group kernel run once over an ``arange`` probe
    yields, at each output position, the flat *index* of the input
    element that lands there (:func:`_collective_index_table`) — after
    which the collective is a single ``np.take``.  The reduction portion
    keeps the exact left-to-right sequential adds of :func:`_group_sum`
    (:func:`_ordered_row_sum`), so every output bit matches the group
    kernels above.  Returns ``None`` when the shape is too large for an
    index table to pay off, or a group of one leaves nothing to reduce.

    The closure allocates its result — an eager step's, or a captured
    program's output — and carries ``index_table`` and ``out_shape``,
    which :func:`prebind_collective_indexed` binds to reused buffers.
    """
    kind, axes = meta[:2]
    in_shape = tuple(in_shape)
    if (math.prod(mesh.shape) * math.prod(in_shape[3:])
            > _INDEXED_COLLECTIVE_LIMIT
            or kind != "all_gather" and mesh.group_size(axes) < 2):
        return None
    table, out_shape = _collective_index_table(
        mesh.shape, mesh.axis_indices(axes), kind,
        meta[2] if len(meta) > 2 else None, in_shape)
    if kind == "all_gather":
        def run(a):
            return a.reshape(-1).take(table)
    else:
        def run(a):
            out = np.empty(out_shape, a.dtype)
            _ordered_row_sum(a.reshape(-1).take(table), out.reshape(-1))
            return out
    run.index_table = table
    run.out_shape = out_shape
    return run


def prebind_collective_indexed(indexed, dtype, *, scratch: dict):
    """The replay form of an :func:`indexed_collective` closure: the
    same table, gathering into buffers reused across replays.

    Each closure owns its output buffer.  Reductions gather into a
    scratch buffer that is dead once the closure returns, so closures of
    one program — which replays serially — share one per (shape, dtype)
    through ``scratch``.
    """
    table, dtype = indexed.index_table, np.dtype(dtype)
    obuf = np.empty(indexed.out_shape, dtype)

    if table.shape == obuf.shape:  # a gather's table is its output
        def run(a):
            a.reshape(-1).take(table, out=obuf)
            return obuf
    else:  # a reduction's table has one row per rank
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


def all_to_all(shards: np.ndarray, src_idx: int, dst_idx: int,
               meta) -> np.ndarray:
    """Gather into ``src_idx``, scatter out of ``dst_idx`` (per group)."""
    grouped = _group_view(shards, meta)
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


def split(shards: np.ndarray, dim_idx: int, meta) -> np.ndarray:
    """Each device keeps its own rank's chunk of its replica (no comm).

    The operand is replicated along the group axes, so it holds one copy
    there; it is read through a broadcast over each group."""
    shards = np.broadcast_to(shards, meta[6] + shards.shape[3:])
    grouped = _group_view(shards, meta)
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
    one device's shard — so an operand holding one copy along a
    replicated axis is read by every position of the other.  A
    :func:`matmul_form` contraction is one BLAS ``np.matmul`` of
    ``[..., M, C]`` by ``[..., C, N]`` (the transposed form reads ``b``
    through a transposed view); any other is one
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

    Splits every sharded dim into its (row-major) axis factors and
    transposes the factors into device-axis position; a mesh axis the
    spec does not use (replication) is size 1.
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
    return np.ascontiguousarray(arr)


@lru_cache(maxsize=None)
def replicated_axes(spec) -> tuple[int, ...]:
    """Device axes (0, 1, 2 for x, y, z) that ``spec`` neither shards
    nor partially sums: a mesh axis missing from the spec (Section 3.1),
    along which every device holds the same copy."""
    used = set(spec.mesh_axes_used)
    return tuple(i for i, a in enumerate(AXIS_NAMES) if a not in used)


@lru_cache(maxsize=1024)
def holds_spec(spec, mesh_shape: tuple[int, int, int],
               grid: tuple[int, int, int]) -> bool:
    """True when a stacked array on device ``grid`` may hold a value of
    ``spec``: the mesh size on every axis, or size 1 (one copy) on an
    axis the spec replicates."""
    rep = replicated_axes(spec)
    return all(n == size or (n == 1 and i in rep)
               for i, (n, size) in enumerate(zip(grid, mesh_shape)))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``a`` and ``b`` (broadcast together) hold the same bit
    patterns: ``-0.0`` is not a copy of ``0.0``, and a NaN is a copy
    only of a NaN with the same payload."""
    if a.dtype != b.dtype:
        return False
    bits = f"V{a.dtype.itemsize}"
    return bool((a.view(bits) == b.view(bits)).all())


@lru_cache(maxsize=None)
def _copy_zero(spec) -> tuple:
    """The basic index keeping copy 0, as a size-1 axis, of every device
    axis ``spec`` replicates."""
    rep = replicated_axes(spec)
    return tuple(slice(0, 1) if i in rep else slice(None) for i in range(3))


def collapse_replicas(spec, shards: np.ndarray,
                      check: bool = True) -> np.ndarray:
    """One copy of a stacked array along each axis ``spec`` replicates.

    An array already holding one copy is returned as it is.  One that is
    full along such an axis (a widened value, see
    :meth:`repro.mesh.faults.FaultState.post_collective`, or a column of
    a fused projection) is cut to its all-zero coordinate, as a size-1
    view.  With ``check``, the other copies must have the same bits
    (:func:`same_bits`), else :class:`~repro.sharding.spec.ShardingError`.
    """
    from repro.sharding.spec import ShardingError

    first = shards[_copy_zero(spec)]
    if first.shape == shards.shape:
        return shards
    if check and not same_bits(shards, first):
        raise ShardingError(
            f"replicas disagree for spec {spec} on mesh "
            f"{shards.shape[:3]}")
    return first


def reassemble(spec, shards: np.ndarray) -> np.ndarray:
    """The global array of a stacked array (one copy along each axis
    ``spec`` replicates; of a wider array, copy 0 is read).

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

    ``in_shape`` is the operand as a captured program holds it, one copy
    along each replicated mesh axis.  Replay is one
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
                       local: tuple[int, ...]) -> np.ndarray:
    probe = np.arange(math.prod(global_shape)).reshape(global_shape)
    table = _from_global_dense(mesh_shape, probe, spec, local)
    table.setflags(write=False)
    return table


def prebind_from_global(mesh, spec, global_shape: Sequence[int],
                        local: Sequence[int], dtype):
    """:func:`from_global` traced to one gather into a reused buffer.
    ``None`` when too large for a table."""
    if math.prod(mesh.shape) * math.prod(local) > _INDEXED_COLLECTIVE_LIMIT:
        return None
    table = _from_global_table(mesh.shape, spec, tuple(global_shape),
                               tuple(local))
    obuf = np.empty(table.shape, dtype)

    def run(g):
        g.reshape(-1).take(table, out=obuf)
        return obuf
    run.out_buffer = obuf
    return run


def to_global(mesh, spec, global_shape: Sequence[int], shards: np.ndarray,
              check_replication: bool = True) -> np.ndarray:
    """Reassemble the global array from a dense stacked representation.

    Mirrors the loop backend exactly: one copy is read along each
    replicated axis — any other copies a widened array holds are checked
    bit for bit against it (:func:`collapse_replicas`) — partial
    sums accumulate sequentially in row-major device order, and sharded
    dims are reassembled by inverting :func:`from_global`.
    """
    arr = reassemble(spec, collapse_replicas(spec, shards,
                                             check_replication))
    return np.array(arr.reshape(tuple(global_shape)))
