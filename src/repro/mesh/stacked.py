"""Vectorized kernels for the stacked-shard mesh backend.

A *stacked* :class:`~repro.mesh.sharded_tensor.ShardedTensor` keeps all of
its per-device shards in one dense numpy array of shape ``mesh.shape +
local_shape`` — the three device axes leading.  Indexing with a device
coordinate still yields that device's shard (as a view), so every
loop-backend code path remains valid on stacked tensors; the kernels here
additionally turn each collective into a single reshape/transpose/reduce
over the device axes instead of a Python loop over communication groups,
and sharded einsums into one batched ``np.einsum`` over a flattened device
axis.

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
* Batched ``np.einsum`` with a leading batch subscript produces the same
  bits as per-slice einsum, because the contraction loop per output
  element is unchanged; the test suite locks this property in.

Axis-ordering convention matches :mod:`repro.mesh.ops`: a communication
group over ``axes`` is ordered row-major with the *last* listed axis
innermost, which is exactly the order produced by transposing the device
axes into ``axes`` order and flattening.

Observability: these kernels carry no instrumentation of their own — the
span hooks live at the backend-independent entry points in
:mod:`repro.mesh.ops` and :mod:`repro.mesh.looped`, so a tracer sees the
same event stream whichever backend executes it.
"""

from __future__ import annotations

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


@lru_cache(maxsize=128)
def _collective_index_table(mesh_shape: tuple[int, int, int],
                            part: tuple[int, ...], kind: str,
                            dim_idx: int | None, in_shape: tuple[int, ...]):
    """``(table, out_shape)`` of one indexed collective, read-only.

    Memoized process-wide: every program that replays the same
    collective on the same mesh and operand shape (each layer of a
    model, each program of a deployment, each replica of a fleet) shares
    one table instead of re-tracing and storing its own.  The table is
    frozen (``writeable=False``) because every caller holds the same
    array.
    """
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


def prebind_collective_indexed(mesh, kind: str, axes: Sequence[str],
                               dim_idx: int | None, in_shape,
                               dtype=np.float64, *, scratch: dict):
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

    The index tables are shared process-wide
    (:func:`_collective_index_table`); each closure owns its output
    buffer.  Reductions gather into a scratch buffer that is dead once
    the closure returns, so closures of one program — which replays
    serially — share one per (shape, dtype) through ``scratch``.
    """
    if int(np.prod(in_shape)) > _INDEXED_COLLECTIVE_LIMIT \
            or kind not in ("all_gather", "all_reduce", "reduce_scatter"):
        return None
    part = tuple(mesh.axis_indices(axes))
    if _axes_meta(mesh.shape, part)[5] < 2 and kind != "all_gather":
        return None  # nothing to reduce; the generic prebind handles it
    table, out_shape = _collective_index_table(
        mesh.shape, part, kind, dim_idx, tuple(in_shape))
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
            np.add.reduce(gbuf, axis=0, out=oflat)
            return obuf
    run.index_table = table
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


def collective_permute(mesh, shards: np.ndarray, axis: str,
                       shift: int) -> np.ndarray:
    """Ring-shift buffers along a torus axis: one ``np.roll``."""
    axis_idx = AXIS_NAMES.index(axis)
    return np.roll(shards, shift, axis=axis_idx)


# ---------------------------------------------------------------------------
# Batched einsum
# ---------------------------------------------------------------------------

def batched_einsum(mesh, lhs: str, rhs: str, out_subs: str,
                   a_shards: np.ndarray, b_shards: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """One ``np.einsum`` over all devices (device grid as batch axes).

    The three device axes ride along as an ellipsis, which broadcasts —
    so replicated operands held as zero-stride views cost no copies.  The
    contraction loop per output element is identical to the per-device
    einsum, keeping the result bit-identical to the loop backend; the
    optional ``out`` buffer (the capture-replay arena) does not change
    the contraction order, so writing into it preserves the bits.
    """
    subscripts = _ellipsis_subscripts(lhs, rhs, out_subs)
    if out is None:
        return np.einsum(subscripts, a_shards, b_shards)
    return np.einsum(subscripts, a_shards, b_shards, out=out)


@lru_cache(maxsize=None)
def _ellipsis_subscripts(lhs: str, rhs: str, out: str) -> str:
    return f"...{lhs},...{rhs}->...{out}"


def take_local_slices(mesh, shards: np.ndarray, dim_idx: int,
                      start_grid: np.ndarray, length: int) -> np.ndarray:
    """Per-device slices ``[start:start+length]`` of one local dim.

    ``start_grid`` is an integer array over the device grid giving each
    device's slice offset — the vectorized form of the per-device
    ``np.take`` in the looped CollectiveEinsum.
    """
    local_ndim = shards.ndim - 3
    offsets = np.arange(length).reshape(
        tuple(length if i == dim_idx else 1 for i in range(local_ndim)))
    index = start_grid.reshape(mesh.shape + (1,) * local_ndim) + offsets
    return np.take_along_axis(shards, index, axis=3 + dim_idx)


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
    shape: list[int] = []
    axis_pos: dict[str, int] = {}
    dim_pos: list[int] = []
    for axes, loc in zip(spec.axes, local):
        for axis in axes:
            axis_pos[axis] = len(shape)
            shape.append(mesh.axis_size(axis))
        dim_pos.append(len(shape))
        shape.append(loc)
    arr = array.reshape(shape)
    used = [a for a in AXIS_NAMES if a in axis_pos]
    arr = arr.transpose([axis_pos[a] for a in used] + dim_pos)
    for i, axis in enumerate(AXIS_NAMES):
        if axis not in axis_pos:
            arr = np.expand_dims(arr, i)
    arr = np.broadcast_to(arr, mesh.shape + tuple(local))
    return np.ascontiguousarray(arr)


def to_global(mesh, spec, global_shape: Sequence[int], shards: np.ndarray,
              check_replication: bool = True) -> np.ndarray:
    """Reassemble the global array from a dense stacked representation.

    Mirrors the loop backend exactly: replicas are checked for equality
    against the first-seen (all-zero replica coordinate) copy, partial
    sums accumulate sequentially in row-major device order, and sharded
    dims are reassembled by inverting :func:`from_global`.
    """
    from repro.sharding.spec import ShardingError

    shard_axes = {a for group in spec.axes for a in group}
    psum_axes = set(spec.partial_sum)
    rep_idx = [i for i, a in enumerate(AXIS_NAMES)
               if a not in shard_axes and a not in psum_axes]

    if check_replication and any(mesh.shape[i] > 1 for i in rep_idx):
        ref_index = tuple(0 if i in rep_idx else slice(None)
                          for i in range(3))
        reference = shards[ref_index]
        for i in rep_idx:
            reference = np.expand_dims(reference, i)
        equal = shards == reference
        if shards.dtype.kind in "fc":
            equal = equal | (np.isnan(shards) & np.isnan(reference))
        if not equal.all():
            raise ShardingError(
                f"replicas disagree for spec {spec} on mesh {mesh.shape}")

    # Keep the first-seen replica, then sum partial axes sequentially in
    # row-major device order: flattening the partial axes (ascending
    # device-axis order) reproduces the loop backend's addition order, so
    # the reassembly is bit-identical.
    first = tuple(0 if i in rep_idx else slice(None) for i in range(3))
    arr = shards[first]
    remaining = [a for i, a in enumerate(AXIS_NAMES) if i not in rep_idx]
    psum_positions = [remaining.index(a) for a in AXIS_NAMES
                      if a in psum_axes]
    if psum_positions:
        arr = np.moveaxis(arr, psum_positions, range(len(psum_positions)))
        k = 1
        for p in psum_positions:
            k *= mesh.axis_size(remaining[p])
        arr = arr.reshape((k,) + arr.shape[len(psum_positions):])
        arr = _group_sum(arr, 0)
        remaining = [a for a in remaining if a not in psum_axes]

    # remaining now lists the sharding axes in device-axis order; move each
    # factor next to its dim and merge.
    pos = {a: i for i, a in enumerate(remaining)}
    nshard = len(remaining)
    perm: list[int] = []
    for d, axes in enumerate(spec.axes):
        perm.extend(pos[a] for a in axes)
        perm.append(nshard + d)
    return np.array(arr.transpose(perm).reshape(tuple(global_shape)))
