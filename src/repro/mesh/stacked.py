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
yields that device's shard (as a view).  Each collective is one call
over the device axes instead of a Python loop over communication
groups: an all-gather, reduce-scatter or all-reduce — and the
conversions to and from global arrays — is one ufunc between a strided
view of its operand and one of its result (:func:`view_recipe`), the
same recipe eagerly and in replay; ``all_to_all`` and ``split`` are a
reshape/transpose each.  Each sharded contraction is one call over the
whole device grid (:func:`contract`: a batched BLAS ``np.matmul`` for
weight contractions, ``np.einsum`` otherwise).

Bit-exactness contract
----------------------
The stacked backend is required to produce *bit-identical* shards to the
loop backend (the differential suite in ``tests/unit/test_mesh_backends.py``
asserts exact equality).  Two details make that hold:

* Group reductions keep the loop's **rank order**: each sum starts from
  rank 0's value and adds ranks left to right in group order.  A
  reduction is one ``np.add.reduce`` over a view whose axis 0 walks the
  group's ranks, started from ``-0.0`` (``x + -0.0`` is ``x`` bit for
  bit, where numpy's default start, ``0.0``, turns an all ``-0.0`` sum
  into ``0.0``).  numpy adds along an outer axis in index order, but
  sums its innermost loop pairwise, which reassociates the adds.  So a
  recipe reduces its operand in place only while some other axis of
  the operand view, of more than one element, has a smaller stride
  than the rank axis (the guard); otherwise, or when the ranks do not
  form one strided axis (a ``(z, y)`` group), it copies the operand
  rank-major into scratch first, where the guard holds.  A reduction to
  a single element has no other axis: it runs ``np.add.accumulate``,
  sequential by definition.  Every result is written C-contiguous, the
  layout the loop backend produces, because later einsum and BLAS calls
  read operand layout.
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
from typing import NamedTuple, Sequence

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

    Returns ``(rest, part, inverse, rest_shape, part_shape, k, grid)``.
    ``grid`` is the operand's grid with the group axes at their mesh
    size (an operand replicated along them, as a :func:`split` reads, is
    broadcast to it).  ``inverse`` undoes the ``rest + part`` device-axis
    permutation.  Each group-kernel collective needs this tiny computation;
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
    return (rest, part, inverse, rest_shape, part_shape,
            math.prod(part_shape), grid)


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
    _, _, inverse, rest_shape, part_shape, _, _ = meta
    arr = arr.reshape(rest_shape + part_shape + tuple(new_local))
    return np.ascontiguousarray(
        arr.transpose(inverse + tuple(range(3, arr.ndim))))


# ---------------------------------------------------------------------------
# Group-kernel collectives
# ---------------------------------------------------------------------------
#
# ``all_to_all`` and ``split`` take their groups already resolved
# (``meta``, from :func:`group_meta` on the operand's grid):
# :mod:`repro.mesh.ops` resolves them once per op and records the same
# call as its replay closure.  An operand holds one copy along every
# mesh axis its spec replicates, and so does the result.

def _group_view(shards: np.ndarray, meta):
    """Rearrange ``[d0, d1, d2, *local]`` to ``[rest..., K, *local]``.

    The merged ``K`` axis enumerates each communication group row-major in
    the group axes' order (matching ``mesh.groups``/``rank_in_group``);
    ``meta`` is the groups' :func:`group_meta`, which :func:`_ungroup`
    takes to undo it.
    """
    rest, part, _, rest_shape, _, k, _ = meta
    moved = shards.transpose(rest + part + tuple(range(3, shards.ndim)))
    return moved.reshape(rest_shape + (k,) + shards.shape[3:])


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
# View recipes: collectives and global conversions as one ufunc each
# ---------------------------------------------------------------------------

class Recipe(NamedTuple):
    """An all-gather, reduce-scatter, all-reduce or global conversion on
    an operand of one shape and strides, as two strided views.

    The source is the operand indexed by ``index`` and reshaped to
    ``pre`` (each when set), transposed by ``perm`` — the *wide* view,
    a reduction's rank axes leading in group order — and reshaped to
    ``shape``: for a reduction, one rank axis and then the result's
    axes.  The result is a C-contiguous ``out_shape`` array, written
    through ``out.reshape(dst_split).transpose(dst_perm)``.  ``op`` is
    ``"copy"``, ``"reduce"`` or ``"accumulate"`` (a reduction to one
    element).  Unless ``direct``, the wide view is first copied
    rank-major into scratch, and the scratch is reduced.
    """

    index: tuple | None
    pre: tuple[int, ...] | None
    perm: tuple[int, ...]
    wide: tuple[int, ...]
    shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    dst_split: tuple[int, ...]
    dst_perm: tuple[int, ...]
    op: str
    direct: bool


def _recipe(shape, strides, index, pre, perm, n_rank, out_shape,
            dst_split, dst_perm) -> Recipe:
    """The :class:`Recipe` of these views, its op and path chosen.

    ``shape``/``strides`` describe the operand after ``index`` and
    ``pre`` (a reduction has neither a ``pre`` nor more than size-1
    cuts from ``index``, so its strides are the operand's).  The first
    ``n_rank`` axes of ``perm`` are summed over, in order.
    """
    wide = tuple(shape[p] for p in perm)
    dst = tuple(dst_split[p] for p in dst_perm)
    k = math.prod(wide[:n_rank])
    if k == 1:  # nothing to add: a copy
        return Recipe(index, pre, perm, wide, dst, out_shape, dst_split,
                      dst_perm, "copy", True)
    ranks = [(n, strides[p]) for n, p in zip(wide, perm[:n_rank]) if n > 1]
    # The rank axes form one strided axis when each steps over the next.
    direct = all(s == n * t for (_, s), (n, t) in zip(ranks, ranks[1:]))
    if math.prod(dst) == 1:
        op = "accumulate"
    else:
        # An outer-axis add.reduce adds ranks in index order only while
        # some axis of the result is inner to the rank axis: innermost,
        # numpy sums pairwise.
        op, step = "reduce", abs(ranks[-1][1])
        direct = direct and any(
            n > 1 and abs(strides[p]) < step
            for n, p in zip(wide[n_rank:], perm[n_rank:]))
    return Recipe(index, pre, perm, wide, (k,) + dst, out_shape, dst_split,
                  dst_perm, op, direct)


def _dim_split(spec, sizes, local):
    """``(split, pos)``: every global dim of ``spec`` split into its mesh
    axis factors (row-major, sizes from ``sizes``) and its local size,
    and the position in ``split`` of each device axis (0-2) and local
    dim (3 + d)."""
    split: list[int] = []
    pos: dict[int, int] = {}
    for d, axes in enumerate(spec.axes):
        for axis in axes:
            pos[AXIS_NAMES.index(axis)] = len(split)
            split.append(sizes[AXIS_NAMES.index(axis)])
        pos[3 + d] = len(split)
        split.append(local[d])
    return tuple(split), pos


@lru_cache(maxsize=512)
def view_recipe(mesh_shape: tuple[int, int, int], meta: tuple,
                shape: tuple[int, ...], strides: tuple[int, ...]) -> Recipe:
    """The :class:`Recipe` of ``meta`` on an operand of ``shape`` and
    ``strides`` on a mesh of ``mesh_shape``.

    ``meta`` is the op as :mod:`repro.mesh.ops` and
    :class:`~repro.mesh.sharded_tensor.ShardedTensor` record it:
    ``("all_gather", axes, dim_idx)``, ``("reduce_scatter", axes,
    dim_idx)``, ``("all_reduce", axes)``, ``("to_global", spec,
    global_shape)`` or ``("from_global", spec, local)`` — whose operand
    is the global array.  A stacked operand holds one copy along every
    axis its spec replicates, or the mesh size there (a fault-widened
    one; ``to_global`` reads copy 0).  Memoized process-wide: each
    layer, program and replica that runs the same op on the same layout
    shares one recipe.
    """
    kind = meta[0]
    if kind == "from_global":
        spec, local = meta[1], tuple(meta[2])
        split, pos = _dim_split(spec, mesh_shape, local)
        used = tuple(i for i in range(3) if i in pos)
        dst = tuple(mesh_shape[i] for i in used) + local
        return _recipe(split, None, None, split,
                       tuple(pos[i] for i in used + tuple(
                           range(3, 3 + len(local)))), 0,
                       tuple(mesh_shape[i] if i in pos else 1
                             for i in range(3)) + local,
                       dst, tuple(range(len(dst))))
    grid, local = shape[:3], shape[3:]
    locs = tuple(range(3, len(shape)))
    if kind == "to_global":
        spec = meta[1]
        rep = replicated_axes(spec)
        index = None
        if any(grid[i] > 1 for i in rep):
            index = _copy_zero(spec)
            shape = tuple(1 if i in rep else n for i, n in enumerate(grid)) \
                + local
        psum = tuple(i for i, a in enumerate(AXIS_NAMES)
                     if a in spec.partial_sum)
        shard = tuple(i for i in range(3) if i not in rep + psum)
        split, pos = _dim_split(spec, grid, local)
        return _recipe(shape, strides, index, None, psum + shard + rep + locs,
                       len(psum), tuple(meta[2]), split,
                       tuple(pos[i] for i in shard + locs))

    part = tuple(AXIS_NAMES.index(a) for a in meta[1])
    rest = tuple(i for i in range(3) if i not in part)
    rest_shape = tuple(grid[i] for i in rest)
    part_shape = tuple(grid[i] for i in part)
    reduced = tuple(1 if i in part else n for i, n in enumerate(grid))
    nr, npart, nl = len(rest), len(part), len(local)
    if kind == "all_gather":
        # The gathered dim of the result splits into (ranks..., l_d),
        # whose rank axes are read next to the operand's other device
        # axes.
        d = meta[2]
        k = math.prod(part_shape)
        return _recipe(
            shape, strides, None, None, rest + part + locs, 0,
            reduced + local[:d] + (k * local[d],) + local[d + 1:],
            rest_shape + local[:d] + part_shape + local[d:],
            (*range(nr), *range(nr + d, nr + d + npart), *range(nr, nr + d),
             *range(nr + d + npart, nr + npart + nl)))
    if kind == "all_reduce":
        return _recipe(shape, strides, None, None, part + rest + locs, npart,
                       reduced + local, rest_shape + local,
                       tuple(range(nr + nl)))
    # reduce_scatter: rank r of each group keeps chunk r of the sum.
    d = meta[2]
    out_shape = grid + local[:d] + (local[d] // math.prod(part_shape),) \
        + local[d + 1:]
    return _recipe(shape, strides, None, None, part + rest + locs, npart,
                   out_shape, out_shape, rest + locs[:d] + part + locs[d:])


def _wide(r: Recipe, a: np.ndarray) -> np.ndarray:
    if r.index is not None:
        a = a[r.index]
    if r.pre is not None:
        a = a.reshape(r.pre)
    return a.transpose(r.perm)


_add_reduce = np.add.reduce


def _apply(op: str, src: np.ndarray, dst: np.ndarray) -> None:
    if op == "copy":
        dst[...] = src
    elif op == "reduce":
        # Started from -0.0, the additive identity of every float (x +
        # -0.0 is x, bit for bit): rank 0's value, then each later rank.
        _add_reduce(src, 0, None, dst, False, -0.0)
    else:
        dst[...] = np.add.accumulate(src, 0)[-1]


def execute(r: Recipe, a: np.ndarray) -> np.ndarray:
    """Recipe ``r`` on ``a``, into a fresh C-contiguous result."""
    out = np.empty(r.out_shape, a.dtype)
    src = _wide(r, a)
    if not r.direct:
        rows = np.empty(r.wide, a.dtype)
        rows[...] = src
        src = rows
    _apply(r.op, src.reshape(r.shape),
           out.reshape(r.dst_split).transpose(r.dst_perm))
    return out


def collective(mesh_shape: tuple[int, int, int], meta: tuple):
    """The eager stacked kernel of ``meta`` (see :func:`view_recipe`):
    ``run(a)`` runs the recipe of ``a``'s layout into a fresh array."""
    def run(a):
        return execute(view_recipe(mesh_shape, meta, a.shape, a.strides), a)
    return run


def kernel(r: Recipe, out: np.ndarray, scratch: np.ndarray | None,
           operand: np.ndarray | None):
    """``run(a)``: :func:`execute` into ``out``, a C-contiguous buffer
    reused across calls, which ``run`` returns.

    A recipe that is not direct copies into ``scratch``, a flat buffer
    of ``prod(r.wide)`` elements.  ``operand`` (or ``None``) is an array
    every call will pass: its source view is bound now, and ``run``
    ignores its argument — one ufunc call per replay.  ``run`` carries
    ``recipe`` and ``out_buffer``.
    """
    dst = out.reshape(r.dst_split).transpose(r.dst_perm)
    op, shape, fixed = r.op, r.shape, None
    if operand is not None:
        fixed = _wide(r, operand)
        if r.direct:
            fixed = fixed.reshape(shape)
            if not np.may_share_memory(fixed, operand):
                fixed = None  # a copy would be a stale snapshot
    if not r.direct:
        wide, rows = scratch.reshape(r.wide), scratch.reshape(shape)

        def run(a):
            wide[...] = _wide(r, a) if fixed is None else fixed
            _apply(op, rows, dst)
            return out
    elif fixed is None:
        def run(a):
            _apply(op, _wide(r, a).reshape(shape), dst)
            return out
    elif op == "reduce":
        def run(a):
            _add_reduce(fixed, 0, None, dst, False, -0.0)
            return out
    else:
        def run(a):
            _apply(op, fixed, dst)
            return out
    run.recipe, run.out_buffer = r, out
    return run


def replay_kernel(mesh_shape: tuple[int, int, int], meta: tuple,
                  operand: np.ndarray, scratch: dict, out: np.ndarray,
                  fixed: bool):
    """The replay form of ``meta``: its :func:`kernel` into ``out`` on
    operands laid out like ``operand`` — or, when ``fixed``, on
    ``operand`` itself, an array every replay passes, its view bound
    now.

    Rank-major scratch is dead once the closure returns, so closures of
    one program — which replays serially — share one buffer per (size,
    dtype) through ``scratch``.  An unbound kernel given an operand of
    another layout runs that layout's recipe.
    """
    def build(a, bound):
        r = view_recipe(mesh_shape, meta, a.shape, a.strides)
        key = (math.prod(r.wide), a.dtype)
        if not r.direct and key not in scratch:
            scratch[key] = np.empty(*key)
        return kernel(r, out, scratch.get(key), a if bound else None)

    fast = build(operand, fixed)
    if fixed:
        return fast
    layout = operand.strides

    def run(a):
        return (fast if a.strides == layout else build(a, False))(a)
    run.recipe, run.out_buffer = fast.recipe, out
    return run


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
    copies the factors into device-axis position (one
    :func:`view_recipe`); a mesh axis the spec does not use
    (replication) is size 1.
    """
    return execute(view_recipe(mesh.shape, ("from_global", spec,
                                            tuple(local)),
                               array.shape, array.strides), array)


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

    Keeps the first replica, sums partial axes in row-major device
    order (the loop backend's addition order, so bit-identical), and
    inverts :func:`from_global` on the sharded dims: the
    :func:`view_recipe` replay's ``to_global`` runs, into a fresh array.
    """
    grid = shards.shape[:3]
    gshape = tuple(
        math.prod(grid[AXIS_NAMES.index(a)] for a in axes) * n
        for axes, n in zip(spec.axes, shards.shape[3:]))
    return execute(view_recipe(grid, ("to_global", spec, gshape),
                               shards.shape, shards.strides), shards)


def to_global(mesh, spec, global_shape: Sequence[int], shards: np.ndarray,
              check_replication: bool = True) -> np.ndarray:
    """Reassemble the global array from a dense stacked representation.

    Mirrors the loop backend exactly: one copy is read along each
    replicated axis — any other copies a widened array holds are checked
    bit for bit against it (:func:`collapse_replicas`) — partial
    sums accumulate in row-major device order, and sharded dims are
    reassembled by inverting :func:`from_global`.
    """
    arr = collapse_replicas(spec, shards, check_replication)
    return execute(view_recipe(mesh.shape, ("to_global", spec,
                                            tuple(global_shape)),
                               arr.shape, arr.strides), arr)
