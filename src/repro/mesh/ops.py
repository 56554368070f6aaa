"""Functional collectives and sharded einsum on the virtual mesh.

These are the MPI-style primitives of Section 3.1 / Figure A.1, implemented
with real group-locality: every operation only combines shards from devices
that differ in the participating torus axes.  A program composed from these
ops is therefore implementable with exactly the communication pattern it
claims, and its numerics are verifiable against an unsharded reference.

Axis-ordering convention: a logical dim sharded over axes ``(a, b)`` is
sliced row-major with ``b`` innermost.  Gathering removes innermost axes
(so ``axes`` must be a *suffix* of the dim's axis list) and scattering
appends axes innermost.  The layout implementations in
:mod:`repro.layouts` are written against this convention.

Every op appends a :class:`CommRecord` to ``mesh.comm_log`` (if present),
with the per-chip payload size ``D`` used by the Appendix A.1 cost model —
this lets tests check the *measured* communication volume of a layout
against the paper's closed-form formulas.  When a tracer is installed
(:meth:`VirtualMesh.install_tracer`), every collective and sharded einsum
is additionally recorded as a structured :class:`repro.observability.Span`
with wall-clock timing and modeled cost; with no tracer the hook is a
single ``getattr`` per op.

Each collective is its spec arithmetic plus a ``(stacked, loop)`` kernel
pair: the vectorized stacked-shard kernel in :mod:`repro.mesh.stacked`
and the per-group Python loop below (the semantics oracle), bit-identical
by contract.  One driver, :func:`_collective`, runs what they share —
the fault hooks, the kernel the operand's shard representation selects,
the comm log and span, and the capture record of the closure that ran.
Contractions go through the device-local dispatcher,
:func:`repro.mesh.sharded_tensor.run_local`, the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.mesh import stacked as stacked_kernels
from repro.mesh.sharded_tensor import ShardedTensor, record, run_local
from repro.mesh.virtual_mesh import VirtualMesh
from repro.sharding.spec import ShardingError, ShardSpec


@dataclass(frozen=True)
class CommRecord:
    """One logged collective: op name, axes, group size, payload bytes.

    ``payload_bytes`` is the per-chip ``D`` of Appendix A.1: the per-chip
    *output* for an all-gather, the per-chip *input* for a reduce-scatter,
    and the per-chip buffer for an all-to-all.  Zero-cost resharding
    (``split``) is logged with zero payload.
    """

    op: str
    axes: tuple[str, ...]
    group_size: int
    payload_bytes: int


def _log(mesh: VirtualMesh, record: CommRecord) -> None:
    log = getattr(mesh, "comm_log", None)
    if log is not None:
        log.append(record)


def _trace_start(mesh: VirtualMesh):
    """Tracer hook entry: ``(tracer, start time)`` or ``(None, 0.0)``.

    Duck-typed like ``comm_log``/``fault_state`` so the mesh package never
    imports :mod:`repro.observability`; one ``getattr`` when tracing is
    off keeps the uninstrumented path unchanged.
    """
    tracer = getattr(mesh, "tracer", None)
    return tracer, (tracer.now() if tracer is not None else 0.0)


def _observe(mesh: VirtualMesh, tracer, start_s: float,
             record: CommRecord, out: ShardedTensor) -> None:
    """Log a finished collective to ``comm_log`` and (if installed) the
    tracer, as one span carrying the same Appendix A.1 payload."""
    _log(mesh, record)
    if tracer is not None:
        local = out.shards[0, 0, 0]
        itemsize = local.dtype.itemsize
        tracer.collective(record.op, record.axes, record.group_size,
                          record.payload_bytes,
                          elements=record.payload_bytes // itemsize,
                          start_s=start_s)


def _fault_pre(mesh: VirtualMesh, op: str, axes: tuple[str, ...]) -> None:
    """Fault-injection hook before a collective runs (both backends).

    Raises the typed failures of :mod:`repro.mesh.faults` — a collective
    touching a dead chip or a scheduled timeout never silently returns
    garbage.  No-op unless a fault plan is installed on the mesh.
    """
    state = getattr(mesh, "fault_state", None)
    if state is not None:
        state.on_collective(op, axes)


def _fault_post(mesh: VirtualMesh, op: str, axes: tuple[str, ...],
                shards: np.ndarray) -> np.ndarray:
    """Fault-injection hook on a collective's result shards (both
    backends): applies scheduled payload corruption and raises
    ``CollectiveCorruption`` when checksum detection is on."""
    state = getattr(mesh, "fault_state", None)
    if state is None:
        return shards
    return state.post_collective(op, axes, shards, mesh.shape)


def _require_suffix(dim_axes: tuple[str, ...], axes: Sequence[str],
                    what: str) -> tuple[str, ...]:
    axes = tuple(axes)
    if not axes:
        raise ShardingError(f"{what}: empty axes")
    if dim_axes[len(dim_axes) - len(axes):] != axes:
        raise ShardingError(
            f"{what}: axes {axes} must be the innermost (suffix) axes of "
            f"the dim's sharding {dim_axes}")
    return dim_axes[:len(dim_axes) - len(axes)]


def _collective(t: ShardedTensor, op: str, axes: tuple[str, ...],
                new_spec: ShardSpec, payload: int, kernels, *params,
                meta: tuple | None = None) -> ShardedTensor:
    """Run one collective: the steps every collective shares, once.

    ``kernels`` is the op's ``(stacked, loop)`` pair, each called as
    ``kernel(shards, *params, groups)`` with the communication groups
    over ``axes`` resolved for it: :func:`repro.mesh.stacked.group_meta`
    on the operand's device grid for the stacked kernel, the coordinate
    lists of
    :meth:`VirtualMesh.groups` for the loop one.  A stacked op with a
    ``meta`` (all-gather, reduce-scatter, all-reduce) has no stacked
    kernel: it runs as one ufunc over strided views of its operand and
    result (:func:`repro.mesh.stacked.collective`), the memoized recipe
    replay binds, so tracing a step does the kernel work of replaying
    it.  The kernel runs between the fault hooks, is logged (with the
    per-chip ``payload``) and traced, and the closure that ran is
    recorded for replay, with ``meta`` when stacked.
    """
    mesh = t.mesh
    tracer, start = _trace_start(mesh)
    _fault_pre(mesh, op, axes)
    stacked = t.is_stacked
    if stacked and meta is not None:
        run = stacked_kernels.collective(mesh.shape, meta)
    else:
        if stacked:
            kernel = kernels[0]
            groups = stacked_kernels.group_meta(mesh, axes,
                                                t.shards.shape[:3])
        else:
            kernel, groups = kernels[1], list(mesh.groups(axes))

        def run(shards):
            return kernel(shards, *params, groups)

    shards = run(t.shards)
    if op != "split":  # a local reshard moves no payload to corrupt
        shards = _fault_post(mesh, op, axes, shards)
    out = ShardedTensor(mesh, new_spec, t.global_shape, shards)
    _observe(mesh, tracer, start,
             CommRecord(op, axes, mesh.group_size(axes), payload), out)
    record(mesh, run, (t.shards,), shards, op, collective=True,
           meta=meta if stacked else None)
    return out


# ---------------------------------------------------------------------------
# Per-group loop kernels (the semantics oracle)
#
# Each takes the object array of shards, the op's parameters and the
# coordinate lists of its communication groups, like its vectorized twin
# in :mod:`repro.mesh.stacked` takes the resolved group metadata.
# ---------------------------------------------------------------------------

def _loop_all_gather(shards_in: np.ndarray, dim_idx: int,
                     groups: list) -> np.ndarray:
    shards = np.empty_like(shards_in)
    for group in groups:
        gathered = np.concatenate([shards_in[c] for c in group],
                                  axis=dim_idx)
        for coord in group:
            shards[coord] = gathered
    return shards


def _loop_reduce_scatter(shards_in: np.ndarray, dim_idx: int,
                         groups: list) -> np.ndarray:
    shards = np.empty_like(shards_in)
    for group in groups:
        total = shards_in[group[0]]
        for coord in group[1:]:
            total = total + shards_in[coord]
        chunks = np.split(total, len(group), axis=dim_idx)
        for rank, coord in enumerate(group):
            shards[coord] = np.ascontiguousarray(chunks[rank])
    return shards


def _loop_all_reduce(shards_in: np.ndarray, groups: list) -> np.ndarray:
    shards = np.empty_like(shards_in)
    for group in groups:
        total = shards_in[group[0]]
        for coord in group[1:]:
            total = total + shards_in[coord]
        for coord in group:
            shards[coord] = total
    return shards


def _loop_all_to_all(shards_in: np.ndarray, src_idx: int, dst_idx: int,
                     groups: list) -> np.ndarray:
    shards = np.empty_like(shards_in)
    for group in groups:
        # Assemble the group-local view along src_dim, then re-slice
        # dst_dim.
        assembled = np.concatenate([shards_in[c] for c in group],
                                   axis=src_idx)
        chunks = np.split(assembled, len(group), axis=dst_idx)
        for rank, coord in enumerate(group):
            shards[coord] = np.ascontiguousarray(chunks[rank])
    return shards


def _loop_split(shards_in: np.ndarray, dim_idx: int,
                groups: list) -> np.ndarray:
    shards = np.empty_like(shards_in)
    for group in groups:
        for rank, coord in enumerate(group):
            # Each device keeps its own slice of its own replica.
            local_chunks = np.split(shards_in[coord], len(group),
                                    axis=dim_idx)
            shards[coord] = np.ascontiguousarray(local_chunks[rank])
    return shards


def all_gather(t: ShardedTensor, axes: Sequence[str], dim: str
               ) -> ShardedTensor:
    """All-gather ``dim`` over ``axes``: removes those axes from its sharding.

    Every device in a group ends up with the concatenation of the group's
    shards, replicated over the gathered axes.
    """
    axes = tuple(axes)
    remaining = _require_suffix(t.spec.axes_for(dim), axes, "all_gather")
    dim_idx = t.spec.dim_index(dim)
    # The payload is the per-chip output: the group's shards.
    return _collective(t, "all_gather", axes,
                       t.spec.with_dim_axes(dim, remaining),
                       t.per_chip_bytes * t.mesh.group_size(axes),
                       (None, _loop_all_gather),
                       dim_idx, meta=("all_gather", axes, dim_idx))


def reduce_scatter(t: ShardedTensor, axes: Sequence[str], dim: str
                   ) -> ShardedTensor:
    """Sum partial sums over ``axes`` and scatter the result into ``dim``."""
    axes = tuple(axes)
    spec = t.spec
    if not set(axes) <= set(spec.partial_sum):
        raise ShardingError(
            f"reduce_scatter axes {axes} not all partial-sum axes of {spec}")
    dim_idx = spec.dim_index(dim)
    new_partial = tuple(a for a in spec.partial_sum if a not in axes)
    new_spec = spec.with_partial_sum(new_partial).with_dim_axes(
        dim, spec.axes_for(dim) + axes)
    return _collective(t, "reduce_scatter", axes, new_spec, t.per_chip_bytes,
                       (None, _loop_reduce_scatter),
                       dim_idx, meta=("reduce_scatter", axes, dim_idx))


def all_reduce(t: ShardedTensor, axes: Sequence[str]) -> ShardedTensor:
    """Sum partial sums over ``axes``, replicating the result.

    Equivalent to ``all_gather(reduce_scatter(t, axes, d), axes, d)`` for
    any dim ``d`` divisible by the group size (Section 3.1); tests assert
    this equivalence.
    """
    axes = tuple(axes)
    spec = t.spec
    if not set(axes) <= set(spec.partial_sum):
        raise ShardingError(
            f"all_reduce axes {axes} not all partial-sum axes of {spec}")
    new_partial = tuple(a for a in spec.partial_sum if a not in axes)
    return _collective(t, "all_reduce", axes,
                       spec.with_partial_sum(new_partial),
                       2 * t.per_chip_bytes,
                       (None, _loop_all_reduce),
                       meta=("all_reduce", axes))


def all_to_all(t: ShardedTensor, axes: Sequence[str], src_dim: str,
               dst_dim: str) -> ShardedTensor:
    """Move sharding of ``axes`` from ``src_dim`` to ``dst_dim``.

    E.g. ``BLH_x Q -> B_x L H Q`` (Section 3.1): each (source, destination)
    pair in a group exchanges one block directly.
    """
    axes = tuple(axes)
    spec = t.spec
    if src_dim == dst_dim:
        raise ShardingError("all_to_all src_dim and dst_dim must differ")
    src_remaining = _require_suffix(spec.axes_for(src_dim), axes,
                                    "all_to_all")
    new_spec = spec.with_dim_axes(src_dim, src_remaining).with_dim_axes(
        dst_dim, spec.axes_for(dst_dim) + axes)
    return _collective(t, "all_to_all", axes, new_spec, t.per_chip_bytes,
                       (stacked_kernels.all_to_all, _loop_all_to_all),
                       spec.dim_index(src_dim), spec.dim_index(dst_dim))


def split(t: ShardedTensor, axes: Sequence[str], dim: str) -> ShardedTensor:
    """Reshard a replicated tensor by splitting ``dim`` over unused ``axes``.

    This is communication-free: each device simply keeps its slice of data
    it already holds.  Used, e.g., to shard fresh K/V tensors over batch
    along axes they were replicated on (Section 3.3).
    """
    axes = tuple(axes)
    spec = t.spec
    if set(spec.mesh_axes_used) & set(axes):
        raise ShardingError(
            f"split axes {axes} overlap axes already used by {spec}")
    new_spec = spec.with_dim_axes(dim, spec.axes_for(dim) + axes)
    return _collective(t, "split", axes, new_spec, 0,
                       (stacked_kernels.split, _loop_split),
                       spec.dim_index(dim))


# ---------------------------------------------------------------------------
# Sharded einsum
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _parse_subscripts(subscripts: str) -> tuple[str, str, str]:
    try:
        inputs, output = subscripts.replace(" ", "").split("->")
        lhs, rhs = inputs.split(",")
    except ValueError:
        raise ShardingError(
            f"einsum subscripts must look like 'ble,ef->blf', got "
            f"{subscripts!r}") from None
    return lhs, rhs, output


def einsum_output_layout(subscripts: str, a: ShardedTensor,
                         b: ShardedTensor
                         ) -> tuple[ShardSpec, tuple[int, ...]]:
    """Shape/sharding inference of :func:`sharded_einsum`, without compute.

    Returns the output ``(spec, global_shape)``.  The inference is a pure
    function of the subscripts, operand specs and global shapes, so it is
    memoized — an einsum deep inside a decode loop repeats the same
    handful of layouts every step.
    """
    if a.mesh is not b.mesh:
        raise ShardingError("operands live on different meshes")
    return _infer_einsum_layout(subscripts, a.spec, a.global_shape,
                                b.spec, b.global_shape)


@lru_cache(maxsize=None)
def _infer_einsum_layout(subscripts: str, a_spec: ShardSpec,
                         a_shape: tuple[int, ...], b_spec: ShardSpec,
                         b_shape: tuple[int, ...]
                         ) -> tuple[ShardSpec, tuple[int, ...]]:
    lhs, rhs, out_letters = _parse_subscripts(subscripts)
    for letters, spec, side in ((lhs, a_spec, "lhs"), (rhs, b_spec, "rhs")):
        expected = "".join(spec.dims).lower()
        if letters != expected:
            raise ShardingError(
                f"{side} subscripts {letters!r} do not match spec dims "
                f"{spec.dims} (expected {expected!r})")

    def info(letter: str) -> tuple[int, tuple[str, ...]]:
        """(global size, sharding axes) for a letter, checking agreement."""
        results = []
        for letters, spec, shape in ((lhs, a_spec, a_shape),
                                     (rhs, b_spec, b_shape)):
            if letter in letters:
                i = letters.index(letter)
                results.append((shape[i], spec.axes[i]))
        if len(results) == 2 and results[0] != results[1]:
            raise ShardingError(
                f"dim {letter!r} mismatch between operands: "
                f"{results[0]} vs {results[1]}")
        return results[0]

    # Safety for carried partial sums.
    for spec, other_spec in ((a_spec, b_spec), (b_spec, a_spec)):
        for axis in spec.partial_sum:
            if axis in other_spec.mesh_axes_used:
                raise ShardingError(
                    f"partial-sum axis {axis!r} of one operand is used by "
                    f"the other operand; result would be incorrect")

    contracted = sorted(set(lhs + rhs) - set(out_letters))
    partial: list[str] = list(a_spec.partial_sum) + list(b_spec.partial_sum)
    for letter in contracted:
        _, axes = info(letter)
        partial.extend(axes)

    out_dims = []
    out_axes = []
    out_shape = []
    for letter in out_letters:
        size, axes = info(letter)
        out_shape.append(size)
        out_axes.append(axes)
        # Recover the original (uppercase) dim name from whichever operand.
        src_spec = a_spec if letter in lhs else b_spec
        src_letters = lhs if letter in lhs else rhs
        out_dims.append(src_spec.dims[src_letters.index(letter)])
    try:
        out_spec = ShardSpec(tuple(out_dims), tuple(out_axes),
                             tuple(partial))
    except ShardingError as exc:
        raise ShardingError(
            f"einsum {subscripts!r} on {a_spec} x {b_spec} produces an "
            f"inconsistent output sharding: {exc}") from exc
    return out_spec, tuple(out_shape)


def sharded_einsum(subscripts: str, a: ShardedTensor, b: ShardedTensor
                   ) -> ShardedTensor:
    """Per-device einsum with automatic output sharding inference.

    Subscript letters must be the lowercased dim names of the operands
    (e.g. a ``BLE`` tensor uses letters ``ble``).  Rules:

    * A dim appearing in both operands (contracted or batch) must be
      sharded identically in both.
    * Contracted dims' mesh axes become partial-sum axes of the output
      (each device contracts only its slice).
    * An operand may carry partial-sum axes only if the other operand does
      not touch those axes at all (linearity makes this safe); they carry
      through to the output.
    """
    out_spec, out_shape = einsum_output_layout(subscripts, a, b)
    mesh = a.mesh
    tracer, start = _trace_start(mesh)
    shards = _contract(mesh, _parse_subscripts(subscripts), a.shards,
                       b.shards, f"einsum:{subscripts}")
    out = ShardedTensor(mesh, out_spec, out_shape, shards)
    if tracer is not None:
        tracer.compute(subscripts, flops=_einsum_local_flops(subscripts, a, b),
                       elements=int(out.shards[0, 0, 0].size), start_s=start)
    return out


def _contract(mesh: VirtualMesh, letters: tuple[str, str, str],
              a: np.ndarray, b: np.ndarray, label: str):
    """One local contraction through :func:`run_local`:
    :func:`repro.mesh.stacked.contract` once over the device grid, or
    once per device."""
    def contract(x, y, out=None):
        return stacked_kernels.contract(*letters, x, y, out=out)
    return run_local(mesh, contract, (a, b), label, arena=True,
                     meta=("einsum",) + letters)


def concat_weights(weights: Sequence[ShardedTensor]
                   ) -> tuple[np.ndarray, list[ShardedTensor]]:
    """Per device, the weights' local shards concatenated on their dims
    after the first (the contracted one, which must agree), flattened
    into one trailing axis — and each weight re-based as a view of that
    concatenation, so a weight and its concatenation are one copy.

    Stacked shards give one dense array on the weights' common device
    grid: a weight replicated along an axis another weight shards (a
    multiquery K/V projection beside the head-sharded Q) is broadcast
    there, and its view keeps one copy.  Loop shards give an object
    array.  This is the ``w_cat`` operand of :func:`fused_projection`.
    """
    def flat(shard, lead):
        return shard.reshape(shard.shape[:lead] + (-1,))
    mesh = weights[0].mesh
    views = _column_views([w.local_shape[1:] for w in weights])
    if all(w.is_stacked for w in weights):  # the device axes and E lead
        grid = np.broadcast_shapes(*(w.shards.shape[:3] for w in weights))
        cat = np.concatenate(
            [np.broadcast_to(f, grid + f.shape[3:])
             for f in (flat(w.shards, 4) for w in weights)], axis=-1)
        parts = [view(cat)[tuple(slice(0, n) for n in w.shards.shape[:3])]
                 for w, view in zip(weights, views)]
    else:
        cat = mesh.map_devices(lambda c: np.concatenate(
            [flat(w.shards[c], 1) for w in weights], axis=-1))
        parts = [mesh.map_devices(lambda c, view=view: view(cat[c]))
                 for view in views]
    return cat, [ShardedTensor(mesh, w.spec, w.global_shape, shards)
                 for w, shards in zip(weights, parts)]


def fused_projection(x: ShardedTensor,
                     parts: Sequence[tuple[str, ShardedTensor]],
                     w_cat: np.ndarray) -> list[ShardedTensor]:
    """``[sharded_einsum(s, x, w) for s, w in parts]`` as one contraction.

    Every part contracts the trailing dim of ``x`` against the leading
    dim of its weight, and ``w_cat`` holds the weights' shards as
    :func:`concat_weights` lays them out.  One
    :func:`repro.mesh.stacked.contract` computes every part's columns;
    each part comes back as a view of that buffer under the spec
    :func:`sharded_einsum` would give it.  This is the Section 3.4
    parallel-block fusion: the attention and FFN input projections of
    one block run as one larger matmul.

    On the common grid of ``w_cat`` a part replicated along an axis
    another part shards (multiquery K/V beside Q) comes out full there;
    its view keeps copy 0 (:func:`repro.mesh.stacked.collapse_replicas`),
    the other copies checked bit for bit when run eagerly — a replay
    records the unchecked view.
    """
    mesh = x.mesh
    tracer, start = _trace_start(mesh)
    lhs = "".join(x.spec.dims).lower()
    # ``ble,ez->blz``: z runs over every part's flattened columns.
    letters = (lhs, lhs[-1] + "z", lhs[:-1] + "z")
    layouts = [einsum_output_layout(subs, x, w) for subs, w in parts]
    fused = _contract(mesh, letters, x.shards, w_cat, "projection")
    tails = [spec.local_shape(shape, mesh.topology)[len(lhs) - 1:]
             for spec, shape in layouts]
    outs = []
    for (spec, shape), view in zip(layouts, _column_views(tails)):
        replay = None
        if stacked_kernels.is_stacked(fused):
            view, replay = _one_copy_views(spec, view)
        outs.append(ShardedTensor(mesh, spec, shape, run_local(
            mesh, view, (fused,), "projection_view", replay=replay)))
    if tracer is not None:
        tracer.compute("projection",
                       flops=sum(_einsum_local_flops(subs, x, w)
                                 for subs, w in parts),
                       elements=int(np.size(fused[0, 0, 0])), start_s=start)
    return outs


def _one_copy_views(spec: ShardSpec, view):
    """``(checked, unchecked)``: the column ``view`` cut to one copy along
    each axis ``spec`` replicates, with and without the replica check.
    The unchecked one is a pure view, marked ``const_view``."""
    def checked(f):
        return stacked_kernels.collapse_replicas(spec, view(f))

    def unchecked(f):
        return stacked_kernels.collapse_replicas(spec, view(f), False)
    unchecked.const_view = True
    return checked, unchecked


def _column_views(tails) -> list:
    """Views of consecutive column blocks of a trailing axis, one per
    entry of ``tails``, each unflattened to that tail.  Each maps an
    array (or one device's shard) to its block; a pure view, marked
    ``const_view`` for the tape optimizer."""
    out, stop = [], 0
    for tail in tails:
        start, stop = stop, stop + math.prod(tail)

        def view(f, start=start, stop=stop, tail=tuple(tail)):
            return f[..., start:stop].reshape(f.shape[:-1] + tail)
        view.const_view = True
        out.append(view)
    return out


def _einsum_local_flops(subscripts: str, a: ShardedTensor,
                        b: ShardedTensor) -> float:
    """Per-chip FLOPs of a sharded einsum: 2 x the product of every
    distinct letter's *local* extent (multiply + add per MAC)."""
    lhs, rhs, _ = _parse_subscripts(subscripts)
    sizes: dict[str, int] = {}
    for letters, operand in ((lhs, a), (rhs, b)):
        for letter, size in zip(letters, operand.local_shape):
            sizes[letter] = size
    flops = 2.0
    for size in sizes.values():
        flops *= size
    return flops
