"""Looped CollectiveEinsum (Section 3.5, after Wang et al. 2023).

The paper's single biggest low-level optimization: instead of running an
all-gather (or reduce-scatter) *then* a matmul, the collective is unrolled
into K ring steps and each step's chunk is multiplied as soon as it
arrives, overlapping communication with computation.  "The
CollectiveEinsum loops are the overwhelming majority of the inference
latency."

This module implements both fused patterns on the virtual mesh, built from
the same :func:`~repro.collectives.ring.collective_permute` neighbor
primitive as the ring collectives:

* :func:`all_gather_einsum` — computes ``einsum(all_gather(x), w)``
  without ever materializing the gathered ``x``: the contraction
  distributes over chunks, so each step contracts one activation chunk
  against the matching slice of the local weight shard and accumulates.
* :func:`einsum_reduce_scatter` — computes
  ``reduce_scatter(einsum(x, w), axis, dim)`` by producing one *output
  chunk* per step (slicing the weight along the scattered dim) and
  folding it into a circulating ring sum, so the full partial-sum tensor
  never exists.

Both return :class:`~repro.collectives.ring.RingStats`, and tests assert
numerical equality with the unfused compositions plus the expected step
counts.  The peak-memory point is real: the fused forms allocate ``1/K``
of the unfused intermediate ("some of the weight-gathered layouts would
exhaust memory without these optimizations").  The *latency* effect —
communication hidden behind the matmuls — is priced by the estimator's
``EfficiencyModel.overlap_fraction``; a functional numpy mesh has no true
concurrency to measure.

With a tracer installed on the mesh (:mod:`repro.observability`), each
fused call is recorded as a ``fused`` envelope span and every ring hop as
a ``ring_step`` child span with its in-flight buffer size.

Under step capture (:mod:`repro.mesh.capture`), each fused call records
as a *single* envelope instruction whose replay closure re-runs the
already-resolved ring schedule with tracing off — the K per-step slices,
einsums and hops never appear on the tape individually, and when the
operands are step-invariant (the usual weight-gathering case) the whole
envelope constant-folds out of the replayed step.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.ring import RingStats, collective_permute
from repro.mesh import stacked as stacked_kernels
from repro.mesh.ops import _parse_subscripts, einsum_output_layout
from repro.mesh.sharded_tensor import ShardedTensor
from repro.sharding.spec import ShardingError


def _ring_hop(mesh, tracer, shards, axis: str, step: int,
              stats: RingStats) -> np.ndarray:
    """One ring hop: account the in-flight buffer, permute, and (when a
    tracer is installed) record the hop as a ``ring_step`` span."""
    nbytes = shards[0, 0, 0].nbytes
    stats.record(nbytes)
    if tracer is None:
        return collective_permute(mesh, shards, axis, shift=1)
    start = tracer.now()
    out = collective_permute(mesh, shards, axis, shift=1)
    tracer.collective("collective_permute", (axis,), mesh.axis_size(axis),
                      nbytes, kind="ring_step", start_s=start, step=step)
    return out


def _capture_envelope(x: ShardedTensor, w: ShardedTensor,
                      out: ShardedTensor, label: str, run) -> None:
    """Record one fused call as a single replayable envelope instruction.

    ``run(x_tensor, w_tensor)`` must be the resolved eager path with
    tracing disabled — bit-identity of replay is then the statement that
    the ring schedule is deterministic in its operands, which the
    looped-einsum differential tests already assert.
    """
    recorder = getattr(x.mesh, "capture", None)
    if recorder is None or not recorder.recording:
        return
    mesh = x.mesh
    x_spec, x_shape = x.spec, x.global_shape
    w_spec, w_shape = w.spec, w.global_shape

    def replay(xs, ws):
        xt = ShardedTensor(mesh, x_spec, x_shape, xs)
        wt = ShardedTensor(mesh, w_spec, w_shape, ws)
        result, _ = run(xt, wt)
        return result.shards

    recorder.record(replay, (x.shards, w.shards), out.shards, label,
                    collective=True, specs=(x_spec, w_spec, out.spec))


def _contraction_letter(subscripts: str) -> str:
    lhs, rhs, out = _parse_subscripts(subscripts)
    contracted = sorted((set(lhs) & set(rhs)) - set(out))
    if len(contracted) != 1:
        raise ShardingError(
            f"looped einsum needs exactly one contraction letter, got "
            f"{contracted} in {subscripts!r}")
    return contracted[0]


def all_gather_einsum(subscripts: str, x: ShardedTensor, w: ShardedTensor,
                      axis: str) -> tuple[ShardedTensor, RingStats]:
    """Fused ``einsum(all_gather(x, (axis,), dim), w)`` over a ring axis.

    ``x``'s contraction dim must be sharded with ``axis`` innermost; ``w``
    must hold the full contraction dim locally (it may be sharded over
    other axes on its remaining dims).  Each of the K ring steps
    contracts the chunk currently resident with the matching row-slice of
    the local weight — on hardware, step s+1's communication overlaps
    step s's matmul.
    """
    tracer = getattr(x.mesh, "tracer", None)
    if tracer is None:
        out, stats = _all_gather_einsum(subscripts, x, w, axis, None)
    else:
        with tracer.region(f"all_gather_einsum:{subscripts}", kind="fused",
                           axis=axis):
            out, stats = _all_gather_einsum(subscripts, x, w, axis, tracer)
    _capture_envelope(
        x, w, out, f"all_gather_einsum:{subscripts}",
        lambda xt, wt: _all_gather_einsum(subscripts, xt, wt, axis, None))
    return out, stats


def _all_gather_einsum(subscripts: str, x: ShardedTensor, w: ShardedTensor,
                       axis: str, tracer
                       ) -> tuple[ShardedTensor, RingStats]:
    mesh = x.mesh
    letter = _contraction_letter(subscripts)
    dim = letter.upper()
    x_axes = x.spec.axes_for(dim)
    if not x_axes or x_axes[-1] != axis:
        raise ShardingError(
            f"x's {dim} must be sharded with {axis!r} innermost, got "
            f"{x.spec}")
    if w.spec.axes_for(dim):
        raise ShardingError(
            f"w must hold the full {dim} locally, got {w.spec}")
    k = mesh.axis_size(axis)
    chunk_len = x.local_shape[x.spec.dim_index(dim)]
    w_dim_idx = w.spec.dim_index(dim)

    # Output layout = that of the unfused composition.
    gathered_spec = x.spec.with_dim_axes(dim, x_axes[:-1])
    gathered_view = ShardedTensor.__new__(ShardedTensor)
    gathered_view.mesh = mesh
    gathered_view.spec = gathered_spec
    gathered_view.global_shape = x.global_shape
    out_spec, out_shape = einsum_output_layout(subscripts, gathered_view,
                                               w)

    stats = RingStats()
    if x.is_stacked and w.is_stacked:
        # Fused fast path: every ring step is one whole-mesh slice +
        # batched einsum; the ring hop is one roll of the device axis.
        lhs, rhs, out_letters = _parse_subscripts(subscripts)
        rank = mesh.rank_grid((axis,))
        outer = mesh.rank_grid(x_axes[:-1])
        accum_dense = None
        flight = x.shards
        for step in range(k):
            origin = (rank - step) % k
            lo = (outer * k + origin) * chunk_len
            w_slice = stacked_kernels.take_local_slices(
                mesh, w.shards, w_dim_idx, lo, chunk_len)
            partial = stacked_kernels.batched_einsum(
                mesh, lhs, rhs, out_letters, flight, w_slice)
            accum_dense = (partial if accum_dense is None
                           else accum_dense + partial)
            if step < k - 1:
                flight = _ring_hop(mesh, tracer, flight, axis, step, stats)
        return ShardedTensor(mesh, out_spec, out_shape, accum_dense), stats

    accum = mesh.empty_shards()
    in_flight = {c: x.shards[c] for c in mesh.devices()}
    for step in range(k):
        for coord in mesh.devices():
            rank = mesh.coords_on(coord, (axis,))[0]
            origin = (rank - step) % k  # the chunk travelled `step` hops
            outer = mesh.rank_in_group(coord, x_axes[:-1])
            lo = (outer * k + origin) * chunk_len
            w_slice = np.take(w.shards[coord],
                              np.arange(lo, lo + chunk_len),
                              axis=w_dim_idx)
            partial = np.einsum(subscripts, in_flight[coord], w_slice)
            accum[coord] = (partial if accum[coord] is None
                            else accum[coord] + partial)
        if step < k - 1:
            buffers = mesh.empty_shards()
            for coord in mesh.devices():
                buffers[coord] = in_flight[coord]
            shifted = _ring_hop(mesh, tracer, buffers, axis, step, stats)
            in_flight = {c: shifted[c] for c in mesh.devices()}

    out = ShardedTensor(mesh, out_spec, out_shape, accum)
    return out, stats


def einsum_reduce_scatter(subscripts: str, x: ShardedTensor,
                          w: ShardedTensor, axis: str, scatter_dim: str
                          ) -> tuple[ShardedTensor, RingStats]:
    """Fused ``reduce_scatter(einsum(x, w), (axis,), scatter_dim)``.

    The contraction dim is sharded over ``axis`` on both operands, so the
    unfused einsum would produce a partial sum over ``axis``.  Instead,
    each ring step computes only the output chunk destined for a
    particular rank — by slicing whichever operand carries
    ``scatter_dim`` — and adds it to the circulating running sum.  The
    per-device intermediate is 1/K of the unfused partial tensor.
    """
    tracer = getattr(x.mesh, "tracer", None)
    if tracer is None:
        out, stats = _einsum_reduce_scatter(subscripts, x, w, axis,
                                            scatter_dim, None)
    else:
        with tracer.region(f"einsum_reduce_scatter:{subscripts}",
                           kind="fused", axis=axis,
                           scatter_dim=scatter_dim):
            out, stats = _einsum_reduce_scatter(subscripts, x, w, axis,
                                                scatter_dim, tracer)
    _capture_envelope(
        x, w, out, f"einsum_reduce_scatter:{subscripts}",
        lambda xt, wt: _einsum_reduce_scatter(subscripts, xt, wt, axis,
                                              scatter_dim, None))
    return out, stats


def _einsum_reduce_scatter(subscripts: str, x: ShardedTensor,
                           w: ShardedTensor, axis: str, scatter_dim: str,
                           tracer) -> tuple[ShardedTensor, RingStats]:
    mesh = x.mesh
    lhs, rhs, out_letters = _parse_subscripts(subscripts)
    letter = _contraction_letter(subscripts)
    dim = letter.upper()
    for t, name in ((x, "x"), (w, "w")):
        if axis not in t.spec.axes_for(dim):
            raise ShardingError(
                f"{name}'s {dim} must be sharded over {axis!r}, got "
                f"{t.spec}")
    scatter_letter = scatter_dim.lower()
    if scatter_letter not in out_letters:
        raise ShardingError(
            f"scatter dim {scatter_dim!r} is not an output dim of "
            f"{subscripts!r}")
    owner, owner_letters = ((x, lhs) if scatter_letter in lhs else (w, rhs))
    other = w if owner is x else x
    owner_dim_idx = owner_letters.index(scatter_letter)

    out_spec, out_shape = einsum_output_layout(subscripts, x, w)
    if axis not in out_spec.partial_sum:
        raise ShardingError(
            f"contraction does not produce a partial sum over {axis!r}")
    final_partial = tuple(a for a in out_spec.partial_sum if a != axis)
    final_spec = out_spec.with_partial_sum(final_partial).with_dim_axes(
        scatter_dim, out_spec.axes_for(scatter_dim) + (axis,))

    k = mesh.axis_size(axis)
    local_extent = owner.local_shape[owner_dim_idx]
    if local_extent % k:
        raise ShardingError(
            f"{scatter_dim} local extent {local_extent} not divisible by "
            f"the ring size {k}")
    chunk = local_extent // k
    stats = RingStats()

    if x.is_stacked and w.is_stacked:
        # Fused fast path: each step slices the scatter-dim owner across
        # the whole mesh at once and folds one batched einsum into the
        # circulating ring sum.
        rank = mesh.rank_grid((axis,))

        def out_chunk_all(chunk_rank: np.ndarray) -> np.ndarray:
            sliced = stacked_kernels.take_local_slices(
                mesh, owner.shards, owner_dim_idx, chunk_rank * chunk,
                chunk)
            if owner is x:
                return stacked_kernels.batched_einsum(
                    mesh, lhs, rhs, out_letters, sliced, other.shards)
            return stacked_kernels.batched_einsum(
                mesh, lhs, rhs, out_letters, other.shards, sliced)

        carry_dense = out_chunk_all((rank - 1) % k)
        for step in range(k - 1):
            shifted = _ring_hop(mesh, tracer, carry_dense, axis, step,
                                stats)
            carry_dense = shifted + out_chunk_all((rank - step + k - 2) % k)
        return (ShardedTensor(mesh, final_spec, out_shape, carry_dense),
                stats)

    def out_chunk(coord, chunk_rank):
        sliced = np.take(owner.shards[coord],
                         np.arange(chunk_rank * chunk,
                                   (chunk_rank + 1) * chunk),
                         axis=owner_dim_idx)
        if owner is x:
            return np.einsum(subscripts, sliced, other.shards[coord])
        return np.einsum(subscripts, other.shards[coord], sliced)

    # Same accumulate-and-forward schedule as the ring reduce-scatter.
    carry = mesh.map_devices(
        lambda c: out_chunk(c, (mesh.coords_on(c, (axis,))[0] - 1) % k))
    for step in range(k - 1):
        shifted = _ring_hop(mesh, tracer, carry, axis, step, stats)
        carry = mesh.empty_shards()
        for coord in mesh.devices():
            rank = mesh.coords_on(coord, (axis,))[0]
            chunk_rank = (rank - step + k - 2) % k
            carry[coord] = shifted[coord] + out_chunk(coord, chunk_rank)

    out = ShardedTensor(mesh, final_spec, out_shape, carry)
    return out, stats
