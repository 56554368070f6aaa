"""Small building blocks shared by the partitioned layer implementations."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.mesh import (
    ShardedTensor,
    VirtualMesh,
    all_reduce,
    sharded_einsum,
)
from repro.mesh.sharded_tensor import record
from repro.mesh.stacked import is_stacked
from repro.model.reference import attention
from repro.model.rope import apply_rope_cached
from repro.sharding.spec import ShardSpec


def zip_shards(out_spec: ShardSpec, out_shape: Sequence[int],
               fn: Callable[..., np.ndarray], *tensors: ShardedTensor,
               elementwise: bool = False) -> ShardedTensor:
    """Combine several sharded tensors device-wise with ``fn``.

    The caller asserts (by providing ``out_spec``) that ``fn`` is local —
    i.e. its output at each device depends only on that device's shards and
    is sharded as described.  Used for broadcast arithmetic like the
    normalization step, where specs differ in rank.

    With ``elementwise=True`` the caller additionally promises that ``fn``
    broadcasts over arbitrary leading axes and accepts an ``out=``
    buffer (a ufunc such as ``np.multiply``); on the stacked backend it
    is then applied once to the dense shard arrays instead of per
    device, and replays into an arena buffer.
    """
    mesh = tensors[0].mesh
    inputs = tuple(t.shards for t in tensors)
    specs = tuple(t.spec for t in tensors) + (out_spec,)
    if elementwise and all(t.is_stacked for t in tensors):
        shards = fn(*inputs)
        record(mesh, fn, inputs, shards, fn.__name__, arena=True,
               meta=("elementwise",), specs=specs)
        return ShardedTensor(mesh, out_spec, tuple(out_shape), shards)
    shards = mesh.map_devices(
        lambda c: fn(*(t.shards[c] for t in tensors)))
    record(mesh,
           lambda *arrs: mesh.map_devices(
               lambda c: fn(*(a[c] for a in arrs))),
           inputs, shards, "zip_shards", specs=specs)
    return ShardedTensor(mesh, out_spec, tuple(out_shape), shards)


def sharded_rmsnorm(x: ShardedTensor, scale: ShardedTensor,
                    eps: float = 1e-6) -> ShardedTensor:
    """RMSNorm of a ``BLE`` activation whose E dim may be sharded.

    The mean-square over E requires a (tiny, per-token scalar) all-reduce
    over the axes E is sharded on — this is the layernorm communication the
    paper accepts by choosing to reduce-scatter into the hidden dimension
    (Section 3.5).
    """
    if x.spec.partial_sum:
        raise ValueError("cannot normalize a partial-sum tensor")
    e_axes = x.spec.axes_for("E")
    if scale.spec.axes_for("E") != e_axes:
        raise ValueError(
            f"norm scale sharding {scale.spec} does not match activations "
            f"{x.spec}")
    sumsq = sharded_einsum("ble,ble->bl", x, x)
    if e_axes:
        sumsq = all_reduce(sumsq, e_axes)
    e_size = x.dim_size("E")

    if x.is_stacked and sumsq.is_stacked and scale.is_stacked:
        # One whole-mesh broadcast: scale is a per-device [E_loc] vector, so
        # it needs explicit singleton B/L axes against the dense
        # [mesh..., B, L, E_loc] activations.  Same ufuncs in the same
        # order as ``normalize`` below; replay passes ``out``.
        def stacked_norm(xs, ss, sc, out=None):
            rms = np.divide(ss[..., None], e_size)
            np.add(rms, eps, out=rms)
            np.sqrt(rms, out=rms)
            out = np.multiply(xs, sc[:, :, :, None, None, :], out=out)
            return np.divide(out, rms, out=out)

        shards = stacked_norm(x.shards, sumsq.shards, scale.shards)
        record(x.mesh, stacked_norm,
               (x.shards, sumsq.shards, scale.shards), shards, "rmsnorm",
               arena=True, meta=("elementwise",),
               specs=(x.spec, sumsq.spec, scale.spec, x.spec))
        return ShardedTensor(x.mesh, x.spec, x.global_shape, shards)

    def normalize(x_shard, ss_shard, scale_shard):
        rms = np.sqrt(ss_shard[..., None] / e_size + eps)
        return x_shard * scale_shard / rms

    return zip_shards(x.spec, x.global_shape, normalize, x, sumsq, scale)


def sharded_rope(x: ShardedTensor, table: np.ndarray) -> ShardedTensor:
    """Apply RoPE to a ``[B, L, heads, D]`` sharded tensor.

    ``table`` is the forward's complex rotation table
    (:func:`repro.model.rope.rope_tables`), built once per forward and
    shared by every rotation.  RoPE is elementwise per (position, head,
    dim-pair), so it is local for any sharding that keeps L and D
    unsharded (all layouts here do).
    """
    for dim in ("L", "D"):
        if x.spec.axes_for(dim):
            raise ValueError(f"RoPE requires unsharded {dim}, got {x.spec}")
    # The table is a tracked input, not a baked-in constant: under
    # capture the model's table instruction recomputes it per replay.
    mesh = x.mesh
    specs = (x.spec, None, x.spec)
    if x.is_stacked:
        # apply_rope_cached broadcasts over arbitrary leading axes, so one
        # call covers the whole mesh, and replays into an arena buffer.
        shards = apply_rope_cached(x.shards, table)
        record(mesh, apply_rope_cached, (x.shards, table), shards,
               "rope_cached", arena=True, meta=("elementwise",),
               specs=specs)
    else:
        shards = mesh.map_devices(
            lambda c: apply_rope_cached(x.shards[c], table))
        record(mesh,
               lambda s, tab: mesh.map_devices(
                   lambda c: apply_rope_cached(s[c], tab)),
               (x.shards, table), shards, "rope", specs=specs)
    return ShardedTensor(mesh, x.spec, x.global_shape, shards)


def local_attention(mesh: VirtualMesh, out_spec: ShardSpec,
                    out_shape: Sequence[int],
                    q: ShardedTensor,
                    k_shards: np.ndarray, v_shards: np.ndarray,
                    q_offset: int) -> ShardedTensor:
    """Per-device causal attention over already co-located Q/K/V shards.

    ``k_shards``/``v_shards`` hold per-device ``[B, M, K, D]`` buffers (a
    view of the sharded KV cache) — object arrays on the loop backend; on
    the stacked one, the cache buffer itself, whose device grid is size 1
    on every axis the KV spec replicates.  Both backends call the one
    kernel, :func:`repro.model.reference.attention`: per device on the
    loop backend, once over the whole grid on the stacked one, where the
    K/V grid broadcasts against the query's.  The softmax and the
    attention matmuls are strictly local; correctness of the layout is
    therefore exactly the claim that Q and KV are sharded compatibly,
    which the calling layout establishes and the equivalence tests
    verify.  The replay closures re-derive the step-varying offset from
    the KV view length (``M - L``), exactly what the model passes in.
    """
    if q.is_stacked and is_stacked(k_shards) and is_stacked(v_shards):
        shards = attention(q.shards, k_shards, v_shards, q_offset)
        # The replay closure keeps its buffers across replays.
        scratch: dict = {}

        def replay(qs, ks, vs):
            return attention(qs, ks, vs, ks.shape[-3] - qs.shape[-3],
                             scratch)

        record(mesh, replay, (q.shards, k_shards, v_shards), shards,
               "attention", meta=("attention",),
               specs=(q.spec, None, None, out_spec))
        return ShardedTensor(mesh, out_spec, tuple(out_shape), shards)

    shards = mesh.map_devices(
        lambda c: attention(q.shards[c], k_shards[c], v_shards[c], q_offset))
    record(mesh,
           lambda qs, ks, vs: mesh.map_devices(
               lambda c: attention(qs[c], ks[c], vs[c],
                                   ks[c].shape[1] - qs[c].shape[1])),
           (q.shards, k_shards, v_shards), shards, "attention",
           specs=(q.spec, None, None, out_spec))
    return ShardedTensor(mesh, out_spec, tuple(out_shape), shards)
