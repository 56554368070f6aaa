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
from repro.mesh.sharded_tensor import run_local
from repro.model.reference import attention
from repro.model.rope import apply_rope_cached
from repro.sharding.spec import ShardSpec


def zip_shards(out_spec: ShardSpec, out_shape: Sequence[int],
               fn: Callable[..., np.ndarray],
               *tensors: ShardedTensor) -> ShardedTensor:
    """Combine several sharded tensors device-wise with ``fn``.

    The caller asserts (by providing ``out_spec``) that ``fn`` is local —
    i.e. its output at each device depends only on that device's shards and
    is sharded as described.  ``fn`` acts on trailing axes and broadcasts
    over leading ones (a ufunc such as ``np.multiply``, or ``swish``), so
    it runs once over the whole device grid on stacked shards; it also
    takes an ``out=`` buffer, into which a stacked capture replays it.
    Runs through :func:`repro.mesh.sharded_tensor.run_local`, recorded
    under ``fn``'s name.
    """
    mesh = tensors[0].mesh
    shards = run_local(mesh, fn, [t.shards for t in tensors], fn.__name__,
                       arena=True, meta=("elementwise",))
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

    # ``sc`` is a per-device [E_loc] vector: explicit singleton B/L axes
    # broadcast it against the [..., B, L, E_loc] activations.
    def rmsnorm(xs, ss, sc, out=None):
        rms = np.divide(ss[..., None], e_size)
        np.add(rms, eps, out=rms)
        np.sqrt(rms, out=rms)
        out = np.multiply(xs, sc[..., None, None, :], out=out)
        return np.divide(out, rms, out=out)

    return zip_shards(x.spec, x.global_shape, rmsnorm, x, sumsq, scale)


def sharded_rope(x: ShardedTensor, table: np.ndarray) -> ShardedTensor:
    """Apply RoPE to a ``[B, L, heads, D]`` sharded tensor.

    ``table`` holds the forward's rows of the complex rotation table
    (a slice of :func:`repro.model.rope.rope_table`, built once per
    ``(d_head, theta)`` and shared by every forward and replay); it is
    the same on every device, so
    :func:`repro.mesh.sharded_tensor.run_local` passes it whole to
    :func:`repro.model.rope.apply_rope_cached`, which broadcasts over
    the device grid.  RoPE is elementwise per (position, head,
    dim-pair), so it is local for any sharding that keeps L and D
    unsharded (all layouts here do).
    """
    for dim in ("L", "D"):
        if x.spec.axes_for(dim):
            raise ValueError(f"RoPE requires unsharded {dim}, got {x.spec}")
    # The table is a tracked input, not a baked-in constant: under
    # capture the model's table instruction re-slices it per replay.
    shards = run_local(x.mesh, apply_rope_cached, (x.shards,), "rope_cached",
                       whole=(table,), arena=True, meta=("elementwise",))
    return ShardedTensor(x.mesh, x.spec, x.global_shape, shards)


def local_attention(mesh: VirtualMesh, out_spec: ShardSpec,
                    out_shape: Sequence[int],
                    q: ShardedTensor,
                    k_shards: np.ndarray, v_shards: np.ndarray
                    ) -> ShardedTensor:
    """Per-device causal attention over already co-located Q/K/V shards.

    ``k_shards``/``v_shards`` hold per-device ``[B, M, K, D]`` buffers (a
    view of the sharded KV cache, which already holds the new tokens) —
    object arrays on the loop backend; on the stacked one, the cache
    buffer itself, whose device grid, like the query's, is size 1 on
    every axis its spec replicates; the two broadcast.  The one kernel,
    :func:`repro.model.reference.attention`, runs through
    :func:`repro.mesh.sharded_tensor.run_local`, the queries' causal
    offset derived as ``M - L`` from the operands.  The softmax and the
    attention matmuls are strictly local; correctness of the layout is
    therefore exactly the claim that Q and KV are sharded compatibly,
    which the calling layout establishes and the equivalence tests
    verify.
    """
    def kernel(qs, ks, vs, scratch=None):
        return attention(qs, ks, vs, ks.shape[-3] - qs.shape[-3], scratch)

    scratch: dict = {}
    shards = run_local(
        mesh, kernel, (q.shards, k_shards, v_shards), "attention",
        meta=("attention",),
        # Stacked replay reuses scratch buffers; its output aliases them.
        replay=lambda qs, ks, vs: kernel(qs, ks, vs, scratch))
    return ShardedTensor(mesh, out_spec, tuple(out_shape), shards)
