"""Bit-exact tape optimization for captured replay programs.

Replay cost is per-numpy-call overhead plus arithmetic.  At decode
shapes the arrays are tiny and the overhead dominates, so every
eliminated kernel invocation counts.  Prefill chunks are not free of
FLOPs: on the serving benchmark's Model A (4x4x4 mesh, WS-2D), one
block's fused input projection of a 4-token chunk is 115k MACs, which
took 107 us through ``np.einsum``'s loop and 23 us as one batched BLAS
``np.matmul`` (x86-64, 2 vCPUs, OpenBLAS 0.3.31 on one thread).  Every
weight contraction therefore runs as a matmul, eager and replayed alike
(:func:`repro.mesh.stacked.contract`), and the passes here rewrite a
captured tape (:mod:`repro.mesh.capture`) to issue fewer, fatter calls
while provably preserving every output bit:

* **Prebound contractions** — each weight contraction replays as one
  ``np.matmul`` into a view of the runner's own buffer, with the
  weight's matrix view and the operand shapes resolved at capture
  (:func:`_fused_einsum`); other contractions call the C einsum kernel
  with bound subscripts.
* **View collectives** — an all-gather, reduce-scatter or all-reduce
  replays as one ufunc between strided views of its operand and of a
  buffer it owns: the view recipe its eager op already ran
  (:func:`repro.mesh.stacked.view_recipe`), bound to a reused buffer
  (:func:`repro.mesh.stacked.replay_kernel`).  Where the operand is a
  fixed buffer — an arena output, another replay kernel's buffer or a
  frozen view of one — its view is bound at capture too, so the
  replayed collective is a single numpy call.  ``to_global`` and
  ``from_global`` replay through view recipes the same way.  The swap
  happens in :func:`freeze_stable_views`, once the fixed buffers are
  known.

A replicated value needs no pass either: a stacked array holds one copy
along every mesh axis its sharding spec replicates (an axis missing
from the spec, Section 3.1), eager and replayed alike
(:mod:`repro.mesh.stacked`), so capture records the logits head on one
device position, head-sharded multiquery attention once per head shard
and every replicated collective result once per group, and the recipes
and prebound matmuls above are resolved on those shapes.

Elementwise kernels need no pass: Swish, the SwiGLU product, RMSNorm
and RoPE are recorded as their eager kernels, which replay through
``out=`` into the capture arena's buffers.

The input projections are fused by the model, not here: a BLAS product
split by columns does not give the bits of the full product, so a
fusion only replay made would break replay's identity with eager
execution.  :class:`~repro.layouts.ShardedTransformer` issues each
block's projection against weights concatenated once per deployment
(:func:`repro.mesh.ops.fused_projection`), so every program of the
deployment reads the same constant.  Capture cost is paid once per
shared value, not once per program: the view recipes are memoized
process-wide as immutable tuples, and the rank-major scratch is one
buffer per (size, dtype) within a program.

All passes are *conservative pattern matchers*: anything unrecognized
(loop-backend instructions, sharded-weight layouts) is left untouched.
:meth:`repro.mesh.capture.StepRecorder.finalize` runs the optimizer for
every stacked-backend program — the single decode step the serving
path replays and every prefill chunk — then splits the result into a
KV body and a logits head, and only then calls
:func:`freeze_stable_views`.  The order matters: a frozen view leaves
the instruction list, so a split after freezing would find no producer
for the K/V the appends read through column views of the projection
buffer.  The differential suites assert bit-identical logits and KV
caches for optimized programs on every plan and batch size they cover.
"""

from __future__ import annotations

import numpy as np

from repro.mesh import stacked as stacked_kernels
from repro.model.functional import c_einsum as _einsum


def optimize_tape(recorder, instrs, const, out_vids):
    """Rewrite the post-folding instruction list; returns the new list.

    ``recorder`` supplies the captured values (for shapes and weight
    constants); ``const`` holds the constant value ids.
    """
    return _prebind_einsums(recorder, instrs, const, out_vids)


# ---------------------------------------------------------------------------
# Prebound einsums
# ---------------------------------------------------------------------------

def _fused_einsum(lhs: str, rhs: str, out_sub: str, x: np.ndarray,
                  w: np.ndarray, out: np.ndarray):
    """The replay runner of a matmul-form contraction of a live operand
    by a constant weight: one ``np.matmul`` per call.

    ``x``/``w``/``out`` are the captured operands and result.  The
    weight's matrix view (transposed for a transposed form), the shape
    ``x`` is reshaped to and a matrix view of the runner's own output
    buffer are all bound here — the operands and kernel of
    :func:`repro.mesh.stacked.contract`, so the same bits — and the
    runner takes ``x`` alone.  ``run.weight`` is the weight it reads.
    """
    a2, b2, o2, _ = stacked_kernels.matmul_shapes(lhs, rhs, out_sub,
                                                  x.shape, w.shape)
    wm = w.reshape(b2)
    if stacked_kernels.matmul_form(lhs, rhs, out_sub)[1]:
        wm = wm.swapaxes(-1, -2)
    buf = np.empty(out.shape, out.dtype)
    om = buf.reshape(o2)

    def run(x):
        np.matmul(x.reshape(a2), wm, out=om)
        return buf
    run.out_buffer = buf
    run.weight = w
    return run


def _einsum_runner(lhs: str, rhs: str, out_sub: str):
    """Any other stacked contraction: the C einsum kernel with its
    subscripts bound once (skipping ``np.einsum``'s Python wrapper)."""
    subs = f"...{lhs},...{rhs}->...{out_sub}"

    def run(x, w, out=None):
        if out is None:
            return _einsum(subs, x, w)
        return _einsum(subs, x, w, out=out)
    return run


def _prebind_einsums(recorder, instrs, const, out_vids):
    """Swap recorded stacked contractions to prebound runners.

    A matmul-form contraction of a live operand by a constant weight
    (every weight contraction of the model) gets :func:`_fused_einsum`;
    other contractions get :func:`_einsum_runner`.  A program output, or
    a matmul of two live operands, keeps its recorded closure, which
    calls the same :func:`repro.mesh.stacked.contract`.
    """
    from repro.mesh.capture import _Instr

    values = recorder._values
    rewritten = []
    for ins in instrs:
        meta = ins.meta
        if (meta is not None and meta[0] == "einsum"
                and len(ins.inputs) == 2 and ins.out is not None):
            x_vid, w_vid = ins.inputs
            if stacked_kernels.matmul_form(*meta[1:]) is None:
                rewritten.append(_Instr(_einsum_runner(*meta[1:]),
                                        ins.inputs, ins.out, ins.label,
                                        ins.collective, ins.arena, meta))
                continue
            if w_vid in const and x_vid not in const \
                    and ins.out not in out_vids:
                fn = _fused_einsum(*meta[1:], values[x_vid], values[w_vid],
                                   values[ins.out])
                rewritten.append(_Instr(fn, (x_vid,), ins.out, ins.label,
                                        False, False))
                continue
        rewritten.append(ins)
    return rewritten


# ---------------------------------------------------------------------------
# View freezing and collective binding
# ---------------------------------------------------------------------------

_VIEW_OPS = ("all_gather", "reduce_scatter", "all_reduce", "from_global",
             "to_global")


def _bind_collective(ins, mesh_shape, values, stable, scratch, out_vids):
    """Swap a recorded collective, ``to_global`` or ``from_global`` to
    its replay kernel, in place.

    Each runs the view recipe its eager op ran
    (:func:`repro.mesh.stacked.view_recipe`) through
    :func:`repro.mesh.stacked.replay_kernel`, into a per-instruction
    buffer reused across replays, with the operand's view bound when the
    operand is one of the ``stable`` arrays.  A program output keeps its
    recorded, allocating closure, because that buffer is reused — except
    ``to_global`` (the logits), which returns a fresh copy of its buffer
    every call and, as the recorded closure does, skips the replica
    check.
    """
    meta = ins.meta
    if meta is None or meta[0] not in _VIEW_OPS or len(ins.inputs) != 1:
        return
    if meta[0] != "to_global" and ins.out in out_vids:
        return
    vid, out = ins.inputs[0], values[ins.out]
    fn = stacked_kernels.replay_kernel(
        mesh_shape, meta, stable.get(vid, values[vid]), scratch,
        np.empty(out.shape, out.dtype), vid in stable)
    if meta[0] == "to_global":
        kernel = fn

        def fn(a):
            return kernel(a).copy()
    ins.fn, ins.meta = fn, None


def freeze_stable_views(recorder, instrs, template, out_vids):
    """Hoist views of fixed buffers out of the replay loop, and bind the
    collectives to them.

    Called from ``finalize`` *after* arena allocation and the body/head
    split (the split needs the view instructions): an instruction
    whose kernel writes through ``out=`` into a preallocated buffer
    produces the *same array object* on every replay, so any pure view
    of it (the ``const_view``-marked projection columns, each cut to
    one copy along its replicated axes) is itself the same object every
    time.  The view is computed once here, stored in the value template,
    and its instruction dropped — consumers read the live bytes through
    the frozen window exactly as they would through a per-replay one.
    Collectives become their replay kernels here
    (:func:`_bind_collective`), in tape order, so each knows whether its
    operand is fixed and binds its view at capture, never on a first
    replay; their buffers are fixed in turn.  Rank-major scratch is one
    buffer per (size, dtype) within a program.
    """
    mesh_shape, values = recorder.mesh.shape, recorder._values
    stable: dict[int, np.ndarray] = {}
    scratch: dict = {}
    kept = []
    for ins in instrs:
        src = stable.get(ins.inputs[0]) if len(ins.inputs) == 1 else None
        if (getattr(ins.fn, "const_view", False) and src is not None
                and ins.out is not None and ins.out not in out_vids):
            frozen = ins.fn(src)
            # A reshape that could not stay a view would be a stale
            # snapshot, not a window — only freeze genuine views.
            if np.shares_memory(frozen, src):
                template[ins.out] = frozen
                stable[ins.out] = frozen
                continue
        _bind_collective(ins, mesh_shape, values, stable, scratch, out_vids)
        if ins.out is not None:
            buf = ins.buffer if ins.buffer is not None \
                else getattr(ins.fn, "out_buffer", None)
            if buf is not None:
                stable[ins.out] = buf
        kept.append(ins)
    return kept
