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
* **Replica collapse** — a value replicated along a mesh axis (an axis
  missing from its sharding spec, Section 3.1) is held and computed
  once along it: the recorder reads each value's replicated axes from
  the specs at the capture hooks, and einsums, attention, norm, rope,
  elementwise kernels and indexed collectives run on a size-1 slice of
  those axes, with constants stored collapsed.  The logits head runs on
  one device position instead of every one, head-sharded multiquery
  attention once per head shard, and ``to_global``/``from_global``
  replay through prebound index tables.  A consumer that needs the full
  grid gets a stride-0 broadcast view; see :func:`_collapse_replicas`.
* **Indexed collectives** — a recorded collective's data movement is
  traced once to an index table, so replay is one ``np.take`` (plus the
  same left-to-right reduction) instead of a chain of reshapes and
  transposes (:func:`repro.mesh.stacked.prebind_collective_indexed`;
  shapes too large for a table keep the recorded kernel, whose group
  metadata the op resolved once).

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
shared value, not once per program: the index tables are memoized
process-wide as read-only arrays, and the reduction scratch is one
buffer per (shape, dtype) within a program.

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
    constants) and grows its value table for newly created constants and
    intermediates; ``const`` is extended in place for new constants.
    """
    instrs = _collapse_replicas(recorder, instrs, const, out_vids)
    instrs = _prebind_einsums(recorder, instrs, const, out_vids)
    return _prebind_collectives(recorder, instrs, out_vids)


def _add_value(recorder, value, const=None):
    vid = len(recorder._values)
    recorder._values.append(value)
    if const is not None:
        const.add(vid)
    return vid


# ---------------------------------------------------------------------------
# Replica collapse
# ---------------------------------------------------------------------------

_COLLECTIVES = ("all_gather", "reduce_scatter", "all_reduce")

# Sets of device axes are 3-bit masks here (bit i: axis i of x, y, z).
#: Basic index per mask keeping copy 0 (as a size-1 axis) of each axis.
_GRID_INDEX = tuple(tuple(slice(0, 1) if mask >> i & 1 else slice(None)
                          for i in range(3)) for mask in range(8))
#: The mask of every sorted axis tuple (``StepRecorder.reps`` entries).
_MASKS = {tuple(i for i in range(3) if mask >> i & 1): mask
          for mask in range(8)}


def _collapser(mask: int):
    index = _GRID_INDEX[mask]

    def view(x):
        return x[index]
    view.const_view = True
    return view


def _widener(grid):
    def view(x):
        return np.broadcast_to(x, grid + x.shape[3:])
    view.const_view = True
    return view


def _materializer(grid):
    return lambda x: np.array(np.broadcast_to(x, grid + x.shape[3:]))


def _kind(ins) -> str:
    """How an instruction's kernel treats the device grid (see
    :func:`_collapse_replicas`)."""
    meta = ins.meta
    tag = meta[0] if meta else None
    if tag in ("einsum", "elementwise"):
        return "pointwise"
    if getattr(ins.fn, "const_view", False):
        return "view"
    if tag in _COLLECTIVES:
        return "collective"
    if tag in ("attention", "kv_view", "to_global", "from_global"):
        return tag
    if ins.label == "kv_append":
        return "kv_append"
    return "opaque"


def _collapse_replicas(recorder, instrs, const, out_vids):
    """Run each per-device kernel once per distinct value.

    A mesh axis missing from a value's sharding spec (Section 3.1) is
    one the value is replicated on: every device along it holds the
    same copy, so the stacked backend's whole-mesh kernels compute it
    once per device for nothing.  The recorder knows each value's
    replicated axes from the specs the hooks pass (:attr:`StepRecorder.
    reps`); values this optimizer created take the intersection of their
    inputs'.  Where the tape allows, the program holds a replicated
    value *collapsed* — size 1 on those axes — and its consumers run on
    the collapsed grid:

    * pointwise kernels (einsums with the device grid as a broadcast
      batch, norm, rope, elementwise) and views run on size-1 slices of
      every axis all their mesh operands share with the output; a
      constant operand is stored collapsed, a live one is sliced by a
      view (frozen when its source is a fixed buffer);
    * attention runs on the collapsed grid its operands share, K/V
      broadcast to the query's;
    * a KV view is the cache buffer itself, which holds one copy of
      the spec's replicated axes (:mod:`repro.layouts.kv_cache`); a KV
      append gets its K/V cut to that one copy;
    * indexed collectives (and ``from_global``) produce one copy of a
      replicated result, reading any collapsed operand through their
      index tables — the same rank-ordered sums on fewer positions;
    * ``to_global`` reads the one copy, through a prebound index table.

    Anything else, and a collective too large for an index table, gets
    full operands through a stride-0 ``np.broadcast_to`` view; the
    instruction producing a program output gets fresh full copies, so
    the output is full and freshly allocated as before.  Kernels write
    only into buffers of their own (possibly collapsed) shape — arena
    buffers, and the prebound matmuls' and indexed collectives' own —
    never through a slice or broadcast view.  Bit-exact: each remaining
    position runs the same kernel on the same operand values (a
    replica's copy) in the same order.  The
    analysis reads specs only, never array contents; what it collapsed
    is left in :attr:`StepRecorder.collapsed` for tests to check against
    the captured arrays.
    """
    from repro.mesh.capture import _Instr

    mesh = recorder.mesh
    values = recorder._values
    grid = tuple(mesh.shape)
    # Replicated axes per mesh value, leaving out axes of size 1 (None:
    # not a mesh array; missing: nothing known, so nothing replicated),
    # and collapsed axes per value.
    wide = sum(1 << i for i, n in enumerate(grid) if n > 1)
    masks = {vid: None if axes is None else wide & _MASKS[axes]
             for vid, axes in recorder.reps.items()}
    forms: dict[int, int] = {}
    derived: dict[tuple, int] = {}
    collapsed = recorder.collapsed
    out: list = []
    rep = masks.get

    def note(vid, mask):
        full, seen = collapsed.get(vid, (values[vid], frozenset()))
        collapsed[vid] = (full, seen | {i for i in range(3) if mask >> i & 1})

    def collapse_output(vid, mask):
        if mask:
            note(vid, mask)
            values[vid] = values[vid][_GRID_INDEX[mask]]
            forms[vid] = mask

    def derive(vid, fn, label, new_form, key):
        """A view (or copy) of ``vid`` — a new constant when ``vid`` is
        one, else a new instruction — memoized per ``key``."""
        if key not in derived:
            new = _add_value(recorder, fn(values[vid]),
                             const if vid in const else None)
            masks[new] = rep(vid, 0)
            forms[new] = new_form
            if vid not in const:
                out.append(_Instr(fn, (vid,), new, label, False, False))
            derived[key] = new
        return derived[key]

    def narrow(vid, mask):
        """``vid`` cut to copy 0 on ``mask`` (beyond its form)."""
        form = forms.get(vid, 0)
        mask &= ~form
        if not mask:
            return vid
        note(vid, mask)
        return derive(vid, _collapser(mask), "collapse", form | mask,
                      (vid, "narrow", mask))

    def widen(vid, keep=0, fresh=False):
        """``vid`` broadcast back over its collapsed axes not in
        ``keep`` (a read-only stride-0 view, or a fresh copy)."""
        form = forms.get(vid, 0)
        if not form & ~keep:
            return vid
        target = tuple(1 if (form & keep) >> i & 1 else n
                       for i, n in enumerate(grid))
        fn = _materializer(target) if fresh else _widener(target)
        return derive(vid, fn, "widen", form & keep, (vid, fresh, target))

    for ins in instrs:
        kind = _kind(ins)
        inputs = ins.inputs
        mesh_in = [v for v in inputs if rep(v, 0) is not None]
        if ins.out is not None and ins.out not in masks:
            if not mesh_in or kind == "to_global":
                masks[ins.out] = None
            elif kind in ("pointwise", "view"):
                mask = 7
                for v in mesh_in:
                    mask &= rep(v, 0)
                masks[ins.out] = mask
        if ins.out in out_vids and kind != "to_global":
            kind = "output"

        fn = ins.fn
        if kind == "pointwise" and mesh_in:
            mask = rep(ins.out, 0)
            for v in mesh_in:
                mask &= rep(v, 0)
            if mask:
                inputs = tuple(narrow(v, mask) if v in mesh_in else v
                               for v in inputs)
                mesh_in = [v for v in inputs if rep(v, 0) is not None]
            # The kernel broadcasts: its output is collapsed wherever
            # every mesh operand is.
            mask = 7
            for v in mesh_in:
                mask &= forms.get(v, 0)
            collapse_output(ins.out, mask)
        elif kind == "view":
            collapse_output(ins.out, forms.get(inputs[0], 0))
        elif kind == "attention":
            q, k, v = inputs
            mask = rep(ins.out, 0) & rep(q, 0) & rep(k, 0) & rep(v, 0)
            inputs = (narrow(widen(q, keep=mask), mask),
                      narrow(k, mask), narrow(v, mask))
            collapse_output(ins.out, mask)
        elif kind == "kv_view":
            collapse_output(ins.out, rep(ins.out, 0))
        elif kind == "kv_append":
            inputs = tuple(narrow(v, rep(v, 0)) if v in mesh_in else v
                           for v in inputs)
        elif kind == "collective":
            if stacked_kernels.collective_indexable(
                    mesh, ins.meta[0], values[inputs[0]].shape[3:]):
                collapse_output(ins.out, rep(ins.out, 0))
            else:
                inputs = (widen(inputs[0]),)
        elif kind == "to_global":
            _, spec, gshape = ins.meta
            fn = stacked_kernels.prebind_to_global(
                spec, gshape, values[inputs[0]].shape) or fn
        elif kind == "from_global":
            _, spec, local = ins.meta
            mask = rep(ins.out, 0)
            prebound = stacked_kernels.prebind_from_global(
                mesh, spec, values[inputs[0]].shape, local,
                values[ins.out].dtype,
                tuple(1 if mask >> i & 1 else n for i, n in enumerate(grid)))
            if prebound is not None:
                fn = prebound
                collapse_output(ins.out, mask)
        elif kind in ("opaque", "output"):
            inputs = tuple(widen(v, fresh=kind == "output")
                           if v in mesh_in else v for v in inputs)

        if fn is ins.fn and inputs == ins.inputs:
            out.append(ins)
        else:
            out.append(_Instr(fn, inputs, ins.out, ins.label,
                              ins.collective, ins.arena, ins.meta))
    return out


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
# Prebound collectives
# ---------------------------------------------------------------------------

def _prebind_collectives(recorder, instrs, out_vids):
    """Swap recorded collectives to indexed closures where a table fits.

    Indexed closures return a per-instruction buffer reused across
    replays, so a program output keeps its recorded, allocating kernel.
    """
    from repro.mesh.capture import _Instr

    values = recorder._values
    scratch: dict = {}
    rewritten = []
    for ins in instrs:
        meta = ins.meta
        if (meta is not None and len(ins.inputs) == 1
                and meta[0] in _COLLECTIVES and ins.out not in out_vids):
            operand = values[ins.inputs[0]]
            fn = stacked_kernels.prebind_collective_indexed(
                recorder.mesh, meta[0], meta[1],
                meta[2] if len(meta) > 2 else None,
                operand.shape, operand.dtype, scratch=scratch,
                out_lead=values[ins.out].shape[:3])
            if fn is not None:
                rewritten.append(_Instr(fn, ins.inputs, ins.out,
                                        ins.label, ins.collective,
                                        ins.arena))
                continue
        rewritten.append(ins)
    return rewritten


# ---------------------------------------------------------------------------
# View freezing
# ---------------------------------------------------------------------------

def freeze_stable_views(instrs, template, out_vids):
    """Hoist views of fixed arena buffers out of the replay loop.

    Called from ``finalize`` *after* arena allocation and the body/head
    split (the split needs the view instructions): an instruction
    whose kernel writes through ``out=`` into a preallocated buffer
    produces the *same array object* on every replay, so any pure view
    of it (``const_view``-marked projection columns and replica
    collapses) is itself the same object every time.  The view is
    computed once here, stored in the value template, and its
    instruction dropped — consumers read the live bytes through the
    frozen window exactly as they would through a per-replay one.
    """
    stable: dict[int, np.ndarray] = {}
    for ins in instrs:
        if ins.out is None:
            continue
        if ins.buffer is not None:
            stable[ins.out] = ins.buffer
        else:
            buf = getattr(ins.fn, "out_buffer", None)
            if buf is not None:
                stable[ins.out] = buf

    kept = []
    for ins in instrs:
        if (getattr(ins.fn, "const_view", False) and len(ins.inputs) == 1
                and ins.inputs[0] in stable and ins.out is not None
                and ins.out not in out_vids):
            frozen = ins.fn(stable[ins.inputs[0]])
            # A reshape that could not stay a view would be a stale
            # snapshot, not a window — only freeze genuine views.
            if np.shares_memory(frozen, stable[ins.inputs[0]]):
                template[ins.out] = frozen
                stable[ins.out] = frozen
                continue
        kept.append(ins)
    return kept

