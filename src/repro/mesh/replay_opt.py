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
* **RoPE table CSE** — every query/key rotation at the same positions
  recomputes identical cos/sin tables; one inserted instruction builds
  them per step (:func:`repro.model.rope.rope_tables`) and the rotations
  switch to :func:`repro.model.rope.apply_rope_cached`, which runs the
  identical multiply/add sequence on the identical tables.  Q and K,
  adjacent columns of the model's fused projection, rotate as one slab.
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
* **Flat multiquery attention** — the stacked decode attention
  broadcast-materializes the shared KV head across the query-head
  groups; for the captured multiquery case the same sums are computed
  directly from the unexpanded ``[B, M, D]`` K/V via a
  3-operand-subscript einsum, skipping the broadcast copy and the
  (provably all-True) mask branch.
* **Indexed collectives** — a recorded collective's data movement is
  traced once to an index table, so replay is one ``np.take`` (plus the
  same left-to-right reduction) instead of a chain of reshapes and
  transposes (:func:`repro.mesh.stacked.prebind_collective_indexed`;
  shapes too large for a table get :func:`repro.mesh.stacked.
  prebind_collective`, with its metadata resolved once).

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
from repro.model.functional import causal_mask
from repro.model.rope import apply_rope_cached, rope_tables

try:  # same C kernel np.einsum dispatches to; skips its Python wrapper
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:  # pragma: no cover - older numpy layouts
    _einsum = np.einsum


def optimize_tape(recorder, instrs, const, out_vids):
    """Rewrite the post-folding instruction list; returns the new list.

    ``recorder`` supplies the captured values (for shapes and weight
    constants) and grows its value table for newly created constants and
    intermediates; ``const`` is extended in place for new constants.
    """
    instrs = _cse_rope_tables(recorder, instrs, const)
    instrs = _merge_rope_slabs(recorder, instrs)
    instrs = _collapse_replicas(recorder, instrs, const, out_vids)
    instrs = _flatten_attention(recorder, instrs)
    instrs = _prebind_einsums(recorder, instrs, const, out_vids)
    instrs = _inplace_rope(recorder, instrs, out_vids)
    instrs = _inplace_elementwise(recorder, instrs, out_vids)
    instrs = _prebind_collectives(recorder, instrs, out_vids)
    instrs = _eliminate_dead(instrs, out_vids)
    return instrs


def _add_value(recorder, value, const=None):
    vid = len(recorder._values)
    recorder._values.append(value)
    if const is not None:
        const.add(vid)
    return vid


# ---------------------------------------------------------------------------
# RoPE table CSE
# ---------------------------------------------------------------------------

def _rope_table_instr(d_head: int, theta: float):
    return lambda p: rope_tables(p, d_head, theta)


def _rope_cached(tab, s):
    return apply_rope_cached(s, tab)


def _cse_rope_tables(recorder, instrs, const):
    from repro.mesh.capture import _Instr

    values = recorder._values
    groups: dict[tuple, list[int]] = {}
    for i, ins in enumerate(instrs):
        if ins.meta is None or ins.meta[0] != "rope":
            continue
        if ins.out is None or len(ins.inputs) != 2:
            continue
        d_head = values[ins.out].shape[-1]
        groups.setdefault((ins.inputs[0], ins.meta[1], d_head),
                          []).append(i)

    inserts: dict[int, object] = {}
    rewrites: dict[int, object] = {}
    for (pos_vid, theta, d_head), members in groups.items():
        if len(members) < 2:
            continue
        captured = rope_tables(values[pos_vid], d_head, theta)
        tab_vid = _add_value(recorder, captured,
                             const if pos_vid in const else None)
        inserts[members[0]] = _Instr(_rope_table_instr(d_head, theta),
                                     (pos_vid,), tab_vid, "rope_tables",
                                     False, False)
        for i in members:
            ins = instrs[i]
            rewrites[i] = _Instr(_rope_cached, (tab_vid, ins.inputs[1]),
                                 ins.out, "rope_cached", False, False)

    if not rewrites:
        return instrs
    rewritten = []
    for i, ins in enumerate(instrs):
        if i in inserts:
            rewritten.append(inserts[i])
        rewritten.append(rewrites.get(i, ins))
    return rewritten


# ---------------------------------------------------------------------------
# Rope slab merge
# ---------------------------------------------------------------------------

def _slab_viewer(start: int, stop: int, rows: int, d: int):
    def view(f):
        return f[..., start:stop].reshape(f.shape[:-1] + (rows, d))
    view.const_view = True
    return view


def _row_viewer(start: int, stop: int):
    def view(r):
        return r[..., start:stop, :]
    view.const_view = True
    return view


def _merge_rope_slabs(recorder, instrs):
    """Rotate adjacent projection columns (Q then K) in one call.

    The model's fused input projection
    (:func:`repro.mesh.ops.fused_projection`) hands out Q and K as
    column views of one buffer, and both get rotated against the same
    table.  Rotation is elementwise over ``d``-sized pairs, so rotating
    the combined ``[..., rows, d]`` slab is bit-equal to rotating each
    slice — one :func:`apply_rope_cached` call replaces two, and the
    originals become row-views of the slab's output.
    """
    from repro.mesh.capture import _Instr

    values = recorder._values
    # Column views: value id -> (projection buffer, start, stop, shape).
    view_map = {ins.out: (ins.inputs[0], ins.meta[1], ins.meta[2],
                          values[ins.out].shape)
                for ins in instrs if ins.meta and ins.meta[0] == "columns"}
    groups: dict[tuple, list[int]] = {}
    for i, ins in enumerate(instrs):
        if ins.label != "rope_cached" or len(ins.inputs) != 2:
            continue
        entry = view_map.get(ins.inputs[1])
        if entry is None:
            continue
        shape = entry[3]
        if len(shape) < 2 or shape[-2] * shape[-1] != entry[2] - entry[1]:
            continue
        groups.setdefault((ins.inputs[0], entry[0], shape[-1]),
                          []).append(i)

    inserts: dict[int, list] = {}
    rewrites: dict[int, object] = {}
    for (tab_vid, fused_vid, d), members in groups.items():
        members.sort(key=lambda i: view_map[instrs[i].inputs[1]][1])
        run: list[int] = []
        runs: list[list[int]] = []
        for i in members:
            if run and view_map[instrs[run[-1]].inputs[1]][2] \
                    == view_map[instrs[i].inputs[1]][1]:
                run.append(i)
            else:
                run = [i]
                runs.append(run)
        for run in runs:
            if len(run) < 2:
                continue
            start = view_map[instrs[run[0]].inputs[1]][1]
            stop = view_map[instrs[run[-1]].inputs[1]][2]
            rows = (stop - start) // d
            slab_captured = np.concatenate(
                [values[instrs[i].inputs[1]] for i in run], axis=-2)
            roped_captured = np.concatenate(
                [values[instrs[i].out] for i in run], axis=-2)
            slab_vid = _add_value(recorder, slab_captured)
            roped_vid = _add_value(recorder, roped_captured)
            slab = _Instr(_slab_viewer(start, stop, rows, d),
                          (fused_vid,), slab_vid, "rope_slab",
                          False, False)
            rope = _Instr(_rope_cached, (tab_vid, slab_vid), roped_vid,
                          "rope_cached", False, False)
            row = 0
            for j, i in enumerate(run):
                h = view_map[instrs[i].inputs[1]][3][-2]
                rewrites[i] = _Instr(_row_viewer(row, row + h),
                                     (roped_vid,), instrs[i].out,
                                     "rope_view", False, False)
                row += h
            inserts[run[0]] = [slab, rope]

    if not rewrites:
        return instrs
    rewritten = []
    for i, ins in enumerate(instrs):
        if i in inserts:
            rewritten.extend(inserts[i])
        rewritten.append(rewrites.get(i, ins))
    return rewritten


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


def _kv_view(idx: int, which: str, mask: int):
    gx, gy, gz = _GRID_INDEX[mask]

    def view(ctx):
        cache = ctx.caches[idx]
        return getattr(cache, which)[gx, gy, gz, :, :cache.length]
    return view


def _kind(ins) -> str:
    """How an instruction's kernel treats the device grid (see
    :func:`_collapse_replicas`)."""
    meta = ins.meta
    tag = meta[0] if meta else None
    if tag in ("einsum", "rmsnorm", "rope", "elementwise") \
            or ins.label == "rope_cached":
        return "pointwise"
    if getattr(ins.fn, "const_view", False):
        return "view"
    if tag in _COLLECTIVES:
        return "collective"
    if tag in ("attention", "kv_view", "to_global", "from_global"):
        return tag
    if ins.label == "kv_append":
        return "sink"
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
    * KV views slice one copy of the cache's replicated axes; KV appends
      write a collapsed value into every replica by broadcasting;
    * indexed collectives (and ``from_global``) produce one copy of a
      replicated result, reading any collapsed operand through their
      index tables — the same rank-ordered sums on fewer positions;
    * ``to_global`` reads the one copy, through a prebound index table.

    Anything else, and a collective too large for an index table, gets
    full operands through a stride-0 ``np.broadcast_to`` view; the
    instruction producing a program output gets fresh full copies, so
    the output is full and freshly allocated as before.  Kernels write
    only into buffers of their own (possibly collapsed) shape — arena
    buffers and runner scratch — never through a slice or broadcast
    view.  Bit-exact: each remaining position runs the same kernel on
    the same operand values (a replica's copy) in the same order.  The
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
            _, idx, which = ins.meta
            mask = rep(ins.out, 0)
            if mask:
                fn = _kv_view(idx, which, mask)
                collapse_output(ins.out, mask)
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
# Flat multiquery decode attention
# ---------------------------------------------------------------------------

def _flat_mq_attention(out_shape, dtype):
    # The query-side shapes are step-invariant, but the KV length ``m``
    # grows with the cache fill (a program replays at any fill — the
    # signature excludes it), so the score buffer is cached per ``m``;
    # the scale is the same ``1/sqrt(d_head)`` scalar the eager path
    # computes per call.  The einsums keep the mesh axes in the
    # subscripts and read the strided Q and KV views directly (no
    # per-call fold), and the second contraction writes straight into
    # the contiguous output buffer.
    lead = tuple(out_shape[:4])
    bsz = int(np.prod(lead))
    l, h, d = out_shape[4:]
    out = np.empty(out_shape, dtype)
    red = np.empty((bsz * h * l, 1), dtype)
    scale = 1.0 / np.sqrt(out_shape[-1])
    per_m = {}

    def run(qs, ks, vs):
        # Single query attending to its full history with one shared KV
        # head: the mask is provably all-True and the KV broadcast over
        # the query-head groups is expressed in the subscripts instead
        # of materialized.  Contraction per output element is the same
        # sum in the same order as the broadcast form (the mesh axes in
        # the subscripts only relabel the outer loop), the softmax runs
        # the same max/sub/exp/sum/div sequence in place on a collapsed
        # view of the same rows, so the bits match (the differential
        # tests assert it).
        m = ks.shape[4]
        bufs = per_m.get(m)
        if bufs is None:
            s7 = np.empty(lead + (h, l, m), dtype)
            bufs = per_m[m] = (s7, s7.reshape(bsz * h * l, m))
        s7, s2 = bufs
        k = ks[:, :, :, :, :, 0, :]
        v = vs[:, :, :, :, :, 0, :]
        _einsum("wxyzlhd,wxyzmd->wxyzhlm", qs, k, out=s7)
        np.multiply(s2, scale, out=s2)
        # np.max/np.sum are Python wrappers over these same ufunc
        # reductions (identical pairwise algorithm, identical bits).
        np.maximum.reduce(s2, axis=-1, keepdims=True, out=red)
        np.subtract(s2, red, out=s2)
        np.exp(s2, out=s2)
        np.add.reduce(s2, axis=-1, keepdims=True, out=red)
        np.divide(s2, red, out=s2)
        _einsum("wxyzhlm,wxyzmd->wxyzlhd", s7, v, out=out)
        return out
    run.out_buffer = out
    return run


def _flat_mq_prefill_attention(out_shape, dtype):
    # Prefill (L > 1) attends through a causal mask, and the KV length
    # ``m`` varies between replays (the same chunk program runs at any
    # cache offset), so the score buffer and mask are cached per ``m``
    # instead of preallocated.  The mask fill value is the same
    # ``finfo.min`` that ``masked_softmax`` uses.
    lead = tuple(out_shape[:4])
    bsz = int(np.prod(lead))
    l, h, d = out_shape[4:]
    out = np.empty(out_shape, dtype)
    red = np.empty((bsz * h, l, 1), dtype)
    scale = 1.0 / np.sqrt(out_shape[-1])
    neg = np.finfo(dtype).min
    per_m = {}

    def run(qs, ks, vs):
        # Same subscripts-instead-of-broadcast contraction as the decode
        # variant; the masking writes ``finfo.min`` into the same
        # positions ``np.where(mask, scores, neg)`` would, and the
        # softmax runs the same max/sub/exp/sum/div sequence in place
        # on a collapsed view of the same rows, so the bits match (the
        # differential tests assert it).
        m = ks.shape[4]
        cached = per_m.get(m)
        if cached is None:
            s7 = np.empty(lead + (h, l, m), dtype)
            cached = (s7, s7.reshape(bsz * h, l, m),
                      ~causal_mask(l, m, m - l))
            per_m[m] = cached
        s7, s3, dead = cached
        k = ks[:, :, :, :, :, 0, :]
        v = vs[:, :, :, :, :, 0, :]
        _einsum("wxyzlhd,wxyzmd->wxyzhlm", qs, k, out=s7)
        np.multiply(s3, scale, out=s3)
        np.copyto(s3, neg, where=dead)
        np.maximum.reduce(s3, axis=-1, keepdims=True, out=red)
        np.subtract(s3, red, out=s3)
        np.exp(s3, out=s3)
        np.add.reduce(s3, axis=-1, keepdims=True, out=red)
        np.divide(s3, red, out=s3)
        _einsum("wxyzhlm,wxyzmd->wxyzlhd", s7, v, out=out)
        return out
    run.out_buffer = out
    return run


def _flatten_attention(recorder, instrs):
    from repro.mesh.capture import _Instr

    values = recorder._values
    rewritten = []
    for ins in instrs:
        if (ins.meta is not None and ins.meta[0] == "attention"
                and ins.out is not None and len(ins.inputs) == 3):
            qs = values[ins.inputs[0]]
            ks = values[ins.inputs[1]]
            if qs.ndim == 7 and ks.ndim == 7 and ks.shape[5] == 1:
                captured = values[ins.out]
                if qs.shape[4] == 1:
                    fn = _flat_mq_attention(captured.shape, captured.dtype)
                else:
                    fn = _flat_mq_prefill_attention(captured.shape,
                                                    captured.dtype)
                rewritten.append(_Instr(fn, ins.inputs, ins.out,
                                        "attention_flat", False, False))
                continue
        rewritten.append(ins)
    return rewritten


# ---------------------------------------------------------------------------
# Prebound einsums and in-place rope
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


def _rope_inplace_runner(shape, dtype):
    """Rotation with preallocated output/scratch — same arithmetic as
    :func:`repro.model.rope.apply_rope_cached`, each elementwise product
    and sum computed on the same operands in the same order, just written
    through ``out=`` into reused buffers (reuse follows the arena policy:
    programs replay serially, every consumer reads within the step).

    Large slabs (prefill chunks) are de-interleaved into contiguous
    half-width scratch first: the products and sums then run on
    contiguous data instead of stride-2 views of a strided projection
    slab, and the results are written back into the interleaved output.
    The copies move values verbatim and every product/sum sees the same
    operands in the same order, so the bits are unchanged; for tiny
    decode slabs the extra dispatches would dominate, so those keep the
    direct strided form.
    """
    out = np.empty(shape, dtype)
    even, odd = out[..., 0::2], out[..., 1::2]
    tmp = np.empty(even.shape, dtype)

    if int(np.prod(shape)) >= 4096:
        half = even.shape
        x1b = np.empty(half, dtype)
        x2b = np.empty(half, dtype)
        oe = np.empty(half, dtype)
        oo = np.empty(half, dtype)
        cosb = np.empty(half, dtype)
        sinb = np.empty(half, dtype)

        def run(tab, x):
            cos, sin = tab
            np.copyto(x1b, x[..., 0::2])
            np.copyto(x2b, x[..., 1::2])
            np.copyto(cosb, cos)
            np.copyto(sinb, sin)
            np.multiply(x1b, cosb, out=oe)
            np.multiply(x2b, sinb, out=tmp)
            np.subtract(oe, tmp, out=oe)
            np.multiply(x1b, sinb, out=oo)
            np.multiply(x2b, cosb, out=tmp)
            np.add(oo, tmp, out=oo)
            even[...] = oe
            odd[...] = oo
            return out
    else:
        def run(tab, x):
            cos, sin = tab
            x1, x2 = x[..., 0::2], x[..., 1::2]
            np.multiply(x1, cos, out=even)
            np.multiply(x2, sin, out=tmp)
            np.subtract(even, tmp, out=even)
            np.multiply(x1, sin, out=odd)
            np.multiply(x2, cos, out=tmp)
            np.add(odd, tmp, out=odd)
            return out
    run.out_buffer = out
    return run


def _inplace_rope(recorder, instrs, out_vids):
    from repro.mesh.capture import _Instr

    values = recorder._values
    rewritten = []
    for ins in instrs:
        if (ins.label == "rope_cached" and len(ins.inputs) == 2
                and ins.out is not None and ins.out not in out_vids):
            captured = values[ins.out]
            fn = _rope_inplace_runner(captured.shape, captured.dtype)
            rewritten.append(_Instr(fn, ins.inputs, ins.out,
                                    "rope_inplace", False, False))
            continue
        rewritten.append(ins)
    return rewritten


def _swish_runner(shape, dtype):
    """``x / (1.0 + exp(-x))`` through a preallocated buffer — same three
    elementwise ops on the same operands (float addition is commutative
    under IEEE rounding, so ``exp(-x) + 1.0`` is ``1.0 + exp(-x)``)."""
    out = np.empty(shape, dtype)

    def run(x):
        np.negative(x, out=out)
        np.exp(out, out=out)
        np.add(out, 1.0, out=out)
        np.divide(x, out, out=out)
        return out
    run.out_buffer = out
    return run


def _mul_runner(shape, dtype):
    out = np.empty(shape, dtype)

    def run(a, b):
        np.multiply(a, b, out=out)
        return out
    run.out_buffer = out
    return run


def _norm_runner(e_size, eps, out_shape, ss_shape, dtype):
    """The stacked RMSNorm body with preallocated output and rms scratch:
    ``sqrt(ss / e + eps)`` then ``(x * scale) / rms``, each op on the same
    operands in the same order as the recorded closure."""
    out = np.empty(out_shape, dtype)
    rbuf = np.empty(tuple(ss_shape) + (1,), dtype)

    def run(xs, ss, sc):
        np.divide(ss[..., None], e_size, out=rbuf)
        np.add(rbuf, eps, out=rbuf)
        np.sqrt(rbuf, out=rbuf)
        np.multiply(xs, sc[:, :, :, None, None, :], out=out)
        np.divide(out, rbuf, out=out)
        return out
    run.out_buffer = out
    return run


def _inplace_elementwise(recorder, instrs, out_vids):
    """Rewrite recognized elementwise closures to buffered in-place runs.

    Stacked elementwise ``map_shards``/``zip_shards`` record the user
    function itself, so Swish and the SwiGLU gate product are matched by
    identity; the stacked RMSNorm is matched by its meta tag.  Each
    rewrite performs the identical elementwise arithmetic, only writing
    through ``out=`` into buffers reused under the arena policy.
    """
    from repro.mesh.capture import _Instr
    from repro.model import functional

    values = recorder._values
    rewritten = []
    for ins in instrs:
        if ins.out is None or ins.out in out_vids:
            rewritten.append(ins)
            continue
        captured = values[ins.out]
        if ins.fn is functional.swish and len(ins.inputs) == 1:
            fn = _swish_runner(captured.shape, captured.dtype)
            label = "swish_inplace"
        elif ins.fn is np.multiply and len(ins.inputs) == 2 \
                and values[ins.inputs[0]].shape == captured.shape \
                and values[ins.inputs[1]].shape == captured.shape:
            fn = _mul_runner(captured.shape, captured.dtype)
            label = "mul_inplace"
        elif (ins.meta is not None and ins.meta[0] == "rmsnorm"
                and len(ins.inputs) == 3):
            fn = _norm_runner(ins.meta[1], ins.meta[2], captured.shape,
                              values[ins.inputs[1]].shape, captured.dtype)
            label = "rmsnorm_inplace"
        else:
            rewritten.append(ins)
            continue
        rewritten.append(_Instr(fn, ins.inputs, ins.out, label,
                                False, False))
    return rewritten


# ---------------------------------------------------------------------------
# Prebound collectives
# ---------------------------------------------------------------------------

def _prebind_collectives(recorder, instrs, out_vids):
    """Swap recorded collectives to prebound (mostly indexed) closures.

    Indexed closures return a per-instruction buffer reused across
    replays, so a program output keeps the allocating meta-kernel form.
    """
    from repro.mesh.capture import _Instr

    values = recorder._values
    scratch: dict = {}
    rewritten = []
    for ins in instrs:
        meta = ins.meta
        if (meta is not None and len(ins.inputs) == 1
                and meta[0] in ("all_gather", "reduce_scatter",
                                "all_reduce")):
            dim_idx = meta[2] if len(meta) > 2 else None
            operand = values[ins.inputs[0]]
            fn = None
            if ins.out not in out_vids:
                fn = stacked_kernels.prebind_collective_indexed(
                    recorder.mesh, meta[0], meta[1], dim_idx,
                    operand.shape, operand.dtype, scratch=scratch,
                    out_lead=values[ins.out].shape[:3])
            if fn is None:
                fn = stacked_kernels.prebind_collective(
                    recorder.mesh, meta[0], meta[1], dim_idx)
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
    of it (``const_view``-marked projection columns and rope slices)
    is itself the same object every time.  The view is computed once
    here, stored in the value template, and its instruction dropped —
    consumers read the live bytes through the frozen window exactly as
    they would through a per-replay one.
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


# ---------------------------------------------------------------------------
# Dead-code elimination
# ---------------------------------------------------------------------------

def _eliminate_dead(instrs, out_vids):
    """Drop pure instructions whose outputs nothing consumes.

    Earlier passes strand instructions (a projection view whose only
    consumer became a rope slab, say).  Side-effecting instructions —
    ``out is None``, e.g. KV appends — are always kept.  Dead
    collectives go too: the fault clock does not count executed
    collectives, since every replay adds the program's captured count.
    """
    needed = set(out_vids)
    kept_rev = []
    for ins in reversed(instrs):
        if ins.out is None or ins.out in needed:
            kept_rev.append(ins)
            needed.update(ins.inputs)
    return kept_rev[::-1]
