"""Bit-exact tape optimization for captured replay programs.

Replay cost at decode shapes is dominated by *per-numpy-call overhead*,
not FLOPs — the arrays are tiny, so every eliminated kernel invocation
is worth more than any amount of per-element cleverness.  The passes
here rewrite a captured tape (:mod:`repro.mesh.capture`) to issue fewer,
fatter calls while provably preserving every output bit:

* **Projection-einsum fusion** — consecutive stacked einsums that
  multiply the *same* activation by different step-invariant weights
  (Q/K/V projections; the SwiGLU in/gate pair) are replaced by one
  batched einsum against the concatenated weight plus cheap view-slices
  of the fused output.  Bit-exact because einsum's contraction loop per
  output element is unchanged — the concat axis is a free (output) axis,
  so each block of the fused result is computed from exactly the same
  inputs in exactly the same order.
* **RoPE table CSE** — every query/key rotation at the same positions
  recomputes identical cos/sin tables; one inserted instruction builds
  them per step (:func:`repro.model.rope.rope_tables`) and the rotations
  switch to :func:`repro.model.rope.apply_rope_cached`, which runs the
  identical multiply/add sequence on the identical tables.
* **Flat multiquery attention** — the stacked decode attention
  broadcast-materializes the shared KV head across the query-head
  groups; for the captured single-query multiquery case the same sums
  are computed directly from the unexpanded ``[B, M, D]`` K/V via a
  3-operand-subscript einsum, skipping the broadcast copy and the
  (provably all-True) mask branch.
* **Indexed collectives** — a recorded collective's data movement is
  traced once to an index table, so replay is one ``np.take`` (plus the
  same left-to-right reduction) instead of a chain of reshapes and
  transposes (:func:`repro.mesh.stacked.prebind_collective_indexed`;
  shapes too large for a table get :func:`repro.mesh.stacked.
  prebind_collective`, with its metadata resolved once).

Capture cost is paid once per shared value, not once per program: the
index tables are memoized process-wide as read-only arrays, the
reduction scratch is one buffer per (shape, dtype) within a program,
and the fused projection weights are shared by every program of one
deployment through the recorder's ``weight_share``.

All passes are *conservative pattern matchers*: anything unrecognized
(loop-backend instructions, sharded-weight layouts) is left untouched.
:meth:`repro.mesh.capture.StepRecorder.finalize` runs the optimizer for
every stacked-backend program — the single decode step the serving
path replays and every prefill chunk.  The differential suites assert
bit-identical logits and KV caches for optimized programs on every plan
and batch size they cover.
"""

from __future__ import annotations

import numpy as np

from repro.mesh import stacked as stacked_kernels
from repro.model.functional import softmax
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
    instrs, view_map = _fuse_projection_einsums(recorder, instrs, const,
                                                out_vids)
    instrs = _cse_rope_tables(recorder, instrs, const)
    instrs = _merge_rope_slabs(recorder, instrs, view_map)
    instrs = _flatten_attention(recorder, instrs)
    instrs = _prebind_einsums(recorder, instrs)
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
# Projection-einsum fusion
# ---------------------------------------------------------------------------

def _distinct(letters: str) -> bool:
    return len(set(letters)) == len(letters)


def _canonical(lhs: str, rhs: str, out: str):
    """Split a projection einsum into ``(F, C, G)`` or return ``None``.

    The canonical form is ``lhs = F + C``, ``rhs = C + G``, ``out = F +
    G`` — a plain matrix product of the activation's trailing ``C`` dims
    against the weight, with free weight dims ``G``.  Any einsum in this
    form is bit-equal to the flattened ``F·C, C·g -> F·g`` product with
    ``g = prod(G)``: per output element the contraction runs over the
    same values in the same order, so c_einsum produces identical bits
    (the differential suites assert this on every covered shape).
    """
    if not (_distinct(lhs) and _distinct(rhs) and _distinct(out)):
        return None
    shared = [letter for letter in lhs if letter in rhs]
    c = "".join(shared)
    if not c or not lhs.endswith(c) or not rhs.startswith(c):
        return None
    if any(letter in out for letter in c):
        return None
    f = lhs[:len(lhs) - len(c)]
    g = rhs[len(c):]
    if not g or any(letter in lhs for letter in g):
        return None
    if out != f + g:
        return None
    return f, c, g


def _einsum_candidate(ins, const, out_vids):
    """(x_vid, w_vid, lhs, C, G) when ``ins`` is fusable, else None."""
    if ins.meta is None or ins.meta[0] != "einsum" or not ins.arena:
        return None
    if ins.out is None or ins.out in out_vids or len(ins.inputs) != 2:
        return None
    x_vid, w_vid = ins.inputs
    if x_vid in const or w_vid not in const:
        return None  # activation-times-constant-weight shapes only
    _, lhs, rhs, out = ins.meta
    canon = _canonical(lhs, rhs, out)
    if canon is None:
        return None
    f, c, g = canon
    return x_vid, w_vid, lhs, c, g


def _fresh_letter(used: str) -> str | None:
    for letter in "abcdefghijklmnopqrstuvwxyz":
        if letter not in used:
            return letter
    return None


def _viewer(start: int, stop: int, shape: tuple):
    def view(f):
        return f[..., start:stop].reshape(shape)
    view.const_view = True
    return view


def _fused_einsum(mesh, lhs: str, rhs: str, out_sub: str):
    subs = f"...{lhs},...{rhs}->...{out_sub}"

    def run(x, w, out=None):
        return _einsum(subs, x, w, out=out)
    return run


def _flat_trailing(arr: np.ndarray, n_free: int) -> np.ndarray:
    return arr.reshape(arr.shape[:arr.ndim - n_free] + (-1,))


def _concat_weights(recorder, w_vids, n_free):
    """The flattened weights concatenated on their free axis, read-only.

    Weights that entered the tape from outside (the model's own shards,
    not values folded inside this capture) outlive the program, so their
    concatenation is shared through ``recorder.weight_share`` — the
    deployment's :class:`~repro.mesh.capture.StepCompiler` map from the
    weights' ids to ``(weights, concatenation)``.  The entry holds the
    weights themselves, so an id cannot be reused while it is present
    and a hit is always the concatenation of these very arrays; a
    rebuilt model's fresh shards miss.
    """
    values = recorder._values
    weights = tuple(values[v] for v in w_vids)
    share = recorder.weight_share
    if share is None or not all(v in recorder._const for v in w_vids):
        share = {}
    key = tuple(map(id, weights))
    if key not in share:
        w_cat = np.concatenate([_flat_trailing(w, n)
                                for w, n in zip(weights, n_free)], axis=-1)
        w_cat.setflags(write=False)
        share[key] = (weights, w_cat)
    return share[key][1]


def _fuse_projection_einsums(recorder, instrs, const, out_vids):
    """Collapse every same-activation projection group to one einsum.

    All einsums that multiply the *same* live activation by different
    constant weights with the same contraction suffix — Q, K and V; the
    SwiGLU in and gate — become a single flattened einsum against the
    concatenated (flattened) weights plus one view per original output.
    Returns the rewritten list and a ``{vid: (fused_vid, start, stop,
    shape)}`` map describing which outputs are now flat slices of a
    fused buffer (consumed by the rope-slab pass).
    """
    from repro.mesh.capture import _Instr

    values = recorder._values
    groups: list[list[int]] = []
    meta_of: dict[int, tuple] = {}
    open_groups: dict[tuple, list[int]] = {}
    for i, ins in enumerate(instrs):
        cand = _einsum_candidate(ins, const, out_vids)
        if cand is None:
            continue
        meta_of[i] = cand
        key = (cand[0], cand[2], cand[3])  # activation, lhs, C
        group = open_groups.get(key)
        if group is not None and values[meta_of[group[0]][1]].dtype \
                == values[cand[1]].dtype:
            group.append(i)
        else:
            group = [i]
            groups.append(group)
            open_groups[key] = group

    replacements: dict[int, list] = {}
    view_map: dict[int, tuple] = {}
    for group in groups:
        if len(group) < 2:
            continue
        x_vid, _, lhs, c, _ = meta_of[group[0]]
        z = _fresh_letter(lhs + c + "".join(m[4] for m in
                                            (meta_of[i] for i in group)))
        if z is None:
            continue
        f = lhs[:len(lhs) - len(c)]
        w_cat = _concat_weights(recorder, [meta_of[i][1] for i in group],
                                [len(meta_of[i][4]) for i in group])
        outs = [values[instrs[i].out] for i in group]
        flat_outs = [_flat_trailing(o, len(meta_of[i][4]))
                     for o, i in zip(outs, group)]
        fused_captured = np.concatenate(flat_outs, axis=-1)
        w_vid = _add_value(recorder, w_cat, const)
        fused_vid = _add_value(recorder, fused_captured)
        fused = _Instr(_fused_einsum(recorder.mesh, lhs, c + z, f + z),
                       (x_vid, w_vid), fused_vid,
                       f"einsum_fused:x{len(group)}", False, True)
        start = 0
        for j, i in enumerate(group):
            width = flat_outs[j].shape[-1]
            out_vid = instrs[i].out
            view = _Instr(_viewer(start, start + width, outs[j].shape),
                          (fused_vid,), out_vid, "einsum_view",
                          False, False)
            replacements[i] = [fused, view] if j == 0 else [view]
            view_map[out_vid] = (fused_vid, start, start + width,
                                 outs[j].shape)
            start += width

    if not replacements:
        return instrs, view_map
    rewritten = []
    for i, ins in enumerate(instrs):
        rewritten.extend(replacements.get(i, [ins]))
    return rewritten, view_map


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


def _merge_rope_slabs(recorder, instrs, view_map):
    """Rotate adjacent fused-buffer slices (Q then K) in one call.

    After projection fusion, Q and K are flat slices of the same fused
    buffer and both get rotated against the same table.  Rotation is
    elementwise over ``d``-sized pairs, so rotating the combined
    ``[..., rows, d]`` slab is bit-equal to rotating each slice — one
    :func:`apply_rope_cached` call replaces two, and the originals
    become row-views of the slab's output.
    """
    from repro.mesh.capture import _Instr

    values = recorder._values
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
        from repro.model.functional import causal_mask

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
            if (qs.ndim == 7 and ks.ndim == 7 and ks.shape[5] == 1
                    and qs.shape[5] > 1):
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

def _prebind_einsums(recorder, instrs):
    """Swap remaining stacked einsums to direct prebuilt-subscript calls.

    The recorded closures rebuild the ellipsis subscript string and go
    through ``np.einsum``'s Python wrapper on every call; this binds the
    string once and calls the same C kernel directly — identical
    subscripts, identical operands, identical bits.
    """
    from repro.mesh.capture import _Instr

    rewritten = []
    for ins in instrs:
        meta = ins.meta
        if (meta is not None and meta[0] == "einsum"
                and len(ins.inputs) == 2 and ins.out is not None):
            fn = _fused_einsum(recorder.mesh, meta[1], meta[2], meta[3])
            rewritten.append(_Instr(fn, ins.inputs, ins.out, ins.label,
                                    ins.collective, ins.arena, meta))
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
                    operand.shape, operand.dtype, scratch=scratch)
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

    Called from ``finalize`` *after* arena allocation: an instruction
    whose kernel writes through ``out=`` into a preallocated buffer
    produces the *same array object* on every replay, so any pure view
    of it (``const_view``-marked slices from the fusion and rope passes)
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
    ``out is None``, e.g. KV appends — and collectives are always kept:
    the latter so the replayed collective count (and with it the fault
    clock) matches the eager step exactly.
    """
    needed = set(out_vids)
    kept_rev = []
    for ins in reversed(instrs):
        if ins.out is None or ins.collective or ins.out in needed:
            kept_rev.append(ins)
            needed.update(ins.inputs)
    return kept_rev[::-1]
