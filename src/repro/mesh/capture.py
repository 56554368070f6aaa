"""Capture-and-replay programs: a trace-once compiler for the serving path.

The decode phase is latency-critical and runs the *same* partitioned op
sequence every step (Sections 2, 3.5): the layouts, communication groups
and einsum shapes are all fixed for the lifetime of a (mesh, plan, batch)
deployment, yet the eager path re-derives every one of them per step —
``ShardSpec`` resolution, layout inference, group construction, weight
re-gathers.  At decode batch sizes that Python-side bookkeeping dominates
the (tiny) numpy compute.

This module removes it by *tracing one eager step*.  While a
:class:`StepRecorder` is installed on a mesh (duck-typed ``mesh.capture``,
like ``tracer``/``fault_state``/``comm_log``), every collective and
sharded einsum in :mod:`repro.mesh.ops`, every shard-level helper in
:mod:`repro.layouts`, and the KV-cache append/view operations record a
*replay closure* over their already-resolved kernel parameters, alongside
the identity of their input and output shard arrays.  The recorder links
those records into a dataflow tape; :meth:`StepRecorder.finalize` turns
the tape into a :class:`CapturedProgram`:

* **Constant folding** — any instruction whose inputs are all
  step-invariant (weights, or values derived only from weights) is
  dropped, and its *captured output* becomes a program constant.  This
  hoists the per-step weight all-gathers of the weight-gathered layouts
  (Section 3.2.3) out of the step entirely — the dominant collective
  count at decode — and is trivially bit-exact, because the constant is
  the very array the eager step produced.
* **Buffer arena** — instructions whose kernels accept an output buffer
  (batched einsums, residual adds) get a preallocated arena buffer
  matching their captured output, eliminating per-step allocation churn.
  Buffers are reused *across* steps, never within one (the tape is SSA),
  and the program's final output stays freshly allocated so callers may
  hold logits across steps.
* **Stable input slots** — the step-varying inputs (token ids, KV-cache
  pages, the decode position) enter through a :class:`ReplayContext`
  bound per replay; cache instructions index ``ctx.caches``, so a
  program survives cache hand-off as long as the cache *layout* matches.
* **Tape optimization** — on the stacked backend every program (decode
  step and prefill chunk alike) additionally runs the tape optimizer in
  :mod:`repro.mesh.replay_opt` — prebound matmul runners, RoPE table
  CSE, replica collapse (each replicated value computed once, read
  from the sharding specs the hooks pass), flat multiquery attention,
  in-place elementwise runners, indexed collectives — and replays
  through a source-generated straight-line runner.  Every pass is bit-exact by construction and asserted
  differentially.  Loop-backend programs replay the plain tape.
* **Body and head** — the live instructions are split (before the
  optimizer's views are frozen, which would hide the K/V producers) into
  a *body*, everything the KV appends need, and a *head* that only
  feeds the output.  ``replay(..., logits=False)`` runs the body alone:
  the caches advance exactly as in a full replay, without the last
  layer's remaining work, the final norm or the vocab projection.

``program.replay(tokens, caches)`` then executes the flat closure list —
no layout selection, no ``ShardSpec`` work, no group construction, no
``ShardedTensor`` validation — and is required to be **bit-identical** to
the eager step (the differential suites in
``tests/unit/test_step_capture.py`` and ``tests/unit/test_capture_v2.py``
assert exact equality on both mesh backends, across multiple steps, mesh
shapes, plans and batch sizes).

Capture v2 extends the single decode program to a cache covering the
serving hot path end-to-end:

* **Prefill programs** — :func:`capture_prefill_chunk` traces one
  ``model.forward`` chunk; :meth:`StepCompiler.prefill_chunk` keys the
  resulting program per chunk length, so chunked prefill replays every
  chunk after the first of each length bucket through the arena — the
  body alone for every chunk but the prompt's last, whose logits are
  the only ones used.
* **Shape-bucketed program cache** — :class:`StepCompiler` keeps an LRU
  ``OrderedDict`` of programs keyed by (kind, backend, mesh shape, plan,
  token shape/dtype, cache layouts, dead-chip set), so every shape a
  workload alternates between keeps its own warm program instead of
  thrashing re-capture.  Hits, misses, evictions and per-reason
  invalidations are counted and surfaced through the observability
  metrics tables.
* **Shared capture state** — programs live in a :class:`ProgramStore`
  that any number of compilers may share (a cluster control plane hands
  one store to every replica it builds, so a scale-out replica replays
  what the fleet already captured).  Weights are the model's own
  arrays — its fused input-projection weights included, concatenated
  once per deployment by :class:`~repro.layouts.ShardedTransformer` —
  so every program of a deployment reads the same constants, and every
  program in the process shares the read-only collective index tables
  (:func:`repro.mesh.stacked.prebind_collective_indexed`), so capture
  pays for each once.

Interplay with the rest of the stack:

* **Faults** — replay consults nothing mid-step, so it only runs when
  the mesh's fault state is :meth:`~repro.mesh.faults.FaultState.
  quiescent`; :class:`StepCompiler` falls back to eager execution for
  any step on which a scheduled fault is live, so kills, timeouts,
  corruption and straggler delay fire exactly as they would eagerly.
  A replay adds every captured collective to the fault clock, head run
  or not, because the eager step would have run them all.
* **Observability** — a replayed step emits one condensed
  ``kind="replay"`` span carrying the number of instructions executed,
  a ``head`` flag and the collective counts (inside the usual
  ``decode``/``prefill`` phase envelope), so Tracer-based tooling keeps
  working without paying per-op span costs.
* **Validity is structural** — a program replays on any mesh of the
  same backend and shape, with the same plan, the same ``weights``
  object (checked with ``is``), the same token batch shape, the same
  cache layouts with every cache on that mesh, and the same dead-chip
  set.  Degraded replanning changes the shape or the dead-chip set and
  a profile switch changes the plan, so they miss and capture under a
  new key, while switching back finds the old program warm.
  :meth:`CapturedProgram.mismatch` names the reason a stored program
  cannot serve a caller, which the compiler tallies per reason.
* **Replaying mesh** — :meth:`CapturedProgram.replay` takes the mesh
  it runs for: the fault clock it advances and the tracer it reports
  to are that mesh's.  Closures keep the capturing mesh only for shape
  and axis reads, which any same-shape mesh answers identically.
* **Concurrency** — a program's arena and the optimizer's scratch
  buffers are shared by everyone replaying it, so a per-program lock
  serializes its runs.  Every buffer is written before it is read
  within a replay and outputs are never arena-backed, so serialized
  runs stay bit-identical.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np

from repro.mesh.stacked import replicated_axes


class CaptureError(RuntimeError):
    """A step could not be captured into a replayable program."""


class ReplayContext:
    """The step-varying inputs of one replayed step (the stable slots)."""

    __slots__ = ("tokens", "caches")

    def __init__(self, tokens: np.ndarray | None, caches: Sequence):
        self.tokens = tokens
        self.caches = caches


class _Instr:
    """One replayable instruction: a closure over resolved kernel params."""

    __slots__ = ("fn", "inputs", "out", "label", "collective", "arena",
                 "buffer", "meta")

    def __init__(self, fn: Callable, inputs: tuple[int, ...],
                 out: int | None, label: str, collective: bool,
                 arena: bool, meta: tuple | None = None):
        self.fn = fn
        self.inputs = inputs
        self.out = out
        self.label = label
        self.collective = collective
        self.arena = arena
        self.buffer: np.ndarray | None = None
        self.meta = meta


@dataclass(frozen=True)
class ProgramSignature:
    """What must stay unchanged for a program to remain valid.

    Every field is structural, so the program is valid on *any* mesh of
    this backend and shape: closures read the capturing mesh only for
    its shape and axes.  Two checks live on the program instead: the
    ``weights`` object, compared by identity (an ``id`` in a key could
    be reused after the object is collected), and every cache living on
    the replaying mesh.  ``dead_chips`` pins the healthy-chip set at
    capture time, so a mesh that degrades *in place* (a chip kill now
    active) cannot replay a stale program.  Cache entries record layout
    only — ``max_len`` and the fill level are free to vary, because the
    cache instructions re-derive offsets from the live caches every
    replay.
    """

    backend: str
    mesh_shape: tuple[int, int, int]
    plan: Any = None
    tokens_shape: tuple[int, ...] | None = None
    tokens_dtype: np.dtype | None = None
    cache_sig: tuple = ()
    kind: str = "decode"
    dead_chips: tuple = ()


def _dead_chips(mesh) -> tuple:
    """The mesh's currently-dead chips as a sorted, hashable tuple."""
    state = getattr(mesh, "fault_state", None)
    if state is None:
        return ()
    return tuple(sorted(state.dead_chips))


@lru_cache(maxsize=64)
def _compile_source(source: str):
    """Code object of a generated runner, shared by identical sources
    (every program of one model and shape generates the same text)."""
    return compile(source, "<captured-program>", "exec")


def _compile_ops(ops, writeback):
    """Source-generate a straight-line runner for an instruction list.

    The interpreted executor pays a loop iteration, a list comprehension
    and two list index operations per instruction; at a few hundred
    tiny-kernel instructions per step that dispatch is a measurable
    slice of replay time.  The generated function calls the exact same
    closures in the exact same order with values held in locals, reads
    step-varying slots from ``values`` once, and writes back only the
    ``writeback`` values (the program output, or what a later segment
    reads) — so the executed kernel stream (and every bit of the result)
    is unchanged.  Closures and buffers are bound through the function's
    globals, so the source names only positions.
    """
    env: dict[str, Any] = {}
    lines = ["def _replay(values):", " pass"]  # a segment may be empty
    available: set[int] = set()
    for idx, (fn, inputs, out, buffer) in enumerate(ops):
        env[f"f{idx}"] = fn
        for vid in inputs:
            if vid not in available:
                lines.append(f" v{vid} = values[{vid}]")
                available.add(vid)
        args = ", ".join(f"v{vid}" for vid in inputs)
        if buffer is not None:
            env[f"b{idx}"] = buffer
            call = f"f{idx}({args}, out=b{idx})"
        else:
            call = f"f{idx}({args})"
        if out is None:
            lines.append(f" {call}")
        else:
            lines.append(f" v{out} = {call}")
            available.add(out)
    lines += [f" values[{vid}] = v{vid}" for vid in writeback]
    exec(_compile_source("\n".join(lines)), env)
    return env["_replay"]


def _split_body(instrs: list[_Instr]) -> tuple[list[_Instr], list[_Instr]]:
    """Partition live instructions into ``(body, head)``, each in tape order.

    The body is every instruction a side effect (a KV append) needs,
    directly or through other instructions, plus every reader of the
    replay context that precedes a side effect — it must see the caches
    as they were before that append, exactly as it did eagerly.  The
    head is the rest: it only feeds the program output.  Nothing in the
    body reads a head value, so running the body and then the head keeps
    every dependence, and the body alone leaves the caches as the full
    program would.
    """
    needed: set[int] = set()
    in_body: list[bool] = []
    effect_after = False
    for ins in reversed(instrs):
        body = (ins.out is None or ins.out in needed
                or (effect_after and 0 in ins.inputs))
        if body:
            needed.update(ins.inputs)
        effect_after = effect_after or ins.out is None
        in_body.append(body)
    in_body.reverse()
    return ([ins for ins, b in zip(instrs, in_body) if b],
            [ins for ins, b in zip(instrs, in_body) if not b])


class CapturedProgram:
    """A flat list of whole-mesh kernels replaying one traced program.

    The list is a *body* (the first ``n_body`` instructions: everything
    the KV appends need) followed by a *head* (what only feeds the
    output); see :func:`_split_body`.  ``mesh`` is the capturing mesh;
    ``weights`` (held weakly) is the model weights object the program
    was traced from, or ``None`` for a model-free tape.
    """

    def __init__(self, mesh, instrs: list[_Instr], template: list,
                 out_vid: int, signature: ProgramSignature, *,
                 n_body: int = 0,
                 tokens_2d: bool = False, span_name: str = "captured_step",
                 collectives_captured: int = 0,
                 collectives_folded: int = 0,
                 optimized: bool = False, weights=None):
        self.mesh = mesh
        self.signature = signature
        self._weights = weakref.ref(weights) if weights is not None \
            else None
        self._lock = threading.Lock()
        self.replays = 0
        self.n_body = n_body
        self._instrs = instrs
        self._out_vid = out_vid
        self._tokens_2d = tokens_2d
        self._span_name = span_name
        self.collectives_captured = collectives_captured
        self.collectives_folded = collectives_folded
        self.optimized = optimized
        # Fast-path execution tuples: one attribute walk at build time
        # instead of per instruction per replay.
        ops = tuple((ins.fn, ins.inputs, ins.out, ins.buffer)
                    for ins in instrs)
        self._segments = (ops[:n_body], ops[n_body:])
        self._template = template
        # Optimized programs additionally compile each segment to
        # straight-line Python (locals instead of a values list, no
        # dispatch loop) — same closures called in the same order.  The
        # body writes back what the head reads (and the output, should
        # the body produce it).
        self._compiled = None
        if optimized:
            body, head = self._segments
            head_reads = {v for _, inputs, _, _ in head for v in inputs}
            head_reads.add(out_vid)
            self._compiled = (
                _compile_ops(body, sorted(out for _, _, out, _ in body
                                          if out in head_reads)),
                _compile_ops(head, [out_vid] if any(
                    out == out_vid for _, _, out, _ in head) else []))

    @property
    def n_instructions(self) -> int:
        return len(self._instrs)

    @property
    def collectives_live(self) -> int:
        return self.collectives_captured - self.collectives_folded

    @property
    def kind(self) -> str:
        return self.signature.kind

    # -- validity ----------------------------------------------------------

    def mismatch(self, model, tokens: np.ndarray,
                 caches: Sequence) -> str | None:
        """Why replaying on ``model.mesh`` would be invalid for these
        inputs (None: valid)."""
        sig = self.signature
        mesh = model.mesh
        if mesh.backend != sig.backend:
            return "backend"
        if mesh.shape != sig.mesh_shape:
            return "mesh"
        if self._weights is not None and \
                self._weights() is not getattr(model, "weights", None):
            return "weights"
        if sig.plan is not None and model.plan != sig.plan:
            return "plan"
        if sig.tokens_shape is not None and (
                tokens.shape != sig.tokens_shape
                or tokens.dtype != sig.tokens_dtype):
            return "tokens"
        if len(caches) != len(sig.cache_sig):
            return "caches"
        for cache, entry in zip(caches, sig.cache_sig):
            if cache.mesh is not mesh or cache.signature != entry:
                return "caches"
        if _dead_chips(mesh) != sig.dead_chips:
            return "degraded"
        return None

    def matches(self, model, tokens: np.ndarray, caches: Sequence) -> bool:
        """True when replaying would be valid for these step inputs."""
        return self.mismatch(model, tokens, caches) is None

    # -- execution ---------------------------------------------------------

    def replay(self, tokens: np.ndarray | None = None,
               caches: Sequence = (), logits: bool = True, *, mesh=None):
        """Execute the captured program against fresh step-varying inputs.

        ``mesh`` is the mesh the step runs for (default: the capturing
        one): its tracer gets the replay span and its fault clock the
        captured collectives.  With ``logits=False`` only the body runs —
        the caches advance exactly as in a full replay — and the result
        is ``None``.  Callers are responsible for validity
        (:meth:`matches`) and for only replaying while the mesh's fault
        state is quiescent — :class:`StepCompiler` enforces both.
        Concurrent replays of one program run one at a time.
        """
        mesh = self.mesh if mesh is None else mesh
        values = list(self._template)
        ctx_tokens = tokens
        if tokens is not None and self._tokens_2d:
            ctx_tokens = tokens[:, None]
        values[0] = ReplayContext(ctx_tokens, caches)
        segments = (0, 1) if logits else (0,)
        tracer = getattr(mesh, "tracer", None)
        if tracer is None:
            self._run(values, segments)
        else:
            with tracer.phase("decode" if self.kind != "prefill"
                              else "prefill"):
                with tracer.region(
                        self._span_name, kind="replay",
                        instructions=sum(len(self._segments[i])
                                         for i in segments),
                        head=logits,
                        collectives=self.collectives_live,
                        collectives_folded=self.collectives_folded):
                    self._run(values, segments)
        state = getattr(mesh, "fault_state", None)
        if state is not None:
            # Keep the collective bookkeeping faithful: eager execution
            # would have bumped the counter once per captured collective,
            # head or not.
            state.op_counter += self.collectives_captured
        return values[self._out_vid] if logits else None

    def _run(self, values: list, segments: tuple[int, ...]) -> None:
        # The arena and scratch buffers are shared by every replayer.
        with self._lock:
            self.replays += 1
            for i in segments:
                if self._compiled is not None:
                    self._compiled[i](values)
                    continue
                for fn, inputs, out, buffer in self._segments[i]:
                    args = [values[v] for v in inputs]
                    if buffer is not None:
                        result = fn(*args, out=buffer)
                    else:
                        result = fn(*args)
                    if out is not None:
                        values[out] = result

    def __repr__(self) -> str:
        return (f"CapturedProgram({self.signature.kind}, "
                f"{self.n_instructions} instrs, "
                f"{self.collectives_live}/{self.collectives_captured} "
                f"collectives live, mesh={self.signature.mesh_shape}, "
                f"backend={self.signature.backend!r})")


class StepRecorder:
    """Records one eager step's kernel stream into a dataflow tape.

    Installed as ``mesh.capture`` (duck-typed, mirroring ``tracer``); the
    hooks throughout :mod:`repro.mesh` and :mod:`repro.layouts` call
    :meth:`record` with a replay closure, the input arrays and the output
    array.  Arrays are identified by ``id``; the recorder keeps every
    seen array alive, so ids are stable for the capture's lifetime.  An
    input never seen before is a *constant* (a step-invariant like a
    weight shard).  Recording is failure-tolerant by design: anything
    unsupported calls :meth:`mark_broken` and the eager step simply
    completes without producing a program.
    """

    CTX = object()  # sentinel input: the per-replay ReplayContext

    def __init__(self, mesh, caches: Sequence = ()):
        self.mesh = mesh
        self.caches = list(caches)
        self.broken: str | None = None
        self.collectives = 0
        self._suppressed = 0
        self._instrs: list[_Instr] = []
        self._values: list[Any] = [None]       # vid 0 reserved for CTX
        self._vid_of: dict[int, int] = {}
        self._const: set[int] = set()
        #: Replicated device axes of each mesh value, from the sharding
        #: specs the hooks pass (``None``: not a mesh array).
        self.reps: dict[int, tuple[int, ...] | None] = {0: None}
        #: What the stacked optimizer collapsed: value id -> (the
        #: captured array, the device axes replay keeps one copy of).
        self.collapsed: dict[int, tuple[np.ndarray, frozenset]] = {}

    @property
    def recording(self) -> bool:
        """False while suppressed (inside an op recorded at a coarser
        granularity) or after the capture broke."""
        return self._suppressed == 0 and self.broken is None

    @contextmanager
    def suppress(self):
        """Hide inner hook calls from an op recorded as one instruction."""
        self._suppressed += 1
        try:
            yield
        finally:
            self._suppressed -= 1

    def mark_broken(self, reason: str) -> None:
        if self.broken is None:
            self.broken = reason

    def cache_index(self, cache) -> int | None:
        """Slot of ``cache`` in the bound cache list (None breaks the
        capture: an unbound cache cannot be re-targeted at replay)."""
        for i, bound in enumerate(self.caches):
            if bound is cache:
                return i
        self.mark_broken("operation on a cache not bound to the capture")
        return None

    # -- tape construction -------------------------------------------------

    def _vid(self, arr) -> int:
        vid = self._vid_of.get(id(arr))
        if vid is None:
            vid = len(self._values)
            self._values.append(arr)
            self._vid_of[id(arr)] = vid
            self._const.add(vid)
        return vid

    def _define(self, arr) -> int:
        vid = len(self._values)
        self._values.append(arr)
        self._vid_of[id(arr)] = vid
        return vid

    def record(self, fn: Callable, inputs: Sequence, output,
               label: str = "", *, collective: bool = False,
               arena: bool = False, meta: tuple | None = None,
               specs: Sequence | None = None) -> None:
        """Append one instruction.

        ``fn`` must recompute ``output`` bit-identically from the input
        arrays (same kernel, resolved parameters baked in).  ``output``
        of ``None`` marks a side-effecting instruction (cache writes).
        With ``arena=True``, ``fn`` additionally accepts an ``out=``
        keyword buffer.  Pass :attr:`CTX` as an input for closures over
        the step-varying replay context.  ``meta`` optionally carries
        the op's resolved parameters for the tape optimizer
        (:mod:`repro.mesh.replay_opt`); it never affects plain replay.
        ``specs`` lists the :class:`~repro.sharding.spec.ShardSpec` of
        each input and then of the output (``None``: no information);
        the optimizer reads each mesh value's replicated axes from them.
        """
        if not self.recording:
            return
        ins = tuple(0 if x is self.CTX else self._vid(x) for x in inputs)
        out = self._define(output) if output is not None else None
        if specs is not None:
            for vid, spec in zip(ins + (out,), specs):
                if spec is not None and vid and vid not in self.reps:
                    self.reps[vid] = replicated_axes(spec)
        if collective:
            self.collectives += 1
        self._instrs.append(_Instr(fn, ins, out, label, collective, arena,
                                   meta))

    # -- program construction ----------------------------------------------

    def finalize(self, output, *,
                 signature: ProgramSignature | None = None,
                 tokens_2d: bool = False,
                 span_name: str = "captured_step", weights=None
                 ) -> CapturedProgram | None:
        """Fold constants, split body from head, build the arena, and
        emit the program.

        Returns ``None`` when the capture broke, ``output`` was not
        produced by a recorded instruction, or the whole program folded
        to a constant — the eager step still completed correctly, there
        is just nothing to replay.  On the stacked backend the bit-exact
        tape optimizer (:mod:`repro.mesh.replay_opt`) additionally
        rewrites the live instructions before the split.  The split runs
        before view freezing: frozen views leave the template, so after
        freezing no instruction would produce the K/V the appends read,
        and their producers would wrongly land in the head.  ``weights``
        is the traced model's weights object, which the program checks
        by identity before every replay.
        """
        if self.broken is not None:
            return None
        out_vid = self._vid_of.get(id(output))
        if out_vid is None or out_vid in self._const:
            return None
        out_vids = {out_vid}

        # Constant folding: an instruction whose inputs are all
        # step-invariant produced a step-invariant output — and we hold
        # that output (the eager result), so folding costs nothing and
        # hoists the weight-gather collectives out of the step.
        const = set(self._const)
        kept: list[_Instr] = []
        folded_collectives = 0
        for ins in self._instrs:
            if ins.out is not None and all(v in const for v in ins.inputs):
                const.add(ins.out)
                if ins.collective:
                    folded_collectives += 1
                continue
            kept.append(ins)
        if out_vid in const:
            # The entire program is step-invariant (e.g. a probe that
            # touches no live input): replaying a constant is pointless
            # and would hide staleness bugs, so refuse to build one.
            return None

        optimized = self.mesh.backend == "stacked"
        if optimized:
            from repro.mesh import replay_opt

            kept = replay_opt.optimize_tape(self, kept, const, out_vids)
        body, head = _split_body(kept)
        kept = body + head
        body_ids = {id(ins) for ins in body}

        template: list[Any] = [None] * len(self._values)
        for vid in const:
            template[vid] = self._values[vid]

        # Buffer arena: one preallocated output per arena-capable live
        # instruction, reused across steps (never within one — SSA).
        # The program outputs themselves are never arena-backed, so
        # callers may hold logits across replays.
        for ins in kept:
            if ins.arena and ins.out is not None and ins.out != out_vid:
                captured = self._values[ins.out]
                ins.buffer = np.empty(captured.shape, captured.dtype)
        if optimized:
            kept = replay_opt.freeze_stable_views(kept, template, out_vids)

        if signature is None:
            signature = ProgramSignature(backend=self.mesh.backend,
                                         mesh_shape=self.mesh.shape)
        return CapturedProgram(
            self.mesh, kept, template, out_vid, signature,
            n_body=sum(id(ins) in body_ids for ins in kept),
            tokens_2d=tokens_2d, span_name=span_name,
            collectives_captured=self.collectives,
            collectives_folded=folded_collectives,
            optimized=optimized, weights=weights)


@contextmanager
def capturing(mesh, caches: Sequence = ()):
    """Install a :class:`StepRecorder` on ``mesh`` for the ``with`` body.

    The generic tape API: run any mesh program inside the block, then
    ``recorder.finalize(result_array)`` yields a replayable program (or
    ``None``).  :func:`capture_decode_step` builds on this for the
    model-level decode step.
    """
    if getattr(mesh, "capture", None) is not None:
        raise CaptureError("a capture is already active on this mesh")
    recorder = StepRecorder(mesh, caches)
    mesh.capture = recorder
    try:
        yield recorder
    finally:
        del mesh.capture


def _signature(model, tokens: np.ndarray, caches: Sequence, *,
               kind: str = "decode") -> ProgramSignature:
    mesh = model.mesh
    return ProgramSignature(
        backend=mesh.backend, mesh_shape=mesh.shape,
        plan=getattr(model, "plan", None),
        tokens_shape=tokens.shape, tokens_dtype=tokens.dtype,
        cache_sig=tuple(c.signature for c in caches),
        kind=kind, dead_chips=_dead_chips(mesh))


def capture_decode_step(model, tokens: np.ndarray, caches: Sequence
                        ) -> tuple[np.ndarray, CapturedProgram | None]:
    """Run one eager decode step while recording it.

    Returns ``(logits, program)`` — the logits are the eager step's
    (the step really ran: caches advanced exactly as usual), and the
    program replays subsequent steps bit-identically, or is ``None``
    when the step could not be captured.
    """
    with capturing(model.mesh, caches) as recorder:
        logits = model.decode_step(tokens, caches)
    program = recorder.finalize(
        logits, signature=_signature(model, tokens, caches),
        tokens_2d=True, weights=model.weights)
    return logits, program


def capture_prefill_chunk(model, tokens: np.ndarray, caches: Sequence
                          ) -> tuple[np.ndarray, CapturedProgram | None]:
    """Run one eager prefill chunk (``model.forward``) while recording it.

    ``tokens`` is a 2-D ``[B, chunk]`` slice; the resulting program
    replays any later chunk of the *same shape* at any cache offset —
    the positions and KV-append instructions re-derive their offsets
    from the live caches.  Returns ``(logits, program)`` with the eager
    chunk's full ``[B, chunk, V]`` logits.
    """
    with capturing(model.mesh, caches) as recorder:
        logits = model.forward(tokens, caches)
    program = recorder.finalize(
        logits, signature=_signature(model, tokens, caches,
                                     kind="prefill"),
        span_name="captured_prefill_chunk", weights=model.weights)
    return logits, program


class ProgramStore:
    """Captured programs shared by every :class:`StepCompiler` given it.

    An LRU map from structural key (see :meth:`StepCompiler._key`) to
    program and the keys whose capture failed.  Each compiler adds its
    ``max_programs`` to the bound, so a store serving N compilers keeps
    N times one compiler's programs.  Give one store to every replica of
    a fleet and a replica replays any program a sibling of the same
    shape, plan and weights already captured; a compiler built without
    a store gets a private one.  A store lives as long as its owner
    (never a module global, which would let unrelated runs replay each
    other's captures).
    """

    def __init__(self):
        self.max_programs = 0
        self.programs: OrderedDict[tuple, CapturedProgram] = OrderedDict()
        self.failed: set[tuple] = set()
        self.lock = threading.Lock()


class StepCompiler:
    """Capture-after-warmup, replay-while-valid serving-step driver.

    Drop-in replacement for calling ``model.decode_step`` directly::

        compiler = StepCompiler()
        logits = compiler.decode_step(model, tokens, caches)

    A step whose program is already in the store replays at once.
    Otherwise the first ``warmup_steps`` calls run eagerly (layout
    caches warm up) and the next quiescent step is captured; every later
    call replays while the program's signature still matches and no
    fault is live.  A changed shape, plan, batch, cache layout or
    dead-chip set looks up a different key (a miss, then a capture);
    a stored program that cannot serve its key's caller (another
    weights object, a cache on another mesh) is dropped and counted as
    an invalidation.  A step with an active or pending fault falls back
    to eager execution so the fault machinery fires exactly as usual.

    Programs live in a bounded LRU :class:`ProgramStore`, keyed per
    (kind, backend, mesh shape, plan, weights, token shape, cache
    layout, dead chips) bucket — see :class:`ProgramSignature` — which
    many compilers may share; counters stay per compiler.  Plus:

    * :meth:`prefill_chunk` — per-chunk-length prefill programs for
      :func:`repro.serving.chunked.chunked_prefill`.
    * :meth:`decode_thunk` — a pure zero-argument replay callable (all
      cache/counter bookkeeping happens on the calling thread), which
      :meth:`repro.cluster.replica.GroupRun.decode_step` runs when warm.
    """

    def __init__(self, warmup_steps: int = 1, *, max_programs: int = 8,
                 store: ProgramStore | None = None):
        self.warmup_steps = warmup_steps
        self.max_programs = max(1, max_programs)
        self.store = store if store is not None else ProgramStore()
        self.store.max_programs += self.max_programs
        self.eager_steps = 0
        self.captures = 0
        self.replays = 0
        self.invalidations = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidation_reasons: dict[str, int] = {}
        self._programs = self.store.programs
        self._failed = self.store.failed

    # -- cache bookkeeping -------------------------------------------------

    @property
    def program(self) -> CapturedProgram | None:
        """The store's most recently used program (None when empty)."""
        if not self._programs:
            return None
        return self._programs[next(reversed(self._programs))]

    @property
    def n_programs(self) -> int:
        return len(self._programs)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counter snapshot for the observability metrics tables."""
        return {
            "programs": self.n_programs,
            "eager_steps": self.eager_steps,
            "captures": self.captures,
            "replays": self.replays,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "invalidation_reasons": dict(self.invalidation_reasons),
        }

    def invalidate(self) -> None:
        """Drop every program in the store — for *every* compiler
        sharing the store."""
        with self.store.lock:
            self.invalidations += len(self._programs)
            self._programs.clear()
            self._failed.clear()

    def _key(self, model, tokens: np.ndarray, caches: Sequence,
             kind: str) -> tuple:
        mesh = model.mesh
        return (kind, mesh.backend, mesh.shape,
                getattr(model, "plan", None),
                id(getattr(model, "weights", None)), tokens.shape,
                tokens.dtype,
                tuple(c.signature for c in caches), _dead_chips(mesh))

    def _lookup(self, key: tuple, model, tokens: np.ndarray,
                caches: Sequence) -> CapturedProgram | None:
        with self.store.lock:
            program = self._programs.get(key)
            if program is None:
                return None
            reason = program.mismatch(model, tokens, caches)
            if reason is None:
                self._programs.move_to_end(key)
                return program
            del self._programs[key]
        self.invalidations += 1
        self.invalidation_reasons[reason] = \
            self.invalidation_reasons.get(reason, 0) + 1
        return None

    def _store(self, key: tuple, program: CapturedProgram | None) -> None:
        """File a fresh capture under ``key`` (``None``: it failed)."""
        with self.store.lock:
            if program is None:
                self._failed.add(key)
                return
            # Two compilers may capture one key at once; the second
            # replaces the first and evicts nothing.
            while key not in self._programs and \
                    len(self._programs) >= self.store.max_programs:
                self._programs.popitem(last=False)
                self.evictions += 1
            self._programs[key] = program
        self.captures += 1

    # -- decode ------------------------------------------------------------

    def decode_step(self, model, tokens: np.ndarray,
                    caches: Sequence) -> np.ndarray:
        """One decode step: replay a warm program when valid, else eager."""
        state = getattr(model.mesh, "fault_state", None)
        quiet = state is None or state.quiescent()
        key = self._key(model, tokens, caches, "decode")
        program = self._lookup(key, model, tokens, caches)
        if program is not None and quiet:
            self.hits += 1
            self.replays += 1
            return program.replay(tokens, caches, mesh=model.mesh)
        if quiet:
            self.misses += 1
            if self.eager_steps >= self.warmup_steps \
                    and key not in self._failed:
                logits, program = capture_decode_step(model, tokens, caches)
                self._store(key, program)
                return logits
        self.eager_steps += 1
        return model.decode_step(tokens, caches)

    def decode_thunk(self, model, tokens: np.ndarray, caches: Sequence):
        """A pure zero-argument replay callable, or None.

        Returns a thunk only when a warm, valid program exists and the
        fault state is quiescent — i.e. exactly when :meth:`decode_step`
        would replay.  All shared-state bookkeeping (store lookup,
        counters) happens here on the calling thread; the thunk touches
        only this replica's caches and a program whose runs its own lock
        serializes, so a caller may run thunks of *distinct* replicas
        concurrently, even when they share a program.
        """
        state = getattr(model.mesh, "fault_state", None)
        if state is not None and not state.quiescent():
            return None
        key = self._key(model, tokens, caches, "decode")
        program = self._lookup(key, model, tokens, caches)
        if program is None:
            return None
        self.hits += 1
        self.replays += 1
        mesh = model.mesh
        return lambda: program.replay(tokens, caches, mesh=mesh)

    # -- prefill -----------------------------------------------------------

    def prefill_chunk(self, model, tokens: np.ndarray, caches: Sequence,
                      logits: bool = True) -> np.ndarray | None:
        """One prefill chunk (``[B, chunk]``), replayed per length bucket.

        Unlike decode there is no warmup gate: the first chunk of each
        (batch, length) bucket is captured, and every later chunk of the
        same key — within this prompt, any later prompt, or on any
        compiler sharing the store — replays through the arena.  With ``logits=False``
        the chunk only builds the caches: a replay runs the program's
        body alone, and the result is ``None`` on every path.
        """
        state = getattr(model.mesh, "fault_state", None)
        quiet = state is None or state.quiescent()
        key = self._key(model, tokens, caches, "prefill")
        program = self._lookup(key, model, tokens, caches)
        if program is not None and quiet:
            self.hits += 1
            self.replays += 1
            return program.replay(tokens, caches, logits, mesh=model.mesh)
        if quiet:
            self.misses += 1
            if key not in self._failed:
                out, program = capture_prefill_chunk(model, tokens, caches)
                self._store(key, program)
                return out if logits else None
        self.eager_steps += 1
        out = model.forward(tokens, caches)
        return out if logits else None
