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
  :mod:`repro.mesh.replay_opt` — projection-einsum fusion, RoPE table
  CSE, flat multiquery attention, in-place elementwise runners, indexed
  collectives — and replays through a source-generated straight-line
  runner.  Every pass is bit-exact by construction and asserted
  differentially.  Loop-backend programs replay the plain tape.

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
  chunk after the first of each length bucket through the arena.
* **Shape-bucketed program cache** — :class:`StepCompiler` keeps an LRU
  ``OrderedDict`` of programs keyed by (kind, backend, mesh shape, plan,
  token shape/dtype, cache layouts, dead-chip set), so a
  continuous-batching workload whose batch shrinks as sequences finish
  hits warm programs (the compiler pads the token batch up to the cache
  capacity when ``batch_bucket`` rounds it there) instead of thrashing
  re-capture.  Hits, misses, evictions and per-reason invalidations are
  counted and surfaced through the observability metrics tables.
* **Shared capture state** — the programs of one deployment share the
  fused projection weights the optimizer concatenates (held by the
  :class:`StepCompiler`, dropped by :meth:`StepCompiler.invalidate`),
  and every program in the process shares the read-only collective
  index tables (:func:`repro.mesh.stacked.prebind_collective_indexed`),
  so capture pays for each once.

Interplay with the rest of the stack:

* **Faults** — replay consults nothing mid-step, so it only runs when
  the mesh's fault state is :meth:`~repro.mesh.faults.FaultState.
  quiescent`; :class:`StepCompiler` falls back to eager execution for
  any step on which a scheduled fault is live, so kills, timeouts,
  corruption and straggler delay fire exactly as they would eagerly.
* **Observability** — a replayed step emits one condensed
  ``kind="replay"`` span carrying the instruction/collective counts
  (inside the usual ``decode`` phase envelope), so Tracer-based tooling
  keeps working without paying per-op span costs.
* **Invalidation** — a program is only replayed while its signature
  matches: same mesh *object*, same backend, same plan, same token batch
  shape, same cache layouts, same dead-chip set.  Degraded replanning
  and cluster failover swap the mesh and models, which invalidates
  automatically; :class:`StepCompiler` then re-captures on the new
  deployment.  :meth:`CapturedProgram.mismatch` names the reason, which
  the compiler tallies per reason.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np


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

    The mesh itself is compared by *object identity* (stored on the
    program, not here): replanning and failover build a new
    ``VirtualMesh``, so identity is the cheapest exact invalidation
    test.  ``dead_chips`` additionally pins the healthy-chip set at
    capture time, so a mesh that degrades *in place* (same object, a
    chip kill now active) cannot replay a stale program.  Cache entries
    record layout only — ``max_len`` and the fill level are free to
    vary, because the cache instructions re-derive offsets from the
    live caches every replay.
    """

    backend: str
    mesh_shape: tuple[int, int, int]
    plan: Any = None
    tokens_shape: tuple[int, ...] | None = None
    tokens_dtype: str | None = None
    cache_sig: tuple = ()
    kind: str = "decode"
    dead_chips: tuple = ()


def _cache_sig(cache) -> tuple:
    """Layout signature of one KV cache (max_len/fill level excluded)."""
    batch, _, kv, d = cache.global_shape
    return (str(cache.spec), batch, kv, d, str(cache.dtype),
            bool(cache.is_stacked))


def _dead_chips(mesh) -> tuple:
    """The mesh's currently-dead chips as a sorted, hashable tuple."""
    state = getattr(mesh, "fault_state", None)
    if state is None:
        return ()
    return tuple(sorted(state.dead_chips))


def bucket_batch(n: int, bucket: int) -> int:
    """Round a batch size up to the next multiple of ``bucket``."""
    if bucket <= 1:
        return n
    return ((n + bucket - 1) // bucket) * bucket


@lru_cache(maxsize=64)
def _compile_source(source: str):
    """Code object of a generated runner, shared by identical sources
    (every program of one model and shape generates the same text)."""
    return compile(source, "<captured-program>", "exec")


def _compile_ops(ops, out_vid):
    """Source-generate a straight-line runner for an instruction list.

    The interpreted executor pays a loop iteration, a list comprehension
    and two list index operations per instruction; at a few hundred
    tiny-kernel instructions per step that dispatch is a measurable
    slice of replay time.  The generated function calls the exact same
    closures in the exact same order with values held in locals, reads
    step-varying slots from ``values`` once, and writes back only the
    program output — so the executed kernel stream (and every bit of
    the result) is unchanged.  Closures and buffers are bound through
    the function's globals, so the source names only positions.
    """
    env: dict[str, Any] = {}
    lines = ["def _replay(values):"]
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
    lines.append(f" values[{out_vid}] = v{out_vid}")
    exec(_compile_source("\n".join(lines)), env)
    return env["_replay"]


class CapturedProgram:
    """A flat list of whole-mesh kernels replaying one traced program."""

    def __init__(self, mesh, instrs: list[_Instr], template: list,
                 out_vid: int, signature: ProgramSignature, *,
                 tokens_2d: bool = False, span_name: str = "captured_step",
                 collectives_captured: int = 0,
                 collectives_folded: int = 0,
                 optimized: bool = False):
        self.mesh = mesh
        self.signature = signature
        self.replays = 0
        self._instrs = instrs
        self._out_vid = out_vid
        self._tokens_2d = tokens_2d
        self._span_name = span_name
        self.collectives_captured = collectives_captured
        self.collectives_folded = collectives_folded
        self.optimized = optimized
        # Fast-path execution tuples: one attribute walk at build time
        # instead of per instruction per replay.
        self._ops = tuple((ins.fn, ins.inputs, ins.out, ins.buffer)
                          for ins in instrs)
        self._template = template
        # Optimized programs additionally compile the instruction list
        # to straight-line Python (locals instead of a values list, no
        # dispatch loop) — same closures called in the same order.
        self._compiled = _compile_ops(self._ops, out_vid) if optimized \
            else None

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

    def matches_mesh(self, mesh) -> bool:
        return mesh is self.mesh and mesh.backend == self.signature.backend

    def mismatch(self, model, tokens: np.ndarray,
                 caches: Sequence) -> str | None:
        """Why replaying would be invalid for these inputs (None: valid)."""
        sig = self.signature
        if model.mesh is not self.mesh:
            return "mesh"
        if model.mesh.backend != sig.backend:
            return "backend"
        if sig.plan is not None and model.plan != sig.plan:
            return "plan"
        if sig.tokens_shape is not None and (
                tokens.shape != sig.tokens_shape
                or str(tokens.dtype) != sig.tokens_dtype):
            return "tokens"
        if len(caches) != len(sig.cache_sig):
            return "caches"
        for cache, entry in zip(caches, sig.cache_sig):
            if cache.mesh is not self.mesh or _cache_sig(cache) != entry:
                return "caches"
        if _dead_chips(self.mesh) != sig.dead_chips:
            return "degraded"
        return None

    def matches(self, model, tokens: np.ndarray, caches: Sequence) -> bool:
        """True when replaying would be valid for these step inputs."""
        return self.mismatch(model, tokens, caches) is None

    # -- execution ---------------------------------------------------------

    def replay(self, tokens: np.ndarray | None = None,
               caches: Sequence = ()):
        """Execute the captured program against fresh step-varying inputs.

        Callers are responsible for validity (:meth:`matches`) and for
        only replaying while the mesh's fault state is quiescent —
        :class:`StepCompiler` enforces both.
        """
        values = list(self._template)
        ctx_tokens = tokens
        if tokens is not None and self._tokens_2d:
            ctx_tokens = tokens[:, None]
        values[0] = ReplayContext(ctx_tokens, caches)
        tracer = getattr(self.mesh, "tracer", None)
        if tracer is None:
            self._run(values)
        else:
            with tracer.phase("decode" if self.kind != "prefill"
                              else "prefill"):
                with tracer.region(
                        self._span_name, kind="replay",
                        instructions=self.n_instructions,
                        collectives=self.collectives_live,
                        collectives_folded=self.collectives_folded):
                    self._run(values)
        state = getattr(self.mesh, "fault_state", None)
        if state is not None:
            # Keep the collective bookkeeping faithful: eager execution
            # would have bumped the counter once per captured collective.
            state.op_counter += self.collectives_captured
        self.replays += 1
        return values[self._out_vid]

    def _run(self, values: list) -> None:
        if self._compiled is not None:
            self._compiled(values)
            return
        for fn, inputs, out, buffer in self._ops:
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
    completes without producing a program.  ``weight_share`` is the
    deployment's fused-weight map the tape optimizer reuses
    concatenations from (see :class:`StepCompiler`).
    """

    CTX = object()  # sentinel input: the per-replay ReplayContext

    def __init__(self, mesh, caches: Sequence = (),
                 weight_share: dict | None = None):
        self.mesh = mesh
        self.caches = list(caches)
        self.weight_share = weight_share
        self.broken: str | None = None
        self.collectives = 0
        self._suppressed = 0
        self._instrs: list[_Instr] = []
        self._values: list[Any] = [None]       # vid 0 reserved for CTX
        self._vid_of: dict[int, int] = {}
        self._const: set[int] = set()

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
               arena: bool = False, meta: tuple | None = None) -> None:
        """Append one instruction.

        ``fn`` must recompute ``output`` bit-identically from the input
        arrays (same kernel, resolved parameters baked in).  ``output``
        of ``None`` marks a side-effecting instruction (cache writes).
        With ``arena=True``, ``fn`` additionally accepts an ``out=``
        keyword buffer.  Pass :attr:`CTX` as an input for closures over
        the step-varying replay context.  ``meta`` optionally carries
        the op's resolved parameters for the tape optimizer
        (:mod:`repro.mesh.replay_opt`); it never affects plain replay.
        """
        if not self.recording:
            return
        ins = tuple(0 if x is self.CTX else self._vid(x) for x in inputs)
        out = self._define(output) if output is not None else None
        if collective:
            self.collectives += 1
        self._instrs.append(_Instr(fn, ins, out, label, collective, arena,
                                   meta))

    # -- program construction ----------------------------------------------

    def finalize(self, output, *,
                 signature: ProgramSignature | None = None,
                 tokens_2d: bool = False,
                 span_name: str = "captured_step"
                 ) -> CapturedProgram | None:
        """Fold constants, build the arena, and emit the program.

        Returns ``None`` when the capture broke, ``output`` was not
        produced by a recorded instruction, or the whole program folded
        to a constant — the eager step still completed correctly, there
        is just nothing to replay.  On the stacked backend the bit-exact
        tape optimizer (:mod:`repro.mesh.replay_opt`) additionally
        rewrites the live instructions before the arena is laid out.
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
            tokens_2d=tokens_2d, span_name=span_name,
            collectives_captured=self.collectives,
            collectives_folded=folded_collectives,
            optimized=optimized)


@contextmanager
def capturing(mesh, caches: Sequence = (), weight_share: dict | None = None):
    """Install a :class:`StepRecorder` on ``mesh`` for the ``with`` body.

    The generic tape API: run any mesh program inside the block, then
    ``recorder.finalize(result_array)`` yields a replayable program (or
    ``None``).  :func:`capture_decode_step` builds on this for the
    model-level decode step.
    """
    if getattr(mesh, "capture", None) is not None:
        raise CaptureError("a capture is already active on this mesh")
    recorder = StepRecorder(mesh, caches, weight_share)
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
        tokens_shape=tokens.shape, tokens_dtype=str(tokens.dtype),
        cache_sig=tuple(_cache_sig(c) for c in caches),
        kind=kind, dead_chips=_dead_chips(mesh))


def capture_decode_step(model, tokens: np.ndarray, caches: Sequence,
                        weight_share: dict | None = None
                        ) -> tuple[np.ndarray, CapturedProgram | None]:
    """Run one eager decode step while recording it.

    Returns ``(logits, program)`` — the logits are the eager step's
    (the step really ran: caches advanced exactly as usual), and the
    program replays subsequent steps bit-identically, or is ``None``
    when the step could not be captured.  ``weight_share`` is the
    deployment's fused-weight map (:class:`StepCompiler` passes its own).
    """
    with capturing(model.mesh, caches, weight_share) as recorder:
        logits = model.decode_step(tokens, caches)
    program = recorder.finalize(
        logits, signature=_signature(model, tokens, caches),
        tokens_2d=True)
    return logits, program


def capture_prefill_chunk(model, tokens: np.ndarray, caches: Sequence,
                          weight_share: dict | None = None
                          ) -> tuple[np.ndarray, CapturedProgram | None]:
    """Run one eager prefill chunk (``model.forward``) while recording it.

    ``tokens`` is a 2-D ``[B, chunk]`` slice; the resulting program
    replays any later chunk of the *same shape* at any cache offset —
    the positions and KV-append instructions re-derive their offsets
    from the live caches.  Returns ``(logits, program)`` with the eager
    chunk's full ``[B, chunk, V]`` logits.
    """
    with capturing(model.mesh, caches, weight_share) as recorder:
        logits = model.forward(tokens, caches)
    program = recorder.finalize(
        logits, signature=_signature(model, tokens, caches,
                                     kind="prefill"),
        span_name="captured_prefill_chunk")
    return logits, program


class StepCompiler:
    """Capture-after-warmup, replay-while-valid serving-step driver.

    Drop-in replacement for calling ``model.decode_step`` directly::

        compiler = StepCompiler()
        logits = compiler.decode_step(model, tokens, caches)

    The first ``warmup_steps`` calls run eagerly (layout caches warm
    up); the next quiescent step is captured; every later call replays
    while the program's signature still matches and no fault is live.
    A mismatch (replanned mesh, new plan, different batch, migrated
    cache layout, changed dead-chip set) invalidates and triggers
    re-capture on the new deployment; a step with an active or pending
    fault falls back to eager execution so the fault machinery fires
    exactly as usual.

    v2 keeps a bounded LRU cache of programs instead of a single slot,
    keyed per (kind, deployment, token shape, cache layout) bucket — see
    :class:`ProgramSignature` — plus:

    * ``batch_bucket`` — a token batch smaller than the cache capacity
      is padded up to it (and the result sliced back) when the bucketed
      size rounds there, so a shrinking continuous-batching batch keeps
      hitting one warm program.  Padding duplicates the last row; batch
      rows are independent through every kernel, so the live rows'
      logits are bit-identical (tests assert it).
    * :meth:`prefill_chunk` — per-chunk-length prefill programs for
      :func:`repro.serving.chunked.chunked_prefill`.
    * :meth:`decode_thunk` — a pure zero-argument replay callable for
      the cluster's parallel replica stepping (all cache/counter
      bookkeeping happens on the calling thread).
    * ``weight_share`` — the fused projection weights the tape optimizer
      concatenates, shared by every program this compiler captures and
      dropped with them by :meth:`invalidate`.
    """

    def __init__(self, warmup_steps: int = 1, *, batch_bucket: int = 1,
                 max_programs: int = 8):
        self.warmup_steps = warmup_steps
        self.batch_bucket = max(1, batch_bucket)
        self.max_programs = max(1, max_programs)
        self.weight_share: dict = {}
        self.eager_steps = 0
        self.captures = 0
        self.replays = 0
        self.invalidations = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidation_reasons: dict[str, int] = {}
        self._programs: OrderedDict[tuple, CapturedProgram] = OrderedDict()
        self._failed: set[tuple] = set()

    # -- cache bookkeeping -------------------------------------------------

    @property
    def program(self) -> CapturedProgram | None:
        """The most recently used program (None when the cache is empty)."""
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
        """Drop every cached program and the fused weights they shared
        (replan/failover/profile-switch hand-off)."""
        self.invalidations += len(self._programs)
        self._programs.clear()
        self._failed.clear()
        self.weight_share.clear()

    def _key(self, model, tokens: np.ndarray, caches: Sequence,
             kind: str) -> tuple:
        mesh = model.mesh
        return (kind, mesh.backend, mesh.shape,
                getattr(model, "plan", None), tokens.shape,
                str(tokens.dtype),
                tuple(_cache_sig(c) for c in caches), _dead_chips(mesh))

    def _drop(self, key: tuple, reason: str) -> None:
        del self._programs[key]
        self.invalidations += 1
        self.invalidation_reasons[reason] = \
            self.invalidation_reasons.get(reason, 0) + 1

    def _lookup(self, key: tuple, model, tokens: np.ndarray,
                caches: Sequence) -> CapturedProgram | None:
        program = self._programs.get(key)
        if program is None:
            return None
        reason = program.mismatch(model, tokens, caches)
        if reason is not None:
            self._drop(key, reason)
            return None
        self._programs.move_to_end(key)
        return program

    def _insert(self, key: tuple, program: CapturedProgram) -> None:
        while len(self._programs) >= self.max_programs:
            self._programs.popitem(last=False)
            self.evictions += 1
        self._programs[key] = program

    # -- decode ------------------------------------------------------------

    def decode_step(self, model, tokens: np.ndarray,
                    caches: Sequence) -> np.ndarray:
        """One decode step: replay a warm program when valid, else eager.

        With ``batch_bucket > 1`` a token batch below the cache capacity
        whose bucketed size rounds to that capacity is padded up (last
        row repeated) and the padded logits sliced back down, so the
        caller sees exactly its rows while the program cache sees one
        stable shape.
        """
        n = tokens.shape[0]
        if self.batch_bucket > 1 and caches:
            cap = caches[0].global_shape[0]
            if n < cap and bucket_batch(n, self.batch_bucket) >= cap:
                pad = np.broadcast_to(tokens[-1:],
                                      (cap - n,) + tokens.shape[1:])
                padded = np.concatenate([tokens, pad], axis=0)
                return self._decode(model, padded, caches)[:n]
        return self._decode(model, tokens, caches)

    def _decode(self, model, tokens: np.ndarray,
                caches: Sequence) -> np.ndarray:
        state = getattr(model.mesh, "fault_state", None)
        quiet = state is None or state.quiescent()
        key = self._key(model, tokens, caches, "decode")
        program = self._lookup(key, model, tokens, caches)
        if program is not None and quiet:
            self.hits += 1
            self.replays += 1
            return program.replay(tokens, caches)
        if quiet:
            self.misses += 1
            if self.eager_steps >= self.warmup_steps \
                    and key not in self._failed:
                logits, program = capture_decode_step(
                    model, tokens, caches, self.weight_share)
                if program is None:
                    self._failed.add(key)
                else:
                    self._insert(key, program)
                    self.captures += 1
                return logits
        self.eager_steps += 1
        return model.decode_step(tokens, caches)

    def decode_thunk(self, model, tokens: np.ndarray, caches: Sequence):
        """A pure zero-argument replay callable, or None.

        Returns a thunk only when a warm, valid program exists and the
        fault state is quiescent — i.e. exactly when :meth:`decode_step`
        would replay.  All shared-state bookkeeping (cache lookup,
        counters) happens here on the calling thread; the thunk touches
        only this replica's program and caches, so the cluster control
        plane may run thunks of *distinct* replicas concurrently.
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
        return lambda: program.replay(tokens, caches)

    # -- prefill -----------------------------------------------------------

    def prefill_chunk(self, model, tokens: np.ndarray,
                      caches: Sequence) -> np.ndarray:
        """One prefill chunk (``[B, chunk]``), replayed per length bucket.

        Unlike decode there is no warmup gate: the first chunk of each
        (batch, length) bucket is captured, and every later chunk of the
        same shape — within this prompt or any later prompt on the same
        deployment — replays through the arena.
        """
        state = getattr(model.mesh, "fault_state", None)
        quiet = state is None or state.quiescent()
        key = self._key(model, tokens, caches, "prefill")
        program = self._lookup(key, model, tokens, caches)
        if program is not None and quiet:
            self.hits += 1
            self.replays += 1
            return program.replay(tokens, caches)
        if quiet:
            self.misses += 1
            if key not in self._failed:
                logits, program = capture_prefill_chunk(
                    model, tokens, caches, self.weight_share)
                if program is None:
                    self._failed.add(key)
                else:
                    self._insert(key, program)
                    self.captures += 1
                return logits
        self.eager_steps += 1
        return model.forward(tokens, caches)
