"""Structured spans for everything the virtual mesh executes.

The analytical model (Section 2, Appendix A.1) is only trustworthy while
the executed program stays observable: every collective, sharded einsum
and Looped-CollectiveEinsum ring step that runs on a
:class:`~repro.mesh.virtual_mesh.VirtualMesh` can be recorded as a
:class:`Span` — op, mesh axes, payload bytes, element count, wall-clock
duration, and the *modeled* time the Appendix A.1 cost model assigns to
the same event.  Aggregated (:mod:`repro.observability.metrics`), the
spans give per-phase/per-layer communication volume and roofline
occupancy; exported (:mod:`repro.observability.chrome_trace`), they give
a Perfetto timeline; replayed against the symbolic generator
(:mod:`repro.observability.crosscheck`), they keep the estimator honest.

Point events are not recorded here.  A control-plane transition (a
health flip, a failover, a brownout rung) is written once, to the
plane's journal (:class:`~repro.cluster.journal.Journal`, an
:class:`~repro.events.EventLog`); :func:`record_marks` turns those
records into zero-duration :data:`MARK` spans at each record's ``t_s``,
so a cluster trace is the tracer's durations (group regions, mesh work)
plus marks derived from the one timeline.

Instrumentation is off by default and costs one ``getattr`` per op when
off.  Attach a tracer with :meth:`VirtualMesh.install_tracer` (or
:func:`install_tracer` here); the hooks in :mod:`repro.mesh.ops`,
:mod:`repro.mesh.looped`, :mod:`repro.layouts.model` and
:mod:`repro.serving.sharded` then fill it in, on **both** mesh execution
backends — the hooks sit at the backend-independent entry points, so
``loop`` and ``stacked`` runs produce directly comparable span streams.

Basic use (no mesh needed — the tracer is a plain recorder)::

    >>> t = Tracer()
    >>> with t.phase("decode"):
    ...     _ = t.collective("all_gather", ("x",), 4, 1024)
    >>> [(s.kind, s.name, s.phase) for s in t.spans]
    [('collective', 'all_gather', 'decode'), ('phase', 'decode', 'decode')]
    >>> t.spans[0].attrs["payload_bytes"]
    1024
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.collectives.cost import (
    all_gather_time,
    all_reduce_time,
    all_to_all_time,
    reduce_scatter_time,
)
from repro.hardware.chip import TPU_V4, ChipSpec

#: Span kinds emitted by the built-in instrumentation.
COLLECTIVE = "collective"   # one mesh collective (all_gather, ...)
COMPUTE = "compute"         # one sharded einsum
RING_STEP = "ring_step"     # one collective-permute hop of a looped einsum
FUSED = "fused"             # envelope of a Looped-CollectiveEinsum
PHASE = "phase"             # prefill / decode region
LAYER = "layer"             # one transformer block
REQUEST = "request"         # one serving request
REGION = "region"           # free-form grouping
MARK = "mark"               # zero-duration point event (see record_marks)


@dataclass(frozen=True)
class Span:
    """One recorded unit of mesh work.

    ``start_s``/``duration_s`` are wall-clock seconds relative to the
    tracer's epoch; ``attrs`` carries the structured payload (mesh axes,
    group size, payload bytes, element count, FLOPs, and ``modeled_s`` —
    the Appendix A.1 / roofline time the cost model assigns).  ``layer``
    is -1 outside any transformer block.
    """

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    start_s: float
    duration_s: float
    phase: str = ""
    layer: int = -1
    attrs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class Tracer:
    """Append-only span recorder with phase/layer/request context.

    The context managers (:meth:`phase`, :meth:`layer`, :meth:`request`,
    :meth:`region`) maintain a current (phase, layer, parent-span) state
    that leaf spans inherit, producing a span *tree*; they also emit a
    region span of their own on exit.  ``event_log`` (optional) joins the
    span timeline to the structured :class:`repro.events.EventLog` used
    by the fault-tolerance stack: closing a request span records a
    ``request_span`` event carrying the same ``request_id``.
    """

    def __init__(self, chip: ChipSpec = TPU_V4, event_log=None,
                 clock: Callable[[], float] | None = None):
        self.chip = chip
        self.event_log = event_log
        self.spans: list[Span] = []
        self.clock = clock
        self._epoch = 0.0 if clock is not None else time.perf_counter()
        self._next_id = 0
        self._phase = ""
        self._layer = -1
        self._parent: int | None = None

    # -- time & bookkeeping -------------------------------------------------

    def now(self) -> float:
        """Span timestamp base: seconds since the tracer was created.

        With a ``clock`` installed, returns that *virtual* clock instead
        of wall time — the cluster control plane passes its simulated
        ``now_s`` so chaos-run span streams (and the ``request_span``
        events they record) are bit-for-bit deterministic under a fixed
        seed, with no wall-clock leakage.
        """
        if self.clock is not None:
            return self.clock()
        return time.perf_counter() - self._epoch

    def clear(self) -> None:
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)

    def _record(self, name: str, kind: str, start_s: float,
                duration_s: float, span_id: int | None = None,
                parent_id: int | None = None,
                attrs: dict[str, Any] | None = None) -> Span:
        if span_id is None:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id=span_id,
                    parent_id=(self._parent if parent_id is None
                               else parent_id),
                    name=name, kind=kind, start_s=start_s,
                    duration_s=duration_s, phase=self._phase,
                    layer=self._layer, attrs=attrs or {})
        self.spans.append(span)
        return span

    # -- leaf spans (called by the mesh instrumentation) --------------------

    def collective(self, op: str, axes: Sequence[str], group_size: int,
                   payload_bytes: int, *, elements: int = 0,
                   start_s: float | None = None,
                   kind: str = COLLECTIVE, **extra: Any) -> Span:
        """Record one collective with its Appendix A.1 modeled time.

        ``payload_bytes`` follows the :class:`repro.mesh.ops.CommRecord`
        convention (per-chip output for all-gather, input for
        reduce-scatter, 2x buffer for all-reduce, buffer for all-to-all,
        zero for split; one in-flight buffer for a ring step).
        """
        end = self.now()
        start = end if start_s is None else start_s
        attrs: dict[str, Any] = {
            "axes": tuple(axes), "group_size": int(group_size),
            "payload_bytes": int(payload_bytes), "elements": int(elements),
            "modeled_s": self.modeled_collective_s(op, payload_bytes,
                                                   group_size),
        }
        attrs.update(extra)
        return self._record(op, kind, start, end - start, attrs=attrs)

    def compute(self, name: str, *, flops: float = 0.0, elements: int = 0,
                start_s: float | None = None, **extra: Any) -> Span:
        """Record one compute op (sharded einsum) with its roofline time."""
        end = self.now()
        start = end if start_s is None else start_s
        attrs: dict[str, Any] = {
            "flops": float(flops), "elements": int(elements),
            "modeled_s": float(flops) / self.chip.peak_flops,
        }
        attrs.update(extra)
        return self._record(name, COMPUTE, start, end - start, attrs=attrs)

    def modeled_collective_s(self, op: str, payload_bytes: float,
                             group_size: int) -> float:
        """Appendix A.1 seconds for one collective at this chip's ICI
        bandwidth (with the logged-payload conventions above)."""
        bw = self.chip.interconnect_bandwidth
        if op == "all_gather":
            return all_gather_time(payload_bytes, group_size, bw)
        if op == "reduce_scatter":
            return reduce_scatter_time(payload_bytes, group_size, bw)
        if op == "all_reduce":
            # Logged payload is already the 2x all-reduce buffer.
            return all_reduce_time(payload_bytes / 2, group_size, bw)
        if op == "all_to_all":
            return all_to_all_time(payload_bytes, group_size, bw)
        if op in ("split",):
            return 0.0
        # Ring steps and other neighbor exchanges: one buffer, one hop.
        return payload_bytes / bw

    # -- context regions ----------------------------------------------------

    @contextmanager
    def region(self, name: str, kind: str = REGION,
               **attrs: Any) -> Iterator[int]:
        """Open an envelope span; leaf spans inside become its children.

        Yields the region's span id (recorded on exit, so the region span
        appears *after* its children in ``spans``).
        """
        span_id = self._next_id
        self._next_id += 1
        saved_parent, self._parent = self._parent, span_id
        start = self.now()
        try:
            yield span_id
        finally:
            self._parent = saved_parent
            self._record(name, kind, start, self.now() - start,
                         span_id=span_id, parent_id=saved_parent,
                         attrs=dict(attrs))

    @contextmanager
    def phase(self, name: str) -> Iterator[int]:
        """Tag everything inside as belonging to ``name`` (e.g. "decode")."""
        saved, self._phase = self._phase, name
        try:
            with self.region(name, kind=PHASE) as span_id:
                yield span_id
        finally:
            self._phase = saved

    @contextmanager
    def layer(self, index: int) -> Iterator[int]:
        """Tag everything inside as belonging to transformer block
        ``index``."""
        saved, self._layer = self._layer, index
        try:
            with self.region(f"layer{index}", kind=LAYER) as span_id:
                yield span_id
        finally:
            self._layer = saved

    @contextmanager
    def request(self, request_id: int) -> Iterator[int]:
        """Open a per-request span tree; joins the :class:`EventLog`.

        On exit, if the tracer carries an event log, a ``request_span``
        event is recorded with the same ``request_id`` — the join key
        between the span timeline and the serving/fault event timeline.
        """
        start = self.now()
        with self.region(f"request{request_id}", kind=REQUEST,
                         request_id=request_id) as span_id:
            yield span_id
        if self.event_log is not None:
            self.event_log.record("request_span", request_id=request_id,
                                  span_id=span_id,
                                  duration_s=self.now() - start)

    # -- queries ------------------------------------------------------------

    def of_kind(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.kind == kind]

    def collectives(self) -> list[Span]:
        """Collective leaf spans in execution order."""
        return self.of_kind(COLLECTIVE)

    def children(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def request_tree(self, request_id: int) -> list[Span]:
        """The request's envelope span plus all transitive children."""
        roots = [s for s in self.spans if s.kind == REQUEST
                 and s.attrs.get("request_id") == request_id]
        if not roots:
            return []
        keep: list[Span] = []
        frontier = {s.span_id for s in roots}
        ordered = sorted(self.spans, key=lambda s: s.span_id)
        # Children always have larger ids than their parent's reserved id,
        # so one ascending sweep collects the whole subtree.
        for span in ordered:
            if span.span_id in frontier or span.parent_id in frontier:
                frontier.add(span.span_id)
                keep.append(span)
        return keep


def record_marks(events: Iterable) -> list[Span]:
    """Zero-duration :data:`MARK` spans, one per event record.

    Each mark is named by the record's kind, sits at the record's
    ``t_s`` and carries its data as attributes, so the same trace that
    shows mesh work also shows *why* traffic moved.  Span ids are the
    records' sequence numbers (marks are not children of any region).
    """
    return [Span(span_id=e.seq, parent_id=None, name=e.kind, kind=MARK,
                 start_s=e.t_s, duration_s=0.0, attrs=dict(e.data))
            for e in events]


def tracer_of(mesh) -> Tracer | None:
    """The tracer attached to a mesh, or ``None`` (duck-typed: works for
    anything carrying a ``tracer`` attribute)."""
    return getattr(mesh, "tracer", None)


def install_tracer(mesh, chip: ChipSpec = TPU_V4,
                   event_log=None) -> Tracer:
    """Attach a fresh :class:`Tracer` to a mesh and return it.

    Every collective/einsum the mesh executes from now on is recorded.
    Remove with :func:`remove_tracer`.
    """
    tracer = Tracer(chip=chip, event_log=event_log)
    mesh.tracer = tracer
    return tracer


def remove_tracer(mesh) -> None:
    """Detach the tracer (instrumentation reverts to zero-overhead)."""
    if hasattr(mesh, "tracer"):
        del mesh.tracer
