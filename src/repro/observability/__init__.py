"""Observability for executed mesh programs: spans, metrics, traces.

Three always-importable submodules (re-exported here):

- :mod:`~repro.observability.spans` — the :class:`Tracer` span recorder,
  the ``install_tracer`` hook the mesh instrumentation looks for, and
  ``record_marks`` (event records -> zero-duration mark spans);
- :mod:`~repro.observability.metrics` — per-phase / per-layer rollups;
- :mod:`~repro.observability.chrome_trace` — shared Perfetto JSON
  builders (also used by :mod:`repro.simulator.trace`).

:mod:`~repro.observability.crosscheck` (estimator vs. executed-trace
validation) is deliberately **not** imported here: it pulls in
:mod:`repro.layouts` and :mod:`repro.perf`, and this package must stay
importable from :mod:`repro.simulator.trace` without cycles.  Import it
explicitly: ``from repro.observability import crosscheck``.
"""

from repro.observability.chrome_trace import (
    build_trace,
    complete_event,
    process_metadata,
    spans_to_chrome_trace,
    thread_metadata,
    write_span_trace,
    write_trace,
)
from repro.observability.metrics import (
    GroupMetrics,
    format_capture_stats,
    format_kvstore_stats,
    format_layer_metrics,
    format_phase_metrics,
    kvstore_stats_line,
    layer_metrics,
    phase_metrics,
)
from repro.observability.spans import (
    COLLECTIVE,
    COMPUTE,
    FUSED,
    LAYER,
    MARK,
    PHASE,
    REGION,
    REQUEST,
    RING_STEP,
    Span,
    Tracer,
    install_tracer,
    record_marks,
    remove_tracer,
    tracer_of,
)

__all__ = [
    "COLLECTIVE", "COMPUTE", "FUSED", "LAYER", "MARK", "PHASE", "REGION",
    "REQUEST", "RING_STEP", "Span", "Tracer", "install_tracer",
    "record_marks", "remove_tracer", "tracer_of", "GroupMetrics",
    "phase_metrics", "layer_metrics", "format_phase_metrics",
    "format_layer_metrics",
    "format_capture_stats", "format_kvstore_stats", "kvstore_stats_line",
    "build_trace", "complete_event", "process_metadata",
    "thread_metadata", "spans_to_chrome_trace", "write_trace",
    "write_span_trace",
]
