"""Chrome/Perfetto trace-event JSON for span streams.

The span streams of :mod:`repro.observability.spans` — what the virtual
mesh actually ran, or a cluster run's regions and journal marks — export
through these builders.  Write the JSON to a file and open it in
`Perfetto <https://ui.perfetto.dev>`_ or ``chrome://tracing``.

Only the stable subset of the trace-event format is emitted: ``M``
metadata events naming processes/threads and ``X`` complete events with
microsecond timestamps — exactly what Perfetto's JSON importer accepts.

    >>> trace = build_trace([process_metadata(0, "mesh"),
    ...                      complete_event("all_gather", "collective",
    ...                                     0, 1, ts_s=0.0, dur_s=2e-6)])
    >>> sorted(trace)
    ['displayTimeUnit', 'traceEvents']
    >>> trace["traceEvents"][1]["dur"]
    2.0
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

_MICROSECONDS = 1e6

#: Lane (thread) order for executed-span traces: one row per span kind,
#: outermost grouping first so Perfetto nests the timeline naturally.
SPAN_LANES = (
    ("request", "requests"),
    ("phase", "phases"),
    ("layer", "layers"),
    ("collective", "collectives"),
    ("compute", "einsums"),
    ("region", "regions"),
)


def process_metadata(pid: int, name: str) -> dict:
    """An ``M`` event naming a process (one timeline group)."""
    return {"name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": name}}


def thread_metadata(pid: int, tid: int, name: str) -> dict:
    """An ``M`` event naming a thread (one lane within a process)."""
    return {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}}


def complete_event(name: str, category: str, pid: int, tid: int, *,
                   ts_s: float, dur_s: float,
                   args: dict | None = None) -> dict:
    """An ``X`` (complete) event; times in seconds, stored as µs."""
    event = {"name": name, "cat": category or "op", "ph": "X", "pid": pid,
             "tid": tid, "ts": ts_s * _MICROSECONDS,
             "dur": dur_s * _MICROSECONDS}
    if args:
        event["args"] = args
    return event


def build_trace(events: Iterable[dict]) -> dict:
    """Wrap events in the top-level trace object Perfetto expects."""
    return {"traceEvents": list(events), "displayTimeUnit": "ms"}


def write_trace(trace: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(trace, f)


def spans_to_chrome_trace(spans: Sequence, *,
                          process_name: str = "virtual-mesh",
                          pid: int = 0) -> dict:
    """Executed mesh spans -> Chrome trace, one lane per span kind.

    Every span becomes an ``X`` event whose ``args`` carry the structured
    attributes (axes, payload bytes, modeled seconds, phase, layer), so
    Perfetto's selection panel shows the cost-model view of each op next
    to its wall-clock box.
    """
    events = [process_metadata(pid, process_name)]
    lanes = {kind: tid for tid, (kind, _) in enumerate(SPAN_LANES)}
    used = sorted({lanes.get(s.kind, len(SPAN_LANES)) for s in spans})
    names = dict(enumerate(label for _, label in SPAN_LANES))
    for tid in used:
        events.append(thread_metadata(pid, tid, names.get(tid, "other")))
    for span in spans:
        args = {"phase": span.phase, "layer": span.layer}
        for key, value in span.attrs.items():
            args[key] = list(value) if isinstance(value, tuple) else value
        events.append(complete_event(
            span.name, span.kind, pid, lanes.get(span.kind, len(SPAN_LANES)),
            ts_s=span.start_s, dur_s=span.duration_s, args=args))
    return build_trace(events)


def write_span_trace(spans: Sequence, path: str, *,
                     process_name: str = "virtual-mesh") -> None:
    write_trace(spans_to_chrome_trace(spans, process_name=process_name),
                path)
