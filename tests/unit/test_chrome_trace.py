"""Chrome-trace export: the shared builders and the span export in
:mod:`repro.observability.chrome_trace`.
"""

import json

import pytest

from repro.observability import (
    Tracer,
    build_trace,
    complete_event,
    process_metadata,
    spans_to_chrome_trace,
    thread_metadata,
    write_span_trace,
)


class TestSharedBuilders:
    def test_complete_event_microseconds(self):
        event = complete_event("op", "cat", 0, 3, ts_s=1.5, dur_s=0.25)
        assert event["ts"] == pytest.approx(1.5e6)
        assert event["dur"] == pytest.approx(0.25e6)
        assert event["ph"] == "X"

    def test_category_defaults_to_op(self):
        assert complete_event("n", "", 0, 0, ts_s=0, dur_s=1)["cat"] == "op"

    def test_build_trace_shape(self):
        trace = build_trace([process_metadata(0, "p"),
                             thread_metadata(0, 1, "t")])
        json.dumps(trace)  # must be serializable
        assert len(trace["traceEvents"]) == 2


class TestSpanExport:
    def _tracer(self):
        t = Tracer()
        with t.phase("decode"):
            t.collective("all_gather", ("x", "y"), 4, 2048, elements=256)
            t.compute("ble,ef->blf", flops=128.0)
        return t

    def test_span_trace_serializes_and_carries_attrs(self, tmp_path):
        t = self._tracer()
        path = tmp_path / "spans.json"
        write_span_trace(t.spans, str(path))
        trace = json.loads(path.read_text())
        [gather] = [e for e in trace["traceEvents"]
                    if e.get("name") == "all_gather"]
        assert gather["args"]["axes"] == ["x", "y"]  # tuples -> lists
        assert gather["args"]["payload_bytes"] == 2048
        assert gather["args"]["phase"] == "decode"

    def test_one_lane_per_used_span_kind(self):
        trace = spans_to_chrome_trace(self._tracer().spans)
        meta = [e for e in trace["traceEvents"]
                if e["ph"] == "M" and e["name"] == "thread_name"]
        assert {e["args"]["name"] for e in meta} \
            == {"phases", "collectives", "einsums"}

    def test_events_partition_by_kind_lane(self):
        trace = spans_to_chrome_trace(self._tracer().spans)
        by_name = {e["name"]: e for e in trace["traceEvents"]
                   if e["ph"] == "X"}
        assert by_name["all_gather"]["tid"] != by_name["decode"]["tid"]
