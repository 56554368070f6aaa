"""Tests for the ``repro-inference`` command-line interface."""

import json

import pytest

from repro.cli import main
from repro.cluster import SCENARIOS


def run(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestEstimate:
    def test_decode_breakdown(self, capsys):
        out = run(capsys, "estimate", "--model", "palm-540b", "--chips",
                  "64", "--batch", "64", "--int8")
        assert "ms/token" in out
        assert "MFU" in out
        assert "int8 weights" in out
        assert "ffn=ws-2d" in out

    def test_prefill(self, capsys):
        out = run(capsys, "estimate", "--model", "palm-62b", "--phase",
                  "prefill", "--chips", "16", "--batch", "1",
                  "--seq-len", "512")
        assert "prefill of 512 tokens" in out

    def test_headline_number(self, capsys):
        """The CLI reproduces the paper's 28.5 ms/token headline."""
        out = run(capsys, "estimate", "--model", "palm-540b", "--chips",
                  "64", "--batch", "64", "--context", "2048", "--int8")
        ms = float(out.split("decode step at context 2048: ")[1]
                   .split(" ms/token")[0])
        assert 25 < ms < 33  # paper: 28.5


class TestPlan:
    def test_decode_recipe(self, capsys):
        out = run(capsys, "plan", "--model", "palm-540b", "--chips", "64",
                  "--batch", "512")
        assert "ffn=ws-2d, attention=batch" in out

    def test_prefill_large_batch_weight_gathered(self, capsys):
        out = run(capsys, "plan", "--model", "palm-540b", "--chips", "64",
                  "--batch", "512", "--phase", "prefill")
        assert "wg-" in out


class TestSweep:
    def test_frontier_table(self, capsys):
        out = run(capsys, "sweep", "--model", "palm-8b", "--phase",
                  "decode")
        assert "Pareto frontier" in out
        assert "chip-ms/tok" in out
        assert out.count("\n") > 5


class TestMaxContext:
    def test_table1_values(self, capsys):
        out = run(capsys, "max-context", "--model", "palm-540b",
                  "--batch", "128")
        assert "42,653" in out
        assert "666" in out

    def test_multihead_model_has_no_batch_layout(self, capsys):
        out = run(capsys, "max-context", "--model", "megatron-530b",
                  "--batch", "128")
        assert "n/a" in out


class TestTrace:
    def test_palm540b_emits_perfetto_acceptable_trace(self, capsys,
                                                      tmp_path):
        """The acceptance-criteria 4x4x4 invocation, validated
        structurally.  The trace is of the executed workload: the
        PaLM-540B schedule came from the deleted simulator."""
        path = tmp_path / "palm.json"
        out = run(capsys, "trace", "--topology", "4x4x4", "--steps", "1",
                  "--out", str(path))
        assert "written to" in out
        trace = json.loads(path.read_text())
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        assert {e["ph"] for e in events} <= {"M", "X"}
        assert any(e["ph"] == "M" and e["name"] == "process_name"
                   for e in events)
        xs = [e for e in events if e["ph"] == "X"]
        assert xs
        for event in xs:  # the complete-event fields Perfetto requires
            assert {"name", "ph", "pid", "tid", "ts", "dur"} <= set(event)
            assert event["dur"] > 0

    def test_executed_trace_of_tiny_preset(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        out = run(capsys, "trace", "--topology", "2x2x2", "--steps", "1",
                  "--out", str(path))
        assert "executed" in out
        trace = json.loads(path.read_text())
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert any(e.get("args", {}).get("phase") == "decode" for e in xs)
        assert any(e["cat"] == "collective" for e in xs)

    def test_trace_to_stdout(self, capsys):
        out = run(capsys, "trace", "--topology", "2x2x2", "--steps", "1")
        assert json.loads(out)["traceEvents"]

    def test_bad_topology_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "--topology", "4x4"])


class TestMetrics:
    def test_phase_and_layer_tables(self, capsys):
        out = run(capsys, "metrics", "--topology", "2x2x2", "--steps",
                  "1")
        assert "Per-phase mesh metrics" in out
        assert "prefill" in out and "decode" in out
        assert "Per-layer mesh metrics" in out
        assert "all_gather" in out

    def test_crosscheck_table(self, capsys):
        out = run(capsys, "metrics", "--topology", "2x2x2", "--steps",
                  "1", "--crosscheck")
        assert "| layout | backend | phase |" in out
        assert "ws-1d/head" in out and "wg-xy/batch" in out
        assert "stacked" in out
        assert "| ok |" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


class TestServe:
    def test_queueing_report(self, capsys):
        out = run(capsys, "serve", "--model", "palm-62b", "--chips", "16",
                  "--rate", "2", "--duration", "40")
        assert "p95 latency" in out
        assert "utilization" in out


class TestCalibrate:
    def test_report(self, capsys):
        out = run(capsys, "calibrate")
        assert "ll-decode" in out
        assert "objective" in out


class TestDisaggregate:
    def test_pipeline_sizing(self, capsys):
        out = run(capsys, "disaggregate", "--model", "palm-540b",
                  "--int8")
        assert "prefill replicas per decode server" in out
        assert "pipeline throughput" in out


class TestChaos:
    def test_single_scenario_report(self, capsys):
        out = run(capsys, "chaos", "--scenario", "rolling-kill")
        assert "scenario rolling-kill" in out
        assert "OK" in out
        assert "availability" in out
        assert "bit-identical to reference: yes" in out

    def test_all_scenarios_both_backends(self, capsys):
        out = run(capsys, "chaos", "--backend", "both")
        for name in SCENARIOS:
            for backend in ("loop", "stacked"):
                assert f"scenario {name} [backend={backend} " in out
        assert "backend=loop" in out and "backend=stacked" in out
        assert "VIOLATED" not in out

    def test_trace_export(self, capsys, tmp_path):
        path = tmp_path / "chaos.json"
        out = run(capsys, "chaos", "--scenario", "rolling-kill",
                  "--trace", str(path))
        assert "written to" in out
        trace = json.loads(path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert any(n.startswith("group") for n in names)

    def test_json_artifact(self, capsys, tmp_path):
        path = tmp_path / "runs.json"
        out = run(capsys, "chaos", "--scenario", "restart-storm",
                  "--backend", "both", "--json", str(path))
        assert "written to" in out
        doc = json.loads(path.read_text())
        assert doc["ok"] is True
        assert [(r["scenario"], r["backend"], r["seed"])
                for r in doc["runs"]] == [("restart-storm", "loop", 0),
                                          ("restart-storm", "stacked", 0)]
        for r in doc["runs"]:
            assert r["ok"] and r["replay_matches"] and r["audit_certified"]
            assert r["restarts"] > 0
            assert r["journal"] and len(r["journal"]) == \
                r["journal_records"]
            assert {"violations", "audit_violations", "journal_truncated",
                    "recoveries", "quarantines", "kv_handoffs",
                    "handoff_retries", "handoff_aborts",
                    "handoff_dup_drops"} <= set(r)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--scenario", "nope"])


class TestFaultSim:
    def test_availability_report(self, capsys):
        out = run(capsys, "fault-sim", "--model", "palm-62b", "--chips",
                  "16", "--rate", "2", "--duration", "60", "--mtbf",
                  "30")
        assert "failures" in out
        assert "availability" in out
        assert "goodput" in out

    def test_huge_mtbf_is_fault_free(self, capsys):
        out = run(capsys, "fault-sim", "--model", "palm-62b", "--chips",
                  "16", "--rate", "2", "--duration", "40", "--mtbf",
                  "1e12")
        assert int(out.split("failures")[1].split()[0]) == 0
        assert "availability 100.0%" in out
