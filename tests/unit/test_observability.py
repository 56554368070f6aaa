"""Unit tests for the span tracer, metrics rollups, and mesh hooks."""

import numpy as np
import pytest

from repro.cli import decode_config
from repro.collectives.cost import all_gather_time, all_reduce_time
from repro.hardware.chip import TPU_V4
from repro.layouts import ShardedTransformer
from repro.mesh import ShardedTensor, VirtualMesh, all_gather, all_reduce
from repro.model import init_weights
from repro.observability import (
    COLLECTIVE,
    COMPUTE,
    PHASE,
    Tracer,
    install_tracer,
    phase_metrics,
    layer_metrics,
    format_phase_metrics,
    format_layer_metrics,
    remove_tracer,
    tracer_of,
)
from repro.partitioning import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)


class TestTracer:
    def test_collective_span_attrs(self):
        t = Tracer()
        span = t.collective("all_gather", ("x", "y"), 4, 4096,
                            elements=512)
        assert span.kind == COLLECTIVE
        assert span.attrs["axes"] == ("x", "y")
        assert span.attrs["group_size"] == 4
        assert span.attrs["payload_bytes"] == 4096
        assert span.attrs["elements"] == 512
        assert span.attrs["modeled_s"] == pytest.approx(
            all_gather_time(4096, 4, TPU_V4.interconnect_bandwidth))

    def test_all_reduce_modeled_time_undoes_2x_convention(self):
        t = Tracer()
        span = t.collective("all_reduce", ("x",), 2, 2048)
        assert span.attrs["modeled_s"] == pytest.approx(
            all_reduce_time(1024, 2, TPU_V4.interconnect_bandwidth))

    def test_compute_span_roofline(self):
        t = Tracer()
        span = t.compute("ble,ef->blf", flops=1e9)
        assert span.kind == COMPUTE
        assert span.attrs["modeled_s"] == pytest.approx(
            1e9 / TPU_V4.peak_flops)

    def test_phase_and_layer_context_tag_leaves(self):
        t = Tracer()
        with t.phase("decode"):
            with t.layer(3):
                t.collective("all_gather", ("x",), 2, 64)
        leaf = t.collectives()[0]
        assert (leaf.phase, leaf.layer) == ("decode", 3)
        kinds = [s.kind for s in t.spans]
        assert kinds == [COLLECTIVE, "layer", PHASE]

    def test_region_parenting(self):
        t = Tracer()
        with t.region("outer") as outer_id:
            with t.region("inner") as inner_id:
                leaf = t.collective("all_gather", ("x",), 2, 64)
        assert leaf.parent_id == inner_id
        inner = [s for s in t.spans if s.span_id == inner_id][0]
        assert inner.parent_id == outer_id
        assert {s.name for s in t.children(inner_id)} == {"all_gather"}

    def test_request_tree_and_event_log_join(self):
        from repro.events import EventLog

        log = EventLog()
        t = Tracer(event_log=log)
        with t.request(7):
            with t.phase("prefill"):
                t.collective("all_gather", ("x",), 2, 64)
        tree = t.request_tree(7)
        assert {s.name for s in tree} == {"request7", "prefill",
                                          "all_gather"}
        [event] = log.of_kind("request_span")
        assert event["request_id"] == 7
        assert event["duration_s"] > 0

    def test_clear_and_len(self):
        t = Tracer()
        t.collective("all_gather", ("x",), 2, 64)
        assert len(t) == 1
        t.clear()
        assert len(t) == 0


class TestMeshHooks:
    def _tensor(self, mesh):
        return ShardedTensor.from_global(
            mesh, np.arange(32, dtype=np.float64).reshape(4, 8), "AB_x")

    @pytest.mark.parametrize("backend", ["loop", "stacked"])
    def test_collectives_recorded(self, backend):
        mesh = VirtualMesh((2, 1, 1), backend=backend)
        tracer = mesh.install_tracer()
        gathered = all_gather(self._tensor(mesh), ("x",), "B")
        [span] = tracer.collectives()
        assert span.name == "all_gather"
        assert span.attrs["axes"] == ("x",)
        assert span.attrs["payload_bytes"] == gathered.per_chip_bytes
        assert span.attrs["elements"] == 32
        assert span.duration_s >= 0

    @pytest.mark.parametrize("backend", ["loop", "stacked"])
    def test_einsum_recorded_with_flops(self, backend):
        mesh = VirtualMesh((2, 1, 1), backend=backend)
        tracer = mesh.install_tracer()
        from repro.mesh import sharded_einsum

        a = self._tensor(mesh)
        b = ShardedTensor.from_global(
            mesh, np.ones((8, 2), dtype=np.float64), "B_xC")
        sharded_einsum("ab,bc->ac", a, b)
        [span] = tracer.of_kind(COMPUTE)
        assert span.name == "ab,bc->ac"
        # Local letters: a=4, b=4 (sharded over x), c=2 -> 2*4*4*2.
        assert span.attrs["flops"] == 64.0

    def test_no_tracer_records_nothing_and_remove(self):
        mesh = VirtualMesh((2, 1, 1))
        assert tracer_of(mesh) is None
        tracer = install_tracer(mesh)
        all_gather(self._tensor(mesh), ("x",), "B")
        assert len(tracer) == 1
        remove_tracer(mesh)
        all_gather(self._tensor(mesh), ("x",), "B")
        assert len(tracer) == 1

    @pytest.mark.parametrize("backend", ["loop", "stacked"])
    def test_tracing_does_not_change_numerics(self, backend):
        """Whole prefill + decode steps of the 16-layer weight-gathered
        workload: logits bit-identical with the tracer installed or not."""
        config = decode_config()
        weights = init_weights(config, seed=0)
        prompt = np.random.default_rng(1).integers(
            0, config.vocab_size, size=(16, 4))
        plan = LayoutPlan(FfnLayoutKind.WG_XY, AttentionLayoutKind.BATCH)
        runs = []
        for traced in (False, True):
            mesh = VirtualMesh((2, 2, 2), backend=backend)
            tracer = mesh.install_tracer() if traced else None
            model = ShardedTransformer(weights, mesh, plan)
            logits, caches = model.prefill(prompt, 7)
            steps = [logits]
            for _ in range(3):
                steps.append(model.decode_step(np.argmax(steps[-1], -1),
                                               caches))
            runs.append(steps)
        assert tracer.collectives() and tracer.of_kind(COMPUTE)
        for off, on in zip(*runs):
            np.testing.assert_array_equal(off, on)


class TestMetrics:
    def _traced(self):
        t = Tracer()
        with t.phase("decode"):
            with t.layer(0):
                t.collective("all_gather", ("x",), 4, 1 << 20)
                t.compute("ble,ef->blf", flops=1e9)
            with t.layer(1):
                t.collective("all_reduce", ("x",), 4, 1 << 21)
        return t

    def test_phase_metrics_rollup(self):
        metrics = phase_metrics(self._traced().spans)
        assert set(metrics) == {"decode"}
        m = metrics["decode"]
        assert m.collective_counts == {"all_gather": 1, "all_reduce": 1}
        assert m.comm_bytes == (1 << 20) + (1 << 21)
        assert m.comm_events == 2
        assert m.flops == 1e9
        assert 0 < m.compute_fraction < 1
        assert 0 < m.mfu() <= 1

    def test_phase_wall_uses_region_span(self):
        t = self._traced()
        [region] = t.of_kind(PHASE)
        assert phase_metrics(t.spans)["decode"].wall_s == pytest.approx(
            region.duration_s)

    def test_layer_metrics_keys(self):
        metrics = layer_metrics(self._traced().spans, "decode")
        assert set(metrics) == {("decode", 0), ("decode", 1)}
        assert metrics[("decode", 0)].flops == 1e9
        assert metrics[("decode", 1)].collective_counts == {"all_reduce": 1}

    def test_format_tables_are_text(self):
        spans = self._traced().spans
        phase_table = format_phase_metrics(spans)
        assert "decode" in phase_table and "MFU" in phase_table
        layer_table = format_layer_metrics(spans, "decode")
        assert "L0" in layer_table and "L1" in layer_table

    def test_zero_span_group_has_zero_mfu(self):
        from repro.observability import GroupMetrics

        empty = GroupMetrics(key="x")
        assert empty.mfu() == 0.0
        assert empty.compute_fraction == 0.0


class TestVirtualClockAndMarks:
    def test_default_clock_is_wall_time(self):
        t = Tracer()
        assert t.now() >= 0.0

    def test_virtual_clock_drives_timestamps(self):
        from repro.events import EventLog
        from repro.observability import MARK, record_marks

        clock = {"now": 1.5}
        log = EventLog()
        log.clock = lambda: clock["now"]
        log.record("breaker_transition", new="open")
        clock["now"] = 2.5
        log.record("breaker_transition", new="closed")
        first, second = record_marks(log)
        assert (first.start_s, second.start_s) == (1.5, 2.5)
        assert first.kind == MARK
        assert first.duration_s == 0.0

    def test_virtual_clock_regions_have_exact_durations(self):
        clock = {"now": 0.0}
        t = Tracer(clock=lambda: clock["now"])
        with t.region("group0"):
            clock["now"] = 0.25
        (span,) = t.spans
        assert span.start_s == 0.0 and span.duration_s == 0.25

    def test_request_span_event_uses_virtual_clock(self):
        from repro.events import EventLog

        log = EventLog()
        clock = {"now": 0.0}
        t = Tracer(event_log=log, clock=lambda: clock["now"])
        with t.request(7):
            clock["now"] = 0.125
        (event,) = log.of_kind("request_span")
        assert event["request_id"] == 7
        assert event["duration_s"] == 0.125  # exact: no wall-clock leak

    def test_mark_carries_attrs(self):
        from repro.events import EventLog
        from repro.observability import record_marks

        log = EventLog()
        log.record("replica_health", t_s=0.5, replica="r0", old="healthy",
                   new="degraded")
        (span,) = record_marks(log)
        assert span.name == "replica_health"
        assert span.attrs["new"] == "degraded"
        assert span.duration_s == 0.0
