"""Unit tests for the cluster control-plane building blocks.

Admission control (token buckets, bounded priority queues, typed
rejections), circuit breakers, replica health/heartbeat/replanning, and
the externally-stepped :class:`GroupRun` (including live KV-cache
migration between replicas).  Cross-replica end-to-end behaviour lives
in ``tests/integration/test_chaos.py``.
"""

import numpy as np
import pytest

from repro.cluster import (
    AdmissionController,
    BreakerState,
    CircuitBreaker,
    ClusterControlPlane,
    ClusterRequestStatus,
    ClusterSubmission,
    GroupRun,
    NoHealthyReplica,
    PriorityClass,
    QueueFull,
    RateLimited,
    Replica,
    ReplicaHealth,
    TokenBucket,
)
from repro.events import (
    ADMISSION_REJECTED,
    BREAKER_TRANSITION,
    REPLICA_HEALTH,
    REQUEST_ADMITTED,
    EventLog,
)
from repro.mesh.faults import ChipKill, FaultPlan, StragglerFault
from repro.model import ReferenceTransformer, init_weights, tiny_test_config
from repro.serving import Request, ResilientRequest, TwoPhaseServer

CFG = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                       d_head=8, vocab_size=32)
WEIGHTS = init_weights(CFG, seed=0)


def make_requests(n=4, length=6, n_new=5, seed=42):
    rng = np.random.default_rng(seed)
    return [Request(i, rng.integers(0, CFG.vocab_size, size=length), n_new)
            for i in range(n)]


class TestTokenBucket:
    def test_burst_then_rate(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)     # burst exhausted
        assert bucket.try_take(0.1)         # 0.1s at 10/s -> one token
        assert not bucket.try_take(0.1)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3)
        for _ in range(3):
            assert bucket.try_take(0.0)
        for _ in range(3):
            assert bucket.try_take(100.0)   # long idle refills to 3, not 10k
        assert not bucket.try_take(100.0)


class TestAdmissionController:
    def test_unknown_class_is_programming_error(self):
        controller = AdmissionController()
        with pytest.raises(ValueError, match="unknown priority class"):
            controller.submit("item", 0, 0.0, class_name="nope")

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate priority class"):
            AdmissionController((PriorityClass("a"), PriorityClass("a")))

    def test_rate_limit_raises_typed_error(self):
        log = EventLog()
        controller = AdmissionController(
            (PriorityClass("default", rate=1.0, burst=1),), journal=log)
        controller.submit("a", 0, 0.0)
        with pytest.raises(RateLimited) as err:
            controller.submit("b", 1, 0.0)
        assert err.value.request_id == 1
        assert err.value.priority_class == "default"
        (event,) = log.of_kind(ADMISSION_REJECTED)
        assert event["error"] == "RateLimited"
        assert controller.rejected == {"RateLimited": 1}

    def test_queue_bound_raises_typed_error(self):
        controller = AdmissionController(
            (PriorityClass("default", rate=1e6, burst=1000,
                           queue_limit=2),))
        controller.submit("a", 0, 0.0)
        controller.submit("b", 1, 0.0)
        with pytest.raises(QueueFull):
            controller.submit("c", 2, 0.0)
        assert controller.backlog() == 2

    def test_admission_recorded(self):
        log = EventLog()
        controller = AdmissionController(journal=log)
        controller.submit("a", 9, 0.5)
        (event,) = log.of_kind(REQUEST_ADMITTED)
        assert event["request_id"] == 9 and event.t_s == 0.5

    def test_strict_priority_dequeue_fifo_within_class(self):
        controller = AdmissionController((
            PriorityClass("batch", priority=1, rate=1e6, burst=1000),
            PriorityClass("interactive", priority=0, rate=1e6,
                          burst=1000),
        ))
        controller.submit("b1", 0, 0.0, class_name="batch")
        controller.submit("i1", 1, 0.0, class_name="interactive")
        controller.submit("b2", 2, 0.0, class_name="batch")
        controller.submit("i2", 3, 0.0, class_name="interactive")
        assert controller.next_batch(3) == ["i1", "i2", "b1"]
        assert controller.next_batch(3) == ["b2"]
        assert controller.backlog() == 0

    @pytest.mark.parametrize("kwargs", [
        dict(rate=0.0), dict(rate=-1.0), dict(burst=0),
        dict(queue_limit=0),
    ])
    def test_invalid_class_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PriorityClass("c", **kwargs)


class TestCircuitBreaker:
    def test_opens_on_consecutive_failures_only(self):
        breaker = CircuitBreaker("r0", failure_threshold=3)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_success(0.2)         # resets the streak
        breaker.record_failure(0.3)
        breaker.record_failure(0.4)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.5)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(0.6)

    def test_half_open_probe_success_closes(self):
        log = EventLog()
        breaker = CircuitBreaker("r0", failure_threshold=1,
                                 cooldown_s=1.0, journal=log)
        breaker.record_failure(0.0)
        assert not breaker.allow(0.5)
        assert breaker.allow(1.0)           # cooldown elapsed -> probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(1.1)
        assert breaker.state is BreakerState.CLOSED
        assert [e["new"] for e in log.of_kind(BREAKER_TRANSITION)] == \
            ["open", "half_open", "closed"]

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker("r0", failure_threshold=3, cooldown_s=1.0)
        for i in range(3):
            breaker.record_failure(0.1 * i)
        assert breaker.allow(2.0)
        breaker.record_failure(2.1)         # probe failed: reopen at once
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(2.5)
        assert breaker.allow(3.2)           # new cooldown from reopen time

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker("r0", failure_threshold=0)


class TestReplica:
    def test_healthy_until_fault_clock_reaches_kill(self):
        log = EventLog()
        plan = FaultPlan(faults=(ChipKill(chip=(0, 1, 0), at_step=2,
                                          phase="decode"),))
        replica = Replica("r0", WEIGHTS, (2, 2, 2), fault_plan=plan,
                          journal=log)
        assert replica.heartbeat(0.0) is ReplicaHealth.HEALTHY
        for _ in range(2):
            replica.advance("decode")
        assert replica.heartbeat(1.0) is ReplicaHealth.DEGRADED
        assert replica.mesh.num_chips == 4
        assert replica.scale == 2.0
        (event,) = log.of_kind(REPLICA_HEALTH)
        assert (event["old"], event["new"]) == ("healthy", "degraded")

    def test_straggler_degrades_then_heals(self):
        plan = FaultPlan(faults=(StragglerFault(
            chip=(0, 0, 1), at_step=1, until_step=3, phase="decode"),))
        replica = Replica("r0", WEIGHTS, (2, 2, 2), fault_plan=plan)
        replica.advance("decode")
        assert replica.heartbeat(0.0) is ReplicaHealth.DEGRADED
        assert replica.dispatchable
        for _ in range(2):
            replica.advance("decode")
        assert replica.heartbeat(1.0) is ReplicaHealth.HEALTHY

    def test_draining_not_dispatchable(self):
        replica = Replica("r0", WEIGHTS, (2, 2, 2))
        replica.set_health(ReplicaHealth.DRAINING, 0.0, "maintenance")
        assert not replica.dispatchable

    def test_replan_and_cold_restart_plan_for_the_prompt_hint(
            self, monkeypatch):
        from repro.hardware.topology import Torus3D
        from repro.partitioning import degraded
        from repro.partitioning.selector import Phase

        # Every prefill selection on the rebuild path must see the hint.
        prefill_tokens = []
        select = degraded.select_degraded_plan

        def spy(config, torus, phase, batch, tokens_per_seq):
            if phase is Phase.PREFILL:
                prefill_tokens.append(tokens_per_seq)
            return select(config, torus, phase, batch, tokens_per_seq)

        monkeypatch.setattr(degraded, "select_degraded_plan", spy)
        replica = Replica("r0", WEIGHTS, (2, 2, 2), prompt_len_hint=6)
        replica.replan_around([(0, 1, 0)])
        assert replica.mesh.num_chips == 4
        replica.restart("cold")
        assert prefill_tokens and set(prefill_tokens) == {6}
        want = select(CFG, Torus3D(*replica.mesh.shape), Phase.PREFILL,
                      batch=1, tokens_per_seq=6)
        assert replica.prefill_model.plan == want


class TestGroupRun:
    def _reference(self, requests):
        return {c.request_id: c for c in TwoPhaseServer(
            ReferenceTransformer(WEIGHTS), decode_batch=4).serve(requests)}

    def test_stepped_decode_matches_reference(self):
        requests = make_requests()
        replica = Replica("r0", WEIGHTS, (2, 2, 2), prompt_len_hint=6)
        run = GroupRun(replica, [ResilientRequest(r) for r in requests])
        elapsed = run.run_prefill()
        assert elapsed > 0
        while not run.done:
            run.decode_step()
        reference = self._reference(requests)
        for completion in run.completions():
            np.testing.assert_array_equal(
                completion.tokens,
                reference[completion.request_id].tokens)

    def test_migrate_mid_decode_preserves_tokens(self):
        requests = make_requests()
        source = Replica("r0", WEIGHTS, (2, 2, 2), prompt_len_hint=6)
        target = Replica("r1", WEIGHTS, (2, 2, 2), prompt_len_hint=6)
        run = GroupRun(source, [ResilientRequest(r) for r in requests])
        run.run_prefill()
        run.decode_step()
        moved = run.migrate_to(target)
        assert moved.replica is target
        assert moved.steps_done == run.steps_done
        while not moved.done:
            moved.decode_step()
        reference = self._reference(requests)
        for completion in moved.completions():
            np.testing.assert_array_equal(
                completion.tokens,
                reference[completion.request_id].tokens)

    def test_migrate_before_prefill_rejected(self):
        requests = make_requests()
        source = Replica("r0", WEIGHTS, (2, 2, 2))
        target = Replica("r1", WEIGHTS, (2, 2, 2))
        run = GroupRun(source, [ResilientRequest(r) for r in requests])
        with pytest.raises(ValueError, match="nothing to migrate"):
            run.migrate_to(target)

    def test_empty_group_rejected(self):
        replica = Replica("r0", WEIGHTS, (2, 2, 2))
        with pytest.raises(ValueError, match="empty request group"):
            GroupRun(replica, [])


class TestControlPlaneBasics:
    def test_needs_a_replica(self):
        with pytest.raises(ValueError, match="at least one replica"):
            ClusterControlPlane(WEIGHTS, [])

    def test_duplicate_request_ids_rejected(self):
        plane = ClusterControlPlane(WEIGHTS, [(2, 2, 2)],
                                    prompt_len_hint=6)
        request = make_requests(1)[0]
        subs = [ClusterSubmission(request), ClusterSubmission(request)]
        with pytest.raises(ValueError, match="duplicate request id"):
            plane.serve(subs)

    def test_no_healthy_replica_fails_dispatch(self):
        plane = ClusterControlPlane(WEIGHTS, [(2, 2, 2)],
                                    prompt_len_hint=6)
        plane.replicas[0].set_health(ReplicaHealth.DEAD, 0.0, "test")
        with pytest.raises(NoHealthyReplica):
            plane._pick_replica(0.0, 0, "default")
        outcomes = plane.serve([ClusterSubmission(r)
                                for r in make_requests()])
        assert all(o.status is ClusterRequestStatus.FAILED
                   for o in outcomes)
        assert all(o.rejection == "NoHealthyReplica" for o in outcomes)

    def test_fault_free_serving_matches_reference(self):
        requests = make_requests(8)
        plane = ClusterControlPlane(WEIGHTS, [(2, 2, 2), (2, 2, 2)],
                                    prompt_len_hint=6)
        outcomes = plane.serve([ClusterSubmission(r, arrival_s=0.05 * i)
                                for i, r in enumerate(requests)])
        reference = {c.request_id: c for c in TwoPhaseServer(
            ReferenceTransformer(WEIGHTS), decode_batch=4).serve(requests)}
        assert all(o.ok for o in outcomes)
        for outcome in outcomes:
            np.testing.assert_array_equal(
                outcome.completion.tokens,
                reference[outcome.request_id].tokens)
        # Both replicas served work (least-busy dispatch spreads load).
        assert len({o.replica for o in outcomes}) == 2

    def test_admitted_and_rejected_each_recorded_once(self):
        # One token of burst: request 0 is admitted, request 1 (same
        # instant) is rate-limited.  Each decision is one record in the
        # plane's one stream, stamped at the arrival.
        plane = ClusterControlPlane(
            WEIGHTS, [(2, 2, 2)], prompt_len_hint=6,
            classes=(PriorityClass("default", rate=1.0, burst=1),))
        outcomes = plane.serve([ClusterSubmission(r, arrival_s=0.25)
                                for r in make_requests(2)])
        assert [o.status for o in outcomes] == [
            ClusterRequestStatus.COMPLETED, ClusterRequestStatus.REJECTED]
        assert plane.events is plane.journal
        decisions = [(e.kind, e["request_id"], e.t_s) for e in plane.journal
                     if e.kind in (REQUEST_ADMITTED, ADMISSION_REJECTED)]
        assert decisions == [(REQUEST_ADMITTED, 0, 0.25),
                             (ADMISSION_REJECTED, 1, 0.25)]
