"""End-to-end fault tolerance: the injected-fault matrix on both backends.

The acceptance bar: under any single-chip fault in the matrix (kill
during prefill, kill mid-decode, collective timeout, straggler), every
request the resilient server completes must carry tokens *bit-identical*
to a fault-free reference run — greedy decoding makes retries and
replanned meshes invisible in the output — and the event log must record
the full detect -> replan -> retry sequence.
"""

import numpy as np
import pytest

from repro.cluster import ResilientTwoPhaseServer
from repro.events import (
    FAULT_DETECTED,
    FAULT_INJECTED,
    REPLANNED,
    REQUEST_COMPLETED,
    REQUEST_RETRIED,
    EventLog,
)
from repro.mesh import (
    ChipKill,
    CollectiveFault,
    FaultPlan,
    StragglerFault,
)
from repro.mesh.virtual_mesh import BACKENDS
from repro.model import (
    ReferenceTransformer,
    init_weights,
    tiny_test_config,
)
from repro.serving import (
    CostModel,
    Request,
    RequestStatus,
    ResilientRequest,
    TwoPhaseServer,
)

CFG = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                       d_head=8, vocab_size=32)
WEIGHTS = init_weights(CFG, seed=0)


def make_requests(n=4, length=6, n_new=5):
    rng = np.random.default_rng(42)
    return [Request(i, rng.integers(0, CFG.vocab_size, size=length), n_new)
            for i in range(n)]


REQUESTS = make_requests()
REFERENCE = TwoPhaseServer(ReferenceTransformer(WEIGHTS),
                           decode_batch=4).serve(REQUESTS)

# The acceptance fault matrix: every scheduled single-chip fault the
# resilient lifecycle must absorb.  ``replans`` says whether recovery
# rebuilds the deployment (permanent faults) or retries in place
# (transient ones).
FAULT_MATRIX = {
    "kill-during-prefill": (
        FaultPlan(faults=(ChipKill(chip=(1, 1, 1), at_step=2,
                                   phase="prefill"),)), True),
    "kill-mid-decode": (
        FaultPlan(faults=(ChipKill(chip=(0, 1, 0), at_step=3,
                                   phase="decode"),)), True),
    "collective-timeout": (
        FaultPlan(faults=(CollectiveFault(kind="timeout", at_step=2,
                                          phase="decode"),)), False),
    "collective-corruption": (
        FaultPlan(faults=(CollectiveFault(kind="corrupt", at_step=1,
                                          phase="decode",
                                          chip=(1, 0, 1)),)), False),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scenario", sorted(FAULT_MATRIX))
class TestFaultMatrix:
    def test_tokens_bit_identical_to_fault_free(self, backend, scenario):
        fault_plan, replans = FAULT_MATRIX[scenario]
        log = EventLog()
        server = ResilientTwoPhaseServer(
            WEIGHTS, (2, 2, 2), backend=backend,
            decode_batch=4, fault_plan=fault_plan, event_log=log)
        outcomes = server.serve(REQUESTS)

        assert all(o.status is RequestStatus.COMPLETED for o in outcomes)
        for outcome, reference in zip(outcomes, REFERENCE):
            np.testing.assert_array_equal(outcome.completion.tokens,
                                          reference.tokens)
        assert all(o.retries == 1 for o in outcomes)

        # The observable lifecycle, in order.
        if replans:
            log.assert_sequence(FAULT_INJECTED, FAULT_DETECTED, REPLANNED,
                                REQUEST_RETRIED, REQUEST_COMPLETED)
            assert server.mesh.num_chips < 8
        else:
            log.assert_sequence(FAULT_INJECTED, FAULT_DETECTED,
                                REQUEST_RETRIED, REQUEST_COMPLETED)
            assert not log.of_kind(REPLANNED)  # transient: same mesh
            assert server.mesh.num_chips == 8


@pytest.mark.parametrize("backend", BACKENDS)
class TestStragglerEviction:
    STRAGGLER = FaultPlan(faults=(
        StragglerFault(chip=(0, 0, 1), slowdown=50.0,
                       delay_s_per_op=1e-3, at_step=1, phase="decode"),))

    def test_straggler_evicted_with_cache_migration(self, backend):
        log = EventLog()
        server = ResilientTwoPhaseServer(
            WEIGHTS, (2, 2, 2), backend=backend,
            decode_batch=4, fault_plan=self.STRAGGLER, event_log=log)
        outcomes = server.serve(
            [ResilientRequest(r, deadline_s=1.2) for r in REQUESTS])

        assert all(o.status is RequestStatus.COMPLETED for o in outcomes)
        for outcome, reference in zip(outcomes, REFERENCE):
            np.testing.assert_array_equal(outcome.completion.tokens,
                                          reference.tokens)
        # Eviction replanned away from the slow chip and migrated the
        # live caches instead of re-prefilling.
        assert server.mesh.num_chips < 8
        migrations = [e for e in log.of_kind(REQUEST_RETRIED)
                      if e["mode"] == "cache-migration"]
        assert len(migrations) == len(REQUESTS)
        log.assert_sequence(FAULT_INJECTED, FAULT_DETECTED, REPLANNED,
                            REQUEST_RETRIED, REQUEST_COMPLETED)

    def test_no_deadline_means_no_eviction(self, backend):
        # Stragglers are pure latency: without a deadline at risk the
        # server rides them out on the full mesh and just finishes later.
        log = EventLog()
        server = ResilientTwoPhaseServer(
            WEIGHTS, (2, 2, 2), backend=backend,
            decode_batch=4, fault_plan=self.STRAGGLER, event_log=log)
        outcomes = server.serve(REQUESTS)

        assert all(o.status is RequestStatus.COMPLETED for o in outcomes)
        for outcome, reference in zip(outcomes, REFERENCE):
            np.testing.assert_array_equal(outcome.completion.tokens,
                                          reference.tokens)
        assert log.of_kind(FAULT_INJECTED)
        assert server.mesh.num_chips == 8
        assert not log.of_kind(REPLANNED)


@pytest.mark.parametrize("backend", BACKENDS)
class TestLifecyclePolicies:
    def test_sheds_when_degraded_capacity_misses_deadlines(self, backend):
        log = EventLog()
        fault_plan = FaultPlan(faults=(
            ChipKill(chip=(0, 0, 0), at_step=1, phase="decode"),))
        server = ResilientTwoPhaseServer(
            WEIGHTS, (2, 2, 2), backend=backend,
            decode_batch=4, fault_plan=fault_plan,
            costs=CostModel(replan_s=5.0), event_log=log)
        outcomes = server.serve(
            [ResilientRequest(r, deadline_s=1.0) for r in REQUESTS])
        assert all(o.status is RequestStatus.SHED for o in outcomes)
        assert all(o.completion is None for o in outcomes)
        assert log.of_kind("request_shed")

    def test_retry_budget_exhaustion_fails_requests(self, backend):
        # A fresh one-shot timeout greets every attempt, so retries burn
        # out without the mesh ever shrinking.
        fault_plan = FaultPlan(faults=tuple(
            CollectiveFault(kind="timeout") for _ in range(8)))
        server = ResilientTwoPhaseServer(
            WEIGHTS, (2, 2, 2), backend=backend,
            decode_batch=4, fault_plan=fault_plan)
        outcomes = server.serve(
            [ResilientRequest(r, max_retries=1) for r in REQUESTS])
        assert all(o.status is RequestStatus.FAILED for o in outcomes)

    def test_fault_free_run_matches_reference(self, backend):
        server = ResilientTwoPhaseServer(
            WEIGHTS, (2, 2, 2), backend=backend,
            decode_batch=4)
        outcomes = server.serve(REQUESTS)
        assert all(o.status is RequestStatus.COMPLETED for o in outcomes)
        assert all(o.retries == 0 for o in outcomes)
        for outcome, reference in zip(outcomes, REFERENCE):
            np.testing.assert_array_equal(outcome.completion.tokens,
                                          reference.tokens)

    def test_odd_group_size_pads_decode_batch(self, backend):
        # 3 requests on an 8-chip batch-sharded decode plan only works
        # because the server pads the merged batch; outputs must still
        # match the reference exactly.
        requests = make_requests(n=3)
        reference = TwoPhaseServer(ReferenceTransformer(WEIGHTS),
                                   decode_batch=4).serve(requests)
        server = ResilientTwoPhaseServer(
            WEIGHTS, (2, 2, 2), backend=backend,
            decode_batch=4)
        outcomes = server.serve(requests)
        for outcome, want in zip(outcomes, reference):
            np.testing.assert_array_equal(outcome.completion.tokens,
                                          want.tokens)
