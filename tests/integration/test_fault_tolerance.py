"""End-to-end fault tolerance: the injected-fault matrix on both backends.

The single-mesh server is a one-replica cluster control plane: with no
other replica to fail over to, a faulted group retries in place (on the
replica replanned around any dead chip).  The acceptance bar: under any
single-chip fault in the matrix (kill during prefill, kill mid-decode,
collective timeout, collective corruption), every request completes
with tokens *bit-identical* to a fault-free reference run — greedy
decoding makes retries and replanned meshes invisible in the output —
and the journal records the full detect -> replan -> failover sequence.
(``test_resilient_leases.py`` runs the same matrix for page leases.)
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterControlPlane,
    ClusterPolicy,
    ClusterRequestStatus,
    ClusterSubmission,
)
from repro.events import (
    FAILOVER,
    FAULT_DETECTED,
    FAULT_INJECTED,
    REPLANNED,
    REQUEST_COMPLETED,
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
from repro.serving import Request

CFG = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                       d_head=8, vocab_size=32)
WEIGHTS = init_weights(CFG, seed=0)


def make_requests(n=4, length=6, n_new=5):
    rng = np.random.default_rng(42)
    return [Request(i, rng.integers(0, CFG.vocab_size, size=length), n_new)
            for i in range(n)]


def reference(requests):
    """Each request's greedy tokens, generated alone on the reference
    model."""
    ref = ReferenceTransformer(WEIGHTS)
    return [ref.generate(r.prompt[None, :], r.max_new_tokens)[0]
            for r in requests]


REQUESTS = make_requests()
REFERENCE = reference(REQUESTS)

# The acceptance fault matrix: every scheduled single-chip fault the
# one-replica plane must absorb.  ``replans`` says whether recovery
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


def serve(requests, backend, fault_plan=None, policy=None):
    """Serve ``requests`` on a one-replica 2x2x2 plane."""
    plane = ClusterControlPlane(
        WEIGHTS, [(2, 2, 2)], backend=backend, policy=policy,
        fault_plans=None if fault_plan is None else {0: fault_plan})
    outcomes = plane.serve([ClusterSubmission(r) for r in requests])
    return plane, outcomes


def assert_matches(outcomes, reference):
    assert all(o.status is ClusterRequestStatus.COMPLETED for o in outcomes)
    for outcome, want in zip(outcomes, reference):
        np.testing.assert_array_equal(outcome.completion.tokens, want)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scenario", sorted(FAULT_MATRIX))
class TestFaultMatrix:
    def test_tokens_bit_identical_to_fault_free(self, backend, scenario):
        fault_plan, replans = FAULT_MATRIX[scenario]
        plane, outcomes = serve(REQUESTS, backend, fault_plan)

        assert_matches(outcomes, REFERENCE)
        assert all(o.failovers == 1 for o in outcomes)

        # The observable lifecycle, in order.
        log, replica = plane.journal, plane.replicas[0]
        if replans:
            log.assert_sequence(FAULT_INJECTED, FAULT_DETECTED, REPLANNED,
                                FAILOVER, REQUEST_COMPLETED)
            assert replica.mesh.num_chips == 4
        else:
            log.assert_sequence(FAULT_INJECTED, FAULT_DETECTED,
                                FAILOVER, REQUEST_COMPLETED)
            assert not log.of_kind(REPLANNED)  # transient: same mesh
            assert replica.mesh.num_chips == 8


@pytest.mark.parametrize("backend", BACKENDS)
class TestStragglerEviction:
    STRAGGLER = FaultPlan(faults=(
        StragglerFault(chip=(0, 0, 1), slowdown=50.0,
                       delay_s_per_op=1e-3, at_step=1, phase="decode"),))

    def test_no_deadline_means_no_eviction(self, backend):
        # Stragglers are pure latency.  The plane answers them by hedging
        # to a second replica; a one-replica plane has none, so it rides
        # them out on the full mesh and just finishes later.
        plane, outcomes = serve(REQUESTS, backend, self.STRAGGLER)

        assert_matches(outcomes, REFERENCE)
        assert plane.journal.of_kind(FAULT_INJECTED)
        assert plane.replicas[0].mesh.num_chips == 8
        assert not plane.journal.of_kind(REPLANNED)
        assert plane.hedges == 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestLifecyclePolicies:
    def test_retry_budget_exhaustion_fails_requests(self, backend):
        # A fresh one-shot timeout greets every attempt, so retries burn
        # out without the mesh ever shrinking.
        fault_plan = FaultPlan(faults=tuple(
            CollectiveFault(kind="timeout") for _ in range(8)))
        _, outcomes = serve(REQUESTS, backend, fault_plan,
                            policy=ClusterPolicy(max_retries=1))
        assert all(o.status is ClusterRequestStatus.FAILED
                   for o in outcomes)

    def test_fault_free_run_matches_reference(self, backend):
        _, outcomes = serve(REQUESTS, backend)
        assert_matches(outcomes, REFERENCE)
        assert all(o.failovers == 0 for o in outcomes)

    def test_odd_group_size_pads_decode_batch(self, backend):
        # 3 requests on an 8-chip batch-sharded decode plan only works
        # because the replica pads the merged batch; outputs must still
        # match the reference exactly.
        requests = make_requests(n=3)
        _, outcomes = serve(requests, backend)
        assert_matches(outcomes, reference(requests))
