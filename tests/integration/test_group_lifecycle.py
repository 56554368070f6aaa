"""Every branch of a dispatch group's lifecycle, pinned one test each.

The chaos scenarios exercise the common paths of
:class:`~repro.cluster.ClusterControlPlane` — prefill, handoff, decode,
failover, drain by cache migration.  The branches below are the rare
ones they never reach: a hedge that wins or faults or finds no backup,
a drain that falls back to re-prefill or is aborted, a failover with
nowhere to go, and a handoff whose target is quarantined between two
retries.  Each test builds the smallest fleet that takes the branch and
checks three things: completed tokens equal the fault-free reference,
the auditor certifies the journal (page leases balance, every request
reaches one terminal state), and the lifecycle records appear in the
expected order.

The last test pins the property concurrent replicas rely on: a
:class:`~repro.cluster.control_plane.GroupTask` carries its whole
lifecycle, so two tasks advanced in alternation each behave exactly as
if they ran alone.
"""

import numpy as np

from repro import events as ev
from repro.cluster.audit import audit_run
from repro.cluster.chaos import (
    CHAOS_CONFIG,
    NEW_TOKENS,
    PROMPT_LEN,
    reference_completions,
)
from repro.cluster.control_plane import (
    ClusterControlPlane,
    ClusterPolicy,
    ClusterRequestStatus,
    ClusterSubmission,
)
from repro.cluster.disagg import PoolPartition, default_pools
from repro.mesh.faults import CollectiveFault, FaultPlan, StragglerFault
from repro.model import init_weights
from repro.serving.engine import Request

WEIGHTS = init_weights(CHAOS_CONFIG, seed=0)
SHAPE = (2, 2, 2)

#: The records that trace a group's path through its lifecycle.
LIFECYCLE = (ev.GROUP_STARTED, ev.HEDGE, ev.FAULT_DETECTED,
             ev.GROUP_FAULTED, ev.FAILOVER, ev.REPLICA_DRAINED,
             ev.KV_HANDOFF_PREPARED, ev.KV_HANDOFF_RETRIED,
             ev.KV_HANDOFF_COLOCATED, ev.KV_HANDOFF_DEDUPED, ev.KV_HANDOFF,
             ev.POOL_QUARANTINED, ev.POOL_REJOINED,
             ev.REQUEST_COMPLETED, ev.REQUEST_FAILED)


def submissions(n, *, start_s=0.0, first_id=0, seed=0,
                new_tokens=NEW_TOKENS, shared_prefix=0):
    rng = np.random.default_rng(seed)
    prefix = rng.integers(0, CHAOS_CONFIG.vocab_size, size=shared_prefix)
    return [ClusterSubmission(
        Request(first_id + i, np.concatenate([prefix, rng.integers(
            0, CHAOS_CONFIG.vocab_size, size=PROMPT_LEN - shared_prefix)]),
            new_tokens),
        arrival_s=start_s + i * 0.01) for i in range(n)]


def straggler(at_step=1):
    return StragglerFault(chip=(0, 0, 1), slowdown=4.0,
                          delay_s_per_op=2e-3, at_step=at_step,
                          phase="decode")


def timeout(phase, at_step=1):
    return CollectiveFault(kind="timeout", at_step=at_step, phase=phase)


def serve_and_check(plane, subs):
    """Serve, then check tokens, the audit and lease balance; returns
    the outcomes and the lifecycle record kinds in journal order."""
    outcomes = plane.serve(subs)
    reference = reference_completions(subs, WEIGHTS)
    for out in outcomes:
        if out.status is ClusterRequestStatus.COMPLETED:
            assert np.array_equal(out.completion.tokens,
                                  reference[out.request_id])
    audit = audit_run(plane.journal, final_state=plane.control_state(),
                      reference=reference)
    assert audit.certified, audit.violations
    assert plane.kv_page_leases == plane.kv_page_releases
    assert plane.kv_pages_leased == plane.kv_pages_released
    kinds = [r.kind for r in plane.journal if r.kind in LIFECYCLE]
    return outcomes, kinds


def completed_on(outcomes):
    assert all(o.status is ClusterRequestStatus.COMPLETED for o in outcomes)
    return {o.replica for o in outcomes}


class TestHedge:
    def test_hedge_wins_the_race(self):
        # r0 straggles from its first decode step; after two slow steps
        # the group is hedged to the clean r1, which finishes first.
        plane = ClusterControlPlane(
            WEIGHTS, [SHAPE, SHAPE], decode_batch=4,
            fault_plans={0: FaultPlan(faults=(straggler(),))})
        outcomes, kinds = serve_and_check(plane, submissions(4))
        assert kinds == [ev.GROUP_STARTED, ev.HEDGE] \
            + [ev.REQUEST_COMPLETED] * 4
        assert completed_on(outcomes) == {"r1"}
        assert all(o.hedged for o in outcomes)
        assert plane.hedges == 1

    def test_hedge_that_faults_is_abandoned(self):
        # The backup r1 times out on its first decode step: the hedge
        # is dropped and the straggling original finishes on r0.
        plane = ClusterControlPlane(
            WEIGHTS, [SHAPE, SHAPE], decode_batch=4,
            fault_plans={0: FaultPlan(faults=(straggler(),)),
                         1: FaultPlan(faults=(timeout("decode"),))})
        outcomes, kinds = serve_and_check(plane, submissions(4))
        assert kinds == [ev.GROUP_STARTED, ev.HEDGE, ev.FAULT_DETECTED] \
            + [ev.REQUEST_COMPLETED] * 4
        assert completed_on(outcomes) == {"r0"}
        assert all(o.hedged for o in outcomes)
        fault, = plane.journal.of_kind(ev.FAULT_DETECTED)
        assert fault["replica"] == "r1"

    def test_hedge_without_a_backup_replica(self):
        # Pooled fleet: the decode replica r1 times out, its breaker
        # opens (threshold 1) and the group re-prefills on r0, where it
        # decodes in place and straggles.  The hedge check fires but the
        # decode pool has no replica whose breaker admits traffic, so no
        # hedge is dispatched.
        plane = ClusterControlPlane(
            WEIGHTS, pools=default_pools([SHAPE], [SHAPE]), decode_batch=4,
            policy=ClusterPolicy(breaker_failures=1,
                                 breaker_cooldown_s=100.0),
            fault_plans={0: FaultPlan(faults=(straggler(),)),
                         1: FaultPlan(faults=(timeout("decode"),))})
        outcomes, kinds = serve_and_check(plane, submissions(4))
        assert kinds == [
            ev.GROUP_STARTED, ev.KV_HANDOFF_PREPARED, ev.KV_HANDOFF,
            ev.FAULT_DETECTED, ev.GROUP_FAULTED, ev.FAILOVER,
            ev.KV_HANDOFF_PREPARED, ev.KV_HANDOFF_COLOCATED,
        ] + [ev.REQUEST_COMPLETED] * 4
        assert completed_on(outcomes) == {"r0"}
        assert all(o.hedged and o.failovers == 1 for o in outcomes)
        assert plane.hedges == 0


class TestDrain:
    def test_drain_falls_back_to_re_prefill(self):
        # The only drain target decodes on the weight-gathered plan,
        # which cannot host a batch-1 group: the KV caches cannot
        # migrate, so the group re-prefills on the target.
        plane = ClusterControlPlane(WEIGHTS, [SHAPE, SHAPE], decode_batch=4,
                                    drains={"r0": 0.02})
        assert plane.replicas[1].switch_profile("weight-gathered", 0.0)
        outcomes, kinds = serve_and_check(plane, submissions(1))
        assert kinds == [ev.GROUP_STARTED, ev.FAULT_DETECTED,
                         ev.REPLICA_DRAINED, ev.REQUEST_COMPLETED]
        drained, = plane.journal.of_kind(ev.REPLICA_DRAINED)
        assert drained["mode"] == "re-prefill"
        fault, = plane.journal.of_kind(ev.FAULT_DETECTED)
        assert fault["error"] == "CacheMigrationFailed"
        assert completed_on(outcomes) == {"r1"}

    def test_drain_without_a_target_is_aborted(self):
        # A one-replica fleet has nowhere to drain to: the drain is
        # cancelled and the group keeps decoding where it is.
        plane = ClusterControlPlane(WEIGHTS, [SHAPE], decode_batch=4,
                                    drains={"r0": 0.06})
        outcomes, kinds = serve_and_check(plane, submissions(4))
        assert kinds == [ev.GROUP_STARTED, ev.REPLICA_DRAINED] \
            + [ev.REQUEST_COMPLETED] * 4
        drained, = plane.journal.of_kind(ev.REPLICA_DRAINED)
        assert drained["mode"] == "aborted"
        assert completed_on(outcomes) == {"r0"}
        assert plane.replicas[0].dispatchable


class TestFailover:
    def test_failover_without_a_healthy_replica_fails_the_group(self):
        # One replica, breaker threshold 1: the timeout opens the only
        # breaker, so the failover has no target and the group FAILS.
        # Later groups arrive after the cooldown and complete.
        plane = ClusterControlPlane(
            WEIGHTS, [SHAPE], decode_batch=4,
            policy=ClusterPolicy(breaker_failures=1),
            fault_plans={0: FaultPlan(faults=(timeout("decode", 2),))})
        subs = (submissions(4) + submissions(4, start_s=5.0, first_id=4,
                                             seed=1)
                + submissions(1, start_s=10.0, first_id=8, seed=2))
        outcomes, kinds = serve_and_check(plane, subs)
        assert kinds == [ev.GROUP_STARTED, ev.FAULT_DETECTED,
                         ev.GROUP_FAULTED] + [ev.REQUEST_FAILED] * 4 \
            + [ev.GROUP_STARTED] + [ev.REQUEST_COMPLETED] * 4 \
            + [ev.GROUP_STARTED, ev.REQUEST_COMPLETED]
        assert [o.status for o in outcomes[:4]] == \
            [ClusterRequestStatus.FAILED] * 4
        assert {o.rejection for o in outcomes[:4]} == {"NoHealthyReplica"}
        assert completed_on(outcomes[4:]) == {"r0"}


class TestHandoffQuarantine:
    def test_target_quarantined_mid_backoff(self):
        # The first commit loses its ack; during the backoff the decode
        # pool is partitioned, so the staged target is dropped and the
        # transaction waits out the window, then commits to the healed
        # target (deduping the pages the lost-ack attempt delivered).
        plane = ClusterControlPlane(
            WEIGHTS, pools=default_pools([SHAPE], [SHAPE]), decode_batch=4,
            partitions=(PoolPartition("decode", 0.12, 0.3),),
            policy=ClusterPolicy(handoff_retries=4,
                                 handoff_backoff_base_s=0.05),
            fault_plans={0: FaultPlan(faults=(timeout("handoff"),))})
        outcomes, kinds = serve_and_check(plane, submissions(4))
        assert kinds == [
            ev.GROUP_STARTED, ev.KV_HANDOFF_PREPARED, ev.KV_HANDOFF_RETRIED,
            ev.POOL_QUARANTINED, ev.KV_HANDOFF_RETRIED,
            ev.KV_HANDOFF_RETRIED, ev.POOL_REJOINED, ev.KV_HANDOFF_DEDUPED,
            ev.KV_HANDOFF,
        ] + [ev.REQUEST_COMPLETED] * 4
        reasons = [r["reason"] for r
                   in plane.journal.of_kind(ev.KV_HANDOFF_RETRIED)]
        assert reasons == ["ack-lost", "decode-pool-partitioned",
                           "decode-pool-partitioned"]
        assert completed_on(outcomes) == {"r1"}


class TestAlternation:
    # Group A shares a one-page prompt prefix (its later prefills hit
    # the first one's pages, so leases are journaled and released);
    # group B decodes more tokens, so the two finish at different steps.
    A = submissions(4, shared_prefix=4)
    B = submissions(2, first_id=4, seed=3, new_tokens=9)

    @staticmethod
    def own_records(plane, task):
        """The task's journal records, without the group id."""
        return [(r.kind, r.t_s, {k: v for k, v in r.data.items()
                                 if k != "group"})
                for r in plane.journal if r.get("group") == task.gid]

    @staticmethod
    def start(plane, subs, outcomes, *, r0_taken=False):
        if r0_taken:
            # As a dispatcher that reserves a replica would: the next
            # group goes to r1.
            plane.replicas[0].busy_until_s = 1e-9
        return plane._start_group(subs, outcomes)

    def alone(self, subs, **kwargs):
        plane = ClusterControlPlane(WEIGHTS, [SHAPE, SHAPE], decode_batch=4)
        outcomes = {}
        task = self.start(plane, subs, outcomes, **kwargs)
        while not task.done:
            plane._advance(task)
        return outcomes, self.own_records(plane, task)

    def test_alternating_tasks_match_running_alone(self):
        plane = ClusterControlPlane(WEIGHTS, [SHAPE, SHAPE], decode_batch=4)
        outcomes = {}
        a = self.start(plane, self.A, outcomes)
        b = self.start(plane, self.B, outcomes, r0_taken=True)
        assert (a.run.replica.name, b.run.replica.name) == ("r0", "r1")
        steps = 0
        while not (a.done and b.done):
            for task in (a, b):
                if not task.done:
                    plane._advance(task)
                    steps += 1
        # Each task: one prefill, one transition per decode step, finish.
        assert steps == (1 + 5 + 1) + (1 + 8 + 1)
        alone_a, records_a = self.alone(self.A)
        alone_b, records_b = self.alone(self.B, r0_taken=True)
        assert self.own_records(plane, a) == records_a
        assert self.own_records(plane, b) == records_b
        assert any(kind == ev.PAGE_LEASED for kind, _, _ in records_a)
        reference = reference_completions(self.A + self.B, WEIGHTS)
        for rid, outcome in outcomes.items():
            alone = (alone_a if rid in alone_a else alone_b)[rid]
            assert np.array_equal(outcome.completion.tokens,
                                  alone.completion.tokens)
            assert np.array_equal(outcome.completion.tokens, reference[rid])
            assert outcome.finish_s == alone.finish_s
        assert sorted(outcomes) == list(range(6))
