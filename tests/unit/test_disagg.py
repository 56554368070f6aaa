"""Disaggregated prefill/decode serving: pools, KV handoff, autoscaler.

Covers the cross-pool handoff contract (typed events, A.1-priced
transfer, overlap scheduling), the degrade paths (no decode target,
migration refused, draining target, mid-handoff chip kill, a handoff
never landing on another prefill replica), the collapse-to-colocated
brownout rung, pool-aware scaling by the one autoscaler, and the
invariants everything in ``repro.cluster`` promises: bit-identical
completions, zero drops, capture programs surviving handoffs, and
seed determinism.
"""

import numpy as np
import pytest

from repro import events as ev
from repro.cluster.audit import audit_run
from repro.cluster.autoscaler import (
    BROWNOUT_LADDER,
    DISAGG_BROWNOUT_LADDER,
    Autoscaler,
    AutoscalerPolicy,
)
from repro.cluster.chaos import (
    CHAOS_CONFIG,
    NEW_TOKENS,
    PROMPT_LEN,
    SCENARIOS,
    reference_completions,
    run_scenario,
)
from repro.cluster.control_plane import (
    ClusterControlPlane,
    ClusterPolicy,
    ClusterRequestStatus,
    ClusterSubmission,
    FleetConfigError,
)
from repro.cluster.disagg import (
    LINK_ALPHA_S,
    LINK_BANDWIDTH,
    PoolPartition,
    PoolSpec,
    default_pools,
    handoff_transfer_s,
)
from repro.cluster.replica import ReplicaHealth
from repro.cluster.journal import Journal
from repro.mesh.faults import ChipKill, CollectiveFault, FaultPlan
from repro.model import init_weights
from repro.serving.engine import Request

WEIGHTS = init_weights(CHAOS_CONFIG, seed=0)
SHAPE = (2, 2, 2)


def make_submissions(n, *, prompt_len=PROMPT_LEN, spacing_s=0.01,
                     start_s=0.0, first_id=0, seed=0):
    rng = np.random.default_rng(seed)
    subs = []
    for i in range(n):
        prompt = rng.integers(0, CHAOS_CONFIG.vocab_size, size=prompt_len)
        subs.append(ClusterSubmission(
            Request(first_id + i, prompt, NEW_TOKENS),
            arrival_s=start_s + i * spacing_s))
    return subs


def make_plane(*, prefill=1, decode=1, policy=None, **kwargs):
    pools = default_pools([SHAPE] * prefill, [SHAPE] * decode)
    return ClusterControlPlane(WEIGHTS, pools=pools, decode_batch=4,
                               policy=policy, **kwargs)


def completed(outcomes):
    return [o for o in outcomes
            if o.status is ClusterRequestStatus.COMPLETED]


class TestHandoffTransfer:
    def test_a1_link_formula(self):
        assert handoff_transfer_s(1e9) == \
            pytest.approx(1e9 / LINK_BANDWIDTH + LINK_ALPHA_S)

    def test_alpha_floor_for_tiny_transfers(self):
        assert handoff_transfer_s(0) == pytest.approx(LINK_ALPHA_S)

    def test_monotone_in_bytes(self):
        assert handoff_transfer_s(2048) > handoff_transfer_s(1024)


class TestPoolSpec:
    def test_default_pools_pick_paper_profiles(self):
        prefill, decode = default_pools([SHAPE], [SHAPE, SHAPE])
        assert prefill.prefill_profile == "weight-stationary"
        assert decode.decode_profile == "weight-gathered"
        assert len(decode.shapes) == 2

    def test_rejects_unknown_pool_name(self):
        with pytest.raises(ValueError, match="pool name"):
            PoolSpec("both", (SHAPE,))

    def test_rejects_empty_shapes(self):
        with pytest.raises(ValueError, match="at least one"):
            PoolSpec("prefill", ())

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError, match="profile"):
            PoolSpec("decode", (SHAPE,), decode_profile="fastest")

    def test_plane_requires_both_pools(self):
        with pytest.raises(ValueError, match="exactly one"):
            ClusterControlPlane(WEIGHTS,
                                pools=[PoolSpec("prefill", (SHAPE,))])

    def test_pool_profiles_applied_at_construction(self):
        plane = make_plane()
        prefill, = plane.active_replicas(pool="prefill")
        decode, = plane.active_replicas(pool="decode")
        assert prefill.prefill_profile == "weight-stationary"
        assert decode.profile == "weight-gathered"


class TestHandoff:
    def test_routes_prefill_pool_to_decode_pool(self):
        plane = make_plane()
        outcomes = plane.serve(make_submissions(8))
        assert len(completed(outcomes)) == 8
        events = plane.events.of_kind("kv_handoff")
        assert len(events) == plane.kv_handoffs == 2
        for event in events:
            assert plane.pool_of[event["source"]] == "prefill"
            assert plane.pool_of[event["target"]] == "decode"

    def test_event_payload_prices_the_link(self):
        plane = make_plane()
        plane.serve(make_submissions(8))
        for event in plane.events.of_kind("kv_handoff"):
            assert event["bytes"] > 0
            assert event["transfer_s"] == pytest.approx(
                handoff_transfer_s(event["bytes"]))
            # Decode never starts before the transfer lands; anything
            # later is overlap with the target's committed work.
            assert event["decode_start_s"] >= \
                event.t_s + event["transfer_s"] - 1e-12
            assert event["overlapped_s"] >= 0.0

    def test_bit_identical_to_colocated_fleet(self):
        subs = make_submissions(12)
        plane = make_plane()
        outcomes = plane.serve([s for s in subs])
        colocated = ClusterControlPlane(WEIGHTS, [SHAPE, SHAPE],
                                        decode_batch=4)
        reference = {o.request_id: o
                     for o in colocated.serve([s for s in subs])}
        assert len(completed(outcomes)) == 12
        for outcome in completed(outcomes):
            ref = reference[outcome.request_id]
            assert np.array_equal(outcome.completion.tokens,
                                  ref.completion.tokens)

    def test_handoff_invalidates_no_decode_programs(self):
        plane = make_plane()
        plane.serve(make_submissions(12))
        decode, = plane.active_replicas(pool="decode")
        stats = decode.step_compiler.stats()
        assert stats["replays"] > 0
        assert stats["invalidations"] == 0

    def test_deterministic_across_reruns(self):
        def run():
            plane = make_plane()
            outcomes = plane.serve(make_submissions(8))
            tokens = [tuple(o.completion.tokens)
                      for o in completed(outcomes)]
            kinds = sorted(e.kind for e in plane.events.events)
            return tokens, kinds, plane.kv_handoffs

        assert run() == run()


class TestDegradePaths:
    def test_single_request_group_decodes_in_place(self):
        # A batch-1 group cannot enter the weight-gathered decode plan
        # (batch-group divisibility), so migration is refused and the
        # prefill replica decodes it — correctly.
        plane = make_plane()
        subs = make_submissions(1)
        outcomes = plane.serve(subs)
        assert len(completed(outcomes)) == 1
        assert plane.handoffs_colocated >= 1
        reference = reference_completions(subs, WEIGHTS)
        out = outcomes[0]
        assert np.array_equal(out.completion.tokens,
                              reference[out.request_id])

    def test_dead_decode_pool_falls_back_colocated(self):
        plane = make_plane()
        decode, = plane.active_replicas(pool="decode")
        decode.set_health(ReplicaHealth.DEAD, 0.0, "test")
        outcomes = plane.serve(make_submissions(8))
        assert len(completed(outcomes)) == 8
        assert plane.kv_handoffs == 0

    @pytest.mark.parametrize("lost", ["dead", "partitioned"])
    def test_handoff_never_lands_on_a_prefill_replica(self, lost):
        # Two prefill replicas and a lost decode pool: the handoff must
        # not pick the other prefill replica.  A dead decode pool means
        # every group decodes in place; a partitioned one means the
        # transaction waits out the window and commits on it.
        kwargs = {}
        if lost == "partitioned":
            kwargs = dict(
                partitions=(PoolPartition("decode", 0.0, 0.25),),
                policy=ClusterPolicy(handoff_retries=4,
                                     handoff_backoff_base_s=0.05))
        plane = make_plane(prefill=2, **kwargs)
        if lost == "dead":
            decode, = plane.active_replicas(pool="decode")
            decode.set_health(ReplicaHealth.DEAD, 0.0, "test")
        subs = make_submissions(8)
        outcomes = plane.serve(subs)
        assert len(completed(outcomes)) == 8
        for event in plane.events.of_kind("kv_handoff"):
            assert plane.pool_of[event["target"]] == "decode"
        if lost == "dead":
            assert plane.kv_handoffs == 0
            assert plane.handoffs_colocated == 2
        else:
            assert plane.kv_handoffs == 2
            assert plane.handoff_retries >= 1
            assert plane.handoff_aborts == 0
        reference = reference_completions(subs, WEIGHTS)
        for out in completed(outcomes):
            assert np.array_equal(out.completion.tokens,
                                  reference[out.request_id])

    def test_handoff_to_draining_decode_replica(self):
        # The only decode replica is being drained; in-flight handoffs
        # land on it anyway and every stream completes bit-identically.
        pools = default_pools([SHAPE], [SHAPE])
        plane = ClusterControlPlane(WEIGHTS, pools=pools, decode_batch=4,
                                    drains={"r1": 0.05})
        assert plane.pool_of["r1"] == "decode"
        subs = make_submissions(8)
        outcomes = plane.serve(subs)
        assert len(completed(outcomes)) == 8
        reference = reference_completions(subs, WEIGHTS)
        for out in completed(outcomes):
            assert np.array_equal(out.completion.tokens,
                                  reference[out.request_id])

    def test_long_prompt_spans_prefill_chunks(self):
        # Prompts longer than the default prefill chunk (4 tokens)
        # prefill in several captured chunks before the handoff.
        subs = make_submissions(4, prompt_len=13)
        plane = make_plane()
        outcomes = plane.serve(subs)
        assert len(completed(outcomes)) == 4
        assert plane.kv_handoffs >= 1
        reference = reference_completions(subs, WEIGHTS)
        for out in completed(outcomes):
            assert np.array_equal(out.completion.tokens,
                                  reference[out.request_id])


class TestMidHandoffKill:
    def test_handoff_commits_after_retry_on_degraded_source(self):
        # The transactional handoff absorbs the chip kill: staged pages
        # survive the source's replan onto its healthy sub-slice and the
        # retry commits -- no failover, no abort.  (The pre-transactional
        # one-shot path aborted here; see the zero-budget test below.)
        scenario = SCENARIOS["prefill-kill-mid-handoff"]
        plane = ClusterControlPlane(
            WEIGHTS, pools=scenario.pools, decode_batch=4,
            fault_plans=dict(scenario.fault_plans))
        subs = make_submissions(12, spacing_s=0.05)
        outcomes = plane.serve(subs)
        assert len(completed(outcomes)) == 12
        assert plane.handoff_retries >= 1
        assert plane.handoff_aborts == 0
        assert plane.failovers == 0
        assert plane.kv_handoffs >= 1
        commits = plane.journal.of_kind("kv_handoff")
        assert any(c["attempt"] > 1 for c in commits)

    def test_zero_retry_budget_reproduces_the_one_shot_abort(self):
        # With no retry budget the same fault aborts the handoff, and
        # the group takes the legacy failover re-prefill path instead.
        scenario = SCENARIOS["prefill-kill-mid-handoff"]
        plane = ClusterControlPlane(
            WEIGHTS, pools=scenario.pools, decode_batch=4,
            policy=ClusterPolicy(handoff_retries=0),
            fault_plans=dict(scenario.fault_plans))
        subs = make_submissions(12, spacing_s=0.05)
        outcomes = plane.serve(subs)
        assert len(completed(outcomes)) == 12
        assert plane.handoff_aborts >= 1
        assert plane.failovers >= 1
        abort, = plane.journal.of_kind("kv_handoff_aborted")
        assert abort["budget"] == 0

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_chaos_scenario_is_clean(self, seed):
        report = run_scenario("prefill-kill-mid-handoff", seed=seed)
        assert report.ok, report.violations
        assert report.handoff_retries >= 1
        assert report.handoff_aborts == 0
        assert report.kv_handoffs >= 1
        assert report.bit_identical
        assert report.replay_matches
        assert report.audit_certified


class TestHandoffDedup:
    def test_lost_ack_retransmit_is_deduped(self):
        # A handoff-phase CollectiveFault models a lost transfer ack:
        # the pages landed but the source never heard.  The retry
        # retransmits, the decode side drops the duplicate, and the
        # journal shows exactly one commit per group.
        plan = FaultPlan(faults=(CollectiveFault(
            kind="timeout", at_step=1, phase="handoff"),))
        plane = make_plane(fault_plans={0: plan})
        subs = make_submissions(8)
        outcomes = plane.serve(subs)
        assert len(completed(outcomes)) == 8
        assert plane.handoff_retries >= 1
        assert plane.handoff_dups_dropped >= 1
        commits = plane.journal.of_kind("kv_handoff")
        committed = [c["group"] for c in commits]
        assert len(committed) == len(set(committed))
        dup_groups = {d["group"] for d
                      in plane.journal.of_kind("kv_handoff_deduped")}
        assert dup_groups <= set(committed)
        reference = reference_completions(subs, WEIGHTS)
        for out in completed(outcomes):
            assert np.array_equal(out.completion.tokens,
                                  reference[out.request_id])


class TestHandoffAudit:
    """Exactly-once handoff is certified per group attempt: a failover
    re-prefills the group, and the new attempt hands off again."""

    @staticmethod
    def refailover_plane():
        # A decode replica loses a chip mid-decode: group 0 fails over,
        # re-prefills and hands its new caches off a second time.
        kill = ChipKill(chip=(0, 1, 0), at_step=1, phase="decode")
        plane = make_plane(prefill=1, decode=2,
                           fault_plans={1: FaultPlan(faults=(kill,))})
        subs = make_submissions(8)
        outcomes = plane.serve(subs)
        return plane, subs, outcomes

    def test_handoff_after_failover_is_certified(self):
        plane, subs, outcomes = self.refailover_plane()
        reference = reference_completions(subs, WEIGHTS)
        assert len(completed(outcomes)) == 8
        for out in outcomes:
            assert np.array_equal(out.completion.tokens,
                                  reference[out.request_id])
        group0 = [r.kind for r in plane.journal if r.get("group") == 0
                  and r.kind in (ev.KV_HANDOFF, ev.GROUP_FAULTED)]
        assert group0 == [ev.KV_HANDOFF, ev.GROUP_FAULTED, ev.KV_HANDOFF]
        report = audit_run(plane.journal, final_state=plane.control_state(),
                           reference=reference)
        assert report.certified, report.violations

    def test_two_commits_in_one_attempt_fail_the_audit(self):
        # The same journal without group 0's failover record: both
        # commits now fall in one attempt, a double delivery.
        plane, _, _ = self.refailover_plane()
        journal = Journal()
        journal.set_genesis(plane.journal.genesis)
        for r in plane.journal:
            if not (r.kind == ev.GROUP_FAULTED and r["group"] == 0):
                journal.record(r.kind, t_s=r.t_s, **r.data)
        report = audit_run(journal)
        assert not report.certified
        assert report.violations == [
            "group 0 committed a KV handoff twice in one attempt "
            "(pages delivered twice)"]

    def test_lost_ack_does_not_dedup_the_next_attempt(self):
        # Attempt 1 delivers its pages but loses the ack, and with no
        # retry budget aborts into a failover.  Attempt 2 re-prefills on
        # the other prefill replica and hands off new pages: that commit
        # is not a duplicate, and an abort in one attempt with a commit
        # in the next is certified.
        plan = FaultPlan(faults=(CollectiveFault(
            kind="timeout", at_step=1, phase="handoff"),))
        plane = make_plane(prefill=2,
                           policy=ClusterPolicy(handoff_retries=0),
                           fault_plans={0: plan})
        subs = make_submissions(4)
        outcomes = plane.serve(subs)
        assert len(completed(outcomes)) == 4
        kinds = [r.kind for r in plane.journal if r.kind in (
            ev.KV_HANDOFF_ABORTED, ev.GROUP_FAULTED, ev.KV_HANDOFF_DEDUPED,
            ev.KV_HANDOFF)]
        assert kinds == [ev.KV_HANDOFF_ABORTED, ev.GROUP_FAULTED,
                         ev.KV_HANDOFF]
        assert plane.handoff_dups_dropped == 0
        reference = reference_completions(subs, WEIGHTS)
        report = audit_run(plane.journal, final_state=plane.control_state(),
                           reference=reference)
        assert report.certified, report.violations


class TestPoolPartitionSpec:
    def test_validates_window_and_pool(self):
        with pytest.raises(ValueError, match="until_s"):
            PoolPartition("decode", 0.5, 0.2)
        with pytest.raises(ValueError, match="pool"):
            PoolPartition("gpu", 0.0, 1.0)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_partition_scenario_quarantines_then_commits(self, seed):
        report = run_scenario("pool-partition", seed=seed)
        assert report.ok, report.violations
        assert report.quarantines >= 1
        assert report.handoff_retries >= 1
        assert report.handoff_aborts == 0
        assert report.bit_identical
        assert report.audit_certified


class TestFleetValidation:
    def test_fleet_config_error_is_a_value_error(self):
        assert issubclass(FleetConfigError, ValueError)


class TestCollapseRestore:
    def test_collapse_suspends_handoffs_and_restore_resumes(self):
        plane = make_plane()
        assert plane.collapse_pools(0.0)
        assert not plane.collapse_pools(0.0)  # idempotent
        outcomes = plane.serve(make_submissions(8))
        assert len(completed(outcomes)) == 8
        assert plane.kv_handoffs == 0

        assert plane.restore_pools(plane.now_s)
        assert not plane.restore_pools(plane.now_s)
        more = make_submissions(8, start_s=plane.now_s + 0.01,
                                first_id=100)
        outcomes = plane.serve(more)
        assert len(completed(outcomes)) == 8
        assert plane.kv_handoffs > 0
        assert len(plane.events.of_kind("pools_collapsed")) == 1
        assert len(plane.events.of_kind("pools_restored")) == 1

    def test_handoff_racing_collapse_is_clean(self):
        # Collapse engaging between a group's admission and its prefill
        # must not strand the group: pools merge, the group decodes in
        # place, and streams stay bit-identical.
        subs = make_submissions(8)
        plane = make_plane()
        plane.collapse_pools(0.02)  # mid-arrival-window
        outcomes = plane.serve(subs)
        assert len(completed(outcomes)) == 8
        reference = reference_completions(subs, WEIGHTS)
        for out in completed(outcomes):
            assert np.array_equal(out.completion.tokens,
                                  reference[out.request_id])


class TestPooledAutoscaler:
    def test_ladder_has_collapse_rung_before_shed(self):
        # One Autoscaler class walks 5 rungs on a pooled plane and the
        # base 4 on a colocated one, then releases them all.
        ladder = DISAGG_BROWNOUT_LADDER
        assert ladder.index("collapse-pools") == len(ladder) - 2
        assert ladder[-1] == "shed-lowest"
        assert (len(ladder), len(BROWNOUT_LADDER)) == (5, 4)
        colocated = ClusterControlPlane(WEIGHTS, [SHAPE, SHAPE],
                                        decode_batch=4)
        for plane, rungs in ((make_plane(), ladder),
                             (colocated, BROWNOUT_LADDER)):
            scaler = Autoscaler(AutoscalerPolicy(max_replicas=2,
                                                 recover_after=1))
            assert scaler.ladder_for(plane) == rungs
            for tick in range(len(rungs) + 2):
                scaler._brownout_tick(plane, 0.1 * tick, 100.0)
            assert scaler.brownout_steps == list(rungs)
            assert plane.pools_collapsed == (rungs is ladder)
            for tick in range(len(rungs)):
                scaler._brownout_tick(plane, 1.0 + 0.1 * tick, 0.0)
            assert scaler.brownout_level == 0
            scaler.assert_reverted(plane)

    def test_scale_out_follows_the_token_mix(self):
        plane = make_plane()
        scaler = Autoscaler(AutoscalerPolicy(max_replicas=6))
        plane.prefill_tokens = 900
        plane.decode_tokens = 100
        scaler._scale_out(plane, 1.0, 2.0, False, 2)
        assert len(plane.active_replicas(pool="prefill")) == 2

        plane.decode_tokens += 1000
        scaler._scale_out(plane, 2.0, 2.0, False, 3)
        assert len(plane.active_replicas(pool="decode")) == 2
        decisions = plane.events.of_kind("autoscale_decision")
        assert [d["pool"] for d in decisions] == ["prefill", "decode"]

    def test_scale_out_without_evidence_grows_smaller_pool(self):
        pools = default_pools([SHAPE, SHAPE], [SHAPE])
        plane = ClusterControlPlane(WEIGHTS, pools=pools, decode_batch=4)
        scaler = Autoscaler(AutoscalerPolicy(max_replicas=6))
        scaler._scale_out(plane, 0.0, 1.0, False, 3)
        assert len(plane.active_replicas(pool="decode")) == 2

    def test_scale_in_respects_pool_floors(self):
        plane = make_plane()
        scaler = Autoscaler()
        assert not scaler._scale_in(plane, 0.0, 0.1, 2)
        assert not plane.retiring

    def test_scale_in_retires_from_larger_pool(self):
        pools = default_pools([SHAPE], [SHAPE])
        plane = ClusterControlPlane(WEIGHTS, pools=pools, decode_batch=4)
        added = plane.add_replica(SHAPE, 0.0, pool="decode")
        scaler = Autoscaler()
        assert scaler._scale_in(plane, 1.0, 0.1, 3)
        assert added.name in plane.retiring

    def test_scale_in_prefers_the_larger_eligible_pool(self):
        pools = default_pools([SHAPE] * 3, [SHAPE] * 2)
        plane = ClusterControlPlane(WEIGHTS, pools=pools, decode_batch=4)
        assert Autoscaler()._scale_in(plane, 1.0, 0.1, 5)
        assert plane.retiring == {"r2"}  # newest of the prefill pool

    def test_flash_crowd_collapse_engages_and_reverts(self):
        report = run_scenario("flash-crowd-disagg", seed=0)
        assert report.ok, report.violations
        assert "collapse-pools" in report.brownout_steps
        assert report.brownout_reverted
        assert report.kv_handoffs >= 1
