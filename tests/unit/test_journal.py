"""Write-ahead journal, deterministic replay, and the invariant auditor.

The journal (``repro.cluster.journal``) is the control plane's source
of truth for crash recovery: genesis snapshot + typed records must
replay to the live state bit-identically, a bounded journal must drop
records *loudly*, and the auditor (``repro.cluster.audit``) must refuse
anything it cannot fully verify.  Tests run at three levels: pure fold
units on hand-built journals, live cluster runs (crash recovery,
restart storm, overflow), and Hypothesis properties over snapshot
split points and sampled chaos scenarios.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.audit import audit_run, format_audit
from repro.cluster.chaos import (
    CHAOS_CONFIG,
    NEW_TOKENS,
    PROMPT_LEN,
    run_scenario,
)
from repro.cluster.control_plane import (
    ClusterControlPlane,
    ClusterSubmission,
    FleetConfigError,
    RestartSpec,
)
from repro.cluster.journal import (
    JOURNAL_KINDS,
    ControlPlaneState,
    Journal,
    JournalTruncated,
    replay_journal,
    token_crc,
)
from repro import events as ev
from repro.model import init_weights
from repro.serving.engine import Request

WEIGHTS = init_weights(CHAOS_CONFIG, seed=0)
SHAPE = (2, 2, 2)


def make_submissions(n, *, spacing_s=0.01, seed=0):
    rng = np.random.default_rng(seed)
    return [ClusterSubmission(
        Request(i, rng.integers(0, CHAOS_CONFIG.vocab_size,
                                size=PROMPT_LEN), NEW_TOKENS),
        arrival_s=i * spacing_s) for i in range(n)]


class TestTokenCrc:
    def test_deterministic(self):
        tokens = np.array([1, 2, 3, 4], dtype=np.int64)
        assert token_crc(tokens) == token_crc(tokens.copy())

    def test_sensitive_to_content(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array([1, 2, 4], dtype=np.int64)
        assert token_crc(a) != token_crc(b)

    def test_prefix_differs_from_whole(self):
        t = np.arange(8, dtype=np.int64)
        assert token_crc(t[:4]) != token_crc(t)


class TestJournalBasics:
    def test_seqs_are_monotonic_from_zero(self):
        j = Journal()
        recs = [j.record(ev.REQUEST_ADMITTED, t_s=0.0, request_id=i)
                for i in range(5)]
        assert [r.seq for r in recs] == [0, 1, 2, 3, 4]
        assert j.next_seq == 5
        assert len(j) == 5

    def test_of_kind_filters(self):
        j = Journal()
        j.record(ev.REQUEST_ADMITTED, t_s=0.0, request_id=0)
        j.record(ev.ADMISSION_REJECTED, t_s=0.0, request_id=1,
                 error="QueueFull")
        j.record(ev.REQUEST_ADMITTED, t_s=0.1, request_id=2)
        assert [r["request_id"]
                for r in j.of_kind(ev.REQUEST_ADMITTED)] == [0, 2]

    def test_genesis_first_call_wins(self):
        j = Journal()
        first = ControlPlaneState(replicas=("r0",))
        j.set_genesis(first)
        j.set_genesis(ControlPlaneState(replicas=("zz",)))
        assert j.genesis is first

    def test_rejects_silly_bound(self):
        with pytest.raises(ValueError, match="max_records"):
            Journal(max_records=0)


class TestReplayFolds:
    def test_admit_reject_complete_fail(self):
        j = Journal()
        j.record(ev.REQUEST_ADMITTED, t_s=0.0, request_id=0)
        j.record(ev.REQUEST_ADMITTED, t_s=0.0, request_id=1)
        j.record(ev.ADMISSION_REJECTED, t_s=0.0, request_id=2,
                 error="QueueFull")
        j.record(ev.GROUP_STARTED, t_s=0.1, group=0, requests=[0, 1])
        j.record(ev.REQUEST_COMPLETED, t_s=0.2, group=0, replica="r0",
                 request_id=0, crc=123, stream_len=12, output_capped=False)
        j.record(ev.REQUEST_FAILED, t_s=0.2, group=0, request_id=1,
                 error="MeshFault")
        state = replay_journal(j)
        assert state.admitted == (0, 1)
        assert state.rejected == ((2, "QueueFull"),)
        assert state.completed == ((0, 123, 12, False),)
        assert state.failed == ((1, "MeshFault"),)
        assert state.group_counter == 1
        assert state.journal_seq == j.next_seq

    def test_levers_and_quarantine(self):
        j = Journal()
        j.record(ev.LEVER_CHANGED, t_s=0.0, lever="hedging", value=False)
        j.record(ev.LEVER_CHANGED, t_s=0.0, lever="output_cap",
                 priority_class="bulk", cap=3)
        j.record(ev.LEVER_CHANGED, t_s=0.1, lever="output_cap",
                 priority_class="bulk", cap=None)
        j.record(ev.LEVER_CHANGED, t_s=0.1, lever="target_profile",
                 value="latency")
        j.record(ev.POOL_QUARANTINED, t_s=0.2, pool="decode",
                 replicas=["r1"])
        j.record(ev.ADMISSION_LIMITS_CHANGED, t_s=0.2,
                 priority_class="bulk", accept=False)
        state = replay_journal(j)
        assert state.hedging_enabled is False
        assert state.output_caps == ()
        assert state.target_profile == "latency"
        assert state.quarantined == ("r1",)
        assert state.shed_classes == ("bulk",)
        j.record(ev.POOL_REJOINED, t_s=0.3, pool="decode", replicas=["r1"])
        j.record(ev.ADMISSION_LIMITS_CHANGED, t_s=0.3,
                 priority_class="bulk", accept=True)
        state = replay_journal(j)
        assert state.quarantined == ()
        assert state.shed_classes == ()

    def test_starts_from_genesis(self):
        j = Journal()
        j.set_genesis(ControlPlaneState(
            journal_seq=0, replicas=("r0",), pools=(("r0", "prefill"),)))
        j.record(ev.REPLICA_ADDED, t_s=0.5, replica="r1", shape=SHAPE,
                 pool="decode")
        state = replay_journal(j)
        assert state.replicas == ("r0", "r1")
        assert dict(state.pools) == {"r0": "prefill", "r1": "decode"}

    def test_unknown_kind_is_a_hard_error(self):
        j = Journal()
        j.record("warp_core_breach", t_s=0.0)
        with pytest.raises(ValueError, match="warp_core_breach"):
            replay_journal(j)

    def test_every_kind_has_a_fold_rule(self):
        # Every kind defined in repro.events has a replay rule, except
        # the two only the single-mesh server records.
        single_mesh = {ev.REQUEST_RETRIED, ev.REQUEST_SHED}
        kinds = {value for name, value in vars(ev).items()
                 if name.isupper() and isinstance(value, str)}
        assert kinds - single_mesh == set(JOURNAL_KINDS)


class TestTruncation:
    def _filled(self, n=10, cap=4):
        j = Journal(max_records=cap)
        for i in range(n):
            j.record(ev.REQUEST_ADMITTED, t_s=float(i), request_id=i)
        return j

    def test_ring_drops_oldest_loudly(self):
        # 10 admits into a ring of 4: the first drop (at the 5th admit)
        # appends one typed notice, seq 5, which is itself a record.
        j = self._filled()
        assert j.next_seq == 11
        assert j.truncated == 7
        assert [r.seq for r in j] == [7, 8, 9, 10]

    def test_truncation_notice_is_typed_once(self):
        j = self._filled(cap=8)
        (notice,) = j.of_kind(ev.JOURNAL_TRUNCATED)  # once, not per drop
        assert notice.seq == 9 and notice.t_s == 8.0
        assert notice["max_records"] == 8
        assert notice["first_dropped_seq"] == 0
        assert j.truncated == 3

    def test_replay_without_covering_snapshot_raises(self):
        j = self._filled()
        with pytest.raises(JournalTruncated, match="dropped"):
            replay_journal(j)

    def test_replay_from_covering_snapshot_succeeds(self):
        bounded = self._filled()
        # The stream the ring saw, unbounded: admits 0-4, the notice,
        # admits 5-9.
        full = Journal()
        for i in range(10):
            full.record(ev.REQUEST_ADMITTED, t_s=float(i), request_id=i)
            if i == 4:
                full.record(ev.JOURNAL_TRUNCATED, t_s=4.0)
        want = replay_journal(full)

        snap_src = Journal()
        for r in full.events[:7]:
            snap_src.record(r.kind, t_s=r.t_s, **r.data)
        snapshot = replay_journal(snap_src)
        assert snapshot.journal_seq == 7
        assert replay_journal(bounded, snapshot=snapshot) == want

    def test_auditor_refuses_a_truncated_journal(self):
        j = self._filled()
        report = audit_run(j)
        assert not report.certified
        assert any("truncated" in v for v in report.violations)


class TestAuditUnit:
    def test_clean_journal_certifies(self):
        j = Journal()
        j.record(ev.REQUEST_ADMITTED, t_s=0.0, request_id=0)
        j.record(ev.GROUP_STARTED, t_s=0.0, group=0, requests=[0])
        j.record(ev.REQUEST_COMPLETED, t_s=0.1, group=0, replica="r0",
                 request_id=0, crc=99, stream_len=12, output_capped=False)
        report = audit_run(j)
        assert report.certified, report.violations
        assert "CERTIFIED" in format_audit(report)

    def test_admitted_without_terminal_state(self):
        j = Journal()
        j.record(ev.REQUEST_ADMITTED, t_s=0.0, request_id=0)
        report = audit_run(j)
        assert any("never reached a terminal state" in v
                   for v in report.violations)

    def test_double_completion_detected_from_raw_records(self):
        # The folded `completed` set dedupes by request id; the auditor
        # must scan the raw records to catch a request delivered twice.
        j = Journal()
        j.record(ev.REQUEST_ADMITTED, t_s=0.0, request_id=0)
        for _ in range(2):
            j.record(ev.REQUEST_COMPLETED, t_s=0.1, group=0, replica="r0",
                     request_id=0, crc=99, stream_len=12,
                     output_capped=False)
        report = audit_run(j)
        assert any("completed 2 times" in v for v in report.violations)

    def test_commit_without_prepare(self):
        j = Journal()
        j.record(ev.KV_HANDOFF, t_s=0.1, group=0, source="r0",
                 target="r1", attempt=1)
        report = audit_run(j)
        assert any("without a prepare" in v for v in report.violations)

    def test_double_commit_is_a_double_delivery(self):
        j = Journal()
        j.record(ev.KV_HANDOFF_PREPARED, t_s=0.0, group=0, source="r0",
                 bytes=64)
        for attempt in (1, 2):
            j.record(ev.KV_HANDOFF, t_s=0.1, group=0, source="r0",
                     target="r1", attempt=attempt)
        report = audit_run(j)
        assert any("delivered twice" in v for v in report.violations)

    def test_abort_before_budget_exhausted(self):
        j = Journal()
        j.record(ev.KV_HANDOFF_PREPARED, t_s=0.0, group=0, source="r0",
                 bytes=64)
        j.record(ev.KV_HANDOFF_RETRIED, t_s=0.1, group=0, attempt=1,
                 reason="ack-lost", backoff_s=0.01)
        j.record(ev.KV_HANDOFF_ABORTED, t_s=0.2, group=0,
                 reason="ack-lost", budget=3)
        report = audit_run(j)
        assert any("only 1 of 3 budgeted retries" in v
                   for v in report.violations)

    def test_abort_after_budget_is_legal(self):
        j = Journal()
        j.record(ev.REQUEST_ADMITTED, t_s=0.0, request_id=0)
        j.record(ev.KV_HANDOFF_PREPARED, t_s=0.0, group=0, source="r0",
                 bytes=64)
        j.record(ev.KV_HANDOFF_RETRIED, t_s=0.1, group=0, attempt=1,
                 reason="ack-lost", backoff_s=0.01)
        j.record(ev.KV_HANDOFF_ABORTED, t_s=0.2, group=0,
                 reason="ack-lost", budget=1)
        j.record(ev.REQUEST_FAILED, t_s=0.2, group=0, request_id=0,
                 error="HandoffAborted")
        report = audit_run(j)
        assert report.certified, report.violations

    def test_token_crc_checked_against_oracle(self):
        tokens = np.arange(12, dtype=np.int64)
        j = Journal()
        j.record(ev.REQUEST_ADMITTED, t_s=0.0, request_id=0)
        j.record(ev.REQUEST_COMPLETED, t_s=0.1, group=0, replica="r0",
                 request_id=0, crc=token_crc(tokens), stream_len=12,
                 output_capped=False)
        good = audit_run(j, reference={0: tokens})
        assert good.certified, good.violations
        bad = audit_run(j, reference={0: tokens + 1})
        assert any("diverged from the fault-free oracle" in v
                   for v in bad.violations)

    def test_capped_stream_checked_against_prefix(self):
        tokens = np.arange(12, dtype=np.int64)
        j = Journal()
        j.record(ev.REQUEST_ADMITTED, t_s=0.0, request_id=0)
        j.record(ev.REQUEST_COMPLETED, t_s=0.1, group=0, replica="r0",
                 request_id=0, crc=token_crc(tokens[:9]), stream_len=9,
                 output_capped=True)
        report = audit_run(j, reference={0: tokens})
        assert report.certified, report.violations

    def test_replay_mismatch_against_final_state(self):
        j = Journal()
        j.record(ev.REQUEST_ADMITTED, t_s=0.0, request_id=0)
        j.record(ev.REQUEST_COMPLETED, t_s=0.1, group=0, replica="r0",
                 request_id=0, crc=99, stream_len=12, output_capped=False)
        lying = ControlPlaneState(journal_seq=j.next_seq,
                                  admitted=(0, 1))
        report = audit_run(j, final_state=lying)
        assert any(v.startswith("replay mismatch") for v
                   in report.violations)


@lru_cache(maxsize=None)
def _drain_run():
    """One live colocated run with a mid-flight drain, memoized."""
    plane = ClusterControlPlane(WEIGHTS, [SHAPE, SHAPE], decode_batch=4,
                                drains={"r0": 0.02})
    plane.serve(make_submissions(8))
    return plane


class TestLiveJournal:
    def test_replay_reconstructs_live_state(self):
        plane = _drain_run()
        assert replay_journal(plane.journal) == plane.control_state()

    def test_live_run_audits_clean(self):
        plane = _drain_run()
        report = audit_run(plane.journal,
                           final_state=plane.control_state())
        assert report.certified, report.violations

    def test_bounded_journal_is_loud_and_uncertifiable(self):
        unbounded = ClusterControlPlane(WEIGHTS, [SHAPE, SHAPE],
                                        decode_batch=4)
        unbounded.serve(make_submissions(12))
        plane = ClusterControlPlane(
            WEIGHTS, [SHAPE, SHAPE], decode_batch=4,
            journal=Journal(max_records=6))
        plane.serve(make_submissions(12))
        assert plane.journal.truncated > 0
        # The same run wrote exactly one record more than unbounded: the
        # typed truncation notice, once (not per drop).
        assert plane.journal.next_seq == unbounded.journal.next_seq + 1
        with pytest.raises(JournalTruncated):
            replay_journal(plane.journal)
        report = audit_run(plane.journal)
        assert not report.certified
        assert any("truncated" in v for v in report.violations)

    def test_crash_recovery_scenario(self):
        report = run_scenario("control-plane-crash-mid-drain", seed=0)
        assert report.ok, report.violations
        assert report.recoveries == 1
        assert report.replay_matches
        assert report.audit_certified

    def test_restart_storm_scenario(self):
        report = run_scenario("restart-storm", seed=0)
        assert report.ok, report.violations
        assert report.restarts == 3
        assert report.failovers >= 1
        assert report.audit_certified

    @given(split=st.integers(min_value=0, max_value=200))
    @settings(max_examples=12, deadline=None)
    def test_snapshot_at_any_split_point_replays_identically(self, split):
        # Property: a snapshot folded from any journal prefix, plus the
        # suffix, reconstructs the same final state as a full replay.
        plane = _drain_run()
        full = plane.journal
        k = split % (len(full) + 1)
        prefix = Journal()
        if full.genesis is not None:
            prefix.set_genesis(full.genesis)
        for r in full.events[:k]:
            prefix.record(r.kind, t_s=r.t_s, **r.data)
        snapshot = replay_journal(prefix)
        assert snapshot.journal_seq == k
        assert replay_journal(full, snapshot=snapshot) \
            == plane.control_state()

    @given(name=st.sampled_from(["planned-drain", "rolling-kill"]),
           backend=st.sampled_from(["loop", "stacked"]),
           seed=st.integers(min_value=0, max_value=5))
    @settings(max_examples=8, deadline=None)
    def test_sampled_scenarios_replay_and_certify(self, name, backend,
                                                  seed):
        report = run_scenario(name, backend=backend, seed=seed)
        assert report.replay_matches
        assert report.audit_certified, report.audit_violations


class TestFleetValidation:
    def test_restart_for_unknown_replica_rejected(self):
        with pytest.raises(FleetConfigError, match="unknown"):
            ClusterControlPlane(WEIGHTS, [SHAPE],
                                restarts={"zz": RestartSpec(at_s=0.1)})

    def test_restart_spec_validates(self):
        with pytest.raises(ValueError):
            RestartSpec(at_s=-1.0)
        with pytest.raises(ValueError):
            RestartSpec(at_s=0.1, mode="tepid")
