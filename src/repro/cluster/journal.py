"""Write-ahead journal of control-plane transitions, with replay.

The control plane's state — which requests were admitted, which groups
dispatched, which drains are pending, which brownout levers are pulled —
lives only in memory; this module makes it *recoverable*, and makes it
the one record of what the fleet did.  A :class:`Journal` is an
:class:`~repro.events.EventLog` with one record type
(:class:`~repro.events.Event`, stamped on the plane's virtual clock):
every transition — admissions, dispatch, failovers, handoffs, breaker
flips, health changes, autoscaling — is appended to it exactly once.
``plane.events`` is an alias of the journal, and trace marks are derived
from it (:func:`repro.observability.spans.record_marks`).

:func:`replay_journal` folds the records (from a
:class:`ControlPlaneState` snapshot) back into the exact state the live
run reached — bit-identically, asserted by the chaos harness on every
scenario.  A control-plane crash mid-drain or mid-handoff therefore
recovers by replay instead of losing the fleet
(:meth:`~repro.cluster.control_plane.ClusterControlPlane` checks the
reconstruction against its live state and rebuilds its dispatch
bookkeeping from the replayed snapshot).

A bounded journal is **loud**: the first dropped record appends a typed
:data:`~repro.events.JOURNAL_TRUNCATED` record, :func:`replay_journal`
raises :class:`JournalTruncated` when the retained suffix no longer
covers the snapshot's watermark, and the auditor
(:mod:`repro.cluster.audit`) refuses to certify a truncated journal
outright.

Record kinds and their replay semantics are defined in one place
(:data:`_FOLDERS`), so a new transition cannot be journaled without
deciding how it replays — kinds that change no control-plane state
(health flips, breaker transitions, autoscale decisions, ...) carry an
explicit no-op rule.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import events as ev
from repro.events import Event, EventLog


def token_crc(tokens) -> int:
    """Order-sensitive fingerprint of one completed token stream.

    ``crc32`` over the raw bytes — cheap enough to journal per request,
    strong enough that the auditor's bit-identity check against the
    fault-free oracle cannot pass by accident.
    """
    return zlib.crc32(np.ascontiguousarray(tokens).tobytes())


class JournalTruncated(RuntimeError):
    """Replay (or audit) needs records the bounded journal dropped."""


class JournalReplayMismatch(RuntimeError):
    """Replaying the journal did not reconstruct the live state."""


@dataclass(frozen=True)
class ControlPlaneState:
    """Canonical, comparable snapshot of the control plane's state.

    Everything here is reconstructible by folding journal records from
    a prior snapshot — the definition of "the journal is complete".
    Collections are sorted tuples so two snapshots compare by ``==``
    regardless of the order transitions happened to interleave.
    ``journal_seq`` is the replay watermark: the sequence number of the
    next record this snapshot has *not* absorbed.
    """

    journal_seq: int = 0
    replicas: tuple[str, ...] = ()
    pools: tuple[tuple[str, str], ...] = ()
    retiring: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()
    pending_drains: tuple[tuple[str, float], ...] = ()
    group_counter: int = 0
    admitted: tuple[int, ...] = ()
    rejected: tuple[tuple[int, str], ...] = ()
    #: ``(request_id, token_crc, n_tokens, output_capped)`` per finished
    #: request — the auditor checks the crc against the fault-free
    #: oracle (capped streams against the oracle's prefix).
    completed: tuple[tuple[int, int, int, bool], ...] = ()
    failed: tuple[tuple[int, str], ...] = ()
    failovers: int = 0
    hedges: int = 0
    restarts: int = 0
    recoveries: int = 0
    kv_handoffs: int = 0
    handoff_retries: int = 0
    handoff_aborts: int = 0
    handoff_dup_drops: int = 0
    #: Page-lease ledger: every cached-prefix pin (a kvstore PageLease)
    #: and its release, journaled so the auditor can prove exactly-once
    #: page lifecycle — no double free, no lease leaked by failover.
    kv_page_leases: int = 0
    kv_page_releases: int = 0
    kv_pages_leased: int = 0
    kv_pages_released: int = 0
    hedging_enabled: bool = True
    output_caps: tuple[tuple[str, int], ...] = ()
    target_profile: str | None = None
    shed_classes: tuple[str, ...] = ()
    pools_collapsed: bool = False
    quarantined: tuple[str, ...] = ()


class Journal(EventLog):
    """Append-only write-ahead journal with an optional bound.

    ``max_records`` turns it into a ring: once full, recording drops the
    *oldest* record — but loudly (see module doc).  ``set_genesis``
    stores the snapshot replay starts from; the control plane takes it
    at the top of ``serve()`` so construction-time bookkeeping is
    captured once instead of journaled piecemeal.
    """

    def __init__(self, max_records: int | None = None):
        if max_records is not None and max_records < 1:
            raise ValueError(
                f"max_records must be >= 1, got {max_records}")
        super().__init__()
        self.max_records = max_records
        self.genesis: ControlPlaneState | None = None
        self.truncated = 0

    def set_genesis(self, state: ControlPlaneState) -> None:
        """Record the snapshot replay starts from (first call wins)."""
        if self.genesis is None:
            self.genesis = state

    def record(self, kind: str, t_s: float | None = None,
               **data: Any) -> Event:
        event = super().record(kind, t_s, **data)
        if self.max_records is not None and \
                len(self.events) > self.max_records:
            dropped = self.events.pop(0)
            self.truncated += 1
            if self.truncated == 1:
                self.record(ev.JOURNAL_TRUNCATED, t_s=event.t_s,
                            max_records=self.max_records,
                            first_dropped_seq=dropped.seq)
        return event


# ---------------------------------------------------------------------------
# Replay: fold records into a state
# ---------------------------------------------------------------------------

class _Working:
    """Mutable scratch form of :class:`ControlPlaneState` during a fold."""

    def __init__(self, state: ControlPlaneState):
        self.replicas = set(state.replicas)
        self.pools = dict(state.pools)
        self.retiring = set(state.retiring)
        self.removed = set(state.removed)
        self.pending_drains = dict(state.pending_drains)
        self.group_counter = state.group_counter
        self.admitted = set(state.admitted)
        self.rejected = dict(state.rejected)
        self.completed = {rid: (crc, n, capped)
                          for rid, crc, n, capped in state.completed}
        self.failed = dict(state.failed)
        self.failovers = state.failovers
        self.hedges = state.hedges
        self.restarts = state.restarts
        self.recoveries = state.recoveries
        self.kv_handoffs = state.kv_handoffs
        self.handoff_retries = state.handoff_retries
        self.handoff_aborts = state.handoff_aborts
        self.handoff_dup_drops = state.handoff_dup_drops
        self.kv_page_leases = state.kv_page_leases
        self.kv_page_releases = state.kv_page_releases
        self.kv_pages_leased = state.kv_pages_leased
        self.kv_pages_released = state.kv_pages_released
        self.hedging_enabled = state.hedging_enabled
        self.output_caps = dict(state.output_caps)
        self.target_profile = state.target_profile
        self.shed_classes = set(state.shed_classes)
        self.pools_collapsed = state.pools_collapsed
        self.quarantined = set(state.quarantined)

    def freeze(self, journal_seq: int) -> ControlPlaneState:
        return ControlPlaneState(
            journal_seq=journal_seq,
            replicas=tuple(sorted(self.replicas)),
            pools=tuple(sorted(self.pools.items())),
            retiring=tuple(sorted(self.retiring)),
            removed=tuple(sorted(self.removed)),
            pending_drains=tuple(sorted(self.pending_drains.items())),
            group_counter=self.group_counter,
            admitted=tuple(sorted(self.admitted)),
            rejected=tuple(sorted(self.rejected.items())),
            completed=tuple(sorted(
                (rid, crc, n, capped)
                for rid, (crc, n, capped) in self.completed.items())),
            failed=tuple(sorted(self.failed.items())),
            failovers=self.failovers,
            hedges=self.hedges,
            restarts=self.restarts,
            recoveries=self.recoveries,
            kv_handoffs=self.kv_handoffs,
            handoff_retries=self.handoff_retries,
            handoff_aborts=self.handoff_aborts,
            handoff_dup_drops=self.handoff_dup_drops,
            kv_page_leases=self.kv_page_leases,
            kv_page_releases=self.kv_page_releases,
            kv_pages_leased=self.kv_pages_leased,
            kv_pages_released=self.kv_pages_released,
            hedging_enabled=self.hedging_enabled,
            output_caps=tuple(sorted(self.output_caps.items())),
            target_profile=self.target_profile,
            shed_classes=tuple(sorted(self.shed_classes)),
            pools_collapsed=self.pools_collapsed,
            quarantined=tuple(sorted(self.quarantined)),
        )


def _fold_admit(w: _Working, r: Event) -> None:
    w.admitted.add(r["request_id"])


def _fold_reject(w: _Working, r: Event) -> None:
    w.rejected[r["request_id"]] = r["error"]


def _fold_group_start(w: _Working, r: Event) -> None:
    w.group_counter = max(w.group_counter, r["group"] + 1)


def _fold_complete(w: _Working, r: Event) -> None:
    w.completed[r["request_id"]] = (r["crc"], r["stream_len"],
                                    r["output_capped"])


def _fold_fail(w: _Working, r: Event) -> None:
    w.failed[r["request_id"]] = r["error"]


def _fold_group_fault(w: _Working, r: Event) -> None:
    w.failovers += 1


def _fold_hedge(w: _Working, r: Event) -> None:
    w.hedges += 1


def _fold_drain(w: _Working, r: Event) -> None:
    w.pending_drains.pop(r["replica"], None)


def _fold_scale_in(w: _Working, r: Event) -> None:
    w.retiring.add(r["replica"])
    w.pending_drains[r["replica"]] = r.t_s


def _fold_scale_in_abandoned(w: _Working, r: Event) -> None:
    w.retiring.discard(r["replica"])


def _fold_replica_add(w: _Working, r: Event) -> None:
    w.replicas.add(r["replica"])
    if r.get("pool") is not None:
        w.pools[r["replica"]] = r["pool"]


def _fold_replica_remove(w: _Working, r: Event) -> None:
    w.replicas.discard(r["replica"])
    w.retiring.discard(r["replica"])
    w.removed.add(r["replica"])


def _fold_replica_rejoin(w: _Working, r: Event) -> None:
    w.restarts += 1


def _fold_lever(w: _Working, r: Event) -> None:
    lever = r["lever"]
    if lever == "hedging":
        w.hedging_enabled = r["value"]
    elif lever == "target_profile":
        w.target_profile = r["value"]
    elif lever == "output_cap":
        if r["cap"] is None:
            w.output_caps.pop(r["priority_class"], None)
        else:
            w.output_caps[r["priority_class"]] = r["cap"]
    else:
        raise ValueError(f"unknown lever {lever!r} in record {r}")


def _fold_limits(w: _Working, r: Event) -> None:
    if r["accept"]:
        w.shed_classes.discard(r["priority_class"])
    else:
        w.shed_classes.add(r["priority_class"])


def _fold_pools_collapsed(w: _Working, r: Event) -> None:
    w.pools_collapsed = True


def _fold_pools_restored(w: _Working, r: Event) -> None:
    w.pools_collapsed = False


def _fold_quarantine(w: _Working, r: Event) -> None:
    w.quarantined.update(r["replicas"])


def _fold_pool_rejoin(w: _Working, r: Event) -> None:
    w.quarantined.difference_update(r["replicas"])


def _fold_handoff_retry(w: _Working, r: Event) -> None:
    w.handoff_retries += 1


def _fold_handoff_commit(w: _Working, r: Event) -> None:
    w.kv_handoffs += 1


def _fold_handoff_dup(w: _Working, r: Event) -> None:
    w.handoff_dup_drops += 1


def _fold_handoff_abort(w: _Working, r: Event) -> None:
    w.handoff_aborts += 1


def _fold_page_lease(w: _Working, r: Event) -> None:
    w.kv_page_leases += 1
    w.kv_pages_leased += r["pages"]


def _fold_page_release(w: _Working, r: Event) -> None:
    w.kv_page_releases += 1
    w.kv_pages_released += r["pages"]


def _fold_control_recovered(w: _Working, r: Event) -> None:
    w.recoveries += 1


def _no_state(w: _Working, r: Event) -> None:
    """The record is timeline only: it changes no control-plane state
    (the auditor may still read it, e.g. a handoff's prepare)."""


#: kind -> fold function.  Every kind the control plane (or anything it
#: hands its journal to) records must appear here; replay of an unknown
#: kind is a hard error (a silent skip would let the bit-identical-
#: reconstruction guarantee rot).
_FOLDERS = {
    ev.REQUEST_ADMITTED: _fold_admit,
    ev.ADMISSION_REJECTED: _fold_reject,
    ev.ADMISSION_LIMITS_CHANGED: _fold_limits,
    ev.GROUP_STARTED: _fold_group_start,
    ev.REQUEST_COMPLETED: _fold_complete,
    ev.REQUEST_FAILED: _fold_fail,
    ev.GROUP_FAULTED: _fold_group_fault,
    ev.HEDGE: _fold_hedge,
    ev.REPLICA_DRAINED: _fold_drain,
    ev.SCALE_IN_BEGUN: _fold_scale_in,
    ev.SCALE_IN_ABANDONED: _fold_scale_in_abandoned,
    ev.REPLICA_ADDED: _fold_replica_add,
    ev.REPLICA_REMOVED: _fold_replica_remove,
    ev.REPLICA_REJOINED: _fold_replica_rejoin,
    ev.LEVER_CHANGED: _fold_lever,
    ev.POOLS_COLLAPSED: _fold_pools_collapsed,
    ev.POOLS_RESTORED: _fold_pools_restored,
    ev.POOL_QUARANTINED: _fold_quarantine,
    ev.POOL_REJOINED: _fold_pool_rejoin,
    ev.KV_HANDOFF_RETRIED: _fold_handoff_retry,
    ev.KV_HANDOFF: _fold_handoff_commit,
    ev.KV_HANDOFF_DEDUPED: _fold_handoff_dup,
    ev.KV_HANDOFF_ABORTED: _fold_handoff_abort,
    ev.PAGE_LEASED: _fold_page_lease,
    ev.PAGE_RELEASED: _fold_page_release,
    ev.CONTROL_PLANE_RECOVERED: _fold_control_recovered,
    ev.KV_HANDOFF_PREPARED: _no_state,
    ev.KV_HANDOFF_COLOCATED: _no_state,
    ev.KV_PAGES_ADOPTED: _no_state,
    ev.POOL_FALLBACK: _no_state,
    ev.FAILOVER: _no_state,
    ev.REPLICA_RESTARTED: _no_state,  # the rejoin carries the change
    ev.REPLICA_HEALTH: _no_state,
    ev.BREAKER_TRANSITION: _no_state,
    ev.PLAN_SWITCHED: _no_state,
    ev.FAULT_INJECTED: _no_state,
    ev.FAULT_DETECTED: _no_state,
    ev.REPLANNED: _no_state,
    ev.AUTOSCALE_DECISION: _no_state,
    ev.BROWNOUT_STEP: _no_state,
    ev.BROWNOUT_RECOVERED: _no_state,
    ev.JOURNAL_TRUNCATED: _no_state,
}

JOURNAL_KINDS = tuple(sorted(_FOLDERS))


def replay_journal(journal: Journal,
                   snapshot: ControlPlaneState | None = None
                   ) -> ControlPlaneState:
    """Fold the journal into the control-plane state it describes.

    Starts from ``snapshot`` (default: the journal's genesis snapshot;
    an empty state if none was set) and applies every retained record
    with ``seq >= snapshot.journal_seq`` in order.  Raises
    :class:`JournalTruncated` when the bounded journal dropped records
    the snapshot has not absorbed — recovery from a later snapshot is
    still possible, recovery from this one is not.
    """
    start = snapshot if snapshot is not None else journal.genesis
    if start is None:
        start = ControlPlaneState()
    todo = [r for r in journal if r.seq >= start.journal_seq]
    if journal.truncated and journal.next_seq > start.journal_seq:
        oldest = journal.events[0].seq if journal.events \
            else journal.next_seq
        if oldest > start.journal_seq:
            raise JournalTruncated(
                f"journal dropped {journal.truncated} records; replay "
                f"needs seq >= {start.journal_seq} but the oldest "
                f"retained record is seq {oldest}")
    working = _Working(start)
    seq = start.journal_seq
    for record in todo:
        folder = _FOLDERS.get(record.kind)
        if folder is None:
            raise ValueError(f"journal record kind {record.kind!r} has "
                             f"no replay rule (seq {record.seq})")
        folder(working, record)
        seq = record.seq + 1
    return working.freeze(seq)


def diff_states(a: ControlPlaneState, b: ControlPlaneState) -> list[str]:
    """Field-by-field differences, for readable mismatch errors."""
    out = []
    for name in ControlPlaneState.__dataclass_fields__:
        left, right = getattr(a, name), getattr(b, name)
        if left != right:
            out.append(f"{name}: {left!r} != {right!r}")
    return out
