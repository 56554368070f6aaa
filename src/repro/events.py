"""Structured event log: the system-wide timeline of transitions.

Production serving stacks treat their behavior as a first-class,
*observable* subsystem: fault injections, detections, replans, retries,
load-shed decisions and every control-plane transition are recorded as
structured events so that operators (and tests) can reconstruct exactly
what the system did.  :class:`EventLog` is the minimal queryable form of
that: an append-only list of :class:`Event` records, each a ``kind``, a
sequence number, a virtual-clock time ``t_s`` and arbitrary structured
data.

The log is deliberately dependency-free (it sits below the mesh, serving
and observability layers).  On a cluster control plane there is exactly
one log: the write-ahead :class:`~repro.cluster.journal.Journal`, an
:class:`EventLog` whose every record kind has a replay rule.  The plane
hands it to its replicas, their fault injectors and replanners, the
circuit breakers, the admission controller and the autoscaler, so each
transition is written once; ``plane.events`` is a read-only alias, and
the observability layer derives its zero-duration trace marks from the
same records (:func:`repro.observability.spans.record_marks`).  Without
a plane (the fault and replanning layers on their own) components keep
a plain :class:`EventLog`.

    >>> log = EventLog()
    >>> _ = log.record("fault_detected", chip=(0, 1, 0))
    >>> _ = log.record("replanned", t_s=0.5, plan="degraded-2x1x2")
    >>> log.kinds()
    ['fault_detected', 'replanned']
    >>> log.of_kind("replanned")[0]["plan"], log.of_kind("replanned")[0].t_s
    ('degraded-2x1x2', 0.5)
    >>> log.query(where=lambda e: e.get("chip") == (0, 1, 0))[0].kind
    'fault_detected'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Canonical event kinds.  The log accepts any string kind; these
#: constants keep emitters, replay rules and tests in sync.  Every kind
#: has exactly one name here and one replay rule in
#: :data:`repro.cluster.journal._FOLDERS` (a no-op for kinds that change
#: no control-plane state).

#: Fault-tolerance stack (mesh faults, replanning, request terminals).
FAULT_INJECTED = "fault_injected"
FAULT_DETECTED = "fault_detected"
REPLANNED = "replanned"
REQUEST_COMPLETED = "request_completed"
REQUEST_FAILED = "request_failed"

#: Cluster admission, dispatch and failover (see :mod:`repro.cluster`).
#: ``GROUP_FAULTED`` counts one failover attempt of a dispatch group;
#: ``FAILOVER`` is the re-dispatch to a new replica that may follow it;
#: ``REPLICA_DRAINED`` closes a scheduled drain (``mode`` idle, aborted,
#: cache-migration or re-prefill).
REPLICA_HEALTH = "replica_health"
BREAKER_TRANSITION = "breaker_transition"
ADMISSION_REJECTED = "admission_rejected"
REQUEST_ADMITTED = "request_admitted"
GROUP_STARTED = "group_started"
GROUP_FAULTED = "group_faulted"
FAILOVER = "failover"
REPLICA_DRAINED = "replica_drained"
HEDGE = "hedge"
LEVER_CHANGED = "lever_changed"

#: Autoscaler / brownout (see :mod:`repro.cluster.autoscaler`).
AUTOSCALE_DECISION = "autoscale_decision"
REPLICA_ADDED = "replica_added"
SCALE_IN_BEGUN = "scale_in_begun"
SCALE_IN_ABANDONED = "scale_in_abandoned"
REPLICA_REMOVED = "replica_removed"
PLAN_SWITCHED = "plan_switched"
BROWNOUT_STEP = "brownout_step"
BROWNOUT_RECOVERED = "brownout_recovered"
ADMISSION_LIMITS_CHANGED = "admission_limits_changed"

#: Disaggregated prefill/decode serving (see :mod:`repro.cluster.disagg`).
#: ``KV_HANDOFF`` (the commit) carries the bytes moved and the
#: virtual-clock transfer cost priced by the Appendix A.1 link model; the
#: pool events bracket the brownout ladder's collapse-to-colocated rung
#: and a lost pool's fallback to colocated routing.
KV_HANDOFF = "kv_handoff"
KV_HANDOFF_COLOCATED = "kv_handoff_colocated"
KV_PAGES_ADOPTED = "kv_pages_adopted"
POOLS_COLLAPSED = "pools_collapsed"
POOLS_RESTORED = "pools_restored"
POOL_FALLBACK = "pool_fallback"

#: Crash-recovery control plane (see :mod:`repro.cluster.journal` and
#: :mod:`repro.cluster.audit`).  The transactional KV handoff brackets
#: each transfer with prepare/retry/commit-or-abort records; cached-prefix
#: pins are leased and released exactly once; replica process death
#: surfaces as a restart/rejoin pair; a control-plane crash that
#: recovered by journal replay is announced explicitly; and a bounded
#: journal that dropped records says so *loudly* (the auditor refuses to
#: certify a truncated journal).
JOURNAL_TRUNCATED = "journal_truncated"
KV_HANDOFF_PREPARED = "kv_handoff_prepared"
KV_HANDOFF_RETRIED = "kv_handoff_retried"
KV_HANDOFF_ABORTED = "kv_handoff_aborted"
KV_HANDOFF_DEDUPED = "kv_handoff_deduped"
PAGE_LEASED = "page_leased"
PAGE_RELEASED = "page_released"
REPLICA_RESTARTED = "replica_restarted"
REPLICA_REJOINED = "replica_rejoined"
CONTROL_PLANE_RECOVERED = "control_plane_recovered"
POOL_QUARANTINED = "pool_quarantined"
POOL_REJOINED = "pool_rejoined"


@dataclass(frozen=True)
class Event:
    """One structured event: a kind, a sequence number, a data dict and
    the virtual-clock time it happened at (``None`` when the emitter gave
    none and the log has no clock)."""

    kind: str
    seq: int
    data: dict[str, Any] = field(default_factory=dict)
    t_s: float | None = None

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


class EventLog:
    """Append-only, queryable log of :class:`Event` records.

    ``clock`` (optional, set by the log's owner) stamps ``t_s`` on
    records whose emitter gave none: a cluster control plane points its
    journal's clock at its virtual ``now_s``.
    """

    clock: Callable[[], float] | None = None

    def __init__(self) -> None:
        self.events: list[Event] = []
        self._seq = 0

    @property
    def next_seq(self) -> int:
        """Sequence number the next record will carry."""
        return self._seq

    def record(self, kind: str, t_s: float | None = None,
               **data: Any) -> Event:
        if t_s is None and self.clock is not None:
            t_s = self.clock()
        event = Event(kind=kind, seq=self._seq, data=data, t_s=t_s)
        self._seq += 1
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def query(self, kind: str | None = None,
              where: Callable[[Event], bool] | None = None) -> list[Event]:
        """Filter events by kind and/or an arbitrary predicate."""
        out = self.events if kind is None else self.of_kind(kind)
        if where is not None:
            out = [e for e in out if where(e)]
        return list(out)

    def kinds(self) -> list[str]:
        """Event kinds in emission order (with repeats) — the timeline."""
        return [e.kind for e in self.events]

    def assert_sequence(self, *kinds: str) -> None:
        """Assert the given kinds appear in order (not necessarily
        adjacent) — the detect -> replan -> retry style assertion used by
        the fault-tolerance tests."""
        timeline = self.kinds()
        pos = 0
        for kind in kinds:
            try:
                pos = timeline.index(kind, pos) + 1
            except ValueError:
                raise AssertionError(
                    f"event sequence {kinds} not found in order; log has "
                    f"{timeline}") from None
