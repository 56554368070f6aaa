"""The cluster control plane: N replicas behind one serving front end.

The paper's Section 4 studies one slice; production PaLM-class serving
runs many slices behind a router.  :class:`ClusterControlPlane` is that
router, and the one fault-tolerant serving loop at every fleet size: a
one-replica plane is the single-mesh server (a faulted group retries in
place, on the replica replanned around any dead chip):

* **Admission** (:mod:`repro.cluster.admission`) — token buckets,
  bounded priority queues, typed rejections.  Offered load the fleet
  cannot carry is refused *explicitly*, never timed out.
* **Dispatch** — request groups go to the least-busy dispatchable
  replica whose circuit breaker admits traffic.  Heartbeats run at every
  dispatch point, so a scheduled chip kill is usually absorbed by
  proactive degraded replanning before any collective trips on it.
* **Failover** — a :class:`~repro.mesh.faults.MeshFault` mid-group marks
  the breaker, health-checks the replica (replan or ``DEAD``), and
  re-dispatches the group to another replica by re-prefilling from the
  prompts.  Greedy decoding makes the move invisible in the tokens.
* **Drain** — a *planned* removal migrates the live KV caches to the
  target replica mid-decode (:meth:`GroupRun.migrate_to`, the Section
  4.4 host-mediated transfer) and falls back to re-prefill only when
  the target's plan cannot host the batch.
* **Hedged decode** — when consecutive decode steps run slower than the
  straggler threshold, the group is re-run on a second replica and the
  earlier finish is taken; both streams are asserted bit-identical
  before a hedge's tokens are.
* **Pools** — with ``pools=`` (:mod:`repro.cluster.disagg`) the fleet
  splits into a prefill pool and a decode pool: new groups prefill in
  the prefill pool, then the finished KV caches move to a decode
  replica in a transactional, A.1-priced handoff.  The pool map
  (``pool_of``) is empty on a colocated plane, where every replica runs
  both phases.

Time is *virtual* throughout: every model invocation charges its
:class:`~repro.serving.resilient.CostModel` cost (scaled by replica
degradation, plus injected straggler delay).  Each dispatched group is
a :class:`GroupTask`; the plane advances one group (and its hedge) to
completion before it dispatches the next, so replicas never serve at
the same modeled time — ``busy_until_s`` only sets when each may start.

Every transition is written once, to the write-ahead
:class:`~repro.cluster.journal.Journal` on the virtual clock — the plane
hands it to its replicas, breakers, admission controller and
autoscaler, and ``events`` is a read-only alias of it.  The attached
:class:`~repro.observability.Tracer` (same clock) records only
durations, one region per group; point marks are derived from the
journal
(:func:`~repro.observability.spans.record_marks`).  A chaos run's
records and spans are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from repro import events as ev
from repro.cluster.admission import (
    DEFAULT_CLASSES,
    AdmissionController,
    AdmissionError,
    CircuitBreaker,
    NoHealthyReplica,
    PriorityClass,
)
from repro.cluster.disagg import (
    FleetConfigError,
    HandoffAborted,
    PoolPartition,
    PoolSpec,
    handoff_transfer_s,
)
from repro.cluster.journal import (
    ControlPlaneState,
    Journal,
    JournalReplayMismatch,
    diff_states,
    replay_journal,
    token_crc,
)
from repro.cluster.replica import GroupRun, Replica, ReplicaHealth
from repro.mesh.capture import ProgramStore
from repro.mesh.faults import FaultPlan, MeshFault, ReplicaCrashed
from repro.observability.spans import Tracer
from repro.serving.backoff import jittered_backoff_s
from repro.serving.engine import Completion, Request, require_unique_ids
from repro.serving.resilient import CostModel

Coord = tuple[int, int, int]


@dataclass(frozen=True)
class ClusterPolicy:
    """Control-plane knobs: retries, hedging, breakers, overheads."""

    max_retries: int = 3               # failovers per group before FAILED
    failover_overhead_s: float = 0.05  # detect + re-dispatch cost
    drain_migrate_s: float = 0.02      # host-mediated KV transfer cost
    hedge_slowdown: float = 3.0        # observed/expected step-time ratio
    hedge_after_steps: int = 2         # consecutive slow steps to hedge
    breaker_failures: int = 3
    breaker_cooldown_s: float = 1.0
    plan_switch_s: float = 0.01        # decode-plan reshard (host-side)
    cold_restart_s: float = 0.25       # process death: re-shard + re-init
    warm_rejoin_s: float = 0.05        # journal-guided rejoin (cache inval)
    #: Age-based partial-group dispatch: a queued head older than this
    #: goes out even below ``decode_batch``.  ``None`` keeps the legacy
    #: full-groups-only behavior (mixed-length traces need the age
    #: trigger or odd-length prompts would wait for the final flush).
    max_batch_wait_s: float | None = None
    #: Per-replica prefix-cache capacity in pages; 0 disables the
    #: stores entirely (prefills always recompute, and dispatch, which
    #: prefers the replica holding the longest cached prefix, falls
    #: through to least-busy).
    kvstore_pages: int = 256
    #: Pooled fleets: how many times a failed KV handoff transfer is
    #: retried (seeded jittered exponential backoff from
    #: ``handoff_backoff_base_s``) before the transaction aborts to
    #: re-prefill.  0 aborts on the first fault.
    handoff_retries: int = 2
    handoff_backoff_base_s: float = 0.01


@dataclass(frozen=True)
class ClusterSubmission:
    """One request as the front end sees it: class, deadline, arrival."""

    request: Request
    priority_class: str = "default"
    deadline_s: float | None = None
    arrival_s: float = 0.0


class ClusterRequestStatus(str, Enum):
    COMPLETED = "completed"
    REJECTED = "rejected"              # typed admission rejection
    FAILED = "failed"                  # failover budget exhausted
    DEADLINE_MISSED = "deadline_missed"


@dataclass
class ClusterOutcome:
    """Terminal record for one submission."""

    request_id: int
    status: ClusterRequestStatus
    priority_class: str
    completion: Completion | None = None
    replica: str | None = None
    arrival_s: float = 0.0
    finish_s: float = 0.0
    hedged: bool = False
    failovers: int = 0
    rejection: str | None = None       # AdmissionError subclass name
    first_token_s: float | None = None  # end of the group's prefill
    output_capped: bool = False         # brownout shortened max_new_tokens

    @property
    def ok(self) -> bool:
        return self.status is ClusterRequestStatus.COMPLETED

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def ttft_s(self) -> float | None:
        """Time to first token: arrival -> end of the group's prefill."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> float | None:
        """Time per output token over the decode phase."""
        if self.first_token_s is None or self.completion is None:
            return None
        steps = self.completion.n_generated - 1
        if steps <= 0:
            return 0.0
        return (self.finish_s - self.first_token_s) / steps


@dataclass(frozen=True)
class RestartSpec:
    """Scheduled full-replica process death (a chaos fault class).

    Unlike a :class:`~repro.mesh.faults.ChipKill` — one chip fails and
    the mesh replans around it — a restart takes the whole replica
    process down at ``at_s``.  A group running there at that moment
    fails over (re-prefill elsewhere); the replica itself comes back
    after the policy's restart downtime:

    * ``mode="cold"`` — full restart: re-shard the weights, rebuild
      both phase models, empty capture caches
      (``ClusterPolicy.cold_restart_s``).
    * ``mode="warm"`` — journal-guided rejoin: the process state
      survives, only the capture caches are invalidated
      (``ClusterPolicy.warm_rejoin_s``).
    """

    at_s: float
    mode: str = "cold"

    def __post_init__(self):
        if self.mode not in ("cold", "warm"):
            raise ValueError(
                f"restart mode must be 'cold' or 'warm', got {self.mode!r}")
        if self.at_s < 0:
            raise ValueError(f"restart at_s must be >= 0, got {self.at_s}")


@dataclass(eq=False)
class GroupTask:
    """One dispatched group's lifecycle, advanced one transition at a time.

    :meth:`ClusterControlPlane._advance` performs one transition per
    call — a prefill (with the pooled KV handoff), a drain, one decode
    step, a failover or the finish — until ``done``.  ``t`` is when the
    next transition starts; ``run`` is the current attempt, replaced by
    a handoff, drain or failover.  A hedge is a second task on a backup
    replica (``is_hedge``: no failover, drain or handoff) whose tokens
    the original takes if the hedge finished first.
    """

    gid: int
    subs: list[ClusterSubmission]
    outcomes: dict[int, ClusterOutcome]
    run: GroupRun
    t: float
    capped: list[bool]
    is_hedge: bool = False
    attempt: int = 0                     # failovers so far
    first_token_s: float | None = None   # end of the first prefill
    slow_steps: int = 0                  # consecutive slow decode steps
    hedged: bool = False                 # the hedge check fired
    hedge: GroupTask | None = None       # the backup, once dispatched
    handoff_delivered: bool = False      # this attempt's ack was lost
    done: bool = False


class _JournaledCaps(dict):
    """Brownout output caps that journal every change as a lever record.

    The autoscaler mutates ``plane.output_caps`` directly
    (``caps[name] = cap`` on the way down the ladder, ``caps.pop(name)``
    on the way back up), so journaling lives in the container rather
    than at every call site.
    """

    def __init__(self, plane: "ClusterControlPlane"):
        super().__init__()
        self._plane = plane

    def _journal(self, key: str, cap: int | None) -> None:
        self._plane.journal.record(ev.LEVER_CHANGED, lever="output_cap",
                                   priority_class=key, cap=cap)

    def __setitem__(self, key: str, value: int) -> None:
        if self.get(key) != value:
            self._journal(key, value)
        super().__setitem__(key, value)

    def __delitem__(self, key: str) -> None:
        if key in self:
            self._journal(key, None)
        super().__delitem__(key)

    def pop(self, key: str, *default):
        if key in self:
            self._journal(key, None)
        return super().pop(key, *default)

    def replace_silently(self, mapping: Mapping[str, int]) -> None:
        """Crash recovery: adopt replayed caps without re-journaling."""
        super().clear()
        super().update(mapping)


class ClusterControlPlane:
    """N heterogeneous mesh replicas behind one admission front end.

    A colocated fleet is ``ClusterControlPlane(weights, shapes)``; a
    disaggregated one is ``ClusterControlPlane(weights, pools=...,
    partitions=...)``.  Pooled replicas are numbered pools-in-order
    (prefill pool first), so ``fault_plans`` indices and replica names
    line up with the concatenated shape list.
    """

    def __init__(self, weights, shapes: Sequence[Coord] = (), *,
                 pools: Sequence[PoolSpec] = (),
                 partitions: Sequence[PoolPartition] = (),
                 backend: str | None = None, decode_batch: int = 4,
                 classes: Sequence[PriorityClass] = DEFAULT_CLASSES,
                 fault_plans: Mapping[int, FaultPlan] | None = None,
                 drains: Mapping[str, float] | None = None,
                 costs: CostModel | None = None,
                 policy: ClusterPolicy | None = None,
                 prompt_len_hint: int = 64,
                 autoscaler=None,
                 journal: Journal | None = None,
                 restarts: Mapping[str, RestartSpec] | None = None,
                 crash_at_s: float | None = None):
        pools = tuple(pools)
        if pools:
            if shapes:
                raise FleetConfigError("pass replica shapes or pools, "
                                       "not both")
            if sorted(p.name for p in pools) != ["decode", "prefill"]:
                raise FleetConfigError(
                    f"need exactly one 'prefill' and one 'decode' pool, "
                    f"got {[p.name for p in pools]}")
            shapes = [shape for spec in pools for shape in spec.shapes]
        elif partitions:
            raise FleetConfigError("pool partitions need pools")
        if not shapes:
            raise ValueError("a cluster needs at least one replica")
        self.costs = costs or CostModel()
        self.policy = policy or ClusterPolicy()
        self.now_s = 0.0
        # The write-ahead journal is the one record of every transition,
        # stamped on the virtual clock; ``serve()`` snapshots genesis
        # state and the chaos harness asserts replay(genesis + journal)
        # == control_state() after every run.
        self.journal = journal if journal is not None else Journal()
        self.journal.clock = lambda: self.now_s
        # The tracer runs on the same clock and records durations only:
        # chaos runs under a fixed seed produce bit-identical spans.
        self.tracer = Tracer(clock=lambda: self.now_s)
        fault_plans = dict(fault_plans or {})
        self.weights = weights
        self.backend = backend
        self.prompt_len_hint = prompt_len_hint
        # One program store for the whole fleet: every replica built here
        # or by add_replica replays what any same-shape sibling captured.
        self.program_store = ProgramStore()
        self.replicas = [
            Replica(f"r{i}", weights, shape, backend=backend,
                    decode_batch=decode_batch,
                    fault_plan=fault_plans.get(i), costs=self.costs,
                    journal=self.journal, prompt_len_hint=prompt_len_hint,
                    kvstore_pages=self.policy.kvstore_pages,
                    program_store=self.program_store)
            for i, shape in enumerate(shapes)]
        self.breakers = {r.name: self._breaker(r.name)
                         for r in self.replicas}
        self.admission = AdmissionController(tuple(classes),
                                             journal=self.journal)
        self.decode_batch = decode_batch
        self._drains = dict(drains or {})
        self._group_counter = 0
        self.hedges = 0
        self.failovers = 0
        # Crash-recovery state: scheduled replica process deaths, an
        # optional control-plane crash point, and the completion ledgers
        # whose equality with journal replay proves the journal complete.
        known = {r.name for r in self.replicas}
        restarts = dict(restarts or {})
        unknown = sorted(set(restarts) - known)
        if unknown:
            raise FleetConfigError(
                f"restart specs for unknown replicas: {unknown}")
        self._restarts = restarts
        self.crash_at_s = crash_at_s
        self._crashed = False
        self.restarts = 0
        self.recoveries = 0
        self._ledger_admitted: set[int] = set()
        self._ledger_rejected: dict[int, str] = {}
        self._ledger_completed: dict[int, tuple[int, int, bool]] = {}
        self._ledger_failed: dict[int, str] = {}
        # Autoscaler hooks (see repro.cluster.autoscaler).  The control
        # plane only provides mechanism: the fleet roster, the brownout
        # levers below, and a tick call at every virtual-clock advance.
        # Lever state lives in backing fields; the properties journal
        # every change as a typed "lever" record.
        self.autoscaler = autoscaler
        self._hedging_enabled = True             # brownout rung 1
        self.output_caps = _JournaledCaps(self)  # brownout rung 2
        self._target_profile: str | None = None  # rung 3 / plan steering
        self.retiring: set[str] = set()
        self.retired: list[Replica] = []
        self.replica_added_s = {r.name: 0.0 for r in self.replicas}
        self.replica_removed_s: dict[str, float] = {}
        self._replica_seq = len(self.replicas)
        self._tasks: list[GroupTask] = []      # live groups and hedges
        self.prefill_tokens = 0
        self.decode_tokens = 0
        # Shared-page accounting: every pinned prefix (a PageLease) is
        # journaled on acquisition and on release, so the auditor can
        # prove exactly-once page lifecycle — no double free, no lease
        # leaked by a failover/drain/hedge path.
        self.kv_page_leases = 0
        self.kv_page_releases = 0
        self.kv_pages_leased = 0
        self.kv_pages_released = 0
        # Disaggregated pools: replica name -> pool name.  Empty means
        # colocated — every replica runs both phases, no KV handoff.
        self.pool_specs = {spec.name: spec for spec in pools}
        members = [spec.name for spec in pools for _ in spec.shapes]
        self.pool_of: dict[str, str] = {
            r.name: pool for r, pool in zip(self.replicas, members)}
        self.pools_collapsed = False
        self.partitions = tuple(partitions)
        self._partition_active = [False] * len(self.partitions)
        self.quarantined: set[str] = set()
        self._pool_fallback_noted = False
        self.kv_handoffs = 0
        self.kv_handoff_bytes = 0
        self.handoffs_colocated = 0   # no decode target: decoded in place
        self.handoff_retries = 0
        self.handoff_aborts = 0
        self.handoff_dups_dropped = 0
        if pools:
            for replica in self.replicas:
                self._steer_to_pool(replica, 0.0)

    @property
    def events(self) -> Journal:
        """Read-only alias of :attr:`journal`, the plane's one stream."""
        return self.journal

    def _breaker(self, name: str) -> CircuitBreaker:
        return CircuitBreaker(
            name, failure_threshold=self.policy.breaker_failures,
            cooldown_s=self.policy.breaker_cooldown_s,
            journal=self.journal)

    # -- time ---------------------------------------------------------------

    def _set_now(self, t: float) -> None:
        self.now_s = max(self.now_s, t)

    # -- journal / crash recovery -------------------------------------------

    @property
    def hedging_enabled(self) -> bool:
        return self._hedging_enabled

    @hedging_enabled.setter
    def hedging_enabled(self, value: bool) -> None:
        if value != self._hedging_enabled:
            self.journal.record(ev.LEVER_CHANGED, lever="hedging",
                                value=value)
        self._hedging_enabled = value

    @property
    def target_profile(self) -> str | None:
        return self._target_profile

    @target_profile.setter
    def target_profile(self, value: str | None) -> None:
        if value != self._target_profile:
            self.journal.record(ev.LEVER_CHANGED, lever="target_profile",
                                value=value)
        self._target_profile = value

    def control_state(self) -> ControlPlaneState:
        """The live control-plane state, in journal-comparable form.

        Journaling is proved complete by equality:
        ``replay_journal(self.journal) == self.control_state()`` after
        every run (the chaos harness asserts it; recovery relies on it).
        """
        accepting = self.admission._accepting
        return ControlPlaneState(
            journal_seq=self.journal.next_seq,
            replicas=tuple(sorted(r.name for r in self.replicas)),
            pools=tuple(sorted(self.pool_of.items())),
            retiring=tuple(sorted(self.retiring)),
            removed=tuple(sorted(self.replica_removed_s)),
            pending_drains=tuple(sorted(self._drains.items())),
            group_counter=self._group_counter,
            admitted=tuple(sorted(self._ledger_admitted)),
            rejected=tuple(sorted(self._ledger_rejected.items())),
            completed=tuple(sorted(
                (rid, crc, n, capped)
                for rid, (crc, n, capped)
                in self._ledger_completed.items())),
            failed=tuple(sorted(self._ledger_failed.items())),
            failovers=self.failovers,
            hedges=self.hedges,
            restarts=self.restarts,
            recoveries=self.recoveries,
            kv_handoffs=self.kv_handoffs,
            handoff_retries=self.handoff_retries,
            handoff_aborts=self.handoff_aborts,
            handoff_dup_drops=self.handoff_dups_dropped,
            kv_page_leases=self.kv_page_leases,
            kv_page_releases=self.kv_page_releases,
            kv_pages_leased=self.kv_pages_leased,
            kv_pages_released=self.kv_pages_released,
            hedging_enabled=self._hedging_enabled,
            output_caps=tuple(sorted(self.output_caps.items())),
            target_profile=self._target_profile,
            shed_classes=tuple(sorted(
                c for c, ok in accepting.items() if not ok)),
            pools_collapsed=self.pools_collapsed,
            quarantined=tuple(sorted(self.quarantined)),
        )

    def _crash_and_recover(self, t: float) -> None:
        """Control-plane process crash, recovered by journal replay.

        The in-memory scheduling state (pending drains, retirement
        intents, brownout levers, the group counter) is wiped and
        rebuilt from ``replay_journal``; the replicas themselves survive
        — they are the data plane.  Replay is first checked bit-identical
        against the live state, so a journaling gap fails loudly here
        instead of resuming from a silently wrong state.
        """
        live = self.control_state()
        replayed = replay_journal(self.journal)
        if replayed != live:
            raise JournalReplayMismatch(
                "journal replay diverged from live control-plane "
                "state:\n  " + "\n  ".join(diff_states(replayed, live)))
        self._drains = dict(replayed.pending_drains)
        self.retiring = set(replayed.retiring)
        self._group_counter = replayed.group_counter
        self._hedging_enabled = replayed.hedging_enabled
        self._target_profile = replayed.target_profile
        self.output_caps.replace_silently(dict(replayed.output_caps))
        self.recoveries += 1
        self.journal.record(ev.CONTROL_PLANE_RECOVERED, t_s=t,
                            journal_records=len(self.journal),
                            pending_drains=len(self._drains))

    # -- replica selection --------------------------------------------------

    def _heartbeat_all(self, now_s: float) -> None:
        self._update_partitions(now_s)
        self._fire_idle_restarts(now_s)
        for replica in self.replicas:
            replica.heartbeat(now_s)

    def _update_partitions(self, now_s: float) -> None:
        """Quarantine / re-admit pool members as partition windows move.

        A quarantined replica is unreachable, not dead: its process and
        caches are fine, the control plane just cannot dispatch to it
        (or hand KV pages to it) until heartbeats resume.  Both edges
        are journaled, so replay reconstructs the quarantine set.
        """
        for i, part in enumerate(self.partitions):
            active = part.at_s <= now_s < part.until_s
            if active and not self._partition_active[i]:
                self._partition_active[i] = True
                members = sorted(
                    r.name for r in self.replicas
                    if self.pool_of[r.name] == part.pool
                    and r.name not in self.quarantined)
                self.quarantined.update(members)
                self.journal.record(ev.POOL_QUARANTINED, t_s=now_s,
                                    pool=part.pool, replicas=members,
                                    until_s=part.until_s)
            elif not active and self._partition_active[i] and \
                    now_s >= part.until_s:
                self._partition_active[i] = False
                held = sorted(n for n in self.quarantined
                              if self.pool_of[n] == part.pool)
                self.quarantined.difference_update(held)
                self.journal.record(ev.POOL_REJOINED, t_s=now_s,
                                    pool=part.pool, replicas=held)

    def _fire_idle_restarts(self, now_s: float) -> None:
        """Fire scheduled process deaths on replicas with no group.

        A restart due on a replica that is mid-group fires at that
        group's next prefill or decode step instead
        (:meth:`_maybe_crash_running`), so the group takes the failover
        path; an idle replica just bounces.
        """
        due = [name for name, spec in self._restarts.items()
               if spec.at_s <= now_s and not self._mid_group(name)]
        for name in due:
            replica = next((r for r in self.replicas
                            if r.name == name), None)
            if replica is None:
                del self._restarts[name]
                continue
            spec = self._restarts.pop(name)
            self.journal.record(ev.REPLICA_RESTARTED, t_s=now_s, replica=name,
                                mode=spec.mode, group=None)
            self._restart_replica(replica, now_s, spec.mode)

    def _mid_group(self, name: str) -> bool:
        """Is a live group (or hedge) running on replica ``name``?"""
        return any(task.run.replica.name == name for task in self._tasks)

    def _maybe_crash_running(self, task: GroupTask) -> None:
        """Raise :class:`ReplicaCrashed` if ``task``'s replica is due to
        die at ``task.t`` — caught by :meth:`_advance`'s failover."""
        name = task.run.replica.name
        spec = self._restarts.get(name)
        if spec is not None and task.t >= spec.at_s:
            del self._restarts[name]
            raise ReplicaCrashed(name, spec.mode, task.gid)

    def _restart_replica(self, replica: Replica, t: float,
                         mode: str) -> None:
        replica.restart(mode)
        downtime = (self.policy.cold_restart_s if mode == "cold"
                    else self.policy.warm_rejoin_s)
        ready = max(replica.busy_until_s, t) + downtime
        replica.busy_until_s = ready
        self.restarts += 1
        self.journal.record(ev.REPLICA_REJOINED, t_s=t, replica=replica.name,
                            mode=mode, ready_s=ready)

    def _phase_candidates(self, phase: str,
                          fallback: bool = True) -> list[Replica]:
        """Replicas eligible to serve ``phase`` ("prefill"/"decode"/"any").

        Colocated, or with the pools collapsed, every reachable replica
        runs both phases; pooled, each phase goes to its pool.
        Quarantined replicas (pool partition) are unreachable either
        way.  A pool with no dispatchable member degrades to colocated
        routing — the other pool can run both phases, on its own plans —
        unless ``fallback`` is off: a KV handoff lands in the decode
        pool or not at all.
        """
        if not self.pool_of:
            return self.replicas
        live = [r for r in self.replicas
                if r.name not in self.quarantined]
        if self.pools_collapsed or phase == "any":
            return live
        members = [r for r in live if self.pool_of[r.name] == phase]
        if fallback and not any(r.dispatchable for r in members):
            # The pool is lost (dead / draining / not yet provisioned):
            # degrade to colocated routing rather than refuse service.
            if not self._pool_fallback_noted:
                self._pool_fallback_noted = True
                self.journal.record(ev.POOL_FALLBACK, pool=phase)
            return live
        return members

    def _pick_replica(self, now_s: float, request_id: int,
                      priority_class: str,
                      exclude: Replica | None = None,
                      phase: str = "any",
                      prompt=None, fallback: bool = True) -> Replica:
        candidates = [r for r in self._phase_candidates(phase, fallback)
                      if r.dispatchable
                      and self.breakers[r.name].allow(now_s)]
        if exclude is not None and len(candidates) > 1:
            candidates = [r for r in candidates if r is not exclude]
        # A replica being scaled in takes no new groups while any other
        # candidate exists (capacity beats the scale-in intent otherwise).
        non_retiring = [r for r in candidates
                        if r.name not in self.retiring]
        if non_retiring:
            candidates = non_retiring
        if not candidates:
            raise NoHealthyReplica(
                f"no dispatchable replica at t={now_s:.4f}s "
                f"(health: {[(r.name, r.health.value) for r in self.replicas]})",
                request_id=request_id, priority_class=priority_class)
        # Prefix-affinity routing (the Mooncake recipe): among the
        # eligible replicas, prefer the ones whose paged KV store holds
        # the longest cached prefix of the group's prompt — trading
        # placement freedom for recompute savings.  ``peek`` is a pure
        # read (no pin, no LRU touch) so routing never perturbs cache
        # state; zero matches everywhere fall through to least-busy.
        if prompt is not None and len(candidates) > 1:
            matched = {r.name: (r.kvstore.peek(prompt)
                                if r.kvstore is not None else 0)
                       for r in candidates}
            best = max(matched.values())
            if best > 0:
                candidates = [r for r in candidates
                              if matched[r.name] == best]
        return min(candidates, key=lambda r: (r.busy_until_s, r.name))

    # -- fleet management (the autoscaler's levers) --------------------------

    def active_replicas(self, pool: str | None = None) -> list[Replica]:
        """Dispatchable replicas not being scaled in, optionally one
        pool's."""
        return [r for r in self.replicas
                if r.dispatchable and r.name not in self.retiring
                and (pool is None or self.pool_of.get(r.name) == pool)]

    def add_replica(self, shape: Coord, now_s: float, *,
                    spinup_s: float = 0.0,
                    pool: str | None = None) -> Replica:
        """Scale out: provision one more replica on the same weights.

        The new replica becomes dispatchable after ``spinup_s`` of
        simulated provisioning (weight sharding, process start) — its
        ``busy_until_s`` models the warm-up, so the least-busy dispatch
        naturally avoids it until it is ready.  A pooled plane needs the
        ``pool`` it joins (its profiles apply at construction); a
        colocated plane takes none.
        """
        if pool not in (tuple(self.pool_specs) or (None,)):
            raise ValueError(f"unknown pool {pool!r}")
        taken = {r.name for r in self.replicas} | \
            {r.name for r in self.retired} | set(self.replica_removed_s)
        name = f"r{self._replica_seq}"
        self._replica_seq += 1
        while name in taken:
            name = f"r{self._replica_seq}"
            self._replica_seq += 1
        replica = Replica(name, self.weights, shape,
                          backend=self.backend,
                          decode_batch=self.decode_batch,
                          costs=self.costs, journal=self.journal,
                          prompt_len_hint=self.prompt_len_hint,
                          kvstore_pages=self.policy.kvstore_pages,
                          program_store=self.program_store)
        replica.busy_until_s = now_s + spinup_s
        self.replicas.append(replica)
        self.breakers[name] = self._breaker(name)
        self.replica_added_s[name] = now_s
        self.journal.record(ev.REPLICA_ADDED, t_s=now_s, replica=name,
                            shape=tuple(shape), pool=pool,
                            spinup_s=spinup_s)
        if pool is not None:
            self.pool_of[name] = pool
            self._steer_to_pool(replica, now_s)
        return replica

    def begin_scale_in(self, name: str, now_s: float) -> None:
        """Scale in: schedule a live drain of ``name`` and mark it
        retiring.  In-flight work migrates off via the normal drain path
        (:meth:`_maybe_drain` — KV caches move, nothing is dropped); the
        replica is actually removed by :meth:`reap_retiring` once idle.
        """
        if not any(r.name == name for r in self.replicas):
            raise ValueError(f"unknown replica {name!r}")
        self.retiring.add(name)
        self._drains[name] = now_s
        self.journal.record(ev.SCALE_IN_BEGUN, t_s=now_s, replica=name)

    def reap_retiring(self, now_s: float) -> list[str]:
        """Complete any scale-ins whose replicas have gone idle."""
        removed = []
        for replica in [r for r in self.replicas
                        if r.name in self.retiring]:
            name = replica.name
            if self._mid_group(name) or replica.busy_until_s > now_s:
                continue
            if name in self._drains:
                # Idle: no in-flight group will ever execute the drain,
                # so transition directly.
                del self._drains[name]
                self.journal.record(ev.REPLICA_DRAINED, t_s=now_s,
                                    replica=name, mode="idle")
                replica.set_health(ReplicaHealth.DRAINING, now_s,
                                   "autoscale scale-in (idle)")
            if replica.health is not ReplicaHealth.DRAINING:
                # The drain was aborted (no migration target); give up
                # on this scale-in rather than wedge the replica.
                self.retiring.discard(name)
                self.journal.record(ev.SCALE_IN_ABANDONED, t_s=now_s,
                                    replica=name)
                continue
            self.replicas.remove(replica)
            self.retired.append(replica)
            self.retiring.discard(name)
            self.replica_removed_s[name] = now_s
            self.journal.record(ev.REPLICA_REMOVED, t_s=now_s, replica=name)
            removed.append(name)
        return removed

    def fleet_chip_seconds(self, end_s: float) -> float:
        """Chip-seconds provisioned over the run (the cost denominator)."""
        total = 0.0
        for replica in list(self.replicas) + self.retired:
            start = self.replica_added_s.get(replica.name, 0.0)
            end = self.replica_removed_s.get(replica.name, end_s)
            total += max(end - start, 0.0) * replica.full_chips
        return total

    def _autoscale(self, now_s: float) -> None:
        if self.autoscaler is not None:
            self.autoscaler.maybe_tick(self, now_s)

    def _apply_profile(self, replica: Replica, t: float) -> float:
        """Steer ``replica``'s plans at dispatch; returns the switch cost.

        Pooled, the replica goes to its pool's profiles (after a
        degraded replan reset it to ``balanced``, this is where they
        come back); colocated or collapsed, to the target decode
        profile.  Plan switches happen only at group boundaries (never
        mid-decode, the KV layout must stay put) and charge
        ``plan_switch_s``.
        """
        if self.pool_of and not self.pools_collapsed:
            switched = self._steer_to_pool(replica, t)
        else:
            desired = self.target_profile or "balanced"
            switched = replica.profile != desired and \
                replica.switch_profile(desired, t)
        return self.policy.plan_switch_s if switched else 0.0

    def _steer_to_pool(self, replica: Replica, t: float) -> bool:
        """Switch a pooled replica's prefill and decode plans to its
        pool's profiles; ``True`` if either moved."""
        spec = self.pool_specs[self.pool_of[replica.name]]
        switched = False
        if replica.prefill_profile != spec.prefill_profile and \
                replica.switch_prefill_profile(spec.prefill_profile, t):
            switched = True
        if replica.profile != spec.decode_profile and \
                replica.switch_profile(spec.decode_profile, t):
            switched = True
        return switched

    # -- serving ------------------------------------------------------------

    def serve(self, submissions: Sequence[ClusterSubmission]
              ) -> list[ClusterOutcome]:
        """Admit, dispatch and complete all submissions; one outcome each.

        Submissions are processed in arrival order.  Between arrivals the
        control plane dispatches any full group that a replica could have
        started by that time — so queue occupancy (and the bounded-queue
        backpressure it triggers) reflects actual fleet saturation, not
        an artifact of batch processing.
        """
        # Genesis snapshot: replay starts here, so construction-time
        # state (initial drains, pool membership) is captured once
        # instead of journaled piecemeal.  First call wins — a second
        # serve() continues the same journal.
        self.journal.set_genesis(self.control_state())
        ordered = sorted(enumerate(submissions),
                         key=lambda pair: (pair[1].arrival_s, pair[0]))
        by_id: dict[int, ClusterOutcome] = {}
        require_unique_ids([sub.request for _, sub in ordered])

        for _, sub in ordered:
            self._set_now(sub.arrival_s)
            if self.crash_at_s is not None and not self._crashed and \
                    self.now_s >= self.crash_at_s:
                self._crashed = True
                self._crash_and_recover(self.now_s)
            self._autoscale(sub.arrival_s)
            self._dispatch_ready(by_id, up_to_s=sub.arrival_s)
            rid = sub.request.request_id
            try:
                self.admission.submit(sub, rid, sub.arrival_s,
                                      class_name=sub.priority_class)
                self._ledger_admitted.add(rid)
            except AdmissionError as exc:
                reason = type(exc).__name__
                self._ledger_rejected[rid] = reason
                by_id[rid] = ClusterOutcome(
                    rid, ClusterRequestStatus.REJECTED,
                    sub.priority_class, arrival_s=sub.arrival_s,
                    finish_s=sub.arrival_s,
                    rejection=reason)
        self._dispatch_ready(by_id, up_to_s=None, flush=True)
        self._cooldown()
        return [by_id[sub.request.request_id] for sub in submissions]

    def _cooldown(self, max_ticks: int = 1000) -> None:
        """Idle the virtual clock until the autoscaler settles.

        The offered load is over but the control loop's recovery half is
        not: the brownout ladder releases only after sustained calm, and
        the surplus fleet drains back to ``min_replicas``.  Keep ticking
        over an empty backlog (pressure zero) until the autoscaler
        reports a fixed point — still purely virtual time, so the
        recovery trajectory is as deterministic as the loaded one.
        """
        self._autoscale(self.now_s)
        if self.autoscaler is None:
            return
        interval = self.autoscaler.policy.interval_s
        for _ in range(max_ticks):
            if self.autoscaler.settled(self):
                return
            self._set_now(self.now_s + interval)
            self._autoscale(self.now_s)

    def _dispatch_ready(self, by_id: dict[int, ClusterOutcome],
                        up_to_s: float | None,
                        flush: bool = False) -> None:
        """Dispatch queued groups a replica could start by ``up_to_s``."""
        while True:
            backlog = self.admission.backlog()
            if backlog == 0:
                return
            if backlog < self.decode_batch and not flush and \
                    not self._head_aged_out():
                return
            self._heartbeat_all(self.now_s)
            self._autoscale(self.now_s)
            # New groups start with prefill, so dispatch readiness is
            # judged against the replicas that could run one.
            free = [r.busy_until_s for r in self._phase_candidates("prefill")
                    if r.dispatchable]
            if up_to_s is not None and (not free or min(free) > up_to_s):
                return  # every replica still busy: backlog builds up
            # Groups are homogeneous in prompt length (the merged decode
            # batch shares one KV geometry); the head item — highest
            # priority, oldest — always defines the batch.
            subs = self.admission.next_batch(
                self.decode_batch, key=lambda s: len(s.request.prompt))
            self._run_group([s for s in subs], by_id)

    def _head_aged_out(self) -> bool:
        """Has some queue head waited past the partial-dispatch age?"""
        wait = self.policy.max_batch_wait_s
        if wait is None:
            return False
        heads = self.admission.heads()
        return bool(heads) and \
            self.now_s - min(h.arrival_s for h in heads) >= wait

    def _wrap(self, sub: ClusterSubmission) -> tuple[Request, bool]:
        """A submission's request, with any brownout output cap applied."""
        request = sub.request
        cap = self.output_caps.get(sub.priority_class)
        capped = cap is not None and request.max_new_tokens > cap
        if capped:
            request = Request(request.request_id, request.prompt, cap)
        return request, capped

    def _run_group(self, subs: list[ClusterSubmission],
                   by_id: dict[int, ClusterOutcome]) -> None:
        """Dispatch one group and advance it to completion; a hedge, once
        started, runs to completion before the original steps again."""
        task = self._start_group(subs, by_id)
        if task is None:
            return
        with self.tracer.region(f"group{task.gid}", kind="group",
                                group=task.gid, replica=task.run.replica.name,
                                requests=[s.request.request_id
                                          for s in subs]):
            while not task.done:
                hedge = task.hedge
                self._advance(hedge if hedge is not None and not hedge.done
                              else task)

    def _start_group(self, subs: list[ClusterSubmission],
                     by_id: dict[int, ClusterOutcome]) -> GroupTask | None:
        """Journal a new group and place it on a prefill replica (``None``:
        no replica could take it, and the group failed)."""
        pairs = [self._wrap(s) for s in subs]
        gid, head = self._group_counter, subs[0]
        self._group_counter += 1
        self.journal.record(ev.GROUP_STARTED, group=gid,
                            requests=[s.request.request_id for s in subs])
        try:
            replica = self._pick_replica(
                self.now_s, head.request.request_id, head.priority_class,
                phase="prefill", prompt=head.request.prompt)
        except NoHealthyReplica as exc:
            self._fail_group(subs, by_id, gid=gid,
                             error=type(exc).__name__, failovers=0)
            return None
        t = max(self.now_s, replica.busy_until_s)
        t += self._apply_profile(replica, t)
        run = GroupRun(replica, [r for r, _ in pairs])
        task = GroupTask(gid, subs, by_id, run, t, [c for _, c in pairs])
        self._tasks.append(task)
        return task

    def _advance(self, task: GroupTask) -> None:
        """Perform one transition of ``task`` (see :class:`GroupTask`)."""
        try:
            if task.run.caches is None:
                self._prefill(task)
            elif task.run.done:
                self._finish(task)
            elif task.is_hedge or not self._maybe_drain(task):
                self._decode_step(task)
        except MeshFault as exc:
            self._on_task_fault(task, exc)

    def _prefill(self, task: GroupTask) -> None:
        run = task.run
        if not task.is_hedge:
            self._maybe_crash_running(task)
        task.t += run.run_prefill()
        self._note_leases(run, task.t, task.gid)
        if task.is_hedge:
            return
        self._set_now(task.t)
        self.prefill_tokens += sum(len(r.prompt) for r in run.group)
        if task.first_token_s is None:
            task.first_token_s = task.t
        if self.pool_of.get(run.replica.name) == "prefill" and \
                not self.pools_collapsed:
            # Phase boundary: the KV handoff to the decode pool (may
            # raise a MeshFault -> failover).
            self._handoff(task)
        task.slow_steps = 0

    def _decode_step(self, task: GroupTask) -> None:
        run = task.run
        if task.is_hedge:
            task.t += run.decode_step()
            return
        self._maybe_crash_running(task)
        dt = run.decode_step()
        task.t += dt
        self._set_now(task.t)
        self.decode_tokens += len(run.group)
        self._autoscale(task.t)
        expected = self.costs.decode_cost_s(run.replica.profile) \
            * run.replica.scale
        task.slow_steps = task.slow_steps + 1 \
            if dt > self.policy.hedge_slowdown * expected else 0
        if not task.hedged and self.hedging_enabled and \
                task.slow_steps >= self.policy.hedge_after_steps:
            task.hedged = True
            task.hedge = self._start_hedge(task)

    def _finish(self, task: GroupTask) -> None:
        """The group (or hedge) decoded its last token on ``run.replica``
        at ``t``; the original completes with the earlier finish."""
        run, t = task.run, task.t
        if task.is_hedge:
            self._retire(task)
        run.replica.busy_until_s = t
        self.breakers[run.replica.name].record_success(t)
        if task.is_hedge:
            return
        completions, finish, winner = run.completions(), t, run.replica.name
        hedge = task.hedge
        if hedge is not None and hedge.run.done and hedge.t < finish:
            # The hedge won the race; streams must agree bit-for-bit.
            theirs = hedge.run.completions()
            self._assert_identical(completions, theirs)
            completions, finish, winner = theirs, hedge.t, \
                hedge.run.replica.name
        self._set_now(finish)
        self._complete_group(task, completions, finish, winner)
        self._retire(task)

    def _on_task_fault(self, task: GroupTask, exc: MeshFault) -> None:
        """Fail ``task`` over to another replica (re-prefill), or fail
        the group once the retry budget is spent or no replica is left.
        A faulted hedge is abandoned: the original is still running."""
        run, t, gid, head = task.run, task.t, task.gid, task.subs[0]
        self._on_group_fault(run.replica, exc, t)
        if task.is_hedge:
            self._retire(task)
            return
        task.attempt += 1
        task.handoff_delivered = False
        self.failovers += 1
        error = type(exc).__name__
        self.journal.record(ev.GROUP_FAULTED, t_s=t, group=gid,
                            source=run.replica.name, error=error,
                            attempt=task.attempt)
        if task.attempt <= self.policy.max_retries:
            # The abandoned attempt's pins drop before the group
            # re-prefills elsewhere (the source store may already be
            # invalidated — stale no-ops).
            self._release_leases(run, t, gid)
            try:
                target = self._pick_replica(
                    t, head.request.request_id, head.priority_class,
                    exclude=run.replica, phase="prefill",
                    prompt=head.request.prompt)
            except NoHealthyReplica as nhr_exc:
                error = type(nhr_exc).__name__
            else:
                self.journal.record(
                    ev.FAILOVER, t_s=t, group=gid, mode="re-prefill",
                    source=run.replica.name, target=target.name,
                    error=error)
                task.t = max(t + self.policy.failover_overhead_s,
                             target.busy_until_s)
                task.run = GroupRun(target, run.group)
                return
        self._fail_group(task.subs, task.outcomes, gid=gid, error=error,
                         failovers=task.attempt, finish_s=t)
        self._retire(task)

    def _retire(self, task: GroupTask) -> None:
        """``task`` is over: drop its page pins and its live entry."""
        self._release_leases(task.run, task.t, task.gid)
        self._tasks.remove(task)
        task.done = True

    # -- the KV handoff (pooled planes) -------------------------------------

    def _colocate(self, task: GroupTask, t: float, reason: str) -> None:
        """Give up on handing off: decode in place on the prefill
        replica from ``t`` (a degrade path, not a fault)."""
        self.handoffs_colocated += 1
        self.journal.record(ev.KV_HANDOFF_COLOCATED, t_s=t, group=task.gid,
                            replica=task.run.replica.name, reason=reason)
        task.t = t

    def _uncached_bytes(self, run: GroupRun,
                        target: Replica) -> tuple[int, int]:
        """Split the handoff payload into (uncached, already-cached) bytes.

        The Mooncake-style pricing: prefix pages the *target's* store
        already holds need not cross the link — only the uncached
        remainder is transferred.  Matched tokens are measured by a pure
        ``peek`` per request against the target store.
        """
        total = run.kv_cache_bytes()
        if target.kvstore is None:
            return total, 0
        per_token = sum(
            2 * cache.global_shape[2] * cache.global_shape[3]
            * np.dtype(cache.dtype).itemsize
            for cache in run.caches)
        matched = sum(target.kvstore.peek(request.prompt)
                      for request in run.group)
        saved = min(matched * per_token, total)
        return total - saved, saved

    def _adopt_pages(self, run: GroupRun, source: Replica,
                     target: Replica, t: float, gid: int) -> None:
        """Register the source's prefix pages on the target store.

        Adoption is by reference (sealed pages are immutable), so later
        prompts sharing the prefix hit on the decode side too and the
        next handoff of the same prefix prices at zero.  The journal
        record changes no replayed state: adoption only seeds a cache —
        losing it costs recompute, never correctness — unlike leases,
        which pin memory.
        """
        if source.kvstore is None or target.kvstore is None:
            return
        adopted = 0
        for request in run.group:
            pages = source.kvstore.lookup_pages(request.prompt)
            if pages:
                adopted += target.kvstore.adopt(request.prompt, pages)
        if adopted:
            self.journal.record(ev.KV_PAGES_ADOPTED, t_s=t, group=gid,
                                source=source.name, target=target.name,
                                pages=adopted)

    def _handoff_target(self, t: float, run: GroupRun) -> Replica | None:
        """The decode-pool replica to hand ``run`` to, if any is
        reachable (never another prefill replica)."""
        try:
            return self._pick_replica(t, run.group[0].request_id,
                                      "default", phase="decode",
                                      fallback=False)
        except NoHealthyReplica:
            return None

    def _handoff(self, task: GroupTask) -> None:
        """Hand the group's finished KV caches to a decode replica —
        transactionally.

        The Section 4.4 prefill-server -> decode-server transfer as a
        prepare/commit transaction.  **Prepare** stages the merged
        caches host-side (:meth:`GroupRun.migrate_to` — Section 4.4's
        host-mediated path), so the staged pages stay valid however the
        source mesh changes afterwards.  **Commit** drives the transfer:
        the source's fault clock advances one ``"handoff"`` phase step,
        and any fault there — source chips lost, the transfer ack lost,
        the decode pool partitioned — is *retried* with seeded jittered
        exponential backoff (``jittered_backoff_s``, keyed by the group
        id) after a source heartbeat replans around whatever died.  The
        retransmit path dedups: if the pages already landed (ack lost
        after delivery), the duplicate is dropped on the decode side and
        the commit proceeds — the journal's prepare/retry/commit records
        are what the auditor replays to certify exactly-once delivery.
        Only an exhausted retry budget raises :class:`HandoffAborted`
        into the failover path (re-prefill in the prefill pool).

        A commit moves ``task`` to the target, where decode starts at
        ``max(prefill_end + transfer, target_busy)``; the source's pins
        drop.  Groups run one at a time, so the target is idle by then
        (``overlapped_s`` is 0.0).  No decode target (or a plan that
        cannot host the batch) degrades to decoding in place, unless the
        pool is merely partitioned — then the transaction waits it out.
        """
        run, t, gid = task.run, task.t, task.gid
        source = run.replica
        policy = self.policy
        n_bytes = run.kv_cache_bytes()
        self.journal.record(ev.KV_HANDOFF_PREPARED, t_s=t, group=gid,
                            source=source.name, bytes=n_bytes)
        budget = max(policy.handoff_retries, 0)
        attempts = budget + 1
        target: Replica | None = None
        new_run: GroupRun | None = None
        for attempt in range(1, attempts + 1):
            self._update_partitions(t)
            failure = None
            if target is not None and target.name in self.quarantined:
                target = None     # partition opened mid-backoff:
                new_run = None    # re-pick (and re-stage) after it heals
            if target is None:
                target = self._handoff_target(t, run)
                if target is None:
                    if self.quarantined:
                        # The decode pool is partitioned, not gone: the
                        # staged pages are fine, wait out the window.
                        failure = "decode-pool-partitioned"
                    else:
                        return self._colocate(task, t, "no decode target")
            if failure is None and new_run is None:
                try:
                    new_run = run.migrate_to(target)
                except ValueError:
                    # The target's plan cannot host this batch (weight-
                    # gathered batch-group divisibility): not a fault,
                    # just decode here.
                    return self._colocate(task, t, "migration refused")
            if failure is None:
                # Commit: the source drives the transfer — advance its
                # fault clock one "handoff" phase step so chaos can
                # fault exactly here.
                source.advance("handoff")
                state = source.fault_state
                if state is not None and state.dead_chips:
                    failure = "source-chips-lost"
                elif state is not None and \
                        state.take_transfer_fault("handoff") is not None:
                    # The pages landed but the ack was lost: the decode
                    # side holds them; the retransmit must dedup.
                    task.handoff_delivered = True
                    failure = "ack-lost"
            if failure is None:
                if task.handoff_delivered:
                    self.handoff_dups_dropped += 1
                    self.journal.record(ev.KV_HANDOFF_DEDUPED, t_s=t,
                                        group=gid, target=target.name)
                # Prefix pages the target's store already holds stay
                # put — only the uncached remainder is priced on the
                # A.1 link (storage traded for transfer, the Mooncake
                # recipe applied to the handoff).
                uncached, saved = self._uncached_bytes(run, target)
                transfer_s = handoff_transfer_s(uncached)
                # The source is occupied until the transfer completes
                # (a drain or scale-in of it waits at least that long);
                # decode starts at whichever of transfer-done /
                # target-free is later.
                source.busy_until_s = t + transfer_s
                decode_start = max(t + transfer_s, target.busy_until_s)
                self.kv_handoffs += 1
                self.kv_handoff_bytes += uncached
                self.journal.record(
                    ev.KV_HANDOFF, t_s=t, group=gid, source=source.name,
                    target=target.name, bytes=uncached,
                    bytes_saved=saved, transfer_s=transfer_s,
                    decode_start_s=decode_start, attempt=attempt,
                    overlapped_s=max(
                        target.busy_until_s - (t + transfer_s), 0.0))
                # Post-commit: seed the decode side's store so the next
                # shared-prefix handoff prices (and routes) even better.
                self._adopt_pages(run, source, target, t, gid)
                task.run, task.t = new_run, decode_start
                self._release_leases(run, decode_start, gid)
                return
            if attempt == attempts:
                self.handoff_aborts += 1
                self.journal.record(ev.KV_HANDOFF_ABORTED, t_s=t, group=gid,
                                    source=source.name, reason=failure,
                                    budget=budget)
                source.busy_until_s = t
                raise HandoffAborted(
                    f"KV handoff for group {gid} gave up after "
                    f"{budget} retries ({failure}); re-prefilling")
            self.handoff_retries += 1
            # Seeded jitter: the backoff's default jitter (0.5) and seed
            # (0), keyed by the group so concurrent retries spread out.
            backoff = jittered_backoff_s(
                attempt, base_s=policy.handoff_backoff_base_s, key=gid)
            self.journal.record(ev.KV_HANDOFF_RETRIED, t_s=t, group=gid,
                                source=source.name, attempt=attempt,
                                reason=failure, backoff_s=backoff)
            t += backoff
            self._set_now(t)
            source.busy_until_s = t
            # Replan around whatever died before the retransmit; the
            # staged pages (prepare) stay valid across the replan.
            source.heartbeat(t)
        raise AssertionError("unreachable: handoff loop neither "
                             "committed nor aborted")

    # -- collapse-to-colocated ----------------------------------------------

    def collapse_pools(self, now_s: float) -> bool:
        """Merge the pools: any replica serves any phase (brownout rung).

        Routing reverts to colocated least-busy dispatch and the handoff
        is suspended; replicas keep their current plans until the
        colocated profile rules re-steer them at dispatch.  Reversible
        via :meth:`restore_pools`; a no-op on a colocated plane.
        """
        if self.pools_collapsed or not self.pool_of:
            return False
        self.pools_collapsed = True
        self.journal.record(ev.POOLS_COLLAPSED, t_s=now_s)
        return True

    def restore_pools(self, now_s: float) -> bool:
        """Reverse :meth:`collapse_pools`: pool routing and handoffs
        resume; pool profiles re-apply at each replica's next dispatch."""
        if not self.pools_collapsed:
            return False
        self.pools_collapsed = False
        self.journal.record(ev.POOLS_RESTORED, t_s=now_s)
        return True

    # -- fault / drain / hedge handling ------------------------------------

    def _note_leases(self, run: GroupRun, t: float, gid: int) -> None:
        """Journal the page leases ``run``'s prefill just pinned.

        Called after every prefill (groups and hedges alike) so the
        write-ahead journal sees each lease exactly once; the
        auditor later checks each journaled lease has exactly one
        matching release record — the exactly-once ledger extended to
        shared pages.
        """
        for lease in run.leases:
            if lease.journaled:
                continue
            lease.journaled = True
            self.kv_page_leases += 1
            self.kv_pages_leased += lease.n_pages
            self.journal.record(ev.PAGE_LEASED, t_s=t, group=gid,
                                replica=run.replica.name,
                                lease_id=lease.lease_id,
                                pages=lease.n_pages, tokens=lease.n_tokens)

    def _release_leases(self, run: GroupRun, t: float, gid: int) -> None:
        """Unpin and journal every lease ``run`` still holds.

        Covers all terminal paths — completion, failover abandon, drain
        migration, hedge retirement, replica crash.  Release is
        idempotent and epoch-checked in the store, so a crash that
        already invalidated the store turns these into counted no-op
        (stale) releases; the journal record closes the lease either
        way, keeping the lease/release ledger balanced.
        """
        for lease in run.release_leases():
            if not lease.journaled:
                continue
            self.kv_page_releases += 1
            self.kv_pages_released += lease.n_pages
            self.journal.record(ev.PAGE_RELEASED, t_s=t, group=gid,
                                replica=run.replica.name,
                                lease_id=lease.lease_id,
                                pages=lease.n_pages)

    def _on_group_fault(self, replica: Replica, exc: MeshFault,
                        t: float) -> None:
        self.journal.record(ev.FAULT_DETECTED, t_s=t, replica=replica.name,
                            error=type(exc).__name__, detail=str(exc))
        self.breakers[replica.name].record_failure(
            t, reason=type(exc).__name__)
        replica.busy_until_s = t  # partial work still occupied the slice
        if isinstance(exc, ReplicaCrashed):
            # Whole process died: no replan can save it — restart and
            # rejoin after the policy downtime.
            self.journal.record(ev.REPLICA_RESTARTED, t_s=t,
                                replica=replica.name, mode=exc.mode,
                                group=exc.group)
            self._restart_replica(replica, t, exc.mode)
        else:
            replica.heartbeat(t)  # replan around dead chips, or go DEAD

    def _maybe_drain(self, task: GroupTask) -> bool:
        """Execute a scheduled drain of the replica running ``task``;
        ``True`` if the task moved (and dropped the source's pins).

        Marks the source ``DRAINING`` (out of rotation), migrates the
        live KV caches to a target replica, and falls back to re-prefill
        when the target's plan cannot host the migrated batch.
        """
        run, t = task.run, task.t
        name = run.replica.name
        drain_at = self._drains.get(name)
        if drain_at is None or t < drain_at:
            return False
        del self._drains[name]
        source = run.replica
        source.set_health(ReplicaHealth.DRAINING, t,
                          "scheduled drain (planned maintenance)")
        source.busy_until_s = t
        rid = run.group[0].request_id
        try:
            target = self._pick_replica(t, rid, "default", exclude=source,
                                        phase="decode")
        except NoHealthyReplica:
            # Nowhere to go: cancel the drain and keep serving here.
            source.set_health(ReplicaHealth.DEGRADED, t,
                              "drain aborted: no target replica")
            self.journal.record(ev.REPLICA_DRAINED, t_s=t, replica=name,
                                mode="aborted")
            return False
        try:
            new_run = run.migrate_to(target)
            mode = "cache-migration"
            t = max(t + self.policy.drain_migrate_s, target.busy_until_s)
        except ValueError as exc:
            new_run = GroupRun(target, run.group)
            mode = "re-prefill"
            t = max(t + self.policy.failover_overhead_s,
                    target.busy_until_s)
            self.journal.record(ev.FAULT_DETECTED, t_s=t, replica=source.name,
                                error="CacheMigrationFailed",
                                detail=str(exc))
        self.journal.record(ev.REPLICA_DRAINED, t_s=t, replica=name,
                            mode=mode, target=target.name)
        self._release_leases(run, task.t, task.gid)
        task.run, task.t = new_run, t
        return True

    def _start_hedge(self, task: GroupTask) -> GroupTask | None:
        """Dispatch a duplicate of the lagging group to a second replica.

        Returns the hedge task, or ``None`` when there is no backup
        replica.  The original takes the hedge's tokens if the hedge
        finishes first (:meth:`_finish`); a hedge that faults is
        abandoned, and the breaker records the failure either way.
        """
        run, t = task.run, task.t
        try:
            backup = self._pick_replica(t, run.group[0].request_id,
                                        "default", exclude=run.replica,
                                        phase="decode")
        except NoHealthyReplica:
            return None  # nobody to hedge to; don't retry the check
        if backup is run.replica:
            return None
        self.hedges += 1
        self.journal.record(ev.HEDGE, t_s=t, group=task.gid,
                            source=run.replica.name, target=backup.name)
        hedge = GroupTask(task.gid, task.subs, task.outcomes,
                          GroupRun(backup, run.group),
                          max(t, backup.busy_until_s), task.capped,
                          is_hedge=True)
        self._tasks.append(hedge)
        return hedge

    @staticmethod
    def _assert_identical(a: Sequence[Completion],
                          b: Sequence[Completion]) -> None:
        for left, right in zip(a, b):
            if left.request_id != right.request_id or \
                    not np.array_equal(left.tokens, right.tokens):
                raise AssertionError(
                    f"hedged streams diverged for request "
                    f"{left.request_id}: greedy decode must be "
                    f"replica-invariant")

    # -- outcome bookkeeping ------------------------------------------------

    def _complete_group(self, task: GroupTask,
                        completions: Sequence[Completion], finish_s: float,
                        replica: str) -> None:
        hedged, failovers = task.hedged, task.attempt
        for sub, completion, was_capped in zip(task.subs, completions,
                                               task.capped):
            rid = sub.request.request_id
            crc = token_crc(completion.tokens)
            stream_len = int(len(completion.tokens))
            self._ledger_completed[rid] = (crc, stream_len, was_capped)
            met = sub.deadline_s is None or finish_s <= sub.deadline_s
            status = (ClusterRequestStatus.COMPLETED if met
                      else ClusterRequestStatus.DEADLINE_MISSED)
            outcome = ClusterOutcome(
                rid, status, sub.priority_class, completion=completion,
                replica=replica, arrival_s=sub.arrival_s,
                finish_s=finish_s, hedged=hedged, failovers=failovers,
                first_token_s=task.first_token_s, output_capped=was_capped)
            task.outcomes[rid] = outcome
            self.journal.record(ev.REQUEST_COMPLETED, t_s=finish_s,
                                request_id=rid, group=task.gid,
                                replica=replica,
                                crc=crc, stream_len=stream_len,
                                met_deadline=met, hedged=hedged,
                                failovers=failovers,
                                priority_class=sub.priority_class,
                                ttft_s=outcome.ttft_s,
                                tpot_s=outcome.tpot_s,
                                n_tokens=completion.n_generated,
                                output_capped=was_capped)

    def _fail_group(self, subs, by_id, *, gid: int, error: str,
                    failovers: int,
                    finish_s: float | None = None) -> None:
        finish = self.now_s if finish_s is None else finish_s
        for sub in subs:
            rid = sub.request.request_id
            self._ledger_failed[rid] = error
            by_id[rid] = ClusterOutcome(
                rid, ClusterRequestStatus.FAILED, sub.priority_class,
                arrival_s=sub.arrival_s, finish_s=finish,
                failovers=failovers, rejection=error)
            self.journal.record(ev.REQUEST_FAILED, t_s=finish, request_id=rid,
                                group=gid, retries=failovers, error=error)
