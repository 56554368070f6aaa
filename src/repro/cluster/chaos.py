"""Seeded chaos scenarios against the cluster control plane.

Chaos engineering for the simulated fleet: each :class:`ChaosScenario`
is a fully deterministic experiment — a replica topology, a scheduled
:class:`~repro.mesh.faults.FaultPlan` per replica, an admission policy
and a synthetic workload — that :func:`run_scenario` executes under a
fixed seed and distills into a :class:`ChaosReport` (availability,
per-class goodput, latency percentiles, failover/hedge counts, and a
bit-identity check of every completed token stream against the
fault-free reference model).

Because every clock in the stack is virtual (the control plane's
``now_s``, the mesh fault clocks, the tracer), the *entire run* — tokens,
events, spans, report — is a pure function of ``(scenario, backend,
seed)``.  The CI chaos job exploits that: it replays the scenarios over
a seed matrix on both mesh backends and asserts the invariants hold.

Built-in scenarios (:data:`SCENARIOS`):

* ``rolling-kill`` — a chip dies mid-decode on one of three replicas;
  every admitted request must still complete, bit-identical, zero drops.
* ``planned-drain`` — a replica is drained mid-decode; its live KV
  caches migrate to a sibling (re-prefill only as fallback).
* ``correlated-stragglers`` — two replicas stagger through a straggler
  window; hedged decode re-runs the group on a clean replica, the
  earlier finish is taken, and both streams must match.
* ``overload-burst`` — a burst over capacity; the token buckets and
  bounded queues shed load with *typed* rejections, and the priority
  classes show who kept their goodput.
* ``breaker-flap`` — repeated collective timeouts on one replica walk
  its circuit breaker closed -> open -> half-open -> closed.
* ``flash-crowd`` — a trace-driven 8x arrival spike against a fleet
  already at ``max_replicas``; scaling cannot help, so the brownout
  ladder engages rung by rung and fully reverses once the crowd passes.
* ``diurnal-rolling-kill`` — a diurnal trace with a chip death at the
  daily peak; the autoscaler rides the curve (scale-out, then drain
  back) while failover absorbs the kill.
* ``control-plane-crash-mid-drain`` — the control plane itself dies
  with a drain pending; it recovers by replaying the write-ahead
  journal and the drain still executes.
* ``pool-partition`` — the decode pool drops off the heartbeat network
  mid-run; the transactional KV handoff retries into the partition with
  seeded backoff until it heals, and commits.
* ``restart-storm`` — three scheduled replica process deaths (cold and
  warm) roll through the fleet; in-flight groups fail over and every
  replica rejoins after its restart downtime.
* ``shared-prefix-kill`` — chat traffic with heavy system-prompt reuse
  hits the paged prefix cache; a chip dies on the replica holding the
  shared pages mid-run, its store invalidates, failover re-prefills,
  and the auditor certifies no page was double-freed or leaked.

Every run — chaotic or not — additionally proves its journal: replay
must reconstruct the live control-plane state bit-identically, and the
invariant auditor (:mod:`repro.cluster.audit`) must certify request
conservation, exactly-once KV handoff, and token bit-identity against
the fault-free oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro import events as ev
from repro.cluster.admission import PriorityClass
from repro.cluster.autoscaler import Autoscaler, AutoscalerPolicy
from repro.cluster.audit import audit_run
from repro.cluster.control_plane import (
    ClusterControlPlane,
    ClusterOutcome,
    ClusterPolicy,
    ClusterRequestStatus,
    ClusterSubmission,
    RestartSpec,
)
from repro.cluster.disagg import PoolPartition, PoolSpec, default_pools
from repro.cluster.journal import JournalTruncated, replay_journal
from repro.cluster.pricing import SLOW_COSTS, CostModel
from repro.cluster.workload import TRACES, generate_trace
from repro.mesh.faults import (
    ChipKill,
    CollectiveFault,
    FaultPlan,
    StragglerFault,
)
from repro.model import ReferenceTransformer, init_weights, tiny_test_config
from repro.observability.metrics import (
    capture_stats_line,
    kvstore_stats_line,
)
from repro.observability.spans import record_marks
from repro.serving.engine import Request

Coord = tuple[int, int, int]

#: Model every scenario serves: tiny but real — the same config the
#: fault-tolerance acceptance tests decode, so reference completions are
#: cheap to recompute for the bit-identity check.
CHAOS_CONFIG = tiny_test_config(n_layers=2, d_model=16, d_ff=32,
                                n_heads=8, d_head=8, vocab_size=32)
PROMPT_LEN = 6
NEW_TOKENS = 6


@dataclass(frozen=True)
class ChaosScenario:
    """One deterministic chaos experiment (pure data; see module doc)."""

    name: str
    description: str
    shapes: tuple[Coord, ...] = ((2, 2, 2), (2, 2, 2), (2, 2, 2))
    decode_batch: int = 4
    fault_plans: tuple[tuple[int, FaultPlan], ...] = ()
    drains: tuple[tuple[str, float], ...] = ()
    classes: tuple[PriorityClass, ...] = (PriorityClass("default"),)
    policy: ClusterPolicy = ClusterPolicy()
    n_requests: int = 8
    arrival_spacing_s: float = 0.05
    deadline_s: float | None = None
    #: Round-robin class assignment over arrivals.
    class_cycle: tuple[str, ...] = ("default",)
    #: Trace-driven workload: a :data:`repro.cluster.workload.TRACES`
    #: name replaces the synthetic fixed-spacing arrivals above (the
    #: trace spec's classes/deadlines apply; set ``classes`` to match).
    trace: str | None = None
    #: Attach an autoscaler with this policy (None = static fleet).
    autoscale: AutoscalerPolicy | None = None
    #: Cost model override; trace scenarios slow the virtual replicas
    #: down so the trace's bursts create real queueing pressure.
    costs: CostModel | None = None
    #: Disaggregated serving: pool specs replace ``shapes`` (fault plan
    #: indices follow the concatenated prefill-then-decode replica
    #: order).
    pools: tuple[PoolSpec, ...] = ()
    #: Scheduled replica process deaths: (replica name, RestartSpec).
    #: The replica crashes at ``at_s`` (failing any in-flight group over
    #: to a sibling) and rejoins after its cold/warm restart downtime.
    restarts: tuple[tuple[str, RestartSpec], ...] = ()
    #: Heartbeat-loss windows that quarantine a whole pool (pooled
    #: scenarios only).
    partitions: tuple[PoolPartition, ...] = ()
    #: Kill the control plane itself at this virtual time; it must
    #: recover by replaying its write-ahead journal.
    crash_at_s: float | None = None
    #: Invariants the report checks beyond the universal ones.
    expect_failovers: bool = False
    expect_hedges: bool = False
    expect_rejections: tuple[str, ...] = ()
    #: Rejections are tolerated but not required (brownout shedding
    #: depends on how hard the trace happens to spike under this seed).
    allow_rejections: bool = False
    expect_breaker_round_trip: bool = False
    expect_brownout: bool = False
    expect_scale_out: bool = False
    expect_handoffs: bool = False
    expect_handoff_retries: bool = False
    expect_restarts: bool = False
    expect_recovery: bool = False
    expect_quarantine: bool = False
    expect_page_hits: bool = False


SCENARIOS: dict[str, ChaosScenario] = {s.name: s for s in (
    ChaosScenario(
        name="rolling-kill",
        description="chip death mid-decode on 1 of 3 replicas; failover "
                    "re-prefills, zero drops, bit-identical tokens",
        fault_plans=((0, FaultPlan(faults=(
            ChipKill(chip=(0, 1, 0), at_step=2, phase="decode"),))),),
        n_requests=12,
        expect_failovers=True,
    ),
    ChaosScenario(
        name="planned-drain",
        description="replica drained mid-decode; live KV caches migrate "
                    "to a sibling replica",
        shapes=((2, 2, 2), (2, 2, 2)),
        drains=(("r0", 0.02),),
        n_requests=8,
    ),
    ChaosScenario(
        name="correlated-stragglers",
        description="straggler window on 2 of 3 replicas; hedged decode "
                    "re-runs the group on a clean replica; the earlier "
                    "finish is taken and both streams must match",
        fault_plans=(
            (0, FaultPlan(faults=(
                StragglerFault(chip=(0, 0, 1), slowdown=4.0,
                               delay_s_per_op=2e-3, at_step=1,
                               until_step=60, phase="decode"),))),
            (1, FaultPlan(faults=(
                StragglerFault(chip=(1, 1, 0), slowdown=4.0,
                               delay_s_per_op=2e-3, at_step=1,
                               until_step=60, phase="decode"),))),
        ),
        n_requests=8,
        arrival_spacing_s=0.2,
        expect_hedges=True,
    ),
    ChaosScenario(
        name="overload-burst",
        description="arrival burst over fleet capacity; token buckets "
                    "and bounded queues shed load with typed errors "
                    "while the interactive class keeps its goodput",
        shapes=((2, 2, 2), (2, 2, 2)),
        classes=(
            PriorityClass("interactive", priority=0, rate=1000.0,
                          burst=24, queue_limit=6),
            PriorityClass("batch", priority=1, rate=30.0, burst=4,
                          queue_limit=4),
        ),
        class_cycle=("interactive", "batch"),
        n_requests=36,
        arrival_spacing_s=0.001,
        deadline_s=60.0,
        expect_rejections=("QueueFull", "RateLimited"),
    ),
    ChaosScenario(
        name="breaker-flap",
        description="repeated collective timeouts trip one replica's "
                    "breaker open; after the cooldown a half-open probe "
                    "closes it again",
        shapes=((2, 2, 2), (2, 2, 2)),
        fault_plans=((0, FaultPlan(faults=(
            CollectiveFault(kind="timeout", at_step=1, phase="decode",
                            match_index=0),
            CollectiveFault(kind="timeout", at_step=2, phase="decode",
                            match_index=5),))),),
        policy=ClusterPolicy(breaker_failures=2, breaker_cooldown_s=0.2),
        n_requests=16,
        arrival_spacing_s=0.05,
        expect_failovers=True,
        expect_breaker_round_trip=True,
    ),
    ChaosScenario(
        name="flash-crowd",
        description="trace-driven 8x arrival spike against a fleet "
                    "pinned at max_replicas; the brownout ladder engages "
                    "rung by rung and fully reverses after the crowd",
        shapes=((2, 2, 2),),
        trace="flash-crowd",
        classes=TRACES["flash-crowd"].priority_classes(),
        autoscale=AutoscalerPolicy(
            min_replicas=1, max_replicas=1, scale_out_pressure=6.0,
            brownout_enter_pressure=8.0, brownout_exit_pressure=2.0,
            recover_after=2),
        costs=SLOW_COSTS,
        policy=ClusterPolicy(max_batch_wait_s=0.05),
        allow_rejections=True,
        expect_brownout=True,
    ),
    ChaosScenario(
        name="diurnal-rolling-kill",
        description="diurnal trace with a chip death near the peak; the "
                    "autoscaler rides the curve out to 3 replicas and "
                    "drains back while failover absorbs the kill",
        shapes=((2, 2, 2), (2, 2, 2)),
        trace="diurnal",
        classes=TRACES["diurnal"].priority_classes(),
        fault_plans=((0, FaultPlan(faults=(
            ChipKill(chip=(0, 1, 0), at_step=2, phase="decode"),))),),
        autoscale=AutoscalerPolicy(
            min_replicas=2, max_replicas=3, scale_out_pressure=1.0,
            scale_in_pressure=0.5, up_after=2, down_after=4,
            spinup_s=0.1),
        costs=SLOW_COSTS,
        policy=ClusterPolicy(max_batch_wait_s=0.05),
        expect_failovers=True,
        expect_scale_out=True,
    ),
    ChaosScenario(
        name="prefill-kill-mid-handoff",
        description="disaggregated pools: a prefill replica's chip dies "
                    "exactly at the KV handoff; the transactional "
                    "handoff's staged pages survive the source replan, "
                    "the retry commits on a degraded source, and every "
                    "handoff lands bit-identical tokens on the decode "
                    "pool (the pre-transactional path aborted here)",
        pools=default_pools([(2, 2, 2), (2, 2, 2)], [(2, 2, 2)]),
        fault_plans=((0, FaultPlan(faults=(
            ChipKill(chip=(0, 1, 0), at_step=1, phase="handoff"),))),),
        n_requests=12,
        expect_handoffs=True,
        expect_handoff_retries=True,
    ),
    ChaosScenario(
        name="control-plane-crash-mid-drain",
        description="the control plane crashes with a drain pending; it "
                    "recovers by replaying the write-ahead journal "
                    "(replayed state must be bit-identical to the live "
                    "state) and the drain still executes afterwards",
        shapes=((2, 2, 2), (2, 2, 2)),
        drains=(("r0", 0.04),),
        crash_at_s=0.03,
        n_requests=10,
        expect_recovery=True,
    ),
    ChaosScenario(
        name="pool-partition",
        description="the decode pool drops off the heartbeat network "
                    "mid-run and is quarantined; the transactional KV "
                    "handoff retries into the partition with seeded "
                    "jittered backoff until the pool heals, then commits "
                    "exactly once",
        pools=default_pools([(2, 2, 2)], [(2, 2, 2)]),
        partitions=(PoolPartition("decode", 0.02, 0.25),),
        policy=ClusterPolicy(handoff_retries=4,
                             handoff_backoff_base_s=0.05),
        n_requests=8,
        arrival_spacing_s=0.01,
        expect_handoffs=True,
        expect_handoff_retries=True,
        expect_quarantine=True,
    ),
    ChaosScenario(
        name="restart-storm",
        description="three scheduled replica process deaths (cold, "
                    "warm, cold) roll through the fleet; in-flight "
                    "groups fail over, each replica re-shards (cold) or "
                    "rejoins warm after its downtime, and the journal "
                    "records every crash/rejoin pair",
        restarts=(("r0", RestartSpec(at_s=0.05, mode="cold")),
                  ("r1", RestartSpec(at_s=0.15, mode="cold")),
                  ("r2", RestartSpec(at_s=0.28, mode="warm"))),
        n_requests=14,
        arrival_spacing_s=0.03,
        expect_failovers=True,
        expect_restarts=True,
    ),
    ChaosScenario(
        name="shared-prefix-kill",
        description="chat trace with 80% shared system prompts warms "
                    "the paged prefix cache; a chip dies mid-decode on "
                    "the replica holding the shared pages, its store "
                    "invalidates, failover re-prefills on a sibling, "
                    "and page-lease accounting stays exactly-once",
        shapes=((2, 2, 2), (2, 2, 2)),
        trace="chatbot-sessions",
        classes=TRACES["chatbot-sessions"].priority_classes(),
        fault_plans=((0, FaultPlan(faults=(
            ChipKill(chip=(0, 1, 0), at_step=2, phase="decode"),))),),
        costs=SLOW_COSTS,
        policy=ClusterPolicy(max_batch_wait_s=0.05),
        expect_failovers=True,
        expect_page_hits=True,
    ),
    ChaosScenario(
        name="flash-crowd-disagg",
        description="flash-crowd spike on disaggregated pools pinned at "
                    "capacity; the brownout ladder climbs to collapse-"
                    "to-colocated, merges the pools under pressure, and "
                    "fully reverses (pools split again) after the crowd",
        pools=default_pools([(2, 2, 2)], [(2, 2, 2)]),
        trace="flash-crowd",
        classes=TRACES["flash-crowd"].priority_classes(),
        autoscale=AutoscalerPolicy(
            min_replicas=2, max_replicas=2, scale_out_pressure=6.0,
            brownout_enter_pressure=8.0, brownout_exit_pressure=2.0,
            recover_after=2),
        costs=SLOW_COSTS,
        policy=ClusterPolicy(max_batch_wait_s=0.05),
        allow_rejections=True,
        expect_brownout=True,
        expect_handoffs=True,
    ),
)}

@dataclass
class ChaosReport:
    """What one seeded chaos run did, distilled for assertions and CLI."""

    scenario: str
    backend: str
    seed: int
    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    deadline_missed: int = 0
    rejections: dict[str, int] = field(default_factory=dict)
    dropped_in_flight: int = 0
    availability: float = 1.0          # completed / admitted
    goodput_per_class: dict[str, float] = field(default_factory=dict)
    p50_latency_s: float = 0.0
    p99_latency_s: float = 0.0
    makespan_s: float = 0.0
    failovers: int = 0
    hedges: int = 0
    breaker_states: list[str] = field(default_factory=list)
    health_transitions: int = 0
    replicas_added: int = 0
    replicas_removed: int = 0
    plan_switches: int = 0
    brownout_steps: list[str] = field(default_factory=list)
    brownout_reverted: bool = True
    output_capped: int = 0
    fleet_chip_seconds: float = 0.0
    kv_handoffs: int = 0
    kv_handoff_bytes: int = 0
    handoffs_colocated: int = 0
    handoff_retries: int = 0
    handoff_aborts: int = 0
    handoff_dup_drops: int = 0
    restarts: int = 0
    recoveries: int = 0
    quarantines: int = 0
    journal_records: int = 0
    journal_truncated: int = 0
    replay_matches: bool = True
    audit_certified: bool = True
    audit_violations: list[str] = field(default_factory=list)
    #: Per-replica :meth:`StepCompiler.stats` snapshots (retired
    #: replicas included), keyed by replica name.
    capture_stats: dict[str, dict] = field(default_factory=dict)
    #: Per-replica :meth:`KVStore.stats` + buffer-arena snapshots,
    #: keyed by replica name (arena-only when the store is disabled).
    kvstore_stats: dict[str, dict] = field(default_factory=dict)
    page_leases: int = 0
    page_releases: int = 0
    n_events: int = 0
    n_spans: int = 0
    bit_identical: bool = True
    violations: list[str] = field(default_factory=list)
    #: The run's span stream (virtual-clock timestamps), for export: the
    #: tracer's group regions, then one mark per journal record.
    spans: list = field(default_factory=list, repr=False)
    #: The run's full journal as plain dicts (for the ``chaos --json``
    #: artifact; small — tens to hundreds of records per run).
    journal_dump: list = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations


def build_workload(scenario: ChaosScenario,
                   seed: int) -> list[ClusterSubmission]:
    """The scenario's synthetic arrivals: prompts and classes from the
    seed, arrival times from the scenario's spacing — or, for trace
    scenarios, the full seeded trace generator."""
    if scenario.trace is not None:
        return generate_trace(TRACES[scenario.trace], seed,
                              vocab_size=CHAOS_CONFIG.vocab_size)
    rng = np.random.default_rng(seed)
    subs = []
    for i in range(scenario.n_requests):
        prompt = rng.integers(0, CHAOS_CONFIG.vocab_size, size=PROMPT_LEN)
        cls = scenario.class_cycle[i % len(scenario.class_cycle)]
        subs.append(ClusterSubmission(
            Request(i, prompt, NEW_TOKENS), priority_class=cls,
            deadline_s=scenario.deadline_s,
            arrival_s=i * scenario.arrival_spacing_s))
    return subs


def reference_completions(submissions: Sequence[ClusterSubmission],
                          weights) -> dict[int, np.ndarray]:
    """Fault-free greedy tokens (prompt + output) by request id, each
    request generated alone on the reference model."""
    ref = ReferenceTransformer(weights)
    return {s.request.request_id:
            ref.generate(s.request.prompt[None, :],
                         s.request.max_new_tokens)[0]
            for s in submissions}


def _check(report: ChaosReport, scenario: ChaosScenario,
           outcomes: Sequence[ClusterOutcome]) -> None:
    """Universal + per-scenario invariants -> ``report.violations``."""
    v = report.violations
    if not report.bit_identical:
        v.append("completed token streams diverged from the fault-free "
                 "reference")
    if not report.replay_matches:
        v.append("journal replay did not reconstruct the live "
                 "control-plane state bit-identically")
    if not report.audit_certified:
        for violation in report.audit_violations:
            v.append(f"audit: {violation}")
    if report.page_leases != report.page_releases:
        v.append(f"page-lease accounting is not balanced: "
                 f"{report.page_leases} leases vs "
                 f"{report.page_releases} releases")
    if scenario.expect_page_hits:
        hits = sum(s.get("hits", 0)
                   for s in report.kvstore_stats.values())
        if not hits:
            v.append("expected prefix-cache page hits; saw none")
    if report.dropped_in_flight:
        v.append(f"{report.dropped_in_flight} admitted requests have no "
                 f"terminal outcome")
    if report.failed:
        v.append(f"{report.failed} admitted requests FAILED")
    for kind in scenario.expect_rejections:
        if not report.rejections.get(kind):
            v.append(f"expected {kind} rejections; saw none")
    if not scenario.expect_rejections and not scenario.allow_rejections \
            and report.rejections:
        v.append(f"unexpected rejections {report.rejections}")
    if scenario.expect_failovers and not report.failovers:
        v.append("expected failovers; saw none")
    if scenario.expect_hedges and not report.hedges:
        v.append("expected hedged decodes; saw none")
    if scenario.expect_handoffs and not report.kv_handoffs:
        v.append("expected cross-pool KV handoffs; saw none")
    if scenario.expect_handoff_retries and not report.handoff_retries:
        v.append("expected the transactional handoff to retry; it "
                 "never did")
    if scenario.expect_restarts and not report.restarts:
        v.append("expected replica restarts; saw none")
    if scenario.expect_recovery and not report.recoveries:
        v.append("expected a control-plane journal recovery; saw none")
    if scenario.expect_quarantine and not report.quarantines:
        v.append("expected a pool quarantine; saw none")
    if scenario.expect_brownout and not report.brownout_steps:
        v.append("expected the brownout ladder to engage; it never did")
    if not report.brownout_reverted:
        v.append("brownout did not fully revert after the load subsided")
    if scenario.expect_scale_out:
        if not report.replicas_added:
            v.append("expected the autoscaler to scale out; it never did")
        if not report.replicas_removed:
            v.append("expected scaled-out replicas to drain back in; "
                     "none were removed")
    if scenario.expect_breaker_round_trip:
        need = ["open", "half_open", "closed"]
        states = list(report.breaker_states)
        pos = 0
        for want in need:
            while pos < len(states) and states[pos] != want:
                pos += 1
            if pos == len(states):
                v.append(f"breaker never made the open -> half_open -> "
                         f"closed round trip; transitions were "
                         f"{report.breaker_states}")
                break
            pos += 1


def run_scenario(scenario: ChaosScenario | str, *, backend: str = "loop",
                 seed: int = 0, weights_seed: int = 0) -> ChaosReport:
    """Execute one scenario deterministically and report what happened.

    The report keeps the run's whole timeline: ``journal_dump`` holds
    every record the plane wrote, and ``spans`` the tracer's group
    regions plus one mark per record (the ``repro-inference chaos
    --trace`` exporter reads it).
    """
    if isinstance(scenario, str):
        try:
            scenario = SCENARIOS[scenario]
        except KeyError:
            raise ValueError(f"unknown chaos scenario {scenario!r}; have "
                             f"{sorted(SCENARIOS)}") from None
    weights = init_weights(CHAOS_CONFIG, seed=weights_seed)
    submissions = build_workload(scenario, seed)
    autoscaler = (Autoscaler(scenario.autoscale)
                  if scenario.autoscale is not None else None)
    plane = ClusterControlPlane(
        weights, () if scenario.pools else scenario.shapes,
        pools=scenario.pools, partitions=scenario.partitions,
        backend=backend,
        decode_batch=scenario.decode_batch,
        classes=scenario.classes,
        fault_plans=dict(scenario.fault_plans),
        drains=dict(scenario.drains),
        costs=scenario.costs,
        policy=scenario.policy,
        prompt_len_hint=PROMPT_LEN,
        autoscaler=autoscaler,
        restarts=dict(scenario.restarts),
        crash_at_s=scenario.crash_at_s)
    outcomes = plane.serve(submissions)
    reference = reference_completions(submissions, weights)

    report = ChaosReport(scenario.name, backend or "default", seed)
    report.submitted = len(submissions)
    by_status: dict[ClusterRequestStatus, list[ClusterOutcome]] = {}
    for outcome in outcomes:
        by_status.setdefault(outcome.status, []).append(outcome)
    rejected = by_status.get(ClusterRequestStatus.REJECTED, [])
    report.admitted = report.submitted - len(rejected)
    completed = by_status.get(ClusterRequestStatus.COMPLETED, [])
    report.completed = len(completed)
    report.failed = len(by_status.get(ClusterRequestStatus.FAILED, []))
    report.deadline_missed = len(
        by_status.get(ClusterRequestStatus.DEADLINE_MISSED, []))
    for outcome in rejected:
        report.rejections[outcome.rejection] = \
            report.rejections.get(outcome.rejection, 0) + 1
    report.dropped_in_flight = report.admitted - report.completed \
        - report.failed - report.deadline_missed
    report.availability = (report.completed / report.admitted
                           if report.admitted else 1.0)
    report.failovers = plane.failovers
    report.hedges = plane.hedges
    journal = plane.journal
    report.breaker_states = [e["new"] for e
                             in journal.of_kind(ev.BREAKER_TRANSITION)]
    report.health_transitions = len(journal.of_kind(ev.REPLICA_HEALTH))
    report.replicas_added = len(journal.of_kind(ev.REPLICA_ADDED))
    report.replicas_removed = len(journal.of_kind(ev.REPLICA_REMOVED))
    report.plan_switches = len(journal.of_kind(ev.PLAN_SWITCHED))
    report.output_capped = sum(1 for o in outcomes if o.output_capped)
    report.fleet_chip_seconds = plane.fleet_chip_seconds(plane.now_s)
    handoffs = journal.of_kind(ev.KV_HANDOFF)
    report.kv_handoffs = len(handoffs)
    report.kv_handoff_bytes = sum(e["bytes"] for e in handoffs)
    report.handoffs_colocated = plane.handoffs_colocated
    report.handoff_retries = plane.handoff_retries
    report.handoff_aborts = plane.handoff_aborts
    report.handoff_dup_drops = plane.handoff_dups_dropped
    report.restarts = plane.restarts
    report.recoveries = plane.recoveries
    report.quarantines = len(journal.of_kind(ev.POOL_QUARANTINED))
    report.journal_records = len(journal)
    report.journal_truncated = journal.truncated
    try:
        report.replay_matches = (replay_journal(journal)
                                 == plane.control_state())
    except JournalTruncated:
        report.replay_matches = False
    audit = audit_run(
        journal, final_state=plane.control_state(),
        reference=reference)
    report.audit_certified = audit.certified
    report.audit_violations = list(audit.violations)
    report.journal_dump = [
        {"seq": r.seq, "t_s": r.t_s, "kind": r.kind, "data": dict(r.data)}
        for r in journal]
    report.capture_stats = {
        r.name: r.step_compiler.stats()
        for r in list(plane.replicas) + plane.retired}
    report.kvstore_stats = {
        r.name: r.kvstore_stats()
        for r in list(plane.replicas) + plane.retired}
    report.page_leases = plane.kv_page_leases
    report.page_releases = plane.kv_page_releases
    if autoscaler is not None:
        report.brownout_steps = autoscaler.brownout_steps
        try:
            autoscaler.assert_reverted(plane)
        except AssertionError:
            report.brownout_reverted = False
    report.n_events = len(journal)
    report.spans = plane.tracer.spans + record_marks(journal)
    report.n_spans = len(report.spans)

    finished = completed + by_status.get(
        ClusterRequestStatus.DEADLINE_MISSED, [])
    if finished:
        latencies = sorted(o.latency_s for o in finished)
        report.p50_latency_s = float(np.percentile(latencies, 50))
        report.p99_latency_s = float(np.percentile(latencies, 99))
        report.makespan_s = max(o.finish_s for o in finished)
        span = max(report.makespan_s,
                   max(o.arrival_s for o in finished)) or 1.0
        for outcome in completed:
            report.goodput_per_class[outcome.priority_class] = \
                report.goodput_per_class.get(outcome.priority_class, 0.0) \
                + outcome.completion.n_generated / span
    for outcome in finished:
        ref = reference[outcome.request_id]
        tokens = outcome.completion.tokens
        if outcome.output_capped:
            # A brownout-capped stream is a greedy prefix of the
            # uncapped reference (greedy decode is horizon-invariant).
            identical = np.array_equal(tokens, ref[:len(tokens)])
        else:
            identical = np.array_equal(tokens, ref)
        if not identical:
            report.bit_identical = False
    _check(report, scenario, outcomes)
    return report


def format_report(report: ChaosReport) -> str:
    """Human-readable block for one scenario run (CLI output)."""
    lines = [
        f"scenario {report.scenario} [backend={report.backend} "
        f"seed={report.seed}]: {'OK' if report.ok else 'VIOLATED'}",
        f"  requests: {report.submitted} submitted, {report.admitted} "
        f"admitted, {report.completed} completed, {report.failed} failed, "
        f"{report.deadline_missed} missed deadline, "
        f"{report.dropped_in_flight} dropped in flight",
        f"  availability: {report.availability:.3f}   latency p50 "
        f"{report.p50_latency_s * 1e3:.1f} ms  p99 "
        f"{report.p99_latency_s * 1e3:.1f} ms  makespan "
        f"{report.makespan_s:.3f} s",
        f"  resilience: {report.failovers} failovers, {report.hedges} "
        f"hedges, {report.health_transitions} health transitions, "
        f"breaker {report.breaker_states or '(quiet)'}",
        f"  tokens bit-identical to reference: "
        f"{'yes' if report.bit_identical else 'NO'}",
    ]
    lines.append(
        f"  journal: {report.journal_records} records "
        f"({report.journal_truncated} truncated), replay "
        f"{'bit-identical' if report.replay_matches else 'DIVERGED'}, "
        f"audit {'CERTIFIED' if report.audit_certified else 'VIOLATED'}")
    if report.kv_handoffs or report.handoffs_colocated:
        lines.append(
            f"  disagg: {report.kv_handoffs} KV handoffs "
            f"({report.kv_handoff_bytes} B across the link), "
            f"{report.handoffs_colocated} decoded in place")
    if (report.handoff_retries or report.handoff_aborts
            or report.handoff_dup_drops):
        lines.append(
            f"  handoff transactions: {report.handoff_retries} retries, "
            f"{report.handoff_aborts} aborts, "
            f"{report.handoff_dup_drops} duplicate deliveries dropped")
    if report.restarts or report.recoveries or report.quarantines:
        lines.append(
            f"  recovery: {report.restarts} replica restarts, "
            f"{report.recoveries} control-plane recoveries, "
            f"{report.quarantines} pool quarantines")
    if report.rejections:
        shed = ", ".join(f"{k}={n}" for k, n
                         in sorted(report.rejections.items()))
        lines.append(f"  shed load (typed): {shed}")
    if report.goodput_per_class:
        good = ", ".join(f"{k}={v:.1f} tok/s" for k, v
                         in sorted(report.goodput_per_class.items()))
        lines.append(f"  goodput: {good}")
    if report.replicas_added or report.replicas_removed or \
            report.brownout_steps:
        lines.append(
            f"  autoscale: +{report.replicas_added} replicas, "
            f"-{report.replicas_removed}, {report.plan_switches} plan "
            f"switches, {report.fleet_chip_seconds:.1f} chip-s, "
            f"{report.output_capped} capped outputs")
    if report.brownout_steps:
        reverted = "reverted" if report.brownout_reverted \
            else "NOT reverted"
        lines.append(f"  brownout: {' -> '.join(report.brownout_steps)} "
                     f"({reverted})")
    for name in sorted(report.capture_stats):
        lines.append(f"  capture[{name}]: "
                     f"{capture_stats_line(report.capture_stats[name])}")
    for name in sorted(report.kvstore_stats):
        stats = report.kvstore_stats[name]
        if not stats.get("lookups") and not stats.get("pages"):
            continue
        lines.append(f"  kvstore[{name}]: {kvstore_stats_line(stats)}")
    for violation in report.violations:
        lines.append(f"  VIOLATION: {violation}")
    return "\n".join(lines)
