"""Cluster-level serving: N mesh replicas behind one control plane.

The paper scales one model onto one TPU slice; production serving runs
*fleets* of such slices.  This package is that layer, built entirely on
the simulated substrate so every behavior is deterministic and testable:

- :mod:`~repro.cluster.replica` — one mesh deployment plus its health
  (heartbeats driven by the fault machinery, degraded replanning,
  in-flight :class:`GroupRun` stepping, live KV-cache migration);
- :mod:`~repro.cluster.admission` — token-bucket rate limits, bounded
  priority queues, per-replica circuit breakers; rejections are typed
  errors, never timeouts;
- :mod:`~repro.cluster.control_plane` — dispatch, failover, planned
  drain and hedged decode over a virtual clock;
- :mod:`~repro.cluster.pricing` — :class:`CostModel`, the one place
  that prices a virtual-clock charge;
- :mod:`~repro.cluster.workload` — seeded trace-driven load generation
  (diurnal curves, bursts, heavy-tailed lengths, priority mixes);
- :mod:`~repro.cluster.autoscaler` — the SLO-aware scaling loop and the
  reversible brownout ladder;
- :mod:`~repro.cluster.disagg` — disaggregated serving as fleet
  topology: prefill/decode pool specs, partitions and the A.1 price of
  the KV handoff between them (the control plane and autoscaler read
  the pool map; an empty map means colocated);
- :mod:`~repro.cluster.journal` — the control plane's write-ahead
  journal of typed transitions; genesis snapshot + deterministic replay
  reconstruct the control-plane state bit-identically (crash recovery);
- :mod:`~repro.cluster.audit` — the invariant auditor that certifies a
  run from its journal (request conservation, exactly-once KV handoff,
  token bit-identity against the fault-free oracle);
- :mod:`~repro.cluster.chaos` — seeded chaos scenarios and the reports
  the CI chaos job asserts on;
- :mod:`~repro.cluster.bench` — the autoscale and disagg
  goodput/latency/cost benchmarks behind ``BENCH_autoscale.json`` and
  ``BENCH_disagg.json``.
"""

from repro.cluster.audit import AuditReport, audit_run, format_audit

from repro.cluster.admission import (
    DEFAULT_CLASSES,
    AdmissionController,
    AdmissionError,
    BreakerState,
    CircuitBreaker,
    ClassShed,
    NoHealthyReplica,
    PriorityClass,
    QueueFull,
    RateLimited,
    TokenBucket,
)
from repro.cluster.autoscaler import (
    BROWNOUT_LADDER,
    DISAGG_BROWNOUT_LADDER,
    Autoscaler,
    AutoscalerPolicy,
)
from repro.cluster.bench import (
    autoscale_bench,
    disagg_bench,
    run_autoscale,
    run_disagg,
)
from repro.cluster.chaos import (
    SCENARIOS,
    ChaosReport,
    ChaosScenario,
    build_workload,
    format_report,
    run_scenario,
)
from repro.cluster.control_plane import (
    ClusterControlPlane,
    ClusterOutcome,
    ClusterPolicy,
    ClusterRequestStatus,
    ClusterSubmission,
    FleetConfigError,
    RestartSpec,
)
from repro.cluster.disagg import (
    HandoffAborted,
    PoolPartition,
    PoolSpec,
    default_pools,
    handoff_transfer_s,
)
from repro.cluster.journal import (
    JOURNAL_KINDS,
    ControlPlaneState,
    Journal,
    JournalReplayMismatch,
    JournalTruncated,
    replay_journal,
    token_crc,
)
from repro.cluster.replica import (
    GroupRun,
    Replica,
    ReplicaHealth,
)
from repro.cluster.workload import (
    TRACES,
    BurstWindow,
    ClassMix,
    TraceSpec,
    generate_trace,
    peak_rate,
    rate_at,
)

__all__ = [
    "AdmissionController", "AdmissionError", "AuditReport", "Autoscaler",
    "AutoscalerPolicy", "BROWNOUT_LADDER", "BreakerState", "BurstWindow",
    "ChaosReport", "ChaosScenario", "CircuitBreaker", "ClassMix",
    "ClassShed", "ClusterControlPlane", "ClusterOutcome",
    "ClusterPolicy", "ClusterRequestStatus", "ClusterSubmission",
    "ControlPlaneState", "DEFAULT_CLASSES", "DISAGG_BROWNOUT_LADDER",
    "FleetConfigError", "GroupRun", "HandoffAborted",
    "JOURNAL_KINDS", "Journal", "JournalReplayMismatch",
    "JournalTruncated", "NoHealthyReplica", "PoolPartition", "PoolSpec",
    "PriorityClass", "QueueFull", "RateLimited", "Replica",
    "ReplicaHealth", "RestartSpec", "SCENARIOS",
    "TRACES", "TokenBucket", "TraceSpec", "audit_run", "autoscale_bench",
    "build_workload", "default_pools", "disagg_bench", "format_audit",
    "format_report", "generate_trace", "handoff_transfer_s", "peak_rate",
    "rate_at", "replay_journal", "run_autoscale", "run_disagg",
    "run_scenario", "token_crc",
]
