"""Request-level serving simulation on the analytical cost model.

The paper frames its results through two applications — interactive
chatbots with tight latency targets and offline high-throughput inference
(Sections 1, 2.1).  This module makes that tradeoff executable: seeded
Poisson arrivals feed a batching server whose per-batch prefill/decode
times come from :class:`~repro.perf.estimator.InferenceEstimator`, and the
output is the latency distribution and achieved throughput of the whole
service.

The server model: requests queue FIFO; when the server is free it takes
up to ``max_batch`` requests (waiting at most ``max_wait_s`` for the
first-queued request — a deadline batching policy), runs one prefill over
the batch and then ``gen_len`` decode steps, and completes all requests
in the batch together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.partitioning.plan import LayoutPlan
from repro.perf.estimator import InferenceEstimator


@dataclass(frozen=True)
class WorkloadSpec:
    """Homogeneous request shape (the FT benchmarks' style)."""

    input_len: int
    gen_len: int


@dataclass(frozen=True)
class ServerConfig:
    max_batch: int
    max_wait_s: float
    prefill_plan: LayoutPlan
    decode_plan: LayoutPlan


@dataclass
class RequestRecord:
    arrival_s: float
    start_s: float = 0.0
    finish_s: float = 0.0

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def queueing_s(self) -> float:
        return self.start_s - self.arrival_s


@dataclass
class ServingReport:
    """Aggregate results of one simulated run."""

    records: list[RequestRecord]
    duration_s: float
    busy_s: float
    batch_sizes: list[int] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.records)

    def latency_percentile(self, q: float) -> float:
        return float(np.percentile([r.latency_s for r in self.records], q))

    @property
    def mean_latency_s(self) -> float:
        return float(np.mean([r.latency_s for r in self.records]))

    @property
    def utilization(self) -> float:
        return self.busy_s / self.duration_s

    @property
    def mean_batch(self) -> float:
        return float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0


@dataclass(frozen=True)
class FaultModel:
    """Stochastic failure process for the availability simulation.

    Chip failures arrive as a Poisson process with mean time between
    failures ``mtbf_s``.  Each failure aborts the batch in flight (its
    requests are retried from scratch — decoding is greedy, so the retry
    is idempotent), costs ``replan_s`` of downtime to detect and replan
    onto a healthy sub-slice, and leaves the service degraded (service
    times multiplied by ``degraded_factor``) until the slice is repaired
    ``recovery_s`` after the failure.
    """

    mtbf_s: float
    replan_s: float = 2.0
    recovery_s: float = 60.0
    degraded_factor: float = 1.5
    seed: int = 0
    max_batch_retries: int = 8

    def __post_init__(self) -> None:
        if self.mtbf_s <= 0:
            raise ValueError("mtbf_s must be positive")
        if self.degraded_factor < 1.0:
            raise ValueError("degraded_factor must be >= 1")


@dataclass
class FaultReport(ServingReport):
    """A :class:`ServingReport` plus failure/goodput accounting."""

    deadline_s: float | None = None
    failures: int = 0
    retried_requests: int = 0
    shed_requests: int = 0
    dropped_requests: int = 0
    downtime_s: float = 0.0

    @property
    def met_deadline(self) -> int:
        """Completions that finished within the deadline."""
        if self.deadline_s is None:
            return self.completed
        return sum(1 for r in self.records
                   if r.latency_s <= self.deadline_s)

    @property
    def goodput_rps(self) -> float:
        """In-deadline completions per second — the paper's 'good' work."""
        return self.met_deadline / self.duration_s

    @property
    def availability(self) -> float:
        """Fraction of wall-clock the service was not down replanning."""
        return max(0.0, 1.0 - self.downtime_s / self.duration_s)


def poisson_arrivals(rate_rps: float, duration_s: float, seed: int = 0
                     ) -> list[float]:
    """Seeded Poisson arrival times within ``[0, duration_s)``."""
    if rate_rps <= 0:
        raise ValueError("rate must be positive")
    rng = np.random.default_rng(seed)
    times, t = [], 0.0
    while True:
        t += rng.exponential(1.0 / rate_rps)
        if t >= duration_s:
            return times
        times.append(t)


def batch_service_time(estimator: InferenceEstimator, config: ServerConfig,
                       workload: WorkloadSpec, batch: int) -> float:
    """One batch's prefill + generation time from the analytical model."""
    prefill = estimator.prefill_cost(config.prefill_plan, batch,
                                     workload.input_len)
    generate = estimator.generate_cost(config.decode_plan, batch,
                                       workload.input_len,
                                       workload.gen_len)
    return prefill.time_s + generate.total_s


def simulate_serving(estimator: InferenceEstimator, config: ServerConfig,
                     workload: WorkloadSpec, arrivals: Sequence[float],
                     drain: bool = True) -> ServingReport:
    """Run the queueing simulation over the given arrival times."""
    if config.max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    if config.max_wait_s < 0:
        raise ValueError("max_wait_s must be >= 0")
    # Service times per batch size, memoized (the estimator is pure).
    service_cache: dict[int, float] = {}

    def service(batch: int) -> float:
        if batch not in service_cache:
            service_cache[batch] = batch_service_time(
                estimator, config, workload, batch)
        return service_cache[batch]

    pending = list(arrivals)
    records: list[RequestRecord] = []
    batches: list[int] = []
    now = 0.0
    busy = 0.0
    while pending:
        head = pending[0]
        # The server waits for the head request, then up to max_wait_s
        # (or until the batch fills) before launching.
        launch = max(now, head) if config.max_wait_s == 0 else max(
            now, head + config.max_wait_s)
        ready = [t for t in pending if t <= launch][:config.max_batch]
        if len(ready) == config.max_batch:
            # A full batch launches as soon as its last member arrives.
            launch = max(now, ready[-1])
        batch = len(ready)
        del pending[:batch]
        duration = service(batch)
        finish = launch + duration
        busy += duration
        for arrival in ready:
            records.append(RequestRecord(arrival_s=arrival,
                                         start_s=launch, finish_s=finish))
        batches.append(batch)
        now = finish
    horizon = max((r.finish_s for r in records), default=0.0) if drain \
        else max(arrivals, default=0.0)
    return ServingReport(records=records, duration_s=max(horizon, 1e-12),
                         busy_s=busy, batch_sizes=batches)


def simulate_serving_under_faults(estimator: InferenceEstimator,
                                  config: ServerConfig,
                                  workload: WorkloadSpec,
                                  arrivals: Sequence[float],
                                  faults: FaultModel,
                                  deadline_s: float | None = None
                                  ) -> FaultReport:
    """The queueing simulation with an MTBF-driven failure process.

    Extends :func:`simulate_serving` with the resilient lifecycle's cost
    structure: a failure mid-batch aborts it (wasted work stays counted
    as busy time), the server is down for ``replan_s``, the batch retries
    at degraded speed, and with a deadline set, requests that can no
    longer make it are shed at launch instead of served late.  Reports
    goodput (in-deadline completions per second) and availability on top
    of the usual latency distribution.
    """
    if config.max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    if config.max_wait_s < 0:
        raise ValueError("max_wait_s must be >= 0")
    rng = np.random.default_rng(faults.seed)
    service_cache: dict[int, float] = {}

    def service(batch: int) -> float:
        if batch not in service_cache:
            service_cache[batch] = batch_service_time(
                estimator, config, workload, batch)
        return service_cache[batch]

    next_failure = rng.exponential(faults.mtbf_s)
    degraded_until = 0.0
    downtime = 0.0
    failures = retried = shed_count = dropped = 0
    pending = list(arrivals)
    records: list[RequestRecord] = []
    batches: list[int] = []
    now = 0.0
    busy = 0.0
    while pending:
        head = pending[0]
        launch = max(now, head) if config.max_wait_s == 0 else max(
            now, head + config.max_wait_s)
        ready = [t for t in pending if t <= launch][:config.max_batch]
        if len(ready) == config.max_batch:
            launch = max(now, ready[-1])
        del pending[:len(ready)]
        # Failures striking while the server sits idle still cost a
        # replan before the next batch can launch.
        while next_failure <= launch:
            failures += 1
            downtime += faults.replan_s
            degraded_until = next_failure + faults.recovery_s
            launch = max(launch, next_failure + faults.replan_s)
            next_failure += rng.exponential(faults.mtbf_s)
        # Admission control: shed what cannot meet its deadline even if
        # launched right now (conservative: full-batch service time).
        estimate = service(len(ready))
        if launch < degraded_until:
            estimate *= faults.degraded_factor
        admitted = []
        for arrival in ready:
            if deadline_s is not None and \
                    launch + estimate > arrival + deadline_s:
                shed_count += 1
            else:
                admitted.append(arrival)
        if not admitted:
            now = launch
            continue
        batch = len(admitted)
        attempts = 0
        while True:
            factor = faults.degraded_factor if launch < degraded_until \
                else 1.0
            duration = service(batch) * factor
            if next_failure >= launch + duration:
                break
            # The batch dies mid-flight: its partial work is wasted (but
            # the chips were busy), the server replans, and the batch
            # retries from scratch — idempotent under greedy decoding.
            failures += 1
            retried += batch
            attempts += 1
            busy += next_failure - launch
            downtime += faults.replan_s
            degraded_until = next_failure + faults.recovery_s
            launch = next_failure + faults.replan_s
            next_failure += rng.exponential(faults.mtbf_s)
            if attempts >= faults.max_batch_retries:
                dropped += batch
                batch = 0
                break
        if batch == 0:
            now = launch
            continue
        finish = launch + duration
        busy += duration
        for arrival in admitted:
            records.append(RequestRecord(arrival_s=arrival,
                                         start_s=launch, finish_s=finish))
        batches.append(batch)
        now = finish
    horizon = max((r.finish_s for r in records), default=0.0)
    horizon = max(horizon, max(arrivals, default=0.0))
    return FaultReport(records=records, duration_s=max(horizon, 1e-12),
                       busy_s=busy, batch_sizes=batches,
                       deadline_s=deadline_s, failures=failures,
                       retried_requests=retried, shed_requests=shed_count,
                       dropped_requests=dropped, downtime_s=downtime)
