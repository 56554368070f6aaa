"""Resilient request lifecycle: detect -> replan -> retry -> shed.

The serving recipes assume the mesh stays healthy for the whole run.
This module holds the lifecycle value types, the :class:`CostModel`
that prices simulated time, and the :class:`RequestLedger` a resilient
server records its decisions through.  The server itself,
:class:`~repro.cluster.replica.ResilientTwoPhaseServer`, runs on the
cluster's replica and lives in :mod:`repro.cluster.replica`; the
cluster control plane reuses the value types and the cost model.  The
policy:

* **Detection** — the collectives raise typed
  :class:`~repro.mesh.faults.MeshFault` errors instead of returning
  garbage; under SPMD the first collective after a chip dies surfaces it.
* **Replanning** — a :class:`~repro.mesh.faults.ChipFailure` moves the
  server onto the largest healthy sub-slice.  Stragglers are detected by
  deadline projection and evicted the same way.
* **Bounded retry** — requests whose batch died are retried with
  exponential backoff by re-prefilling from the prompt.  Decoding is
  greedy, so a retry is idempotent: completed requests' tokens are
  bit-identical to a fault-free run no matter where the failure landed.
* **Admission control** — once degraded, the server sheds requests whose
  deadline cannot be met at the reduced capacity instead of burning the
  shrunken mesh on work it will throw away.

Every decision is recorded in an :class:`~repro.events.EventLog`, so
tests (and operators) can assert the full
detect -> replan -> retry timeline.

Wall-clock is *simulated*: a :class:`CostModel` charges per model
invocation, scaled by ``full_chips / current_chips`` once degraded, plus
any straggler delay accumulated by the fault state.  This keeps the
lifecycle logic (deadlines, backoff, shedding) deterministic and testable
without timers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.events import (
    FAULT_DETECTED,
    REQUEST_COMPLETED,
    REQUEST_FAILED,
    REQUEST_RETRIED,
    REQUEST_SHED,
    EventLog,
)
from repro.mesh.faults import MeshFault
from repro.serving.backoff import exponential_backoff_s
from repro.serving.engine import Completion, Request, require_unique_ids


class RequestStatus(str, Enum):
    """Terminal state of a request's lifecycle."""

    COMPLETED = "completed"            # finished within its deadline
    DEADLINE_MISSED = "deadline_missed"  # finished, but too late
    SHED = "shed"                      # refused: deadline unmeetable
    FAILED = "failed"                  # retry budget exhausted


@dataclass(frozen=True)
class ResilientRequest:
    """A request plus its lifecycle policy knobs."""

    request: Request
    deadline_s: float | None = None    # None = no deadline
    max_retries: int = 3


@dataclass
class RequestOutcome:
    """What ultimately happened to one request."""

    request_id: int
    status: RequestStatus
    completion: Completion | None = None
    retries: int = 0
    finish_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.COMPLETED


@dataclass(frozen=True)
class CostModel:
    """Simulated wall-clock charges for lifecycle accounting.

    Per-invocation costs are multiplied by ``full_chips / current_chips``
    once the mesh is degraded (fewer chips -> proportionally slower), and
    straggler delay from :attr:`FaultState.sim_delay_s` is added on top.

    The optional profile factor tables model the Section 3.2 Pareto gap
    between partitioning plans: a replica running the named profile pays
    ``base * factor`` per invocation.  Both default empty — every
    profile then costs the base rate, which keeps legacy scenarios and
    benchmark numbers exactly as they were.  Tuples (not dicts) keep the
    dataclass hashable and frozen-safe.
    """

    prefill_s: float = 0.02
    decode_step_s: float = 0.002
    replan_s: float = 0.25
    backoff_base_s: float = 0.05
    #: ``((profile, factor), ...)`` multipliers for prefill invocations,
    #: keyed by the replica's *prefill* profile (see
    #: :meth:`repro.cluster.replica.Replica.switch_prefill_profile`).
    prefill_profile_factors: tuple[tuple[str, float], ...] = ()
    #: Same, for decode steps, keyed by the decode profile.
    decode_profile_factors: tuple[tuple[str, float], ...] = ()

    def backoff_s(self, attempt: int) -> float:
        """Exponential backoff before retry ``attempt`` (1-based).

        Delegates to the shared schedule helper
        (:func:`repro.serving.backoff.exponential_backoff_s`) with this
        model's base — bit-identical to the historical inline
        ``base * 2 ** (attempt - 1)``.
        """
        return exponential_backoff_s(attempt, base_s=self.backoff_base_s)

    def prefill_cost_s(self, profile: str) -> float:
        """Per-request prefill charge under the given prefill profile."""
        return self.prefill_s * dict(self.prefill_profile_factors).get(
            profile, 1.0)

    def decode_cost_s(self, profile: str) -> float:
        """Per-step decode charge under the given decode profile."""
        return self.decode_step_s * dict(self.decode_profile_factors).get(
            profile, 1.0)


class CacheMigrationFailed(MeshFault):
    """Straggler eviction could not migrate live caches; re-prefill."""


class RequestLedger:
    """Per-request lifecycle bookkeeping for one ``serve`` call.

    The single-mesh :class:`~repro.cluster.replica.ResilientTwoPhaseServer`
    records every shed, retry, failure and completion here, so outcomes
    and their :class:`~repro.events.EventLog` records are written once.
    The server keeps the clock and decides *when* each call happens.
    """

    def __init__(self, requests: Sequence[Request | ResilientRequest],
                 events: EventLog):
        self.wrapped = [r if isinstance(r, ResilientRequest)
                        else ResilientRequest(r) for r in requests]
        require_unique_ids([w.request for w in self.wrapped])
        self.retries = {w.request.request_id: 0 for w in self.wrapped}
        self.events = events
        self.outcomes: dict[int, RequestOutcome] = {}

    def admit(self, live: list[ResilientRequest], now_s: float,
              estimate_s) -> list[ResilientRequest]:
        """Shed requests whose ``estimate_s(wreq)`` misses the deadline;
        returns the admitted rest."""
        admitted = []
        for wreq in live:
            rid = wreq.request.request_id
            estimate = estimate_s(wreq)
            if wreq.deadline_s is not None and \
                    now_s + estimate > wreq.deadline_s:
                self.outcomes[rid] = RequestOutcome(
                    rid, RequestStatus.SHED, retries=self.retries[rid],
                    finish_s=now_s)
                self.events.record(
                    REQUEST_SHED, request_id=rid, t_s=now_s,
                    estimate_s=estimate, deadline_s=wreq.deadline_s)
            else:
                admitted.append(wreq)
        return admitted

    def detected(self, exc: MeshFault, now_s: float) -> None:
        self.events.record(FAULT_DETECTED, error=type(exc).__name__,
                           detail=str(exc), t_s=now_s)

    def fail_exhausted(self, live: list[ResilientRequest], exc: MeshFault,
                       now_s: float) -> list[ResilientRequest]:
        """Count one retry per request; fail those past their budget and
        return the survivors."""
        survivors = []
        for wreq in live:
            rid = wreq.request.request_id
            self.retries[rid] += 1
            if self.retries[rid] > wreq.max_retries:
                self.outcomes[rid] = RequestOutcome(
                    rid, RequestStatus.FAILED,
                    retries=self.retries[rid] - 1, finish_s=now_s)
                self.events.record(
                    REQUEST_FAILED, request_id=rid,
                    retries=self.retries[rid] - 1,
                    error=type(exc).__name__)
            else:
                survivors.append(wreq)
        return survivors

    def retried(self, live: list[ResilientRequest], backoff_s: float,
                now_s: float) -> None:
        for wreq in live:
            rid = wreq.request.request_id
            self.events.record(
                REQUEST_RETRIED, request_id=rid,
                attempt=self.retries[rid], backoff_s=backoff_s,
                mode="re-prefill", t_s=now_s)

    def complete(self, live: list[ResilientRequest],
                 completions: Sequence[Completion], now_s: float) -> None:
        for wreq, completion in zip(live, completions):
            rid = wreq.request.request_id
            met = wreq.deadline_s is None or now_s <= wreq.deadline_s
            status = (RequestStatus.COMPLETED if met
                      else RequestStatus.DEADLINE_MISSED)
            self.outcomes[rid] = RequestOutcome(
                rid, status, completion=completion,
                retries=self.retries[rid], finish_s=now_s)
            self.events.record(
                REQUEST_COMPLETED, request_id=rid, t_s=now_s,
                retries=self.retries[rid], met_deadline=met)

    def results(self) -> list[RequestOutcome]:
        """One outcome per request, in submission order."""
        return [self.outcomes[w.request.request_id] for w in self.wrapped]
