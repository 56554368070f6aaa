"""Resilient request lifecycle: detect -> replan -> retry -> shed.

The serving recipes assume the mesh stays healthy for the whole run.
This module holds the lifecycle value types, the :class:`CostModel`
that prices simulated time, the :class:`RequestLedger` every resilient
server records its decisions through, and
:class:`ResilientContinuousServer`.  The single-mesh two-phase server
runs on the cluster's replica and lives in :mod:`repro.cluster.replica`.
Both follow the same policy:

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

import numpy as np

from repro.events import (
    FAULT_DETECTED,
    FAULT_INJECTED,
    REPLANNED,
    REQUEST_COMPLETED,
    REQUEST_FAILED,
    REQUEST_RETRIED,
    REQUEST_SHED,
    EventLog,
)
from repro.mesh import VirtualMesh
from repro.mesh.faults import ChipFailure, FaultPlan, MeshFault
from repro.partitioning.degraded import largest_healthy_subslice
from repro.serving.backoff import exponential_backoff_s
from repro.serving.continuous import ContinuousBatchingEngine
from repro.serving.engine import Completion, Request


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

    def prefill_cost_s(self, profile: str = "balanced") -> float:
        """Per-request prefill charge under the given prefill profile."""
        return self.prefill_s * dict(self.prefill_profile_factors).get(
            profile, 1.0)

    def decode_cost_s(self, profile: str = "balanced") -> float:
        """Per-step decode charge under the given decode profile."""
        return self.decode_step_s * dict(self.decode_profile_factors).get(
            profile, 1.0)


class CacheMigrationFailed(MeshFault):
    """Straggler eviction could not migrate live caches; re-prefill."""


class RequestLedger:
    """Per-request lifecycle bookkeeping for one ``serve`` call.

    Both resilient servers — :class:`ResilientContinuousServer` and the
    single-mesh :class:`~repro.cluster.replica.ResilientTwoPhaseServer` —
    record every shed, retry, failure and completion here, so outcomes
    and their :class:`~repro.events.EventLog` records are written once.
    The servers keep the clock and decide *when* each call happens.
    """

    def __init__(self, requests: Sequence[Request | ResilientRequest],
                 events: EventLog):
        self.wrapped = [r if isinstance(r, ResilientRequest)
                        else ResilientRequest(r) for r in requests]
        self.retries = {w.request.request_id: 0 for w in self.wrapped}
        if len(self.retries) != len(self.wrapped):
            raise ValueError("duplicate request ids")
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


class ResilientContinuousServer:
    """Deadline/retry/shedding wrapper around the continuous engine.

    The reference-model engine has no mesh of its own, so scheduled
    failures can arrive two ways:

    * ``fail_at_steps`` lists global decode-step indices at which a chip
      failure fires through the engine's ``step_hook`` (each one-shot);
    * ``mesh`` + ``fault_plan`` attach a :class:`VirtualMesh` as the
      *health substrate*: every decode step runs one tiny heartbeat
      collective on it (through whichever execution backend the mesh
      uses), so kills and timeouts raise real :class:`MeshFault`\\ s and
      stragglers accumulate real simulated delay.  When that delay
      projects a deadline miss, the straggler chips are *evicted* — the
      mesh is replanned onto its largest healthy sub-slice (capacity
      drops to ``scale``; the delay stops).

    Recovery restarts the engine and re-serves every request the crashed
    run had not returned — idempotent because decoding is greedy, so
    completed tokens are bit-identical to a fault-free run.
    """

    def __init__(self, model, max_slots: int, max_len: int, *,
                 fail_at_steps: Sequence[int] = (),
                 mesh: VirtualMesh | None = None,
                 fault_plan: FaultPlan | None = None,
                 costs: CostModel | None = None,
                 event_log: EventLog | None = None):
        if fault_plan is not None and mesh is None:
            raise ValueError("fault_plan requires a mesh to install it on")
        self.model = model
        self.max_slots = max_slots
        self.max_len = max_len
        self.costs = costs or CostModel()
        self.events = event_log if event_log is not None else EventLog()
        self._fail_at = sorted(set(int(s) for s in fail_at_steps))
        self._steps_done = 0
        self.now_s = 0.0
        self.mesh = mesh
        self.full_chips = mesh.num_chips if mesh is not None else 1
        self.fault_state = None
        if mesh is not None and fault_plan is not None:
            self.fault_state = mesh.install_faults(fault_plan, self.events)
        self._extra_s = 0.0            # delay/replan charges within a run
        self._min_deadline: float | None = None
        self._remaining_hint = 0       # conservative steps left in the run

    @property
    def scale(self) -> float:
        """Slowdown factor of the (possibly degraded) health mesh."""
        if self.mesh is None:
            return 1.0
        return self.full_chips / self.mesh.num_chips

    def _heartbeat(self) -> float:
        """One probe collective on the health mesh; returns its straggler
        delay.  Raises the same typed faults real model collectives do."""
        from repro.mesh.ops import all_gather
        from repro.mesh.sharded_tensor import ShardedTensor

        state = self.fault_state
        before = state.sim_delay_s
        state.advance("decode")
        probe = ShardedTensor.from_global(
            self.mesh, np.zeros(self.mesh.num_chips), "V_xyz")
        all_gather(probe, ("x", "y", "z"), "V")
        return state.sim_delay_s - before

    def _evict_stragglers(self, local_step: int, step_delay: float) -> None:
        """Replan the health mesh around stragglers that endanger the
        earliest deadline in the current run (mirrors the two-phase
        server's eviction, at whole-mesh granularity)."""
        stragglers = sorted(self.fault_state.straggler_chips())
        if not stragglers or self._min_deadline is None:
            return
        remaining = max(self._remaining_hint - local_step, 0)
        sim_now = self.now_s + self._extra_s \
            + (local_step + 1) * self.costs.decode_cost_s() * self.scale
        projected = sim_now + remaining * (
            self.costs.decode_cost_s() * self.scale + step_delay)
        if projected <= self._min_deadline:
            return
        self.events.record(
            FAULT_DETECTED, error="StragglerFault",
            detail=f"straggler chips {stragglers} project finish "
                   f"{projected:.4f}s past deadline "
                   f"{self._min_deadline:.4f}s", t_s=sim_now)
        self._shrink_mesh(stragglers)

    def _shrink_mesh(self, bad_chips) -> None:
        """Rebuild the health mesh on its largest sub-slice avoiding
        ``bad_chips``, carrying the fault clock (the engine's reference
        model needs no resharding — only capacity and delay change)."""
        old_shape = self.mesh.shape
        sub = largest_healthy_subslice(old_shape, bad_chips)
        self.mesh = VirtualMesh(sub.shape, backend=self.mesh.backend)
        self.fault_state = self.fault_state.carry_to(self.mesh, sub.origin)
        self._extra_s += self.costs.replan_s
        self.events.record(REPLANNED, dead_chips=[tuple(c) for c
                                                  in bad_chips],
                           old_shape=old_shape, new_shape=sub.shape,
                           origin=sub.origin, prefill_plan="(unchanged)",
                           decode_plan="(unchanged)")

    def _step_hook(self, local_step: int) -> None:
        global_step = self._steps_done + local_step
        if self._fail_at and global_step >= self._fail_at[0]:
            at_step = self._fail_at.pop(0)
            self.events.record(
                FAULT_INJECTED, op="slot_decode_step", step=global_step,
                fault={"type": "ChipKill", "chip": (0, 0, 0),
                       "at_step": at_step})
            raise ChipFailure((0, 0, 0), "slot_decode_step", global_step)
        if self.fault_state is not None:
            step_delay = self._heartbeat()
            # Surcharge beyond the base per-step cost the caller already
            # accounts: straggler delay plus the degraded-capacity factor.
            self._extra_s += step_delay \
                + (self.scale - 1.0) * self.costs.decode_cost_s()
            if step_delay > 0.0:
                self._evict_stragglers(local_step, step_delay)

    def serve(self, requests: Sequence[Request | ResilientRequest]
              ) -> list[RequestOutcome]:
        ledger = RequestLedger(requests, self.events)
        costs = self.costs
        # Admission control up front; the engine has a fixed capacity, so
        # the estimate is the request's own service time.
        pending = ledger.admit(
            ledger.wrapped, self.now_s,
            lambda w: costs.prefill_cost_s()
            + w.request.max_new_tokens * costs.decode_cost_s())
        attempt = 0
        while pending:
            deadlines = [w.deadline_s for w in pending
                         if w.deadline_s is not None]
            self._min_deadline = min(deadlines) if deadlines else None
            self._remaining_hint = max(w.request.max_new_tokens
                                       for w in pending)
            self._extra_s = 0.0
            engine = ContinuousBatchingEngine(
                self.model, self.max_slots, self.max_len,
                step_hook=self._step_hook)
            try:
                completions = engine.serve([w.request for w in pending])
            except MeshFault as exc:
                self._charge_run(engine)
                ledger.detected(exc, self.now_s)
                if self.fault_state is not None:
                    # Permanent mesh faults (chip kills) must be replanned
                    # around, or the next heartbeat re-raises forever.
                    dead = sorted(self.fault_state.dead_chips)
                    if dead:
                        self._shrink_mesh(dead)
                        self.now_s += self._extra_s
                        self._extra_s = 0.0
                attempt += 1
                pending = ledger.fail_exhausted(pending, exc, self.now_s)
                backoff = costs.backoff_s(attempt)
                self.now_s += backoff
                ledger.retried(pending, backoff, self.now_s)
                continue
            self._charge_run(engine)
            ledger.complete(pending, completions, self.now_s)
            pending = []
        return ledger.results()

    def _charge_run(self, engine: ContinuousBatchingEngine) -> None:
        """Charge one engine run's prefills, decode steps and surcharges."""
        self._steps_done += engine.steps
        self.now_s += engine.admissions * self.costs.prefill_cost_s() + \
            engine.steps * self.costs.decode_cost_s() + self._extra_s
        self._extra_s = 0.0
