"""Resilient request lifecycle: detect -> replan -> retry -> shed.

The two-phase recipe in :mod:`repro.serving.sharded` assumes the mesh
stays healthy for the whole run.  This module wraps it (and the
continuous-batching engine) with the failure handling a production
deployment needs:

* **Detection** — the collectives raise typed
  :class:`~repro.mesh.faults.MeshFault` errors instead of returning
  garbage; under SPMD the first collective after a chip dies surfaces it.
* **Replanning** — on a :class:`~repro.mesh.faults.ChipFailure` the server
  rebuilds its prefill/decode models on the largest healthy sub-slice via
  :func:`~repro.partitioning.degraded.replan_after_failure`.  Stragglers
  are detected by deadline projection and evicted the same way, with live
  KV caches migrated to the new mesh where the old mesh's data is still
  readable.
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
from repro.hardware.topology import Torus3D
from repro.mesh import VirtualMesh
from repro.mesh.capture import StepCompiler
from repro.mesh.faults import ChipFailure, FaultPlan, MeshFault
from repro.model.sampling import greedy
from repro.partitioning.degraded import (
    largest_healthy_subslice,
    migrate_caches,
    plan_batch_group,
    replan_after_failure,
    select_degraded_plan,
)
from repro.partitioning.selector import Phase
from repro.serving.backoff import exponential_backoff_s
from repro.serving.chunked import default_prefill_chunk
from repro.serving.continuous import ContinuousBatchingEngine
from repro.serving.engine import Completion, Request
from repro.serving.scheduler import group_requests
from repro.serving.sharded import merge_sharded_caches


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


class ResilientTwoPhaseServer:
    """Two-phase serving with detect -> replan -> retry -> shed.

    Owns its deployment: builds shared-weight prefill/decode
    ``ShardedTransformer`` models on ``mesh`` (plans chosen by the
    degraded-mesh selector unless given), installs ``fault_plan`` on the
    mesh, and drives the fault clock with one tick per model invocation
    (phase ``"prefill"`` or ``"decode"``) so scheduled faults land at
    reproducible points in the request lifecycle.
    """

    def __init__(self, weights, mesh: VirtualMesh, *,
                 decode_batch: int = 8,
                 prefill_plan=None, decode_plan=None,
                 fault_plan: FaultPlan | None = None,
                 costs: CostModel | None = None,
                 event_log: EventLog | None = None,
                 prompt_len_hint: int = 64):
        from repro.layouts.model import ShardedTransformer

        if decode_batch < 1:
            raise ValueError("decode_batch must be >= 1")
        self.weights = weights
        self.mesh = mesh
        self.decode_batch = decode_batch
        self.costs = costs or CostModel()
        self.events = event_log if event_log is not None else EventLog()
        self.full_chips = mesh.num_chips
        self.now_s = 0.0

        config = weights.config
        torus = Torus3D(*mesh.shape)
        if decode_plan is None:
            decode_plan = select_degraded_plan(
                config, torus, Phase.DECODE, batch=decode_batch,
                tokens_per_seq=1)
        if prefill_plan is None:
            prefill_plan = select_degraded_plan(
                config, torus, Phase.PREFILL, batch=1,
                tokens_per_seq=prompt_len_hint)
        self.decode_model = ShardedTransformer(weights, mesh, decode_plan)
        try:
            self.prefill_model = self.decode_model.with_plan(prefill_plan)
        except ValueError:
            self.prefill_model = ShardedTransformer(weights, mesh,
                                                    prefill_plan)
        self.fault_state = None
        if fault_plan is not None:
            self.fault_state = mesh.install_faults(fault_plan, self.events)
        # Decode steps run through the capture-and-replay compiler: the
        # first post-warmup quiescent step is traced once, later steps
        # replay it bit-identically; replanning (below) invalidates the
        # program and the next healthy step re-captures on the new mesh.
        self.step_compiler = StepCompiler()

    # -- simulated clock ---------------------------------------------------

    @property
    def scale(self) -> float:
        """Slowdown factor of the current (possibly degraded) mesh."""
        return self.full_chips / self.mesh.num_chips

    def _delay(self) -> float:
        return self.fault_state.sim_delay_s if self.fault_state else 0.0

    def _advance(self, phase: str) -> None:
        if self.fault_state is not None:
            self.fault_state.advance(phase)

    def _charge(self, base_s: float, delay_before: float) -> float:
        """Charge one model invocation; returns the straggler delay part."""
        delay = self._delay() - delay_before
        self.now_s += base_s * self.scale + delay
        return delay

    def _estimate_s(self, wreq: ResilientRequest) -> float:
        """Service-time estimate for admission control, at current capacity."""
        c = self.costs
        return (c.prefill_s
                + wreq.request.max_new_tokens * c.decode_step_s) * self.scale

    # -- lifecycle ---------------------------------------------------------

    def serve(self, requests: Sequence[Request | ResilientRequest]
              ) -> list[RequestOutcome]:
        """Serve all requests; returns one outcome per request, in order."""
        wrapped = [r if isinstance(r, ResilientRequest)
                   else ResilientRequest(r) for r in requests]
        by_id = {w.request.request_id: w for w in wrapped}
        if len(by_id) != len(wrapped):
            raise ValueError("duplicate request ids")
        outcomes: dict[int, RequestOutcome] = {}
        for group in group_requests([w.request for w in wrapped],
                                    self.decode_batch):
            self._serve_group([by_id[r.request_id] for r in group],
                              outcomes)
        return [outcomes[w.request.request_id] for w in wrapped]

    def _serve_group(self, live: list[ResilientRequest],
                     outcomes: dict[int, RequestOutcome]) -> None:
        retries = {w.request.request_id: 0 for w in live}
        attempt = 0
        while live:
            # Admission control: shed anything the current (possibly
            # degraded) capacity cannot finish by its deadline.
            admitted = []
            for wreq in live:
                rid = wreq.request.request_id
                estimate = self._estimate_s(wreq)
                if wreq.deadline_s is not None and \
                        self.now_s + estimate > wreq.deadline_s:
                    outcomes[rid] = RequestOutcome(
                        rid, RequestStatus.SHED, retries=retries[rid],
                        finish_s=self.now_s)
                    self.events.record(
                        REQUEST_SHED, request_id=rid, t_s=self.now_s,
                        estimate_s=estimate, deadline_s=wreq.deadline_s)
                else:
                    admitted.append(wreq)
            live = admitted
            if not live:
                return
            try:
                completions = self._run_group(live)
            except MeshFault as exc:
                self.events.record(FAULT_DETECTED,
                                   error=type(exc).__name__,
                                   detail=str(exc), t_s=self.now_s)
                attempt += 1
                survivors = []
                for wreq in live:
                    rid = wreq.request.request_id
                    retries[rid] += 1
                    if retries[rid] > wreq.max_retries:
                        outcomes[rid] = RequestOutcome(
                            rid, RequestStatus.FAILED,
                            retries=retries[rid] - 1, finish_s=self.now_s)
                        self.events.record(
                            REQUEST_FAILED, request_id=rid,
                            retries=retries[rid] - 1,
                            error=type(exc).__name__)
                    else:
                        survivors.append(wreq)
                self._recover(exc)
                backoff = self.costs.backoff_s(attempt)
                self.now_s += backoff
                for wreq in survivors:
                    rid = wreq.request.request_id
                    self.events.record(
                        REQUEST_RETRIED, request_id=rid,
                        attempt=retries[rid], backoff_s=backoff,
                        mode="re-prefill", t_s=self.now_s)
                live = survivors
                continue
            for wreq, completion in zip(live, completions):
                rid = wreq.request.request_id
                met = wreq.deadline_s is None or self.now_s <= wreq.deadline_s
                status = (RequestStatus.COMPLETED if met
                          else RequestStatus.DEADLINE_MISSED)
                outcomes[rid] = RequestOutcome(
                    rid, status, completion=completion,
                    retries=retries[rid], finish_s=self.now_s)
                self.events.record(
                    REQUEST_COMPLETED, request_id=rid, t_s=self.now_s,
                    retries=retries[rid], met_deadline=met)
            return

    def _run_group(self, live: list[ResilientRequest]) -> list[Completion]:
        group = [w.request for w in live]
        n_steps = max(r.max_new_tokens for r in group)
        max_len = len(group[0].prompt) + n_steps
        deadlines = [w.deadline_s for w in live if w.deadline_s is not None]
        min_deadline = min(deadlines) if deadlines else None

        caches_per_request, first_logits = [], []
        for request in group:
            before = self._delay()
            self._advance("prefill")
            logits, caches = self.prefill_model.prefill(
                request.prompt[None, :], max_len)
            self._charge(self.costs.prefill_s, before)
            caches_per_request.append(caches)
            first_logits.append(logits)

        # Pad the decode batch up to the plan's batch-sharding divisor by
        # repeating the last request's caches.  The merge reads caches
        # host-side, so reusing the objects costs nothing; the padded
        # rows' tokens are simply dropped.
        batch_group = plan_batch_group(self.decode_model.plan,
                                       Torus3D(*self.mesh.shape))
        pad = (-len(group)) % max(batch_group, 1)
        for _ in range(pad):
            caches_per_request.append(caches_per_request[-1])
            first_logits.append(first_logits[-1])

        caches = merge_sharded_caches(caches_per_request, self.decode_model)
        current = greedy(np.concatenate(first_logits, axis=0))
        generated = [current[:, None]]
        for step in range(n_steps - 1):
            before = self._delay()
            self._advance("decode")
            logits = self.step_compiler.decode_step(
                self.decode_model, current, caches)
            step_delay = self._charge(self.costs.decode_step_s, before)
            current = greedy(logits)
            generated.append(current[:, None])
            caches = self._maybe_evict_stragglers(
                live, caches, min_deadline,
                remaining_steps=n_steps - 2 - step, step_delay=step_delay)

        all_generated = np.concatenate(generated, axis=1)
        completions = []
        for i, request in enumerate(group):
            n = request.max_new_tokens
            tokens = np.concatenate([request.prompt, all_generated[i, :n]])
            completions.append(Completion(request.request_id, tokens, n))
        return completions

    # -- recovery ----------------------------------------------------------

    def _recover(self, exc: MeshFault) -> None:
        """Repair the deployment before a retry.

        A :class:`ChipFailure` is permanent: replan onto the largest
        healthy sub-slice.  Timeouts and detected corruption are one-shot
        transients (and :class:`CacheMigrationFailed` means we already
        replanned), so the current deployment is reused as-is.
        """
        if isinstance(exc, ChipFailure):
            self._replan([exc.chip])

    def _replan(self, dead_chips) -> None:
        deploy = replan_after_failure(
            self.weights, self.mesh, dead_chips,
            decode_batch=self.decode_batch, event_log=self.events)
        if self.fault_state is not None:
            remaining = self.fault_state.remaining_plan(
                deploy.subslice.origin, deploy.subslice.shape)
            new_state = deploy.mesh.install_faults(remaining, self.events)
            # Carry the clock and accumulated delay across the swap so
            # later-scheduled faults still fire at their intended step.
            new_state.step = self.fault_state.step
            new_state.phase = self.fault_state.phase
            new_state.phase_steps = dict(self.fault_state.phase_steps)
            new_state.sim_delay_s = self.fault_state.sim_delay_s
            self.fault_state = new_state
        self.mesh = deploy.mesh
        self.prefill_model = deploy.prefill_model
        self.decode_model = deploy.decode_model
        # The captured program closed over the old mesh and models;
        # replay on the replanned deployment would be invalid (the
        # signature check would also catch this — the explicit
        # invalidation just makes re-capture immediate and counted).
        self.step_compiler.invalidate()
        self.now_s += self.costs.replan_s

    def _maybe_evict_stragglers(self, live, caches, min_deadline,
                                remaining_steps: int, step_delay: float):
        """Evict straggler chips when they put the group's deadline at risk.

        Stragglers never raise — they only show up as latency — so the
        serving layer projects the group's finish time and, if a deadline
        would be blown, replans without the slow chips and *migrates* the
        live KV caches (the old mesh's data is intact, unlike a chip
        death, so no recompute is needed).
        """
        if self.fault_state is None or min_deadline is None \
                or remaining_steps <= 0 or step_delay <= 0.0:
            return caches
        stragglers = sorted(self.fault_state.straggler_chips())
        if not stragglers:
            return caches
        projected = self.now_s + remaining_steps * (
            self.costs.decode_step_s * self.scale + step_delay)
        if projected <= min_deadline:
            return caches
        self.events.record(
            FAULT_DETECTED, error="StragglerFault",
            detail=f"straggler chips {stragglers} project finish "
                   f"{projected:.4f}s past deadline {min_deadline:.4f}s",
            t_s=self.now_s)
        old_decode = self.decode_model
        self._replan(stragglers)
        try:
            migrated = migrate_caches(caches, old_decode, self.decode_model)
        except ValueError as exc:
            raise CacheMigrationFailed(
                f"could not migrate caches to mesh {self.mesh.shape}: "
                f"{exc}") from exc
        for wreq in live:
            self.events.record(
                REQUEST_RETRIED, request_id=wreq.request.request_id,
                attempt=0, backoff_s=0.0, mode="cache-migration",
                t_s=self.now_s)
        return migrated


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
                 event_log: EventLog | None = None, seed: int = 0,
                 prefill_chunk: int | None | str = "auto"):
        if fault_plan is not None and mesh is None:
            raise ValueError("fault_plan requires a mesh to install it on")
        self.model = model
        self.max_slots = max_slots
        self.max_len = max_len
        # Chunked prefill is the default admission path ("auto" reads
        # the REPRO_PREFILL_MODE / REPRO_PREFILL_CHUNK escape hatches);
        # resolved once here so every retry engine behaves identically.
        self.prefill_chunk = (default_prefill_chunk()
                              if prefill_chunk == "auto"
                              else prefill_chunk)
        self.costs = costs or CostModel()
        self.events = event_log if event_log is not None else EventLog()
        self.seed = seed
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
            + (local_step + 1) * self.costs.decode_step_s * self.scale
        projected = sim_now + remaining * (
            self.costs.decode_step_s * self.scale + step_delay)
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
        new_mesh = VirtualMesh(sub.shape, backend=self.mesh.backend)
        remaining_plan = self.fault_state.remaining_plan(sub.origin,
                                                         sub.shape)
        new_state = new_mesh.install_faults(remaining_plan, self.events)
        new_state.step = self.fault_state.step
        new_state.phase = self.fault_state.phase
        new_state.phase_steps = dict(self.fault_state.phase_steps)
        new_state.sim_delay_s = self.fault_state.sim_delay_s
        self.mesh = new_mesh
        self.fault_state = new_state
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
                + (self.scale - 1.0) * self.costs.decode_step_s
            if step_delay > 0.0:
                self._evict_stragglers(local_step, step_delay)

    def serve(self, requests: Sequence[Request | ResilientRequest]
              ) -> list[RequestOutcome]:
        wrapped = [r if isinstance(r, ResilientRequest)
                   else ResilientRequest(r) for r in requests]
        outcomes: dict[int, RequestOutcome] = {}
        retries = {w.request.request_id: 0 for w in wrapped}
        if len(retries) != len(wrapped):
            raise ValueError("duplicate request ids")

        # Admission control up front; the engine has a fixed capacity, so
        # the estimate is the request's own service time.
        pending = []
        for wreq in wrapped:
            rid = wreq.request.request_id
            estimate = self.costs.prefill_s + \
                wreq.request.max_new_tokens * self.costs.decode_step_s
            if wreq.deadline_s is not None and \
                    self.now_s + estimate > wreq.deadline_s:
                outcomes[rid] = RequestOutcome(
                    rid, RequestStatus.SHED, finish_s=self.now_s)
                self.events.record(REQUEST_SHED, request_id=rid,
                                   t_s=self.now_s, estimate_s=estimate,
                                   deadline_s=wreq.deadline_s)
            else:
                pending.append(wreq)

        attempt = 0
        while pending:
            deadlines = [w.deadline_s for w in pending
                         if w.deadline_s is not None]
            self._min_deadline = min(deadlines) if deadlines else None
            self._remaining_hint = max(w.request.max_new_tokens
                                       for w in pending)
            self._extra_s = 0.0
            engine = ContinuousBatchingEngine(
                self.model, self.max_slots, self.max_len, seed=self.seed,
                step_hook=self._step_hook,
                prefill_chunk=self.prefill_chunk)
            try:
                completions = engine.serve([w.request for w in pending])
            except MeshFault as exc:
                self._steps_done += engine.steps
                self.now_s += engine.admissions * self.costs.prefill_s + \
                    engine.steps * self.costs.decode_step_s + self._extra_s
                self._extra_s = 0.0
                self.events.record(FAULT_DETECTED,
                                   error=type(exc).__name__,
                                   detail=str(exc), t_s=self.now_s)
                if self.fault_state is not None:
                    # Permanent mesh faults (chip kills) must be replanned
                    # around, or the next heartbeat re-raises forever.
                    dead = sorted(self.fault_state.dead_chips)
                    if dead:
                        self._shrink_mesh(dead)
                        self.now_s += self._extra_s
                        self._extra_s = 0.0
                attempt += 1
                survivors = []
                for wreq in pending:
                    rid = wreq.request.request_id
                    retries[rid] += 1
                    if retries[rid] > wreq.max_retries:
                        outcomes[rid] = RequestOutcome(
                            rid, RequestStatus.FAILED,
                            retries=retries[rid] - 1, finish_s=self.now_s)
                        self.events.record(
                            REQUEST_FAILED, request_id=rid,
                            retries=retries[rid] - 1,
                            error=type(exc).__name__)
                    else:
                        survivors.append(wreq)
                backoff = self.costs.backoff_s(attempt)
                self.now_s += backoff
                for wreq in survivors:
                    rid = wreq.request.request_id
                    self.events.record(
                        REQUEST_RETRIED, request_id=rid,
                        attempt=retries[rid], backoff_s=backoff,
                        mode="re-prefill", t_s=self.now_s)
                pending = survivors
                continue
            self._steps_done += engine.steps
            self.now_s += engine.admissions * self.costs.prefill_s + \
                engine.steps * self.costs.decode_step_s + self._extra_s
            for wreq, completion in zip(pending, completions):
                rid = wreq.request.request_id
                met = wreq.deadline_s is None or self.now_s <= wreq.deadline_s
                status = (RequestStatus.COMPLETED if met
                          else RequestStatus.DEADLINE_MISSED)
                outcomes[rid] = RequestOutcome(
                    rid, status, completion=completion,
                    retries=retries[rid], finish_s=self.now_s)
                self.events.record(
                    REQUEST_COMPLETED, request_id=rid, t_s=self.now_s,
                    retries=retries[rid], met_deadline=met)
            pending = []
        return [outcomes[w.request.request_id] for w in wrapped]
