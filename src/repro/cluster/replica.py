"""One serving replica: a mesh, its models, and its health.

A :class:`Replica` is the unit the cluster control plane schedules onto:
a :class:`~repro.mesh.VirtualMesh` (its own slice, possibly a different
shape from its siblings), shared-weight prefill/decode
``ShardedTransformer`` models planned for that shape, and the fault
state injected by a chaos scenario.  Health is tracked explicitly:

* ``HEALTHY`` — full slice, dispatchable.
* ``DEGRADED`` — lost chips (replanned onto a healthy sub-slice) or
  carrying active stragglers; still dispatchable, just slower.
* ``DRAINING`` — being emptied for planned maintenance; no new groups.
* ``DEAD`` — no healthy sub-slice supports the model; out of rotation.

:meth:`Replica.heartbeat` is the health check: it consults the mesh's
:class:`~repro.mesh.faults.FaultState` (the same machinery that makes
collectives raise), so a scheduled kill is noticed *proactively* at the
next heartbeat even before a collective trips over it, triggering
degraded replanning — or a transition to ``DEAD`` when no sub-slice
fits.  Every transition is recorded once, to the ``journal`` the
replica is given — on a cluster control plane the plane's write-ahead
:class:`~repro.cluster.journal.Journal`, which the trace marks are
derived from; standalone, any :class:`~repro.events.EventLog`.

:class:`GroupRun` is one request group's in-flight execution, stepped by
the control plane one decode step at a time — that step granularity is
what makes mid-decode failover, live KV-cache re-dispatch
(:meth:`GroupRun.migrate_to`) and hedging observable and testable.

:class:`ResilientTwoPhaseServer` is the single-mesh server: one replica,
each attempt of a request group run as a :class:`GroupRun`, wrapped in
admission shedding, bounded retry and straggler eviction.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from repro.events import (
    FAULT_DETECTED,
    PLAN_SWITCHED,
    REPLICA_HEALTH,
    REQUEST_RETRIED,
    EventLog,
)
from repro.hardware.topology import Torus3D
from repro.mesh import VirtualMesh
from repro.mesh.capture import ProgramStore, StepCompiler
from repro.mesh.faults import ChipFailure, FaultPlan, MeshFault
from repro.model.sampling import greedy
from repro.partitioning.degraded import (
    build_deployment,
    migrate_caches,
    plan_batch_group,
    replan_after_failure,
    select_degraded_plan,
    select_prefill_profile_plan,
    select_profile_plan,
)
from repro.partitioning.selector import Phase
from repro.serving.chunked import DEFAULT_PREFILL_CHUNK, chunked_prefill
from repro.serving.engine import Completion, Request, group_completions
from repro.serving.resilient import (
    CacheMigrationFailed,
    CostModel,
    RequestLedger,
    RequestOutcome,
    ResilientRequest,
)
from repro.serving.scheduler import group_requests
from repro.serving.sharded import merge_sharded_caches

Coord = tuple[int, int, int]


class ReplicaHealth(str, Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DRAINING = "draining"
    DEAD = "dead"


class Replica:
    """A mesh deployment plus its health, clocked by the control plane."""

    def __init__(self, name: str, weights, shape: Coord, *,
                 backend: str | None = None, decode_batch: int = 4,
                 fault_plan: FaultPlan | None = None,
                 costs: CostModel | None = None,
                 journal: EventLog | None = None, tracer=None,
                 prompt_len_hint: int = 64,
                 kvstore_pages: int = 256,
                 program_store: ProgramStore | None = None):
        self.name = name
        self.weights = weights
        self.decode_batch = decode_batch
        self.costs = costs or CostModel()
        self.journal = journal if journal is not None else EventLog()
        # Mesh tracer: every collective/einsum this replica's meshes run
        # is recorded on it (None: mesh instrumentation off).
        self.tracer = tracer
        self.mesh = VirtualMesh(shape, backend=backend)
        self.full_chips = self.mesh.num_chips
        self.health = ReplicaHealth.HEALTHY
        self.busy_until_s = 0.0
        # Decode-plan profile the autoscaler steers (see switch_profile):
        # "balanced" is the selector's own pick.  The prefill profile is
        # steered separately by a pooled control plane's prefill pool
        # (see switch_prefill_profile / ClusterControlPlane(pools=...)).
        self.profile = "balanced"
        self.prefill_profile = "balanced"
        self.prompt_len_hint = prompt_len_hint
        self.prefill_model, self.decode_model = build_deployment(
            weights, self.mesh, decode_batch=decode_batch,
            prompt_len=prompt_len_hint)
        self.fault_state = None
        if fault_plan is not None:
            self.fault_state = self.mesh.install_faults(fault_plan,
                                                        self.journal)
        if tracer is not None:
            self.mesh.tracer = tracer
        # Capture-and-replay compiler for prefill chunks and decode
        # steps.  Its counters are this replica's; its programs live in
        # ``program_store``, which a control plane shares across its
        # fleet (a private store when None).  Keys are structural, so
        # nothing here ever flushes the store: a replan or profile switch
        # changes the mesh shape, dead-chip set or plan and looks up a
        # different key, and going back finds the old program warm.
        self.step_compiler = StepCompiler(store=program_store)
        # Per-replica paged prefix cache (repro.kvstore).  Page size is
        # the prefill chunk so cached-prefix suffixes see the cold path's
        # exact chunk boundaries (the bit-identity contract); disabled
        # when ``kvstore_pages == 0``.  The buffer arena recycles
        # device-shaped KV buffers across cache lifetimes on both models.
        from repro.kvstore import KVBufferArena, KVStore

        self.kv_arena = KVBufferArena()
        self.kvstore = (KVStore(page_tokens=DEFAULT_PREFILL_CHUNK,
                                capacity_pages=kvstore_pages, name=name)
                        if kvstore_pages else None)
        self._wire_kv()

    def _wire_kv(self) -> None:
        """Point both models' cache allocation at this replica's arena.

        Models are rebuilt wholesale on replan/restart/profile switches
        (``with_plan`` and the ``ShardedTransformer`` ctor both default
        ``kv_arena`` to ``None``), so every rebuild site re-wires here.
        """
        self.decode_model.kv_arena = self.kv_arena
        self.prefill_model.kv_arena = self.kv_arena

    # -- simulated time -----------------------------------------------------

    @property
    def scale(self) -> float:
        """Slowdown of the (possibly degraded) slice vs. its full size."""
        return self.full_chips / self.mesh.num_chips

    def delay_s(self) -> float:
        """Accumulated straggler delay on this replica's fault clock."""
        return self.fault_state.sim_delay_s if self.fault_state else 0.0

    def advance(self, phase: str) -> None:
        if self.fault_state is not None:
            self.fault_state.advance(phase)

    # -- health -------------------------------------------------------------

    @property
    def dispatchable(self) -> bool:
        return self.health in (ReplicaHealth.HEALTHY,
                               ReplicaHealth.DEGRADED)

    def set_health(self, health: ReplicaHealth, now_s: float,
                   reason: str) -> None:
        if health is self.health:
            return
        old, self.health = self.health, health
        self.journal.record(REPLICA_HEALTH, t_s=now_s, replica=self.name,
                            old=old.value, new=health.value, reason=reason)

    def heartbeat(self, now_s: float) -> ReplicaHealth:
        """Health-check probe, driven by the mesh fault machinery.

        Reads the fault state's *currently active* faults — so a
        scheduled kill surfaces at the heartbeat after its step arrives,
        not only when a collective trips over it.  Dead chips trigger
        degraded replanning right here (the proactive path); if no
        healthy sub-slice supports the model, the replica goes ``DEAD``.
        """
        if self.health is ReplicaHealth.DEAD:
            return self.health
        state = self.fault_state
        dead = sorted(state.dead_chips) if state is not None else []
        if dead:
            try:
                self.replan_around(dead)
                self.set_health(ReplicaHealth.DEGRADED, now_s,
                                f"heartbeat found dead chips {dead}; "
                                f"replanned to {self.mesh.shape}")
            except ValueError as exc:
                self.set_health(ReplicaHealth.DEAD, now_s,
                                f"no healthy sub-slice: {exc}")
        elif state is not None and state.straggler_chips():
            self.set_health(
                ReplicaHealth.DEGRADED, now_s,
                f"straggler chips {sorted(state.straggler_chips())}")
        elif self.health is ReplicaHealth.DEGRADED and \
                self.mesh.num_chips == self.full_chips:
            # Stragglers healed (windowed fault) and no chips were lost.
            self.set_health(ReplicaHealth.HEALTHY, now_s,
                            "stragglers healed")
        return self.health

    # -- recovery -----------------------------------------------------------

    def replan_around(self, chips: Sequence[Coord]) -> None:
        """Rebuild this replica on its largest healthy sub-slice.

        Re-select layouts for the shrunken torus, re-shard weights,
        rebase the unfired fault schedule and carry the fault clock so
        later faults still land.
        """
        deploy = replan_after_failure(
            self.weights, self.mesh, chips,
            decode_batch=self.decode_batch,
            prompt_len=self.prompt_len_hint, event_log=self.journal)
        if self.fault_state is not None:
            self.fault_state = self.fault_state.carry_to(
                deploy.mesh, deploy.subslice.origin)
        if self.tracer is not None:
            deploy.mesh.tracer = self.tracer
        self.mesh = deploy.mesh
        self.prefill_model = deploy.prefill_model
        self.decode_model = deploy.decode_model
        # Cached pages were extracted on the old deployment; the lease
        # epoch bump makes in-flight releases no-ops.  The pooled device
        # buffers are shaped for the old mesh, so the arena empties too.
        if self.kvstore is not None:
            self.kvstore.invalidate("replan")
        self.kv_arena.clear()
        self._wire_kv()
        self.profile = "balanced"  # replan re-selects; profiles re-apply
        self.prefill_profile = "balanced"  # at the next group dispatch

    def restart(self, mode: str = "cold") -> None:
        """Recover from full process death (a scheduled
        :class:`~repro.cluster.control_plane.RestartSpec`).

        ``"cold"`` is a fresh process: layouts are re-selected and the
        weights re-sharded for the current (possibly degraded) mesh and
        profiles reset to ``"balanced"``.  ``"warm"`` is a
        journal-guided rejoin: the sharded state survived in host
        memory.  Either way the program store is untouched — it belongs
        to the control plane, and its programs stay valid for the same
        weights, mesh shape and plan — so the next step replays.  The
        control plane charges the corresponding downtime either way.
        """
        if mode not in ("cold", "warm"):
            raise ValueError(
                f"restart mode must be 'cold' or 'warm', got {mode!r}")
        if mode == "cold":
            self.prefill_model, self.decode_model = build_deployment(
                self.weights, self.mesh, decode_batch=self.decode_batch,
                prompt_len=self.prompt_len_hint)
            self.profile = "balanced"
            self.prefill_profile = "balanced"
            self._wire_kv()
        # Process death loses the host-resident page store either way:
        # a cold restart rebuilt the models, and even a warm rejoin
        # cannot prove page contents survived — the auditor's
        # exactly-once ledger only covers lease events, not payloads.
        if self.kvstore is not None:
            self.kvstore.invalidate("restart")
        self.kv_arena.clear()

    def switch_profile(self, profile: str, now_s: float) -> bool:
        """Move the decode model to one end of the Pareto frontier.

        ``profile`` is ``"balanced"`` (the selector's own latency-biased
        pick), ``"weight-stationary"`` (minimum-latency decode under
        heavy prefill load) or ``"weight-gathered"`` (the throughput-
        Pareto plan for decode-dominated load, Section 3.2).  Only the
        decode model is rebuilt — prefill keeps its plan — and decode
        programs for the new plan capture under their own keys, so
        nothing is invalidated and switching back replays the old plan's
        programs.  Returns ``True`` when the plan actually changed
        (the control plane charges the switch cost only then); a profile
        with no valid plan on the current (possibly degraded) slice is
        refused without changing anything.
        """
        return self._switch_plan(Phase.DECODE, profile, now_s)

    def switch_prefill_profile(self, profile: str, now_s: float) -> bool:
        """Move the *prefill* model to one end of the Pareto frontier.

        The prefill counterpart of :meth:`switch_profile`, steered by a
        pooled control plane's prefill pool (``ClusterControlPlane(
        pools=...)``, specs in :mod:`repro.cluster.disagg`):
        ``"balanced"`` is the selector's own pick and
        ``"weight-stationary"`` prefers the 2D weight-stationary layout
        of Section 3.2.2.  Only the prefill model is rebuilt — the decode
        model and its KV layout stay put, and prefill-chunk programs for
        the new plan capture under their own keys.  Returns ``True`` when
        the plan actually changed; a profile with no valid plan on the
        current slice is refused.
        """
        return self._switch_plan(Phase.PREFILL, profile, now_s)

    def _switch_plan(self, phase: Phase, profile: str, now_s: float) -> bool:
        """Rebuild ``phase``'s model on ``profile``'s plan (see above)."""
        from repro.layouts.model import ShardedTransformer

        decode = phase is Phase.DECODE
        attr = "profile" if decode else "prefill_profile"
        if profile not in ("balanced", "weight-stationary",
                           "weight-gathered"):
            raise ValueError(f"unknown {phase.value} profile {profile!r}")
        if profile == getattr(self, attr):
            return False
        config = self.weights.config
        torus = Torus3D(*self.mesh.shape)
        gathered = profile == "weight-gathered"
        try:
            if profile == "balanced":
                plan = select_degraded_plan(
                    config, torus, phase,
                    batch=self.decode_batch if decode else 1,
                    tokens_per_seq=1 if decode else self.prompt_len_hint)
            elif decode:
                plan = select_profile_plan(config, torus, self.decode_batch,
                                           weight_gathered=gathered)
            else:
                plan = select_prefill_profile_plan(
                    config, torus, self.prompt_len_hint,
                    weight_gathered=gathered)
        except ValueError:
            return False
        old_plan = (self.decode_model if decode else self.prefill_model).plan
        if plan == old_plan:
            setattr(self, attr, profile)
            return False
        try:
            model = self.decode_model.with_plan(plan)
        except ValueError:
            model = ShardedTransformer(self.weights, self.mesh, plan)
        if decode:
            self.decode_model = model
        else:
            self.prefill_model = model
        # Pages store KV in global form, so the prefix cache survives a
        # layout switch — install resharding onto the new plan is the
        # same host-mediated copy either way.
        self._wire_kv()
        setattr(self, attr, profile)
        described = f"{plan.ffn.value}/{plan.attention.value}"
        self.journal.record(
            PLAN_SWITCHED, t_s=now_s, replica=self.name, profile=profile,
            **({} if decode else {"phase": "prefill"}),
            old_plan=f"{old_plan.ffn.value}/{old_plan.attention.value}",
            new_plan=described)
        return True

    def kvstore_stats(self) -> dict:
        """Merged prefix-cache + buffer-arena counters for reporting."""
        stats = dict(self.kvstore.stats()) if self.kvstore is not None \
            else {}
        stats.update(self.kv_arena.stats())
        return stats

    def __repr__(self) -> str:
        return (f"Replica({self.name!r}, {self.mesh.shape}, "
                f"{self.health.value})")


class GroupRun:
    """One request group in flight on one replica, stepped externally.

    The control plane drives it: :meth:`run_prefill` once, then
    :meth:`decode_step` until :attr:`done`.  Both return the simulated
    seconds that invocation cost on the replica (base cost scaled by the
    degradation factor, plus any straggler delay the mesh fault state
    accumulated during the call) and may raise
    :class:`~repro.mesh.faults.MeshFault` — which the control plane
    turns into failover, not a dropped request.
    """

    def __init__(self, replica: Replica,
                 wrapped: Sequence[ResilientRequest]):
        if not wrapped:
            raise ValueError("cannot run an empty request group")
        self.replica = replica
        self.wrapped = list(wrapped)
        self.group = [w.request for w in self.wrapped]
        self.n_steps = max(r.max_new_tokens for r in self.group)
        self.steps_done = 0
        self.caches = None
        self.current = None
        self.generated: list[np.ndarray] = []
        self._delay_before = 0.0
        # Page leases pinning cached prefixes this run installed; held
        # until the group retires (or is abandoned) so eviction can never
        # free a page under a live decode slot.
        self.leases: list = []

    @property
    def done(self) -> bool:
        return self.caches is not None and \
            self.steps_done >= self.n_steps - 1

    @property
    def remaining_steps(self) -> int:
        return max(self.n_steps - 1 - self.steps_done, 0)

    def run_prefill(self) -> float:
        """Prefill every request and merge the decode batch."""
        replica = self.replica
        max_len = len(self.group[0].prompt) + self.n_steps
        caches_per_request, first_logits = [], []
        elapsed = 0.0
        kvstore = replica.kvstore
        for request in self.group:
            before = replica.delay_s()
            replica.advance("prefill")
            computed_frac = 1.0
            # Chunked prefill through the program cache — same-length
            # chunks replay across prompts — and, when the replica
            # carries a prefix store, through the paged cache: only the
            # uncached suffix is computed, and the prefill cost shrinks
            # by the same fraction.
            logits, caches = chunked_prefill(
                replica.prefill_model, request.prompt[None, :],
                DEFAULT_PREFILL_CHUNK, max_len,
                compiler=replica.step_compiler, kvstore=kvstore)
            if kvstore is not None:
                reuse = kvstore.take_last_reuse()
                if reuse is not None and reuse.lease is not None:
                    self.leases.append(reuse.lease)
                    computed_frac = reuse.computed_fraction
            elapsed += replica.costs.prefill_cost_s(
                replica.prefill_profile) * replica.scale \
                * computed_frac + (replica.delay_s() - before)
            caches_per_request.append(caches)
            first_logits.append(logits)

        # Pad up to the decode plan's batch-sharding divisor by repeating
        # the last request's caches (host-side; padded rows are dropped).
        batch_group = plan_batch_group(replica.decode_model.plan,
                                       Torus3D(*replica.mesh.shape))
        pad = (-len(self.group)) % max(batch_group, 1)
        for _ in range(pad):
            caches_per_request.append(caches_per_request[-1])
            first_logits.append(first_logits[-1])

        self.caches = merge_sharded_caches(caches_per_request,
                                           replica.decode_model)
        self.current = greedy(np.concatenate(first_logits, axis=0))
        self.generated = [self.current[:, None]]
        return elapsed

    def decode_step(self) -> float:
        """One batched decode step; returns its simulated cost."""
        thunk = self.begin_decode_step()
        return self.finish_decode_step(thunk())

    def begin_decode_step(self):
        """Clock + bookkeeping half of a decode step; returns its thunk.

        Runs on the control-plane thread: advances the fault clock and
        resolves the step through the compiler's program cache.  The
        returned zero-argument callable does the actual compute — a pure
        program replay when a warm program is valid, otherwise the full
        eager/capture path — and touches only this replica's model and
        caches plus store programs whose runs their own locks serialize,
        so thunks of *distinct* replicas may run concurrently (the
        control plane's hedged race does).  Call
        :meth:`finish_decode_step` with the thunk's logits to commit.
        """
        replica = self.replica
        self._delay_before = replica.delay_s()
        replica.advance("decode")
        compiler = replica.step_compiler
        thunk = compiler.decode_thunk(replica.decode_model, self.current,
                                      self.caches)
        if thunk is not None:
            return thunk
        model, tokens, caches = (replica.decode_model, self.current,
                                 self.caches)
        return lambda: compiler.decode_step(model, tokens, caches)

    def finish_decode_step(self, logits: np.ndarray) -> float:
        """Commit one decode step's logits; returns its simulated cost."""
        replica = self.replica
        elapsed = replica.costs.decode_cost_s(replica.profile) \
            * replica.scale \
            + (replica.delay_s() - self._delay_before)
        self.current = greedy(logits)
        self.generated.append(self.current[:, None])
        self.steps_done += 1
        return elapsed

    def release_leases(self) -> list:
        """Unpin this run's cached-prefix pages; returns what released.

        Idempotent, and safe across replans — a lease from a bumped
        store epoch is a counted no-op (``stale_releases``), so chaos
        paths can release unconditionally.  Only leases that actually
        released on the current epoch are returned (for journaling).
        """
        released = []
        for lease in self.leases:
            if lease.release():
                released.append(lease)
        self.leases = []
        return released

    def completions(self) -> list[Completion]:
        return group_completions(self.group, self.generated)

    def kv_cache_bytes(self) -> int:
        """Bytes of live KV cache (every layer, K and V, padding rows
        included — the handoff moves the merged batch as stored)."""
        if self.caches is None:
            return 0
        total = 0
        for cache in self.caches:
            batch, _, n_kv_heads, d_head = cache.global_shape
            total += 2 * batch * cache.length * n_kv_heads * d_head \
                * np.dtype(cache.dtype).itemsize
        return total

    def migrate_to(self, target: Replica) -> "GroupRun":
        """Re-dispatch this in-flight group onto ``target`` with its KV.

        Host-mediated cache migration (the Section 4.4 transfer): valid
        while the source mesh's data is readable — a drain or straggler,
        not a chip death.  Raises ``ValueError`` when the target's plan
        cannot host the migrated batch; the control plane then falls
        back to re-prefill.
        """
        if self.caches is None:
            raise ValueError("group has not prefilled; nothing to migrate")
        migrated = migrate_caches(self.caches, self.replica.decode_model,
                                  target.decode_model)
        batch = migrated[0].global_shape[0]
        batch_group = plan_batch_group(target.decode_model.plan,
                                       Torus3D(*target.mesh.shape))
        if batch % max(batch_group, 1) != 0:
            raise ValueError(
                f"migrated batch {batch} does not divide target plan's "
                f"batch group {batch_group}")
        run = GroupRun(target, self.wrapped)
        run.caches = migrated
        run.current = self.current
        run.generated = list(self.generated)
        run.steps_done = self.steps_done
        # Page leases stay behind: they pin pages in the *source*
        # replica's store, and the migrated caches carry their own full
        # copy of the prefix.  The control plane releases them.
        return run


class ResilientTwoPhaseServer:
    """Two-phase serving on one mesh with detect -> replan -> retry -> shed.

    Owns one :class:`Replica` (plans chosen by the degraded-mesh
    selector, ``fault_plan`` installed on its mesh) and runs each attempt
    of a request group as a :class:`GroupRun`: chunked batch-1 prefill
    through the replica's program cache and prefix store, then batched
    greedy decode.  The fault clock ticks once per model invocation, so
    scheduled faults land at reproducible points in the lifecycle:

    * a :class:`~repro.mesh.faults.ChipFailure` replans the replica onto
      its largest healthy sub-slice, then the group retries (re-prefill)
      after exponential backoff; timeouts and corruption retry in place;
    * stragglers that project a deadline miss are evicted mid-decode —
      the replica replans without them and the live KV caches migrate;
    * once degraded, requests whose deadline the reduced capacity
      cannot meet are shed at admission.

    Time is simulated on :attr:`now_s`, charged by the replica's
    :class:`~repro.serving.resilient.CostModel`.
    """

    def __init__(self, weights, shape: Coord, *,
                 backend: str | None = None, decode_batch: int = 8,
                 fault_plan: FaultPlan | None = None,
                 costs: CostModel | None = None,
                 event_log: EventLog | None = None,
                 prompt_len_hint: int = 64):
        if decode_batch < 1:
            raise ValueError("decode_batch must be >= 1")
        self.replica = Replica("resilient", weights, shape, backend=backend,
                               decode_batch=decode_batch,
                               fault_plan=fault_plan, costs=costs,
                               journal=event_log,
                               prompt_len_hint=prompt_len_hint)
        self.costs = self.replica.costs
        self.events = self.replica.journal
        self.now_s = 0.0

    @property
    def mesh(self) -> VirtualMesh:
        return self.replica.mesh

    def _estimate_s(self, wreq: ResilientRequest) -> float:
        """Service-time estimate for admission control, at current capacity."""
        c = self.costs
        return (c.prefill_s + wreq.request.max_new_tokens * c.decode_step_s) \
            * self.replica.scale

    def serve(self, requests: Sequence[Request | ResilientRequest]
              ) -> list[RequestOutcome]:
        """Serve all requests; returns one outcome per request, in order."""
        ledger = RequestLedger(requests, self.events)
        by_id = {w.request.request_id: w for w in ledger.wrapped}
        for group in group_requests([w.request for w in ledger.wrapped],
                                    self.replica.decode_batch):
            self._serve_group(ledger,
                              [by_id[r.request_id] for r in group])
        return ledger.results()

    def _serve_group(self, ledger: RequestLedger,
                     live: list[ResilientRequest]) -> None:
        attempt = 0
        while True:
            # Shed anything the current (possibly degraded) capacity
            # cannot finish by its deadline.
            live = ledger.admit(live, self.now_s, self._estimate_s)
            if not live:
                return
            run = GroupRun(self.replica, live)
            try:
                self._run(run)
            except MeshFault as exc:
                ledger.detected(exc, self.now_s)
                attempt += 1
                live = ledger.fail_exhausted(live, exc, self.now_s)
                # A chip death is permanent: replan around it.  Timeouts
                # and corruption are one-shot transients (and a failed
                # cache migration already replanned), so the deployment
                # is reused as-is.
                if isinstance(exc, ChipFailure):
                    self._replan([exc.chip])
                backoff = self.costs.backoff_s(attempt)
                self.now_s += backoff
                ledger.retried(live, backoff, self.now_s)
                continue
            finally:
                run.release_leases()
            ledger.complete(live, run.completions(), self.now_s)
            return

    def _run(self, run: GroupRun) -> None:
        deadlines = [w.deadline_s for w in run.wrapped
                     if w.deadline_s is not None]
        min_deadline = min(deadlines) if deadlines else None
        self.now_s += run.run_prefill()
        while not run.done:
            before = self.replica.delay_s()
            self.now_s += run.decode_step()
            self._maybe_evict_stragglers(
                run, min_deadline, self.replica.delay_s() - before)

    def _replan(self, chips) -> None:
        self.replica.replan_around(chips)
        self.now_s += self.costs.replan_s

    def _maybe_evict_stragglers(self, run: GroupRun,
                                min_deadline: float | None,
                                step_delay: float) -> None:
        """Evict straggler chips when they put the group's deadline at risk.

        Stragglers never raise — they only show up as latency — so the
        server projects the group's finish time and, if a deadline would
        be blown, replans without the slow chips and *migrates* the live
        KV caches (the old mesh's data is intact, unlike a chip death, so
        no recompute is needed).
        """
        replica = self.replica
        remaining = run.remaining_steps
        if replica.fault_state is None or min_deadline is None \
                or remaining <= 0 or step_delay <= 0.0:
            return
        stragglers = sorted(replica.fault_state.straggler_chips())
        if not stragglers:
            return
        projected = self.now_s + remaining * (
            self.costs.decode_step_s * replica.scale + step_delay)
        if projected <= min_deadline:
            return
        self.events.record(
            FAULT_DETECTED, error="StragglerFault",
            detail=f"straggler chips {stragglers} project finish "
                   f"{projected:.4f}s past deadline {min_deadline:.4f}s",
            t_s=self.now_s)
        old = replica.decode_model
        self._replan(stragglers)
        try:
            run.caches = migrate_caches(run.caches, old,
                                        replica.decode_model)
        except ValueError as exc:
            raise CacheMigrationFailed(
                f"could not migrate caches to mesh {replica.mesh.shape}: "
                f"{exc}") from exc
        for wreq in run.wrapped:
            self.events.record(
                REQUEST_RETRIED, request_id=wreq.request.request_id,
                attempt=0, backoff_s=0.0, mode="cache-migration",
                t_s=self.now_s)
