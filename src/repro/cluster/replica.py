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
A plane with one replica is the single-mesh server: a faulted group
retries in place on the same (possibly replanned) replica.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from repro.cluster.pricing import CostModel
from repro.events import PLAN_SWITCHED, REPLICA_HEALTH, EventLog
from repro.hardware.topology import Torus3D
from repro.mesh import VirtualMesh
from repro.mesh.capture import ProgramStore, StepCompiler
from repro.mesh.faults import FaultPlan
from repro.model.sampling import greedy
from repro.partitioning.degraded import (
    build_deployment,
    plan_batch_group,
    replan_after_failure,
    select_degraded_plan,
    select_prefill_profile_plan,
    select_profile_plan,
)
from repro.partitioning.selector import Phase
from repro.serving.chunked import DEFAULT_PREFILL_CHUNK, chunked_prefill
from repro.serving.engine import Completion, Request, group_completions
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
                 journal: EventLog | None = None,
                 prompt_len_hint: int = 64,
                 kvstore_pages: int = 256,
                 program_store: ProgramStore | None = None):
        self.name = name
        self.weights = weights
        self.decode_batch = decode_batch
        self.costs = costs or CostModel()
        self.journal = journal if journal is not None else EventLog()
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
        # Pages carry their layout key, so the prefix cache survives a
        # layout switch: a page whose layout the new plan no longer
        # shares installs through the host-mediated global conversion.
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

    def __init__(self, replica: Replica, group: Sequence[Request]):
        if not group:
            raise ValueError("cannot run an empty request group")
        self.replica = replica
        self.group = list(group)
        self.n_steps = max(r.max_new_tokens for r in self.group)
        self.steps_done = 0
        self.caches = None
        self.current = None
        self.generated: list[np.ndarray] = []
        # Page leases pinning cached prefixes this run installed; held
        # until the group retires (or is abandoned) so eviction can never
        # free a page under a live decode slot.
        self.leases: list = []

    @property
    def done(self) -> bool:
        return self.caches is not None and \
            self.steps_done >= self.n_steps - 1

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
            elapsed += replica.costs.prefill(replica, computed_frac) \
                + (replica.delay_s() - before)
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
        """One batched decode step; returns its simulated cost.

        The replica's compiler replays a warm, valid program, captures on
        a quiet miss, and runs the step eagerly while a fault is live.
        """
        replica = self.replica
        before = replica.delay_s()
        replica.advance("decode")
        logits = replica.step_compiler.decode_step(
            replica.decode_model, self.current, self.caches)
        elapsed = replica.costs.decode_step(replica) \
            + (replica.delay_s() - before)
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
        migrated = self.replica.decode_model.reshard_cache(
            self.caches, target.decode_model)
        batch = migrated[0].global_shape[0]
        batch_group = plan_batch_group(target.decode_model.plan,
                                       Torus3D(*target.mesh.shape))
        if batch % max(batch_group, 1) != 0:
            raise ValueError(
                f"migrated batch {batch} does not divide target plan's "
                f"batch group {batch_group}")
        run = GroupRun(target, self.group)
        run.caches = migrated
        run.current = self.current
        run.generated = list(self.generated)
        run.steps_done = self.steps_done
        # Page leases stay behind: they pin pages in the *source*
        # replica's store, and the migrated caches carry their own full
        # copy of the prefix.  The control plane releases them.
        return run
