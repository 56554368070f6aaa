"""The virtual clock's one pricing function, :class:`CostModel`.

It prices every second the cluster's virtual clock charges for serving
work, one method per charge kind; no other module reads a rate, a
profile factor or a flat charge.  Straggler delay (a fault), retry
backoff and autoscaler spin-up (policy inputs) are not prices.
"""

from dataclasses import dataclass

from repro.cluster.disagg import handoff_transfer_s


@dataclass(frozen=True)
class CostModel:
    """Virtual-clock prices, in simulated seconds.

    A model invocation costs a flat rate per request (prefill) or per
    batched step (decode), times ``full_chips / current_chips`` once the
    replica's mesh is degraded.  The profile factor tables model the
    Section 3.2 Pareto gap between plans: a replica on the named profile
    pays ``base * factor``.  Both default empty, so every profile costs
    the base rate; tuples keep the dataclass hashable.
    """

    prefill_s: float = 0.02
    decode_step_s: float = 0.002
    #: ``((profile, factor), ...)``, keyed by the replica's prefill profile.
    prefill_profile_factors: tuple[tuple[str, float], ...] = ()
    #: Same, keyed by its decode profile.
    decode_profile_factors: tuple[tuple[str, float], ...] = ()

    # Flat control-plane charges: class constants, not fields.
    FAILOVER_OVERHEAD_S = 0.05  # detect + re-dispatch cost
    DRAIN_MIGRATE_S = 0.02      # host-mediated KV transfer cost
    PLAN_SWITCH_S = 0.01        # decode-plan reshard (host-side)
    COLD_RESTART_S = 0.25       # process death: re-shard + re-init
    WARM_REJOIN_S = 0.05        # journal-guided rejoin (cache inval)

    def prefill(self, replica, computed_frac: float) -> float:
        """One request's prefill, of which ``computed_frac`` was computed."""
        factor = dict(self.prefill_profile_factors).get(
            replica.prefill_profile, 1.0)
        return self.prefill_s * factor * replica.scale * computed_frac

    def decode_step(self, replica) -> float:
        """One batched decode step; also what the hedge check expects."""
        factor = dict(self.decode_profile_factors).get(replica.profile, 1.0)
        return self.decode_step_s * factor * replica.scale

    def failover(self) -> float:
        return self.FAILOVER_OVERHEAD_S

    def drain(self) -> float:
        return self.DRAIN_MIGRATE_S

    def plan_switch(self) -> float:
        return self.PLAN_SWITCH_S

    def restart(self, mode: str) -> float:
        """A replica's downtime after a ``"cold"`` or ``"warm"`` restart."""
        return self.COLD_RESTART_S if mode == "cold" else self.WARM_REJOIN_S

    def handoff(self, n_bytes: int) -> float:
        """Moving ``n_bytes`` of KV cache across pools (A.1 link model)."""
        return handoff_transfer_s(n_bytes)


#: Slow replicas: the bench traces' bursts make a small fleet queue.
SLOW_COSTS = CostModel(prefill_s=0.05, decode_step_s=0.01)
