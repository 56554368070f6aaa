"""The virtual-clock cost model fault-tolerant serving runs on.

Fault-tolerant serving is the cluster control plane
(:class:`~repro.cluster.control_plane.ClusterControlPlane`); a
one-replica plane is the single-mesh server.  It detects typed
:class:`~repro.mesh.faults.MeshFault` errors, replans a replica onto
its largest healthy sub-slice after a chip death, retries a faulted
group by re-prefilling from the prompts (greedy decoding makes the
retry invisible in the tokens) and hedges stragglers.  Its time is
*simulated*: a :class:`CostModel` charges per model invocation, scaled
by ``full_chips / current_chips`` once degraded, plus any straggler
delay accumulated by the fault state.  This keeps deadlines, failover
and hedging deterministic and testable without timers.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    #: ``((profile, factor), ...)`` multipliers for prefill invocations,
    #: keyed by the replica's *prefill* profile (see
    #: :meth:`repro.cluster.replica.Replica.switch_prefill_profile`).
    prefill_profile_factors: tuple[tuple[str, float], ...] = ()
    #: Same, for decode steps, keyed by the decode profile.
    decode_profile_factors: tuple[tuple[str, float], ...] = ()

    def prefill_cost_s(self, profile: str) -> float:
        """Per-request prefill charge under the given prefill profile."""
        return self.prefill_s * dict(self.prefill_profile_factors).get(
            profile, 1.0)

    def decode_cost_s(self, profile: str) -> float:
        """Per-step decode charge under the given decode profile."""
        return self.decode_step_s * dict(self.decode_profile_factors).get(
            profile, 1.0)
