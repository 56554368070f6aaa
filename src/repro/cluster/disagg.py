"""Disaggregated prefill/decode pools: fleet topology and handoff pricing.

The paper's Section 3.2 Pareto analysis says prefill and decode want
*different* partitioning layouts — token-rich prefill the 2D
weight-stationary plan (Section 3.2.2), large-batch decode the
weight-gathered plan — and Section 4.4 already describes the
prefill-server -> decode-server cache transfer that makes running them
on separate machines possible.  DistServe and TPLA (see PAPERS.md) turn
that observation into a deployment choice: a **prefill pool** and a
**decode pool** of independently shaped, independently planned replicas
with an explicit KV-cache handoff between them.

This module holds that choice as pure data and functions; the serving
itself is the one :class:`~repro.cluster.control_plane.
ClusterControlPlane`, built with ``pools=`` (and optionally
``partitions=``).  Its pool map sends new groups to the prefill pool and
hands the finished KV caches to a decode replica in a transactional,
A.1-priced handoff; an empty map means colocated serving.  The one
:class:`~repro.cluster.autoscaler.Autoscaler` scales the pools
independently and, on a pooled plane, walks
:data:`~repro.cluster.autoscaler.DISAGG_BROWNOUT_LADDER`, whose
``collapse-pools`` rung merges the pools back into a colocated fleet
under pressure — and reverses cleanly.

* :class:`PoolSpec` — per-pool replica shapes plus the pool's
  partitioning profiles (:func:`default_pools`: 2D weight-stationary
  prefill, weight-gathered decode).
* :class:`PoolPartition` — scheduled heartbeat loss of a whole pool.
* :func:`handoff_transfer_s` — the Appendix A.1 price of one handoff.
* :class:`HandoffAborted` — the handoff's give-up fault.

Invariants, same as the rest of :mod:`repro.cluster`:

* **Virtual-clock purity** — the handoff charges simulated seconds from
  :func:`handoff_transfer_s`, never wall time.
* **Bit-identity** — greedy decode is plan-, mesh- and batch-
  composition-invariant, so disaggregated completions are bit-identical
  to a colocated fleet's (the disagg benchmark and chaos scenarios
  assert it).
* **Capture** — a handoff invalidates nothing: decode programs key on
  the *destination* replica's signature (each replica owns its
  :class:`~repro.mesh.capture.StepCompiler`), so the decode pool's
  warm programs keep replaying across handoffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.collectives.cost import all_gather_time
from repro.mesh.faults import MeshFault

Coord = tuple[int, int, int]

#: The prefill->decode link the KV caches cross, priced by the
#: Appendix A.1 beta model (one inter-replica hop): TPU v4 ICI
#: bandwidth and a per-hop launch latency.
LINK_BANDWIDTH = 270e9
LINK_ALPHA_S = 1e-6


class FleetConfigError(ValueError):
    """Invalid fleet topology: an empty pool, a missing or repeated
    pool, or restart specs for unknown replicas.  Raised at construction
    time — a misconfigured fleet never serves a request — mirroring
    :class:`~repro.mesh.faults.FaultPlan`'s eager validation.
    """


class HandoffAborted(MeshFault):
    """The KV handoff transaction gave up after its retry budget.

    Raised only once ``ClusterPolicy.handoff_retries`` seeded-backoff
    retries have all failed (a single transfer fault is retried, not
    aborted).  Caught by the control plane's standard failover handler
    — which re-prefills the group in the prefill pool, exactly like any
    other mid-group fault.
    """


@dataclass(frozen=True)
class PoolSpec:
    """One pool's replica shapes and partitioning profiles (pure data).

    ``name`` must be ``"prefill"`` or ``"decode"``.  The profiles name
    ends of the Section 3.2 frontier (``"balanced"`` /
    ``"weight-stationary"`` / ``"weight-gathered"``); each replica in
    the pool is steered to them at construction and re-steered at
    dispatch after any degraded replan.
    """

    name: str
    shapes: tuple[Coord, ...]
    prefill_profile: str = "balanced"
    decode_profile: str = "balanced"

    def __post_init__(self) -> None:
        if self.name not in ("prefill", "decode"):
            raise ValueError(f"pool name must be 'prefill' or 'decode', "
                             f"got {self.name!r}")
        if not self.shapes:
            raise FleetConfigError(f"pool {self.name!r} needs at least "
                                   f"one replica shape")
        for profile in (self.prefill_profile, self.decode_profile):
            if profile not in ("balanced", "weight-stationary",
                               "weight-gathered"):
                raise ValueError(f"unknown profile {profile!r}")


def default_pools(prefill_shapes: Sequence[Coord],
                  decode_shapes: Sequence[Coord]
                  ) -> tuple[PoolSpec, PoolSpec]:
    """The paper-faithful pool pair: 2D weight-stationary prefill
    replicas and weight-gathered decode replicas (Section 3.2)."""
    return (
        PoolSpec("prefill", tuple(prefill_shapes),
                 prefill_profile="weight-stationary"),
        PoolSpec("decode", tuple(decode_shapes),
                 decode_profile="weight-gathered"),
    )


@dataclass(frozen=True)
class PoolPartition:
    """Scheduled heartbeat loss of one whole pool (a chaos fault class).

    From ``at_s`` until ``until_s`` the control plane cannot reach any
    replica of ``pool``: the members are *quarantined* (no dispatch, no
    handoff target) and the transactional handoff keeps retrying into
    the partition with seeded backoff until it heals — or the retry
    budget aborts to re-prefill.  Recovery re-admits the survivors
    (:data:`~repro.events.POOL_REJOINED`).
    """

    pool: str
    at_s: float
    until_s: float

    def __post_init__(self) -> None:
        if self.pool not in ("prefill", "decode"):
            raise ValueError(f"pool must be 'prefill' or 'decode', "
                             f"got {self.pool!r}")
        if not 0.0 <= self.at_s < self.until_s:
            raise ValueError(
                f"partition window must satisfy 0 <= at_s < until_s, "
                f"got [{self.at_s}, {self.until_s})")


def handoff_transfer_s(n_bytes: int) -> float:
    """Virtual seconds to move ``n_bytes`` of KV cache across pools.

    One host-mediated hop of the Appendix A.1 link model:
    ``bytes / LINK_BANDWIDTH + LINK_ALPHA_S`` (``all_gather_time`` with
    group size 2 and ``exact=False`` reduces to exactly that).
    """
    return all_gather_time(float(n_bytes), 2, LINK_BANDWIDTH,
                           exact=False, alpha=LINK_ALPHA_S)
