"""Replanning onto a degraded mesh after a chip failure.

The paper's layout recipes (Sections 3.2-3.3) take the torus shape as a
given; this module makes device availability an explicit input, in the
spirit of partitioning work that plans around failed devices.  Given one
or more dead chips, we

1. compute the **largest healthy sub-slice** — the biggest axis-aligned
   sub-box of the torus containing no dead chip (TPU slices are
   re-provisioned as contiguous sub-slices, so arbitrary hole-punching is
   not available);
2. **re-run the layout selector** for the shrunken torus (the optimal
   layout genuinely changes with the chip count — e.g. 2D weight-
   stationary only beats 1D past ``sqrt(n) > F/E``, Section 3.2.2); and
3. **rebuild the sharded models** on the new mesh from the same host
   weights; live KV caches migrate through
   :meth:`~repro.layouts.model.ShardedTransformer.reshard_cache` — the
   same host-mediated transfer as the Section 4.4 prefill->decode
   hand-off.

Everything here is deterministic, so a replanned service produces
bit-identical tokens to a fault-free run (greedy decoding does not depend
on the mesh shape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.events import REPLANNED, EventLog
from repro.hardware.topology import Torus3D
from repro.mesh import VirtualMesh
from repro.model.config import ModelConfig
from repro.partitioning.ffn_costs import ffn_volume
from repro.partitioning.plan import AttentionLayoutKind, LayoutPlan
from repro.partitioning.selector import (
    Phase,
    SelectionContext,
    candidate_plans,
)

if TYPE_CHECKING:  # avoid a layouts <-> partitioning import cycle
    from repro.layouts.model import ShardedTransformer
    from repro.model.reference import TransformerWeights

Coord = tuple[int, int, int]


@dataclass(frozen=True)
class SubSlice:
    """An axis-aligned sub-box of a torus: ``origin`` + ``shape``."""

    origin: Coord
    shape: Coord

    @property
    def num_chips(self) -> int:
        x, y, z = self.shape
        return x * y * z

    def contains(self, chip: Coord) -> bool:
        return all(o <= c < o + s
                   for c, o, s in zip(chip, self.origin, self.shape))

    def to_local(self, chip: Coord) -> Coord:
        """Translate a full-mesh coordinate into sub-slice coordinates."""
        return tuple(c - o for c, o in zip(chip, self.origin))


def healthy_subslices(shape: Coord,
                      dead_chips: Iterable[Coord]) -> list[SubSlice]:
    """All maximal single-cut sub-slices avoiding the dead chips.

    For each dead chip and each axis, the slab strictly below and the slab
    strictly above the chip are candidates (recursively re-cut while any
    dead chip remains inside).  Returned sorted by chip count, largest
    first; degenerate (empty) slabs are dropped.
    """
    dead = [tuple(c) for c in dead_chips]
    for chip in dead:
        if not all(0 <= c < s for c, s in zip(chip, shape)):
            raise ValueError(f"dead chip {chip} outside mesh {shape}")

    def cut(box: SubSlice) -> list[SubSlice]:
        inside = [c for c in dead if box.contains(c)]
        if not inside:
            return [box]
        chip = inside[0]
        out: list[SubSlice] = []
        for axis in range(3):
            lo_size = chip[axis] - box.origin[axis]
            hi_size = box.origin[axis] + box.shape[axis] - chip[axis] - 1
            if lo_size > 0:
                origin = box.origin
                new_shape = tuple(lo_size if i == axis else s
                                  for i, s in enumerate(box.shape))
                out.extend(cut(SubSlice(origin, new_shape)))
            if hi_size > 0:
                origin = tuple(chip[axis] + 1 if i == axis else o
                               for i, o in enumerate(box.origin))
                new_shape = tuple(hi_size if i == axis else s
                                  for i, s in enumerate(box.shape))
                out.extend(cut(SubSlice(origin, new_shape)))
        return out

    boxes = cut(SubSlice((0, 0, 0), tuple(shape)))
    unique = sorted(set(boxes), key=lambda b: (-b.num_chips, b.origin))
    return unique


def largest_healthy_subslice(shape: Coord,
                             dead_chips: Iterable[Coord]) -> SubSlice:
    """The biggest healthy sub-slice (ties broken deterministically)."""
    boxes = healthy_subslices(shape, dead_chips)
    if not boxes:
        raise ValueError(
            f"no healthy sub-slice of mesh {shape} avoids {dead_chips}")
    return boxes[0]


# ---------------------------------------------------------------------------
# Plan re-selection for the shrunken torus
# ---------------------------------------------------------------------------

def plan_batch_group(plan: LayoutPlan, torus: Torus3D) -> int:
    """How many ways a plan shards the batch dim (divisibility bound)."""
    if plan.ffn.is_weight_gathered:
        return torus.group_size(plan.ffn.batch_axes)
    if plan.attention is AttentionLayoutKind.BATCH:
        # WS + batch-sharded attention reshards B over every mesh axis
        # (the x reduce-scatter plus the hidden-axes all-to-all).
        return torus.num_chips
    return 1


def _frontier_side(config: ModelConfig, torus: Torus3D, batch: int,
                   weight_gathered: bool) -> list[LayoutPlan]:
    """Every valid plan on one side of the Pareto frontier at ``batch``.

    Enumerates the full layout space directly (the selector's
    :func:`~repro.partitioning.selector.candidate_plans` only offers
    weight-gathered FFN layouts for prefill), keeping the plans that
    validate and whose batch sharding divides ``batch``.
    """
    from repro.hardware.topology import Mesh
    from repro.partitioning.plan import FfnLayoutKind

    mesh = Mesh(*torus.shape)
    plans = []
    for ffn in FfnLayoutKind:
        if ffn.is_weight_gathered != weight_gathered:
            continue
        for attn in AttentionLayoutKind:
            plan = LayoutPlan(ffn, attn)
            try:
                plan.validate(config, mesh)
                plan.shards_kv_heads(config, mesh)
            except ValueError:
                continue
            if batch % max(plan_batch_group(plan, torus), 1) == 0:
                plans.append(plan)
    return plans


def select_profile_plan(config: ModelConfig, torus: Torus3D, batch: int,
                        *, weight_gathered: bool) -> LayoutPlan:
    """The best valid *decode* plan on one side of the Pareto frontier.

    The Section 3.2 result is that weight-stationary layouts win the
    latency end and weight-gathered layouts the throughput end; the
    autoscaler switches a replica between the two as the load mix
    shifts.  Takes the cheapest plan on the requested side by FFN
    communication volume.
    """
    plans = _frontier_side(config, torus, batch, weight_gathered)
    if not plans:
        raise ValueError(
            f"no valid {'weight-gathered' if weight_gathered else 'weight-stationary'} "
            f"decode layout for {config.name} on torus {torus} at batch "
            f"{batch}")
    return min(plans, key=lambda p: (
        ffn_volume(p.ffn, torus, batch, config.d_model, config.d_ff),
        p.attention is not AttentionLayoutKind.BATCH))


def select_prefill_profile_plan(config: ModelConfig, torus: Torus3D,
                                tokens_per_seq: int, *,
                                weight_gathered: bool) -> LayoutPlan:
    """The best valid *prefill* plan on one side of the Pareto frontier.

    A pooled control plane's prefill pool (``ClusterControlPlane(
    pools=...)``, specs in :mod:`repro.cluster.disagg`) wants the
    paper's prefill-side frontier end: token-rich prefill favors the 2D
    weight-stationary FFN (Section 3.2.2, communication
    ``O(sqrt(n))`` per token) with head-sharded attention (prefill's KV
    writes stay head-sharded, Section 3.3).  Prefill runs one request at
    a time here, so only plans whose batch group divides 1 qualify —
    which is exactly the head-sharded weight-stationary family; asking
    for the weight-gathered side raises ``ValueError`` (those plans
    shard over batch and cannot host a single-sequence prefill).
    """
    from repro.partitioning.plan import FfnLayoutKind

    plans = _frontier_side(config, torus, 1, weight_gathered)
    if not plans:
        raise ValueError(
            f"no valid "
            f"{'weight-gathered' if weight_gathered else 'weight-stationary'} "
            f"prefill layout for {config.name} on torus {torus}")
    return min(plans, key=lambda p: (
        p.ffn is not FfnLayoutKind.WS_2D,
        ffn_volume(p.ffn, torus, tokens_per_seq, config.d_model,
                   config.d_ff)))


def select_degraded_plan(config: ModelConfig, torus: Torus3D, phase: Phase,
                         batch: int, tokens_per_seq: int) -> LayoutPlan:
    """Re-run the analytical selector for a (possibly shrunken) torus.

    Unlike :func:`~repro.partitioning.selector.select_plan` this always
    returns a plan that *validates* for the model on this torus, that the
    executor runs (:meth:`~repro.partitioning.plan.LayoutPlan.
    shards_kv_heads`), and whose batch sharding divides ``batch`` — on a
    degraded mesh, serving a suboptimal-but-valid layout beats crashing
    on the optimal one.
    """
    ctx = SelectionContext(config, torus, phase, batch, tokens_per_seq)
    plans, refused = [], ""
    for plan in candidate_plans(ctx):
        if batch % max(plan_batch_group(plan, torus), 1):
            continue
        try:
            plan.shards_kv_heads(config, torus)
        except ValueError as err:
            refused = refused or f": {err}"
            continue
        plans.append(plan)
    if not plans:
        raise ValueError(
            f"no valid {phase.value} layout for {config.name} on torus "
            f"{torus} at batch {batch}{refused}")
    return min(plans, key=lambda p: (
        ffn_volume(p.ffn, torus, ctx.tokens, config.d_model, config.d_ff),
        p.attention is not AttentionLayoutKind.BATCH))


# ---------------------------------------------------------------------------
# Deployment rebuild
# ---------------------------------------------------------------------------

@dataclass
class DegradedDeployment:
    """The serving stack rebuilt on the surviving sub-slice."""

    subslice: SubSlice
    mesh: VirtualMesh
    prefill_model: ShardedTransformer
    decode_model: ShardedTransformer


def build_deployment(weights: TransformerWeights, mesh: VirtualMesh, *,
                     decode_batch: int, prompt_len: int
                     ) -> tuple[ShardedTransformer, ShardedTransformer]:
    """Select both phase plans for ``mesh`` and build ``(prefill, decode)``.

    The Section 4.4 deployment: a batch-1 prefill plan for
    ``prompt_len``-token prompts and a ``decode_batch`` decode plan, each
    re-selected for this (possibly shrunken) torus.  The two models share
    weight storage via :meth:`ShardedTransformer.with_plan` whenever their
    storage layouts match.  Raises ``ValueError`` (or ``ShardingError``)
    when no valid layout fits the mesh.
    """
    from repro.layouts.model import ShardedTransformer

    config = weights.config
    torus = Torus3D(*mesh.shape)
    decode_plan = select_degraded_plan(config, torus, Phase.DECODE,
                                       batch=decode_batch, tokens_per_seq=1)
    prefill_plan = select_degraded_plan(config, torus, Phase.PREFILL,
                                        batch=1, tokens_per_seq=prompt_len)
    decode_model = ShardedTransformer(weights, mesh, decode_plan)
    try:
        prefill_model = decode_model.with_plan(prefill_plan)
    except ValueError:
        prefill_model = ShardedTransformer(weights, mesh, prefill_plan)
    return prefill_model, decode_model


def replan_after_failure(weights: TransformerWeights, mesh: VirtualMesh,
                         dead_chips: Iterable[Coord], *,
                         decode_batch: int, prompt_len: int = 64,
                         backend: str | None = None,
                         event_log: EventLog | None = None
                         ) -> DegradedDeployment:
    """Rebuild prefill + decode models on the largest healthy sub-slice.

    Tries the healthy sub-slices largest-first; a sub-slice is skipped if
    no valid layout exists for it (e.g. the model's head count does not
    divide the shrunken head group).  Weight resharding is a host-side
    re-scatter of the same ``TransformerWeights`` through
    :func:`build_deployment`, exactly as in the healthy deployment.
    """
    dead = sorted(set(tuple(c) for c in dead_chips))
    if not dead:
        raise ValueError("replan_after_failure needs at least one dead chip")
    backend = backend or mesh.backend
    last_error: Exception | None = None
    for subslice in healthy_subslices(mesh.shape, dead):
        try:
            new_mesh = VirtualMesh(subslice.shape, backend=backend)
            prefill_model, decode_model = build_deployment(
                weights, new_mesh, decode_batch=decode_batch,
                prompt_len=prompt_len)
        except ValueError as exc:  # includes ShardingError — try next slab
            last_error = exc
            continue
        if event_log is not None:
            event_log.record(
                REPLANNED, dead_chips=dead, old_shape=mesh.shape,
                new_shape=subslice.shape, origin=subslice.origin,
                prefill_plan=prefill_model.plan.describe(),
                decode_plan=decode_model.plan.describe())
        return DegradedDeployment(subslice, new_mesh, prefill_model,
                                  decode_model)
    raise ValueError(
        f"no healthy sub-slice of {mesh.shape} supports "
        f"{weights.config.name} (dead: {dead})") from last_error
