"""Layout plans: which partitioning strategy runs each phase.

The paper's strategies (Section 3):

Feedforward / fused projections:

* ``WS_1D`` — 1D weight-stationary (Megatron-style): weights sharded over
  d_ff on all chips; activations all-gathered/reduce-scattered in full.
* ``WS_2D`` — 2D weight-stationary: weights sharded ``E_x F_yz``;
  activation communication scales as 1/sqrt(n_chips).
* ``WG_X`` / ``WG_XY`` / ``WG_XYZ`` — weight-gathered: weights stored as
  in WS_2D but all-gathered over 1, 2, or all 3 torus axes before use;
  activations are batch-sharded over the gathered axes.

Attention:

* ``HEAD`` — shard the KV cache and attention over heads (classic).
* ``BATCH`` — shard over batch (the optimized multiquery layout of
  Section 3.3, reducing per-chip KV-cache memory by n_chips at the price
  of an all-to-all on the small Q/K/V tensors).

A :class:`LayoutPlan` pairs one of each and is consumed by *both* the
numerical executor (:mod:`repro.layouts`) and the analytical cost model
(:mod:`repro.perf`), so what we measure is what we model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.hardware.topology import Mesh
from repro.model.config import AttentionKind, ModelConfig


class FfnLayoutKind(str, Enum):
    WS_1D = "ws-1d"
    WS_2D = "ws-2d"
    WG_X = "wg-x"
    WG_XY = "wg-xy"
    WG_XYZ = "wg-xyz"

    @property
    def is_weight_gathered(self) -> bool:
        return self in (FfnLayoutKind.WG_X, FfnLayoutKind.WG_XY,
                        FfnLayoutKind.WG_XYZ)

    @property
    def gather_axes(self) -> tuple[str, ...]:
        """Axes the weights are all-gathered over (empty for WS layouts)."""
        return {
            FfnLayoutKind.WS_1D: (),
            FfnLayoutKind.WS_2D: (),
            FfnLayoutKind.WG_X: ("x",),
            FfnLayoutKind.WG_XY: ("x", "y"),
            FfnLayoutKind.WG_XYZ: ("x", "y", "z"),
        }[self]

    @property
    def batch_axes(self) -> tuple[str, ...]:
        """Axes the activations' batch dim is sharded over."""
        return self.gather_axes

    @property
    def head_axes(self) -> tuple[str, ...]:
        """Axes the stored weights shard heads and d_ff over.

        The weight-gathered layouts store weights exactly as WS_2D does
        (Section 3.2.3).  y is innermost (order ``(z, y)``) so that a
        weight-gathered layout can gather the y axis alone.
        """
        if self is FfnLayoutKind.WS_1D:
            return ("x", "y", "z")
        return ("z", "y")

    @property
    def local_head_axes(self) -> tuple[str, ...]:
        """Axes heads and d_ff stay sharded over after the gathers."""
        return tuple(a for a in self.head_axes if a not in self.gather_axes)


class AttentionLayoutKind(str, Enum):
    HEAD = "head"
    BATCH = "batch"


@dataclass(frozen=True)
class LayoutPlan:
    """One phase's partitioning choice."""

    ffn: FfnLayoutKind
    attention: AttentionLayoutKind

    def validate(self, config: ModelConfig, mesh: Mesh) -> None:
        """Check the plan is expressible for this model on this mesh.

        Raises ``ValueError`` with an explanation otherwise.  Mirrors the
        constraints the paper states: batch-sharded attention is the
        *multiquery* optimization (Section 3.3); weight-gathered layouts
        shard batch over the gathered axes, so they attend locally over
        batch and ignore the attention kind.
        """
        if (self.attention is AttentionLayoutKind.BATCH
                and config.n_kv_heads == config.n_heads
                and not self.ffn.is_weight_gathered):
            # Weight-gathered layouts attend locally on their batch shard
            # regardless of the attention kind, so BATCH is fine there.
            # Models with *shared* KV heads (multiquery or grouped-query)
            # are the ones the optimization serves (Section 3.3).
            raise ValueError(
                "batch-sharded attention is defined for models with "
                "shared KV heads (Section 3.3); use HEAD for multihead "
                "attention")
        if self.ffn.is_weight_gathered:
            batch_parts = mesh.group_size(self.ffn.batch_axes)
            if batch_parts < 1:
                raise ValueError("degenerate mesh")
        else:
            parts = mesh.group_size(self.ffn.head_axes)
            if config.n_heads % parts:
                raise ValueError(
                    f"{config.n_heads} heads not divisible by {parts} "
                    f"partitions for {self.ffn.value}; pad the head count "
                    f"(Section 4 pads PaLM 48 -> 64 heads)")

    def shards_kv_heads(self, config: ModelConfig, mesh: Mesh) -> bool:
        """Whether the executor shards the KV heads over the head group.

        KV heads shard when they divide the group (multihead always;
        grouped-query when wide enough); a single shared head
        (multiquery) is replicated (Figure 4b).  Replicated shared-KV
        attention is only well defined when every chip holds either all
        query heads (batch-sharded weight-stationary attention, WG-XYZ)
        or a single shared head, so the grouped-query corner with query
        heads sharded raises ``ValueError``: local grouped attention
        would mis-align the head mapping.
        """
        kv_heads = config.n_kv_heads
        group = mesh.group_size(self.ffn.head_axes)
        sharded = kv_heads > 1 and kv_heads % group == 0
        local_heads_sharded = (
            mesh.group_size(self.ffn.local_head_axes) > 1
            and (self.ffn.is_weight_gathered
                 or self.attention is AttentionLayoutKind.HEAD))
        if kv_heads > 1 and not sharded and local_heads_sharded:
            raise ValueError(
                f"{kv_heads} KV heads cannot shard over the {group}-chip "
                f"head group of {self.describe()}; use batch-sharded "
                f"attention, fewer head-sharding chips, or pad kv_heads")
        return sharded

    def describe(self) -> str:
        return f"ffn={self.ffn.value}, attention={self.attention.value}"

