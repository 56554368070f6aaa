"""Symbolic communication model: the executor's collectives, in closed form.

``forward_comm_events`` produces, for one forward pass of the partitioned
model, the exact sequence of collectives that
:class:`repro.layouts.model.ShardedTransformer` would issue — same ops,
same axes, same per-chip payloads (in *elements*; multiply by a byte width
to get bytes).  A test runs a tiny model on the virtual mesh and asserts
the measured ``comm_log`` matches this generator event-for-event, so the
analytical estimator at PaLM-540B scale is summing the costs of a program
we have actually executed and verified at small scale.

Payload conventions follow Appendix A.1 / :mod:`repro.mesh.ops`:
all-gather = per-chip output, reduce-scatter = per-chip input, all-reduce =
2x per-chip buffer, all-to-all = per-chip buffer, split = free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.topology import Torus3D
from repro.layouts.model import _GEOMETRY, _WEIGHT_GATHERS
from repro.model.config import AttentionKind, FfnKind, ModelConfig
from repro.partitioning.plan import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from repro.sharding.spec import parse


@dataclass(frozen=True)
class AnalyticCollective:
    """One modeled collective: op, participating axes, per-chip payload."""

    op: str
    axes: tuple[str, ...]
    payload_elements: float
    kind: str = "act"  # "act" or "weight" — selects the byte width


def forward_comm_events(config: ModelConfig, plan: LayoutPlan,
                        torus: Torus3D, batch: int, l_new: int,
                        _part: str = "all") -> list[AnalyticCollective]:
    """All collectives of one forward pass over ``batch`` x ``l_new`` tokens.

    ``_part="layer"`` returns one transformer block's events; the default
    ``"all"`` returns the whole pass (n_layers blocks + the final norm and
    logits gather).
    """
    geo = _GEOMETRY[plan.ffn]
    g = torus.group_size
    e_axes = parse(geo["residual"]).axes_for("E")
    e_gather: tuple = geo["e_gather"]
    rs_axes: tuple = geo["rs_axes"]
    stored_h: tuple = plan.ffn.head_axes
    we_axes: tuple = ("x",) if geo["weight_e"] else ()
    f_rs = geo["f_rs"]

    b_sh = g(plan.ffn.batch_axes)
    hid_sh = g(stored_h)
    we_sh = g(we_axes)
    # E sharding of the activations after the block-entry all-gather: X for
    # WS_2D (E stays sharded over the weights' x axis), 1 for the
    # weight-gathered layouts (activations see the full E).
    post_e = g(e_axes) // g(e_gather)
    cfg = config
    E, F, H, K, D = (cfg.d_model, cfg.d_ff, cfg.n_heads, cfg.n_kv_heads,
                     cfg.d_head)
    kv_sharded = cfg.n_kv_heads > 1 and cfg.n_kv_heads % hid_sh == 0
    kv_sh = hid_sh if kv_sharded else 1
    wg = plan.ffn.is_weight_gathered
    batch_attn = plan.attention is AttentionLayoutKind.BATCH
    # The executor branches on spec partial sums: Q carries a partial sum
    # only when the weights' E axis is still sharded at einsum time, which
    # weight gathering removes.
    we_sharded = bool(we_axes) and not wg
    bl = batch * l_new / b_sh  # per-chip tokens

    events: list[AnalyticCollective] = []

    def add(op, axes, payload, kind="act"):
        events.append(AnalyticCollective(op, tuple(axes), float(payload),
                                         kind))

    # -- weight gathers (mirror of ShardedTransformer._gathered) -------------

    gathers = _WEIGHT_GATHERS.get(plan.ffn)

    def gathered(dims: list[tuple[str, tuple, int]], kind: str) -> None:
        """dims: ordered (name, current axes, size) triples of one weight."""
        if not wg:
            return
        shard = {name: list(axes) for name, axes, _ in dims}
        sizes = {name: size for name, _, size in dims}

        def payload():
            total = 1.0
            for name, _, _ in dims:
                total *= sizes[name] / g(tuple(shard[name]))
            return total

        for name, _, _ in dims:
            if name == "E":
                for axes in gathers["E"]:
                    for a in axes:
                        shard["E"].remove(a)
                    add("all_gather", axes, payload(), kind="weight")
            elif name in ("F", "H", "K") and kind == "EFH":
                for axes in gathers["FH"]:
                    if shard[name]:
                        for a in axes:
                            shard[name].remove(a)
                        add("all_gather", axes, payload(), kind="weight")

    w_specs = {
        "wq": ([("E", we_axes, E), ("H", stored_h, H), ("D", (), D)], "EFH"),
        "wk": ([("E", we_axes, E),
                ("K", stored_h if kv_sharded else (), K), ("D", (), D)],
               "EFH" if kv_sharded else "E"),
        "wo": ([("H", stored_h, H), ("D", (), D), ("E", we_axes, E)], "EFH"),
        "w_in": ([("E", we_axes, E), ("F", stored_h, F)], "EFH"),
        "w_out": ([("F", stored_h, F), ("E", we_axes, E)], "EFH"),
    }
    w_specs["wv"] = w_specs["wk"]
    w_specs["w_gate"] = w_specs["w_in"]

    # -- block pieces ------------------------------------------------------

    def norm_events():
        if e_axes:
            add("all_reduce", e_axes, 2 * bl)

    def gather_activations():
        if e_gather:
            add("all_gather", e_gather, bl * E / post_e)

    attn_in = ("wq", "wk", "wv")
    ffn_in = ("w_in", "w_gate") if cfg.ffn is FfnKind.SWIGLU else ("w_in",)

    def projection_events(names):
        # The block's input projections run as one contraction, so their
        # weights are gathered together, ahead of attention and the FFN.
        for w in names:
            gathered(*w_specs[w])

    def attn_events():
        q_local = bl * (H / hid_sh) * D
        kv_local = bl * (K / kv_sh) * D
        if batch_attn and not wg:
            if we_sharded:
                add("reduce_scatter", we_axes, q_local)
                add("reduce_scatter", we_axes, kv_local)
                add("reduce_scatter", we_axes, kv_local)
            if stored_h:
                add("all_to_all", stored_h, q_local / we_sh)
                if kv_sharded:
                    add("all_to_all", stored_h, kv_local / we_sh)
                    add("all_to_all", stored_h, kv_local / we_sh)
                else:
                    add("split", stored_h, 0)
                    add("split", stored_h, 0)
        elif we_sharded:
            add("all_reduce", we_axes, 2 * q_local)
            add("all_reduce", we_axes, 2 * kv_local)
            add("all_reduce", we_axes, 2 * kv_local)
        if batch_attn and not wg:
            if stored_h:
                add("all_to_all", stored_h, bl * H * D / (we_sh * hid_sh))
            if we_sharded:
                add("all_gather", we_axes, bl * H * D / hid_sh)
        gathered(*w_specs["wo"])

    def ffn_events():
        gathered(*w_specs["w_out"])
        hidden_local = bl * F / hid_sh
        if f_rs:
            for _ in ffn_in:
                add("reduce_scatter", f_rs, hidden_local)
        if f_rs:
            add("all_gather", f_rs, hidden_local)

    def finish_events():
        if rs_axes:
            add("reduce_scatter", rs_axes, bl * E / post_e)

    def one_layer():
        if cfg.parallel_block:
            norm_events()
            gather_activations()
            projection_events(attn_in + ffn_in)
            attn_events()
            ffn_events()
            finish_events()
        else:
            norm_events()
            gather_activations()
            projection_events(attn_in)
            attn_events()
            finish_events()
            norm_events()
            gather_activations()
            projection_events(ffn_in)
            ffn_events()
            finish_events()

    def final():
        # Final norm + logits gather.
        norm_events()
        if e_axes:
            add("all_gather", e_axes, bl * E)

    if _part == "layer":
        one_layer()
    else:
        for _ in range(cfg.n_layers):
            one_layer()
        final()
    return events


def comm_time(events: list[AnalyticCollective], torus: Torus3D,
              bandwidth: float, *, act_bytes: float = 2.0,
              weight_bytes: float = 2.0, exact: bool = True,
              alpha: float = 0.0) -> float:
    """Total seconds for a list of collectives at given byte widths.

    Uses the Appendix A.1 cost model with the paper's flat "network
    bandwidth" constant (Section 3.1); all-reduce payloads are already
    logged as 2x, so every op except all-to-all costs ``payload *
    (K-1)/K / bandwidth``.  ``alpha`` adds a per-hop latency term,
    ``alpha * (K - 1)`` per collective (2x for all-reduce) — zero by
    default, matching the paper's pure-bandwidth model.
    """
    from repro.collectives.cost import _factor

    total = 0.0
    for ev in events:
        group = torus.group_size(ev.axes)
        width = weight_bytes if ev.kind == "weight" else act_bytes
        seconds = ev.payload_elements * width / bandwidth
        if ev.op == "all_to_all":
            seconds /= 4.0
        elif ev.op == "split":
            seconds = 0.0
        total += seconds * _factor(group, exact)
        if ev.op != "split" and group > 1:
            hops = (group - 1) * (2 if ev.op == "all_reduce" else 1)
            total += alpha * hops
    return total


def comm_volume_bytes(events: list[AnalyticCollective], *,
                      act_bytes: float = 2.0,
                      weight_bytes: float = 2.0) -> float:
    """Total per-chip communication payload in bytes (Figure 3's y-axis)."""
    return sum(ev.payload_elements
               * (weight_bytes if ev.kind == "weight" else act_bytes)
               for ev in events)


def layer_comm_events(config: ModelConfig, plan: LayoutPlan, torus: Torus3D,
                      batch: int, l_new: int) -> list[AnalyticCollective]:
    """The collectives of one transformer block.

    The per-layer slice of :func:`forward_comm_events`, which the Appendix A
    per-layer volume formulas are checked against.
    """
    return forward_comm_events(config, plan, torus, batch, l_new,
                               _part="layer")

