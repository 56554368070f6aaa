"""Partitioned Transformer execution on the virtual mesh (Section 3).

``ShardedTransformer`` runs the same architecture as
:class:`~repro.model.reference.ReferenceTransformer`, but partitioned
according to a :class:`~repro.partitioning.plan.LayoutPlan`.  Supported
layouts and their data flow (Figures 2, 4, 5):

**1D weight-stationary** (``WS_1D``): residual ``BLE_xyz``; activations are
all-gathered over all chips at block entry, each chip multiplies its d_ff /
head shard, and the partial outputs are reduce-scattered back into E.

**2D weight-stationary** (``WS_2D``): weights ``E_x F_zy``; block entry
all-gathers E over (y, z) only; the first matmul's output is
reduce-scattered over x into the hidden dim, the activation function is
applied, the hidden is all-gathered over x, and the second matmul's output
is reduce-scattered over (y, z) back into E.

**Weight-gathered** (``WG_X``/``WG_XY``/``WG_XYZ``): weights are *stored*
exactly as in WS_2D (so prefill and decode share storage, Section 3.2.3)
but all-gathered over 1, 2, or 3 axes just before use; activations are
batch-sharded over the gathered axes, shrinking (or eliminating) activation
communication.

**Attention** (Section 3.3): ``HEAD`` shards the KV cache over heads
(replicating it for multiquery — the baseline of Figure 4b); ``BATCH``
reshards Q/K/V over batch with an all-to-all, dividing per-chip KV memory
by the chip count (Figure 4c).  Weight-gathered layouts attend locally on
their batch shard.

**Parallel block** (Section 3.4): with ``parallel_block=True`` the
attention and FFN branches share one activation all-gather and their
partial outputs are summed *before* the single reduce-scatter — the fusion
that halves per-layer communication versus the serial formulation.

Every layout is validated numerically against the reference model in
``tests/integration/test_layout_equivalence.py``.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.layouts.helpers import (
    local_attention,
    sharded_rmsnorm,
    sharded_rope,
    zip_shards,
)
from repro.layouts.kv_cache import ShardedKVCache, reshard_kv
from repro.mesh import (
    ShardedTensor,
    VirtualMesh,
    all_gather,
    all_reduce,
    all_to_all,
    reduce_scatter,
    sharded_einsum,
    split,
)
from repro.mesh.ops import concat_weights, fused_projection
from repro.model.config import AttentionKind, FfnKind
from repro.model.functional import swish
from repro.model.reference import LayerWeights, TransformerWeights
from repro.model.rope import rope_table
from repro.partitioning.plan import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from repro.sharding.spec import parse

# Per-layout sharding geometry.  F and H store their axes over
# ``FfnLayoutKind.head_axes``, y innermost (order ``(z, y)``), so that
# weight-gathered layouts can gather the y axis alone (gathers remove
# innermost axes; see repro.mesh.ops).
_GEOMETRY = {
    FfnLayoutKind.WS_1D: dict(
        residual="BLE_xyz", e_gather=("x", "y", "z"), rs_axes=("x", "y", "z"),
        e_axes="xyz", weight_e="", f_rs=None),
    FfnLayoutKind.WS_2D: dict(
        residual="BLE_xyz", e_gather=("y", "z"), rs_axes=("y", "z"),
        e_axes="xyz", weight_e="x", f_rs=("x",)),
    FfnLayoutKind.WG_X: dict(
        residual="B_xLE_yz", e_gather=("y", "z"), rs_axes=("y", "z"),
        e_axes="yz", weight_e="x", f_rs=None),
    FfnLayoutKind.WG_XY: dict(
        residual="B_xyLE_z", e_gather=("z",), rs_axes=("z",),
        e_axes="z", weight_e="x", f_rs=None),
    FfnLayoutKind.WG_XYZ: dict(
        residual="B_xyzLE", e_gather=(), rs_axes=(),
        e_axes="", weight_e="x", f_rs=None),
}

# Which (axes, dim) all-gathers convert stored weights into the layout's
# compute form (weight-gathered layouts only).
_WEIGHT_GATHERS = {
    FfnLayoutKind.WG_X: {"E": (("x",),), "FH": ()},
    FfnLayoutKind.WG_XY: {"E": (("x",),), "FH": (("y",),)},
    FfnLayoutKind.WG_XYZ: {"E": (("x",),), "FH": (("z", "y"),)},
}


#: Subscripts of each input projection: the normed activation times
#: the weight, contracting E.
_PROJECTIONS = {
    "wq": "ble,ehd->blhd",
    "wk": "ble,ekd->blkd",
    "wv": "ble,ekd->blkd",
    "w_in": "ble,ef->blf",
    "w_gate": "ble,ef->blf",
}


def _axes_suffix(axes: str) -> str:
    return f"_{axes}" if axes else ""


def _projection_groups(config) -> tuple[tuple[str, ...], ...]:
    """The input projections each block issues as one contraction.

    A parallel block (Section 3.4) feeds attention and the FFN from one
    normed activation, so Q, K, V and the FFN input(s) are one matmul;
    a serial block issues Q|K|V and then the FFN input(s).
    """
    attn = ("wq", "wk", "wv")
    ffn = ("w_in", "w_gate") if config.ffn is FfnKind.SWIGLU else ("w_in",)
    return (attn + ffn,) if config.parallel_block else (attn, ffn)


class ShardedTransformer:
    """The partitioned model.  API mirrors ``ReferenceTransformer``."""

    #: Optional :class:`repro.kvstore.arena.KVBufferArena`; when a
    #: replica installs one, ``new_cache`` leases pooled device buffers
    #: instead of allocating fresh ones (set post-construction so the
    #: layouts layer stays independent of ``repro.kvstore``).
    kv_arena = None

    def __init__(self, weights: TransformerWeights, mesh: VirtualMesh,
                 plan: LayoutPlan):
        self.weights = weights
        self.config = weights.config
        self.mesh = mesh
        geo = self._set_plan(plan)
        h = _axes_suffix("".join(self._stored_hidden))
        we = _axes_suffix(geo["weight_e"])
        kv = h if self._kv_sharded else ""
        self._specs = {
            "ln": f"E{_axes_suffix(geo['e_axes'])}",
            "w_in": f"E{we}F{h}",
            "w_gate": f"E{we}F{h}",
            "w_out": f"F{h}E{we}",
            "wq": f"E{we}H{h}D",
            "wk": f"E{we}K{kv}D",
            "wv": f"E{we}K{kv}D",
            "wo": f"H{h}DE{we}",
        }
        self._shard_all_weights()

    def _set_plan(self, plan: LayoutPlan) -> dict:
        """Validate ``plan`` for this model and mesh and adopt its geometry.

        Raises ``ValueError`` for a plan the executor cannot run: one
        :meth:`LayoutPlan.validate` rejects, or the grouped-query corner
        :meth:`LayoutPlan.shards_kv_heads` refuses.  Returns the layout's
        geometry entry.
        """
        topology = self.mesh.topology
        plan.validate(self.config, topology)
        self._kv_sharded = plan.shards_kv_heads(self.config, topology)
        self.plan = plan
        geo = _GEOMETRY[plan.ffn]
        self._residual_spec = parse(geo["residual"])
        self._e_gather: tuple[str, ...] = geo["e_gather"]
        self._rs_axes: tuple[str, ...] = geo["rs_axes"]
        self._stored_hidden = plan.ffn.head_axes
        self._local_hidden = plan.ffn.local_head_axes
        self._f_rs = geo["f_rs"]
        self._batch_axes = plan.ffn.batch_axes
        return geo

    # -- plan switching -------------------------------------------------------

    def with_plan(self, plan: LayoutPlan) -> "ShardedTransformer":
        """The same stored weights under a different plan.

        This is Section 3.2.3's key deployment property: the weight-
        gathered layouts store weights exactly as 2D weight-stationary
        does, "so that we can instantly switch between weight-gathered
        layout and weight-stationary layout" — prefill with one, decode
        with the other, no weight movement.  The big weight tensors are
        shared by reference; only the (E-sized) norm scales are resharded
        when the residual layout differs.

        Raises ``ValueError`` if the plans' weight storage is
        incompatible (e.g. WS-1D vs. the 2D family), or if the model
        cannot run ``plan`` at all (the constructor's checks).
        """
        other = ShardedTransformer.__new__(ShardedTransformer)
        other.weights = self.weights
        other.config = self.config
        other.mesh = self.mesh
        geo = other._set_plan(plan)
        if other._stored_hidden != self._stored_hidden or \
                geo["weight_e"] != _GEOMETRY[self.plan.ffn]["weight_e"]:
            raise ValueError(
                f"plans {self.plan.ffn.value} and {plan.ffn.value} do not "
                f"share weight storage; rebuild the model instead")
        other._specs = dict(self._specs)
        other._specs["ln"] = f"E{_axes_suffix(geo['e_axes'])}"

        def reshard_scale(t: ShardedTensor) -> ShardedTensor:
            if str(t.spec) == other._specs["ln"]:
                return t
            return ShardedTensor.from_global(
                self.mesh, t.to_global(), other._specs["ln"])

        other.embedding = self.embedding
        other._fused = self._fused
        other.final_ln = reshard_scale(self.final_ln)
        other.layers = []
        for layer in self.layers:
            copy = dict(layer)
            copy["ln"] = reshard_scale(layer["ln"])
            if "ln2" in copy:
                copy["ln2"] = reshard_scale(layer["ln2"])
            other.layers.append(copy)
        return other

    def reshard_cache(self, caches: "list[ShardedKVCache]",
                      target: "ShardedTransformer"
                      ) -> list[ShardedKVCache]:
        """Move KV caches into another plan's layout.

        This is the prefill-server -> decode-server cache transfer of
        Section 4.4 (host-mediated through :func:`reshard_kv`; its cost
        is one KV-cache-sized copy, paid once per request rather than
        per decode step).
        """
        out = []
        for cache in caches:
            new = ShardedKVCache(
                target.mesh, target.cache_spec(), cache.global_shape[0],
                cache.max_len, cache.global_shape[2],
                cache.global_shape[3], dtype=cache.dtype)
            reshard_kv(new, [cache])
            out.append(new)
        return out

    # -- weight placement ---------------------------------------------------

    def _shard(self, array: np.ndarray, spec: str) -> ShardedTensor:
        return ShardedTensor.from_global(self.mesh, array, spec)

    def _shard_all_weights(self) -> None:
        cfg, specs = self.config, self._specs
        self.embedding = self._shard(self.weights.embedding, "VE")
        self.final_ln = self._shard(self.weights.final_ln_scale, specs["ln"])
        self.layers: list[dict[str, ShardedTensor]] = []
        #: Per layer, per projection group, the weights concatenated on
        #: their flattened output dims (:func:`concat_weights`).
        self._fused: list[list[np.ndarray]] = []
        for layer in self.weights.layers:
            sharded = {
                "ln": self._shard(layer.ln_scale, specs["ln"]),
                "wq": self._shard(layer.wq, specs["wq"]),
                "wk": self._shard(layer.wk, specs["wk"]),
                "wv": self._shard(layer.wv, specs["wv"]),
                "wo": self._shard(layer.wo, specs["wo"]),
                "w_in": self._shard(layer.w_in, specs["w_in"]),
                "w_out": self._shard(layer.w_out, specs["w_out"]),
            }
            if cfg.ffn is FfnKind.SWIGLU:
                sharded["w_gate"] = self._shard(layer.w_gate,
                                                specs["w_gate"])
            if not cfg.parallel_block:
                sharded["ln2"] = self._shard(layer.ln2_scale, specs["ln"])
            # One copy of each group's weights: the concatenation the
            # fused projection reads, with the weights as views of it.
            fused = []
            for group in _projection_groups(cfg):
                cat, views = concat_weights([sharded[n] for n in group])
                sharded.update(zip(group, views))
                fused.append(cat)
            self.layers.append(sharded)
            self._fused.append(fused)

    def _gathered(self, w: ShardedTensor, kind: str) -> ShardedTensor:
        """All-gather a stored weight for weight-gathered layouts.

        ``kind`` is ``"E"``-only (K/V projections of a multiquery model
        have no head axis to gather) or ``"EFH"`` meaning gather both the
        E-side and the hidden-side axes.
        """
        if not self.plan.ffn.is_weight_gathered:
            return w
        gathers = _WEIGHT_GATHERS[self.plan.ffn]
        for dim in w.spec.dims:
            if dim == "E":
                for axes in gathers["E"]:
                    w = all_gather(w, axes, "E")
            elif dim in ("F", "H", "K") and kind == "EFH":
                for axes in gathers["FH"]:
                    if w.spec.axes_for(dim):
                        w = all_gather(w, axes, dim)
        return w

    # -- blocks ----------------------------------------------------------------

    def _gather_activations(self, y: ShardedTensor) -> ShardedTensor:
        if self._e_gather:
            return all_gather(y, self._e_gather, "E")
        return y

    def _finish(self, partial: ShardedTensor) -> ShardedTensor:
        """Reduce-scatter a block output back to the residual layout."""
        if self._rs_axes:
            return reduce_scatter(partial, self._rs_axes, "E")
        return partial

    def _project(self, y: ShardedTensor, i: int, group_idx: int
                 ) -> list[ShardedTensor]:
        """Layer ``i``'s projection group ``group_idx`` of ``y`` as one
        contraction (:func:`_projection_groups`), one tensor per weight.

        Weight-stationary layouts read the concatenation built once per
        deployment.  Weight-gathered layouts gather each weight just
        before use, as always, and concatenate the gathered shards.
        """
        layer = self.layers[i]
        group = _projection_groups(self.config)[group_idx]
        if self.plan.ffn.is_weight_gathered:
            kv_kind = "EFH" if self._kv_sharded else "E"
            weights = [self._gathered(layer[n], kv_kind if n in ("wk", "wv")
                                      else "EFH") for n in group]
            cat, _ = concat_weights(weights)
        else:
            weights = [layer[n] for n in group]
            cat = self._fused[i][group_idx]
        return fused_projection(
            y, [(_PROJECTIONS[n], w) for n, w in zip(group, weights)], cat)

    def _ffn_partial(self, ffn_in: list[ShardedTensor],
                     layer: dict[str, ShardedTensor]) -> ShardedTensor:
        """The FFN from its input projection (and the SwiGLU gate's) to
        its partial output."""
        h, *gates = ffn_in
        w_out = self._gathered(layer["w_out"], "EFH")
        if self._f_rs:
            h = reduce_scatter(h, self._f_rs, "F")
        h = zip_shards(h.spec, h.global_shape, swish, h)
        for gate in gates:
            if self._f_rs:
                gate = reduce_scatter(gate, self._f_rs, "F")
            h = zip_shards(h.spec, h.global_shape, np.multiply, h, gate)
        if self._f_rs:
            h = all_gather(h, self._f_rs, "F")
        return sharded_einsum("blf,fe->ble", h, w_out)

    def _attn_partial(self, q: ShardedTensor, k: ShardedTensor,
                      v: ShardedTensor, layer: dict[str, ShardedTensor],
                      cache: ShardedKVCache, rope: np.ndarray
                      ) -> ShardedTensor:
        """Attention from its Q/K/V projections to its partial output."""
        plan = self.plan
        # RoPE is linear, so it may be applied to partial sums.
        q = sharded_rope(q, rope)
        k = sharded_rope(k, rope)

        batch_attention = plan.attention is AttentionLayoutKind.BATCH
        weight_e_sharded = bool(q.spec.partial_sum)
        if batch_attention and not plan.ffn.is_weight_gathered:
            # Reshard Q over batch (all-to-all, Figure 5b); K/V are
            # replicated over the head axes, so their reshard is a free
            # split (Section 3.3).
            if weight_e_sharded:
                q = reduce_scatter(q, ("x",), "B")
                k = reduce_scatter(k, ("x",), "B")
                v = reduce_scatter(v, ("x",), "B")
            if self._stored_hidden:
                q = all_to_all(q, self._stored_hidden, "H", "B")
                if self._kv_sharded:
                    # Shared-but-sharded KV heads (GQA/MHA): reshard over
                    # batch with the same all-to-all as Q.
                    k = all_to_all(k, self._stored_hidden, "K", "B")
                    v = all_to_all(v, self._stored_hidden, "K", "B")
                else:
                    # Replicated KV (multiquery): a free split.
                    k = split(k, self._stored_hidden, "B")
                    v = split(v, self._stored_hidden, "B")
        elif weight_e_sharded:
            # Head-sharded path must materialize full Q/K/V rows.
            q = all_reduce(q, ("x",))
            k = all_reduce(k, ("x",))
            v = all_reduce(v, ("x",))

        cache.append(k, v)
        k_view, v_view = cache.views()
        out = local_attention(self.mesh, q.spec, q.global_shape, q,
                              k_view, v_view)

        if batch_attention and not plan.ffn.is_weight_gathered:
            if self._stored_hidden:
                out = all_to_all(out, self._stored_hidden, "B", "H")
            if weight_e_sharded:
                out = all_gather(out, ("x",), "B")
        return sharded_einsum("blhd,hde->ble", out,
                              self._gathered(layer["wo"], "EFH"))

    def _block(self, x: ShardedTensor, i: int, cache: ShardedKVCache,
               rope: np.ndarray) -> ShardedTensor:
        layer = self.layers[i]
        y = self._gather_activations(sharded_rmsnorm(x, layer["ln"]))
        if self.config.parallel_block:
            q, k, v, *ffn_in = self._project(y, i, 0)
            # Sum partials before the single reduce-scatter (Section 3.4).
            combined = (self._attn_partial(q, k, v, layer, cache, rope)
                        + self._ffn_partial(ffn_in, layer))
            return x + self._finish(combined)
        q, k, v = self._project(y, i, 0)
        x = x + self._finish(self._attn_partial(q, k, v, layer, cache,
                                                rope))
        y2 = self._gather_activations(sharded_rmsnorm(x, layer["ln2"]))
        return x + self._finish(self._ffn_partial(self._project(y2, i, 1),
                                                  layer))

    # -- caches ------------------------------------------------------------------

    def cache_spec(self) -> str:
        """The KV-cache sharding implied by the plan (Section 3.3)."""
        plan, cfg = self.plan, self.config
        hidden = "".join(self._local_hidden)
        if plan.ffn.is_weight_gathered:
            b = "".join(self._batch_axes)
            k = hidden if self._kv_sharded else ""
            return f"B{_axes_suffix(b)}MK{_axes_suffix(k)}D"
        if plan.attention is AttentionLayoutKind.BATCH:
            b_axes = ("x" + hidden) if self._specs["wq"].startswith("E_x") \
                else hidden
            return f"B_{b_axes}MKD"
        if self._kv_sharded:
            return f"BMK{_axes_suffix(hidden)}D"
        return "BMKD"  # replicated shared KV head(s) (Figure 4b)

    def new_cache(self, batch: int, max_len: int) -> list[ShardedKVCache]:
        cfg = self.config
        dtype = self.weights.embedding.dtype
        return [ShardedKVCache(self.mesh, self.cache_spec(), batch, max_len,
                               cfg.n_kv_heads, cfg.d_head, dtype=dtype,
                               arena=self.kv_arena)
                for _ in range(cfg.n_layers)]

    # -- public API -----------------------------------------------------------------

    def _tracer_phase(self, name: str):
        """Span-tracing context for a phase; no-op without a tracer."""
        tracer = getattr(self.mesh, "tracer", None)
        return tracer.phase(name) if tracer is not None else nullcontext()

    def forward(self, tokens: np.ndarray, caches: list[ShardedKVCache]
                ) -> np.ndarray:
        """Forward over ``tokens`` ``[B, L]``; returns global logits."""
        tracer = getattr(self.mesh, "tracer", None)
        recorder = getattr(self.mesh, "capture", None)
        seq_len, cfg = tokens.shape[1], self.config

        def tables(cache):
            # The chunk's rows [fill, fill + L) of the shared rotation
            # table (sized to the cache's capacity, so built once), read
            # by every layer's query and key rotations.
            fill = cache.length
            stop = fill + seq_len
            return rope_table(cfg.d_head, cfg.rope_theta,
                              max(stop, cache.max_len))[fill:stop]

        rope = tables(caches[0])
        # Embedding lookup is modeled host-side (a gather, not a matmul —
        # its cost is negligible next to the 2N matmul FLOPs, Section 2).
        emb = self.weights.embedding[tokens]
        if recorder is not None and recorder.recording:
            # Step-varying program entry points: the rotation rows (of
            # the cache fill) and the token embeddings are rederived from
            # the replay context.
            recorder.record(lambda ctx: tables(ctx.caches[0]),
                            (recorder.CTX,), rope, "rope_tables")
            recorder.record(
                lambda ctx, w=self.weights.embedding: w[ctx.tokens],
                (recorder.CTX,), emb, "embed")
        x = ShardedTensor.from_global(self.mesh, emb, self._residual_spec)
        for i, cache in enumerate(caches):
            if tracer is None:
                x = self._block(x, i, cache, rope)
            else:
                with tracer.layer(i):
                    x = self._block(x, i, cache, rope)
        x = sharded_rmsnorm(x, self.final_ln)
        e_axes = x.spec.axes_for("E")
        if e_axes:
            x = all_gather(x, e_axes, "E")
        logits = sharded_einsum("ble,ve->blv", x, self.embedding)
        return logits.to_global()

    def prefill(self, tokens: np.ndarray, max_len: int
                ) -> tuple[np.ndarray, list[ShardedKVCache]]:
        with self._tracer_phase("prefill"):
            caches = self.new_cache(tokens.shape[0], max_len)
            logits = self.forward(tokens, caches)
        return logits[:, -1], caches

    def decode_step(self, tokens: np.ndarray,
                    caches: list[ShardedKVCache]) -> np.ndarray:
        """One decode step: the forward chunk of one token per row."""
        with self._tracer_phase("decode"):
            return self.forward(tokens[:, None], caches)[:, -1]

    def generate(self, prompt: np.ndarray, n_steps: int,
                 sampler=None, rng: np.random.Generator | None = None
                 ) -> np.ndarray:
        from repro.model.sampling import greedy

        sampler = sampler or (lambda logits, rng: greedy(logits))
        rng = rng or np.random.default_rng(0)
        logits, caches = self.prefill(prompt, prompt.shape[1] + n_steps)
        tokens = [prompt]
        current = sampler(logits, rng)
        for _ in range(n_steps - 1):
            tokens.append(current[:, None])
            current = sampler(self.decode_step(current, caches), rng)
        tokens.append(current[:, None])
        return np.concatenate(tokens, axis=1)
