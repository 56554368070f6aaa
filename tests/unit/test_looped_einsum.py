"""Tests for Looped CollectiveEinsum (Section 3.5).

The fused forms must equal the unfused (collective, then einsum)
compositions exactly, take K-1 ring steps, and move the same per-chip
traffic the Appendix A.1 model assumes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mesh import (
    ShardedTensor,
    VirtualMesh,
    all_gather,
    reduce_scatter,
    sharded_einsum,
)
from repro.mesh.looped import all_gather_einsum, einsum_reduce_scatter
from repro.sharding import ShardingError

RNG = np.random.default_rng(3)


def megatron_inputs(mesh, b=4, l=2, e=16, f=24):
    """x: BLE sharded over (y); w_in: EF — the WS block's first matmul."""
    x = RNG.normal(size=(b, l, e))
    w = RNG.normal(size=(e, f))
    xt = ShardedTensor.from_global(mesh, x, "BLE_y")
    wt = ShardedTensor.from_global(mesh, w, "EF")
    return x, w, xt, wt


class TestAllGatherEinsum:
    @pytest.mark.parametrize("shape", [(1, 4, 1), (1, 2, 1), (2, 4, 2)])
    def test_matches_unfused(self, shape):
        mesh = VirtualMesh(shape)
        _, _, xt, wt = megatron_inputs(mesh)
        fused, _ = all_gather_einsum("ble,ef->blf", xt, wt, "y")
        unfused = sharded_einsum("ble,ef->blf",
                                 all_gather(xt, ("y",), "E"), wt)
        assert fused.spec == unfused.spec
        for coord in mesh.devices():
            # Per-rank accumulation order differs, so compare with a
            # float tolerance rather than bit equality.
            np.testing.assert_allclose(fused.shards[coord],
                                       unfused.shards[coord], rtol=1e-10)

    def test_matches_dense_math(self):
        mesh = VirtualMesh((1, 4, 1))
        x, w, xt, wt = megatron_inputs(mesh)
        fused, _ = all_gather_einsum("ble,ef->blf", xt, wt, "y")
        # Ring ranks accumulate chunks in different orders, so replicas
        # differ by float rounding (as on real hardware); skip the exact
        # replica check and compare values instead.
        np.testing.assert_allclose(
            fused.to_global(check_replication=False),
            np.einsum("ble,ef->blf", x, w), rtol=1e-10)

    def test_sharded_weight_output_dim(self):
        """Weights may stay sharded on their output dims (WS-2D style)."""
        mesh = VirtualMesh((1, 4, 2))
        x = RNG.normal(size=(4, 2, 16))
        w = RNG.normal(size=(16, 32))
        xt = ShardedTensor.from_global(mesh, x, "BLE_y")
        wt = ShardedTensor.from_global(mesh, w, "EF_z")
        fused, _ = all_gather_einsum("ble,ef->blf", xt, wt, "y")
        assert fused.spec.axes_for("F") == ("z",)
        np.testing.assert_allclose(
            fused.to_global(check_replication=False),
            np.einsum("ble,ef->blf", x, w))

    def test_multi_axis_sharded_contraction(self):
        """E sharded over (z, y): the loop gathers y, z stays sharded...
        which is illegal for the fused form — the weight would need its E
        sharded over z too.  Assert the clean error."""
        mesh = VirtualMesh((1, 2, 2))
        x = RNG.normal(size=(2, 2, 16))
        xt = ShardedTensor.from_global(mesh, x, "BLE_zy")
        wt = ShardedTensor.from_global(mesh, RNG.normal(size=(16, 8)),
                                       "EF")
        with pytest.raises(ShardingError):
            all_gather_einsum("ble,ef->blf", xt, wt, "z")

    def test_step_count_and_traffic(self):
        mesh = VirtualMesh((1, 4, 1))
        _, _, xt, wt = megatron_inputs(mesh)
        _, stats = all_gather_einsum("ble,ef->blf", xt, wt, "y")
        assert stats.steps == 3
        assert stats.bytes_sent_per_chip == 3 * xt.per_chip_bytes

    def test_requires_innermost_axis(self):
        mesh = VirtualMesh((2, 2, 1))
        x = RNG.normal(size=(2, 2, 16))
        xt = ShardedTensor.from_global(mesh, x, "BLE_xy")
        wt = ShardedTensor.from_global(mesh, RNG.normal(size=(16, 8)),
                                       "EF")
        with pytest.raises(ShardingError, match="innermost"):
            all_gather_einsum("ble,ef->blf", xt, wt, "x")

    def test_requires_single_contraction(self):
        mesh = VirtualMesh((1, 2, 1))
        xt = ShardedTensor.from_global(mesh, RNG.normal(size=(2, 4)),
                                       "BE_y")
        wt = ShardedTensor.from_global(mesh, RNG.normal(size=(2, 4)),
                                       "BE")
        with pytest.raises(ShardingError, match="exactly one"):
            all_gather_einsum("be,be->", xt, wt, "y")


class TestEinsumReduceScatter:
    def setup_tensors(self, mesh, scatter_from_weight=True):
        # Second WS matmul: h(BLF) x w_out(FE) -> BLE with F contracted.
        b, l, f, e = 4, 2, 16, 24
        h = RNG.normal(size=(b, l, f))
        w = RNG.normal(size=(f, e))
        ht = ShardedTensor.from_global(mesh, h, "BLF_y")
        wt = ShardedTensor.from_global(mesh, w, "F_yE")
        return h, w, ht, wt

    @pytest.mark.parametrize("shape", [(1, 4, 1), (1, 2, 1), (2, 4, 1)])
    def test_matches_unfused(self, shape):
        mesh = VirtualMesh(shape)
        _, _, ht, wt = self.setup_tensors(mesh)
        fused, _ = einsum_reduce_scatter("blf,fe->ble", ht, wt, "y", "E")
        unfused = reduce_scatter(sharded_einsum("blf,fe->ble", ht, wt),
                                 ("y",), "E")
        assert fused.spec == unfused.spec
        for coord in mesh.devices():
            np.testing.assert_allclose(fused.shards[coord],
                                       unfused.shards[coord], rtol=1e-10)

    def test_matches_dense_math(self):
        mesh = VirtualMesh((1, 4, 1))
        h, w, ht, wt = self.setup_tensors(mesh)
        fused, _ = einsum_reduce_scatter("blf,fe->ble", ht, wt, "y", "E")
        np.testing.assert_allclose(fused.to_global(),
                                   np.einsum("blf,fe->ble", h, w),
                                   rtol=1e-10)

    def test_scatter_into_lhs_dim(self):
        """Scattering into a dim owned by the activations (e.g. batch)."""
        mesh = VirtualMesh((1, 4, 1))
        h = RNG.normal(size=(8, 2, 16))
        w = RNG.normal(size=(16, 8))
        ht = ShardedTensor.from_global(mesh, h, "BLF_y")
        wt = ShardedTensor.from_global(mesh, w, "F_yE")
        fused, _ = einsum_reduce_scatter("blf,fe->ble", ht, wt, "y", "B")
        unfused = reduce_scatter(sharded_einsum("blf,fe->ble", ht, wt),
                                 ("y",), "B")
        assert fused.spec == unfused.spec
        np.testing.assert_allclose(fused.to_global(),
                                   unfused.to_global(), rtol=1e-10)

    def test_step_count_and_traffic(self):
        mesh = VirtualMesh((1, 4, 1))
        _, _, ht, wt = self.setup_tensors(mesh)
        fused, stats = einsum_reduce_scatter("blf,fe->ble", ht, wt, "y",
                                             "E")
        assert stats.steps == 3
        # Each step moves one output chunk = the final shard size.
        assert stats.bytes_sent_per_chip == 3 * fused.per_chip_bytes

    def test_validation(self):
        mesh = VirtualMesh((1, 4, 1))
        _, _, ht, wt = self.setup_tensors(mesh)
        with pytest.raises(ShardingError, match="not an output dim"):
            einsum_reduce_scatter("blf,fe->ble", ht, wt, "y", "F")
        unsharded = ShardedTensor.from_global(
            mesh, RNG.normal(size=(4, 2, 16)), "BLF")
        with pytest.raises(ShardingError, match="sharded over"):
            einsum_reduce_scatter("blf,fe->ble", unsharded, wt, "y", "E")


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 4, 8]))
@example(67641, 8)  # a cancelling element: relative error 1.25e-9
def test_property_fused_pipeline_matches_dense(seed, k):
    """AG-einsum -> nonlinearity -> einsum-RS == the dense computation
    (the full fused Megatron block dataflow).

    The looped pipeline sums each contraction in a different order than
    the dense einsum, so it is held to the forward-error bound of a
    reordered length-``f`` sum, elementwise:
    ``|out - dense| <= c * f * eps * (|tanh(x W_in)| @ |W_out|)``.  A
    relative tolerance is the wrong check: it fails wherever the dense
    element cancels to near zero (the pinned example sits at 1.16
    eps-units of that scale, but 1.25e-9 relative).
    """
    mesh = VirtualMesh((1, k, 1))
    rng = np.random.default_rng(seed)
    b, l, e, f = 2, 2, 8 * k, 8 * k
    x = rng.normal(size=(b, l, e))
    w_in = rng.normal(size=(e, f))
    w_out = rng.normal(size=(f, e))

    xt = ShardedTensor.from_global(mesh, x, "BLE_y")
    w_in_t = ShardedTensor.from_global(mesh, w_in, "EF_y")
    w_out_t = ShardedTensor.from_global(mesh, w_out, "F_yE")

    hidden, _ = all_gather_einsum("ble,ef->blf", xt, w_in_t, "y")
    hidden = hidden.map_shards(np.tanh)
    out, _ = einsum_reduce_scatter("blf,fe->ble", hidden, w_out_t, "y",
                                   "E")
    hidden_dense = np.tanh(np.einsum("ble,ef->blf", x, w_in))
    dense = hidden_dense @ w_out
    eps = np.finfo(np.float64).eps
    bound = 2 * f * eps * (np.abs(hidden_dense) @ np.abs(w_out))
    assert np.all(np.abs(out.to_global() - dense) <= bound)
