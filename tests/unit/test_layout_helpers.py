"""Tests for the layout building blocks (norm, rope, zip, local attn)."""

import numpy as np
import pytest

from repro.layouts import (
    local_attention,
    sharded_rmsnorm,
    sharded_rope,
    zip_shards,
)
from repro.mesh import ShardedTensor, VirtualMesh
from repro.model.functional import rmsnorm
from repro.model.rope import apply_rope, apply_rope_cached, rope_tables
from repro.sharding import parse

RNG = np.random.default_rng(4)


class TestShardedRmsnorm:
    @pytest.mark.parametrize("spec", ["BLE", "BLE_y", "BLE_xyz",
                                      "B_xLE_yz"])
    def test_matches_dense_for_any_sharding(self, spec):
        mesh = VirtualMesh((2, 2, 2))
        x = RNG.normal(size=(4, 2, 16))
        scale = RNG.normal(size=16) + 2.0
        xt = ShardedTensor.from_global(mesh, x, spec)
        e_axes = xt.spec.axes_for("E")
        st = ShardedTensor.from_global(
            mesh, scale, parse("E").with_dim_axes("E", e_axes))
        out = sharded_rmsnorm(xt, st)
        assert out.spec == xt.spec
        np.testing.assert_allclose(out.to_global(), rmsnorm(x, scale),
                                   rtol=1e-10)

    def test_rejects_partial_sum_input(self):
        mesh = VirtualMesh((1, 2, 1))
        spec = parse("BLE").with_partial_sum(("y",))
        shards = mesh.map_devices(lambda c: RNG.normal(size=(2, 2, 8)))
        t = ShardedTensor(mesh, spec, (2, 2, 8), shards)
        st = ShardedTensor.from_global(mesh, np.ones(8), "E")
        with pytest.raises(ValueError, match="partial-sum"):
            sharded_rmsnorm(t, st)

    def test_rejects_mismatched_scale_sharding(self):
        mesh = VirtualMesh((1, 2, 1))
        xt = ShardedTensor.from_global(mesh, RNG.normal(size=(2, 2, 8)),
                                       "BLE_y")
        st = ShardedTensor.from_global(mesh, np.ones(8), "E")
        with pytest.raises(ValueError, match="does not match"):
            sharded_rmsnorm(xt, st)


class TestShardedRope:
    def test_matches_dense(self):
        mesh = VirtualMesh((1, 2, 2))
        x = RNG.normal(size=(4, 3, 8, 4))
        xt = ShardedTensor.from_global(mesh, x, "BLH_yzD")
        positions = np.arange(3) + 5
        out = sharded_rope(xt, rope_tables(positions, 4, 10_000.0))
        np.testing.assert_array_equal(out.to_global(),
                                      apply_rope(x, positions, 10_000.0))

    @pytest.mark.parametrize("d", [4, 64])
    @pytest.mark.parametrize("backend", ["loop", "stacked"])
    def test_any_layout_rotates_to_the_whole_arrays_bits(self, backend, d):
        """The one kernel's bits must not depend on where the operand
        sits: per-device shards, row and head slices, projection columns
        and an ``out=`` write into a strided view all give the whole
        array's bits."""
        b, l, h = 4, 5, 8
        table = rope_tables(np.array([0, 1, 7, 300, 4095]), d)
        # Q as the model hands it out: columns of a wider fused
        # projection buffer (here Q|K|V with one K/V head each).
        fused = RNG.normal(size=(b, l, (h + 2) * d))
        columns = fused[..., :h * d].reshape(b, l, h, d)
        x = columns.copy()
        whole = apply_rope_cached(x, table)

        np.testing.assert_array_equal(apply_rope_cached(columns, table),
                                      whole)
        np.testing.assert_array_equal(apply_rope_cached(x[1:3], table),
                                      whole[1:3])
        np.testing.assert_array_equal(apply_rope_cached(x[:, :, 2:5], table),
                                      whole[:, :, 2:5])
        wide = np.zeros((b, l, h, 3 * d))
        strided = wide[..., d:2 * d]
        assert apply_rope_cached(x, table, out=strided) is strided
        np.testing.assert_array_equal(strided, whole)

        mesh = VirtualMesh((2, 2, 2), backend)
        xt = ShardedTensor.from_global(mesh, x, "B_xLH_yzD")
        out = sharded_rope(xt, table)
        np.testing.assert_array_equal(out.to_global(), whole)
        for c in mesh.devices():
            np.testing.assert_array_equal(
                out.shards[c], apply_rope_cached(xt.shards[c], table))

    def test_rejects_sharded_d(self):
        mesh = VirtualMesh((1, 2, 1))
        xt = ShardedTensor.from_global(mesh, RNG.normal(size=(2, 2, 2, 8)),
                                       "BLHD_y")
        with pytest.raises(ValueError, match="unsharded D"):
            sharded_rope(xt, rope_tables(np.arange(2), 8, 10_000.0))


class TestZipShards:
    def test_broadcast_combine(self):
        mesh = VirtualMesh((1, 2, 1))
        a = RNG.normal(size=(4, 8))
        b = RNG.normal(size=(4,))
        at = ShardedTensor.from_global(mesh, a, "BE_y")
        bt = ShardedTensor.from_global(mesh, b, "B")
        out = zip_shards(at.spec, at.global_shape,
                         lambda x, y: x * y[..., None], at, bt)
        np.testing.assert_allclose(out.to_global(), a * b[:, None])


class TestLocalAttention:
    def test_delegates_to_reference(self):
        from repro.model.reference import attention

        mesh = VirtualMesh((1, 2, 1))
        q = RNG.normal(size=(4, 1, 4, 8))
        k = RNG.normal(size=(4, 3, 1, 8))
        v = RNG.normal(size=(4, 3, 1, 8))
        qt = ShardedTensor.from_global(mesh, q, "BLH_yD")
        k_shards = mesh.map_devices(lambda c: k)
        v_shards = mesh.map_devices(lambda c: v)
        out = local_attention(mesh, qt.spec, q.shape, qt, k_shards,
                              v_shards)
        np.testing.assert_allclose(out.to_global(),
                                   attention(q, k, v, 2), rtol=1e-10)
