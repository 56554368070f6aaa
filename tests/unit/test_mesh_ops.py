"""Tests for the virtual mesh, sharded tensors, and functional collectives.

The central invariant: every collective preserves the *global* value of a
tensor while changing its layout, and ``to_global`` verifies replica
consistency.  These tests are what lets the layout implementations in
``repro.layouts`` claim numerical equivalence with an unsharded program.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import (
    ShardedTensor,
    VirtualMesh,
    all_gather,
    all_reduce,
    all_to_all,
    enable_comm_log,
    reduce_scatter,
    sharded_einsum,
    split,
)
from repro.sharding import ShardingError, parse
from tests.unit.grid import every_device, widened

RNG = np.random.default_rng(0)


def mesh222():
    return VirtualMesh((2, 2, 2))


def mesh142():
    return VirtualMesh((1, 4, 2))


class TestShardedTensor:
    def test_from_to_global_roundtrip(self):
        mesh = mesh222()
        x = RNG.normal(size=(4, 6, 8))
        for spec in ["BLE", "BLE_xyz", "B_xLE_yz", "BLE_z", "B_zLE_xy"]:
            t = ShardedTensor.from_global(mesh, x, spec)
            np.testing.assert_array_equal(t.to_global(), x)

    def test_local_shapes(self):
        mesh = mesh142()
        x = RNG.normal(size=(8, 2, 16))
        t = ShardedTensor.from_global(mesh, x, "B_yLE_z")
        assert t.local_shape == (2, 2, 8)
        assert t.shards[0, 0, 0].shape == (2, 2, 8)

    def test_shard_contents_match_slices(self):
        mesh = mesh222()
        x = np.arange(8.0).reshape(8, 1)
        t = ShardedTensor.from_global(mesh, x, "B_xyzL")
        # Device (i,j,k) holds row-major shard i*4 + j*2 + k.
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    rank = i * 4 + j * 2 + k
                    np.testing.assert_array_equal(
                        t.shards[i, j, k], x[rank:rank + 1])

    def test_replication_inconsistency_detected(self):
        mesh = mesh222()
        x = RNG.normal(size=(4, 4))
        t = widened(ShardedTensor.from_global(mesh, x, "BE_x"))
        t.shards[0, 1, 0] = t.shards[0, 1, 0] + 1.0  # corrupt one replica
        with pytest.raises(ShardingError, match="replicas disagree"):
            t.to_global()

    def test_partial_sum_to_global_sums(self):
        mesh = mesh222()
        x = RNG.normal(size=(4, 4))
        # Build a partial-sum tensor by hand: each x-slice holds half.
        spec = parse("BE (partialsum-x)")
        shards = mesh.map_devices(lambda c: x / 2.0)
        t = ShardedTensor(mesh, spec, x.shape, shards)
        np.testing.assert_allclose(t.to_global(), x)

    def test_from_global_rejects_partial_sum_spec(self):
        with pytest.raises(ShardingError, match="partial-sum"):
            ShardedTensor.from_global(mesh222(), np.ones((2, 2)),
                                      "BE (partialsum-x)")

    def test_add_requires_matching_spec(self):
        mesh = mesh222()
        x = RNG.normal(size=(4, 4))
        a = ShardedTensor.from_global(mesh, x, "BE_x")
        b = ShardedTensor.from_global(mesh, x, "BE_y")
        with pytest.raises(ShardingError, match="cannot add"):
            _ = a + b
        c = ShardedTensor.from_global(mesh, x, "BE_x")
        np.testing.assert_allclose((a + c).to_global(), 2 * x)

    def test_wrong_shard_shape_rejected(self):
        mesh = mesh222()
        shards = mesh.map_devices(lambda c: np.ones((3, 3)))
        with pytest.raises(ShardingError, match="shape"):
            ShardedTensor(mesh, parse("BE_x"), (4, 4), shards)


class TestAllGather:
    def test_single_axis(self):
        mesh = mesh222()
        x = RNG.normal(size=(4, 8))
        t = ShardedTensor.from_global(mesh, x, "BE_xyz")
        g = all_gather(t, ("z",), "E")
        assert str(g.spec) == "BE_xy"
        np.testing.assert_array_equal(g.to_global(), x)

    def test_multi_axis_full_gather(self):
        mesh = mesh142()
        x = RNG.normal(size=(4, 8))
        t = ShardedTensor.from_global(mesh, x, "BE_yz")
        g = all_gather(t, ("y", "z"), "E")
        assert str(g.spec) == "BE"
        np.testing.assert_array_equal(g.to_global(), x)
        # Every device now holds the full tensor.
        for coord in mesh.devices():
            np.testing.assert_array_equal(every_device(g)[coord], x)

    def test_requires_suffix(self):
        mesh = mesh222()
        t = ShardedTensor.from_global(mesh, RNG.normal(size=(4, 8)), "BE_xy")
        with pytest.raises(ShardingError, match="suffix"):
            all_gather(t, ("x",), "E")

    def test_comm_log_payload(self):
        mesh = mesh222()
        log = enable_comm_log(mesh)
        x = RNG.normal(size=(4, 8))
        t = ShardedTensor.from_global(mesh, x, "BE_xyz")
        out = all_gather(t, ("y", "z"), "E")
        assert log[-1].op == "all_gather"
        assert log[-1].group_size == 4
        # Payload is the per-chip *output* size.
        assert log[-1].payload_bytes == out.per_chip_bytes


class TestReduceScatter:
    def _partial(self, mesh, x, axes):
        spec = parse("BE").with_partial_sum(axes)
        k = mesh.group_size(axes)
        shards = mesh.map_devices(lambda c: x / k)
        return ShardedTensor(mesh, spec, x.shape, shards)

    def test_scatter_into_dim(self):
        mesh = mesh222()
        x = RNG.normal(size=(4, 8))
        t = self._partial(mesh, x, ("x",))
        out = reduce_scatter(t, ("x",), "E")
        assert str(out.spec) == "BE_x"
        np.testing.assert_allclose(out.to_global(), x)

    def test_appends_innermost(self):
        mesh = mesh222()
        x = RNG.normal(size=(4, 8))
        spec = parse("BE_y").with_partial_sum(("x",))
        shards = mesh.map_devices(
            lambda c: x[:, c[1] * 4:(c[1] + 1) * 4] / 2)
        t = ShardedTensor(mesh, spec, x.shape, shards)
        out = reduce_scatter(t, ("x",), "E")
        assert str(out.spec) == "BE_yx"
        np.testing.assert_allclose(out.to_global(), x)

    def test_requires_partial_axes(self):
        mesh = mesh222()
        t = ShardedTensor.from_global(mesh, RNG.normal(size=(4, 8)), "BE")
        with pytest.raises(ShardingError, match="partial-sum"):
            reduce_scatter(t, ("x",), "E")


class TestAllReduce:
    def test_matches_reduce_scatter_plus_all_gather(self):
        mesh = mesh142()
        x = RNG.normal(size=(4, 8))
        spec = parse("BE").with_partial_sum(("y",))
        shards = mesh.map_devices(lambda c: x * (c[1] + 1) / 10)
        t = ShardedTensor(mesh, spec, x.shape, shards)
        direct = all_reduce(t, ("y",))
        composed = all_gather(reduce_scatter(t, ("y",), "E"), ("y",), "E")
        np.testing.assert_allclose(direct.to_global(), composed.to_global())
        assert direct.spec == composed.spec

    def test_partial_reduction_keeps_other_axes(self):
        mesh = mesh222()
        x = RNG.normal(size=(4, 8))
        spec = parse("BE").with_partial_sum(("x", "y"))
        shards = mesh.map_devices(lambda c: x / 4)
        t = ShardedTensor(mesh, spec, x.shape, shards)
        out = all_reduce(t, ("x",))
        assert out.spec.partial_sum == ("y",)
        np.testing.assert_allclose(out.to_global(), x)


class TestAllToAll:
    def test_resharding_heads_to_batch(self):
        # The Section 3.3 reshard: BLH_x Q -> B_x LHQ.
        mesh = mesh222()
        x = RNG.normal(size=(4, 2, 8, 3))
        t = ShardedTensor.from_global(mesh, x, "BLH_xQ")
        out = all_to_all(t, ("x",), "H", "B")
        assert str(out.spec) == "B_xLHQ"
        np.testing.assert_array_equal(out.to_global(), x)

    def test_multi_axis(self):
        mesh = mesh142()
        x = RNG.normal(size=(8, 2, 8, 3))
        t = ShardedTensor.from_global(mesh, x, "BLH_yzQ")
        out = all_to_all(t, ("y", "z"), "H", "B")
        assert str(out.spec) == "B_yzLHQ"
        np.testing.assert_array_equal(out.to_global(), x)

    def test_same_dim_rejected(self):
        mesh = mesh222()
        t = ShardedTensor.from_global(mesh, RNG.normal(size=(4, 8)), "BE_x")
        with pytest.raises(ShardingError, match="must differ"):
            all_to_all(t, ("x",), "E", "E")


class TestSplit:
    def test_free_reshard_of_replicated(self):
        mesh = mesh222()
        log = enable_comm_log(mesh)
        x = RNG.normal(size=(8, 4))
        t = ShardedTensor.from_global(mesh, x, "BE_x")
        out = split(t, ("y", "z"), "B")
        assert str(out.spec) == "B_yzE_x"
        np.testing.assert_array_equal(out.to_global(), x)
        assert log[-1].op == "split"
        assert log[-1].payload_bytes == 0

    def test_rejects_used_axes(self):
        mesh = mesh222()
        t = ShardedTensor.from_global(mesh, RNG.normal(size=(8, 4)), "BE_x")
        with pytest.raises(ShardingError, match="overlap"):
            split(t, ("x",), "B")


class TestShardedEinsum:
    def test_megatron_mlp_contraction(self):
        # BLE x EF_xyz -> BLF_xyz, the 1D weight-stationary first matmul.
        mesh = mesh222()
        x = RNG.normal(size=(2, 3, 8))
        w = RNG.normal(size=(8, 16))
        xt = ShardedTensor.from_global(mesh, x, "BLE")
        wt = ShardedTensor.from_global(mesh, w, "EF_xyz")
        out = sharded_einsum("ble,ef->blf", xt, wt)
        assert str(out.spec) == "BLF_xyz"
        np.testing.assert_allclose(out.to_global(), np.einsum(
            "ble,ef->blf", x, w))

    def test_contracted_sharded_dim_produces_partial_sum(self):
        mesh = mesh222()
        x = RNG.normal(size=(2, 3, 8))
        w = RNG.normal(size=(8, 16))
        xt = ShardedTensor.from_global(mesh, x, "BLE_x")
        wt = ShardedTensor.from_global(mesh, w, "E_xF_yz")
        out = sharded_einsum("ble,ef->blf", xt, wt)
        assert set(out.spec.partial_sum) == {"x"}
        assert out.spec.axes_for("F") == ("y", "z")
        np.testing.assert_allclose(out.to_global(), np.einsum(
            "ble,ef->blf", x, w))

    def test_mismatched_contraction_sharding_rejected(self):
        mesh = mesh222()
        xt = ShardedTensor.from_global(mesh, RNG.normal(size=(2, 3, 8)),
                                       "BLE_x")
        wt = ShardedTensor.from_global(mesh, RNG.normal(size=(8, 16)),
                                       "E_yF")
        with pytest.raises(ShardingError, match="mismatch"):
            sharded_einsum("ble,ef->blf", xt, wt)

    def test_subscripts_must_match_dims(self):
        mesh = mesh222()
        xt = ShardedTensor.from_global(mesh, RNG.normal(size=(2, 3, 8)),
                                       "BLE")
        wt = ShardedTensor.from_global(mesh, RNG.normal(size=(8, 16)), "EF")
        with pytest.raises(ShardingError, match="do not match"):
            sharded_einsum("xyz,ef->xyf", xt, wt)

    def test_carried_partial_sum_safe_case(self):
        mesh = mesh222()
        x = RNG.normal(size=(2, 8))
        w = RNG.normal(size=(8, 4))
        spec = parse("BE").with_partial_sum(("x",))
        shards = mesh.map_devices(lambda c: x / 2)
        xt = ShardedTensor(mesh, spec, x.shape, shards)
        wt = ShardedTensor.from_global(mesh, w, "EF_y")
        out = sharded_einsum("be,ef->bf", xt, wt)
        assert "x" in out.spec.partial_sum
        np.testing.assert_allclose(out.to_global(), x @ w)

    def test_carried_partial_sum_unsafe_case_rejected(self):
        mesh = mesh222()
        x = RNG.normal(size=(2, 8))
        w = RNG.normal(size=(8, 4))
        spec = parse("BE").with_partial_sum(("x",))
        shards = mesh.map_devices(lambda c: x / 2)
        xt = ShardedTensor(mesh, spec, x.shape, shards)
        wt = ShardedTensor.from_global(mesh, w, "EF_x")
        with pytest.raises(ShardingError, match="partial-sum"):
            sharded_einsum("be,ef->bf", xt, wt)


@st.composite
def mesh_and_tensor(draw):
    shape = draw(st.sampled_from([(1, 1, 2), (2, 2, 1), (2, 2, 2),
                                  (1, 4, 2)]))
    mesh = VirtualMesh(shape)
    b = draw(st.sampled_from([4, 8]))
    e = draw(st.sampled_from([8, 16]))
    data = draw(st.integers(0, 2**31 - 1))
    x = np.random.default_rng(data).normal(size=(b, e))
    return mesh, x


@settings(max_examples=30, deadline=None)
@given(mesh_and_tensor(), st.sampled_from(["BE", "B_xE", "BE_yz", "B_yE_z",
                                           "BE_xyz", "B_xyzE"]))
def test_property_roundtrip_any_spec(mt, spec):
    mesh, x = mt
    try:
        t = ShardedTensor.from_global(mesh, x, spec)
    except ShardingError:
        return  # indivisible combination; not the property under test
    np.testing.assert_array_equal(t.to_global(), x)


@settings(max_examples=30, deadline=None)
@given(mesh_and_tensor())
def test_property_gather_then_split_restores_layout(mt):
    mesh, x = mt
    if mesh.axis_size("y") == 1:
        return
    t = ShardedTensor.from_global(mesh, x, "BE_y")
    g = all_gather(t, ("y",), "E")
    s = split(g, ("y",), "E")
    assert s.spec == t.spec
    for coord in mesh.devices():
        np.testing.assert_array_equal(every_device(s)[coord],
                                      every_device(t)[coord])
