"""Differential tests: the stacked mesh backend vs the loop oracle.

The loop backend is the semantics oracle — one Python iteration per
device, trivially auditable.  The stacked backend reimplements every
collective as whole-mesh numpy reshape/transpose/reduce calls and is only
correct if it produces *bit-identical* shards (same values, same dtype)
for every device, spec, and collective.  These tests drive both backends
from the same global tensors — hypothesis choosing shapes, dtypes, and
data — and assert exact equality shard by shard.

Also covers the memoization added alongside the backend: the analytic
collective-cost lru_caches, and the per-mesh group cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import decode_config
from repro.collectives import cost
from repro.layouts import ShardedTransformer
from repro.mesh import (
    BACKENDS,
    ShardedTensor,
    VirtualMesh,
    all_gather,
    all_reduce,
    all_to_all,
    default_backend,
    reduce_scatter,
    sharded_einsum,
    split,
)
from repro.mesh.capture import capturing
from repro.model import init_weights, tiny_test_config
from repro.partitioning import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from tests.unit.grid import every_device

MESH_SHAPE = (2, 2, 2)
DTYPES = (np.float64, np.float32, np.int64)

# Shared hypothesis knobs: global shape (8b, 2l, 8e) is divisible under
# every axes combination used below on a 2x2x2 mesh.
shape_st = st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 2))
dtype_st = st.sampled_from(DTYPES)
seed_st = st.integers(0, 2**32 - 1)

fast = settings(max_examples=25, deadline=None)


def random_array(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    if np.issubdtype(dtype, np.integer):
        return rng.integers(-100, 100, size=shape).astype(dtype)
    return rng.standard_normal(shape).astype(dtype)


def make_pair(x, spec, mesh_shape=MESH_SHAPE):
    """The same global tensor sharded on a loop mesh and a stacked mesh."""
    return tuple(
        ShardedTensor.from_global(VirtualMesh(mesh_shape, backend=b), x,
                                  spec)
        for b in ("loop", "stacked"))


def assert_bit_identical(t_loop, t_stacked):
    """Every device's shard matches exactly: dtype, shape, and bits (the
    stacked shards broadcast from their one copy per replicated axis)."""
    assert str(t_loop.spec) == str(t_stacked.spec)
    assert t_loop.global_shape == t_stacked.global_shape
    stacked = every_device(t_stacked)
    for coord in np.ndindex(t_loop.mesh.shape):
        a, b = t_loop.shards[coord], np.asarray(stacked[coord])
        assert a.dtype == b.dtype, (coord, a.dtype, b.dtype)
        assert a.shape == b.shape, (coord, a.shape, b.shape)
        assert np.array_equal(a, b), f"shards differ at device {coord}"


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------

GATHER_CASES = [
    ("BLE_xyz", ("x", "y", "z"), "E"),
    ("BLE_xyz", ("y", "z"), "E"),
    ("B_zLE_xy", ("x", "y"), "E"),
    ("B_xL_yE_z", ("z",), "E"),
]


@pytest.mark.parametrize("spec,axes,dim", GATHER_CASES)
@fast
@given(dims=shape_st, dtype=dtype_st, seed=seed_st)
def test_all_gather_identical(spec, axes, dim, dims, dtype, seed):
    b, l, e = dims
    x = random_array((8 * b, 2 * l, 8 * e), dtype, seed)
    t_loop, t_stacked = make_pair(x, spec)
    assert_bit_identical(all_gather(t_loop, axes, dim),
                         all_gather(t_stacked, axes, dim))


A2A_CASES = [
    ("B_xyzLE", ("x", "y", "z"), "B", "E"),
    ("BLE_xyz", ("y", "z"), "E", "B"),
    ("B_xLE_yz", ("z",), "E", "L"),
]


@pytest.mark.parametrize("spec,axes,src,dst", A2A_CASES)
@fast
@given(dims=shape_st, dtype=dtype_st, seed=seed_st)
def test_all_to_all_identical(spec, axes, src, dst, dims, dtype, seed):
    b, l, e = dims
    x = random_array((8 * b, 2 * l, 8 * e), dtype, seed)
    t_loop, t_stacked = make_pair(x, spec)
    assert_bit_identical(all_to_all(t_loop, axes, src, dst),
                         all_to_all(t_stacked, axes, src, dst))


SPLIT_CASES = [
    ("BLE", ("x", "y", "z"), "B"),
    ("B_xLE", ("y", "z"), "E"),
    ("BL_zE_x", ("y",), "E"),
]


@pytest.mark.parametrize("spec,axes,dim", SPLIT_CASES)
@fast
@given(dims=shape_st, dtype=dtype_st, seed=seed_st)
def test_split_identical(spec, axes, dim, dims, dtype, seed):
    b, l, e = dims
    x = random_array((8 * b, 2 * l, 8 * e), dtype, seed)
    t_loop, t_stacked = make_pair(x, spec)
    assert_bit_identical(split(t_loop, axes, dim),
                         split(t_stacked, axes, dim))


# Partial-sum inputs for reduce_scatter/all_reduce are produced the way
# the model produces them: an einsum contracting a sharded dim.
REDUCE_CASES = [
    # (x spec, w spec, partial axes, scatter dim)
    ("BLE_xyz", "E_xyzF", ("x", "y", "z"), "F"),
    ("B_xLE_yz", "E_yzF", ("y", "z"), "F"),
    ("BLE_z", "E_zF", ("z",), "B"),
]


def _partial_pair(x_spec, w_spec, dims, dtype, seed):
    b, l, e = dims
    x = random_array((8 * b, 2 * l, 8 * e), dtype, seed)
    w = random_array((8 * e, 8), dtype, seed + 1)
    outs = []
    for backend in ("loop", "stacked"):
        mesh = VirtualMesh(MESH_SHAPE, backend=backend)
        xt = ShardedTensor.from_global(mesh, x, x_spec)
        wt = ShardedTensor.from_global(mesh, w, w_spec)
        outs.append(sharded_einsum("ble,ef->blf", xt, wt))
    return outs


@pytest.mark.parametrize("x_spec,w_spec,axes,dim", REDUCE_CASES)
@fast
@given(dims=shape_st, dtype=dtype_st, seed=seed_st)
def test_reduce_scatter_identical(x_spec, w_spec, axes, dim, dims, dtype,
                                  seed):
    p_loop, p_stacked = _partial_pair(x_spec, w_spec, dims, dtype, seed)
    assert_bit_identical(p_loop, p_stacked)  # the einsum itself
    assert_bit_identical(reduce_scatter(p_loop, axes, dim),
                         reduce_scatter(p_stacked, axes, dim))


@pytest.mark.parametrize("x_spec,w_spec,axes,dim", REDUCE_CASES)
@fast
@given(dims=shape_st, dtype=dtype_st, seed=seed_st)
def test_all_reduce_identical(x_spec, w_spec, axes, dim, dims, dtype, seed):
    p_loop, p_stacked = _partial_pair(x_spec, w_spec, dims, dtype, seed)
    assert_bit_identical(all_reduce(p_loop, axes),
                         all_reduce(p_stacked, axes))


# ---------------------------------------------------------------------------
# Einsum fast path
# ---------------------------------------------------------------------------

EINSUM_CASES = [
    # (subscripts, x spec, w spec): replicated-weight, sharded-weight,
    # batch-sharded activations, fully contracted.
    ("ble,ef->blf", "B_xLE", "EF_yz"),
    ("ble,ef->blf", "B_xyzLE", "EF"),
    ("ble,ef->blf", "BLE_xy", "E_xyF_z"),
]


@pytest.mark.parametrize("subscripts,x_spec,w_spec", EINSUM_CASES)
@fast
@given(dims=shape_st, dtype=dtype_st, seed=seed_st)
def test_sharded_einsum_identical(subscripts, x_spec, w_spec, dims, dtype,
                                  seed):
    b, l, e = dims
    x = random_array((8 * b, 2 * l, 8 * e), dtype, seed)
    w = random_array((8 * e, 8), dtype, seed + 1)
    outs = []
    for backend in ("loop", "stacked"):
        mesh = VirtualMesh(MESH_SHAPE, backend=backend)
        xt = ShardedTensor.from_global(mesh, x, x_spec)
        wt = ShardedTensor.from_global(mesh, w, w_spec)
        outs.append(sharded_einsum(subscripts, xt, wt))
    assert_bit_identical(*outs)


# ---------------------------------------------------------------------------
# Round trips and backend selection
# ---------------------------------------------------------------------------

@fast
@given(dims=shape_st, dtype=dtype_st, seed=seed_st,
       spec=st.sampled_from(["BLE", "BLE_xyz", "B_xL_yE_z", "B_zLE_xy"]))
def test_from_to_global_roundtrip_identical(dims, dtype, seed, spec):
    b, l, e = dims
    x = random_array((8 * b, 2 * l, 8 * e), dtype, seed)
    t_loop, t_stacked = make_pair(x, spec)
    assert_bit_identical(t_loop, t_stacked)
    np.testing.assert_array_equal(t_loop.to_global(), x)
    np.testing.assert_array_equal(t_stacked.to_global(), x)


def test_backend_selection():
    assert VirtualMesh((1, 1, 1)).backend == default_backend()
    assert VirtualMesh((1, 1, 1), backend="stacked").backend == "stacked"
    assert set(BACKENDS) == {"loop", "stacked"}
    with pytest.raises(ValueError, match="unknown mesh backend"):
        VirtualMesh((1, 1, 1), backend="cuda")


def test_env_var_selects_default_backend(monkeypatch):
    monkeypatch.setenv("REPRO_MESH_BACKEND", "stacked")
    assert default_backend() == "stacked"
    assert VirtualMesh((1, 1, 1)).backend == "stacked"
    monkeypatch.setenv("REPRO_MESH_BACKEND", "gpu")
    with pytest.raises(ValueError, match="REPRO_MESH_BACKEND"):
        default_backend()


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 2), (1, 2, 2),
                                   (2, 2, 2), (2, 2, 4), (2, 4, 4),
                                   (4, 4, 4)],
                         ids=lambda s: "x".join(map(str, s)))
def test_decode_logits_identical(shape):
    """Whole model, 1 to 64 chips: the 16-layer weight-gathered decode
    workload gives the same prefill and decode logits, bit for bit."""
    config = decode_config()
    weights = init_weights(config, seed=0)
    prompt = np.random.default_rng(1).integers(0, config.vocab_size,
                                               size=(64, 4))
    plan = LayoutPlan(FfnLayoutKind.WG_XY, AttentionLayoutKind.BATCH)
    runs = []
    for backend in BACKENDS:
        model = ShardedTransformer(weights, VirtualMesh(shape, backend),
                                   plan)
        logits, caches = model.prefill(prompt, 7)
        steps = [logits]
        for _ in range(3):
            steps.append(model.decode_step(np.argmax(steps[-1], -1),
                                           caches))
        runs.append(steps)
    for loop, stacked in zip(*runs):
        assert loop.dtype == stacked.dtype
        np.testing.assert_array_equal(loop, stacked)

# The serving benchmark's models and the plans its deployments pick at
# decode batch 4.
BENCH_DEPLOYMENTS = {
    "A": (dict(n_layers=2, d_model=64, d_ff=128, n_heads=16, d_head=4,
               vocab_size=32), (4, 4, 4),
          LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)),
    "B": (dict(n_layers=2, d_model=16, d_ff=32, n_heads=8, d_head=8,
               vocab_size=32), (2, 2, 2),
          LayoutPlan(FfnLayoutKind.WS_1D, AttentionLayoutKind.HEAD)),
}


@pytest.mark.parametrize("chunk", [1, 4], ids=["decode", "prefill"])
@pytest.mark.parametrize("name", BENCH_DEPLOYMENTS)
def test_backends_record_the_same_ops(name, chunk):
    """Every mesh op runs through one dispatcher that records the closure
    that ran, so both backends' raw capture tapes list the same ops."""
    config, shape, plan = BENCH_DEPLOYMENTS[name]
    weights = init_weights(tiny_test_config(**config), seed=0)
    rng = np.random.default_rng(2)
    prompt = rng.integers(0, 32, size=(4, 5))
    tokens = rng.integers(0, 32, size=(4, chunk))
    tapes = []
    for backend in BACKENDS:
        model = ShardedTransformer(weights, VirtualMesh(shape, backend),
                                   plan)
        _, caches = model.prefill(prompt, 12)
        with capturing(model.mesh, caches) as recorder:
            model.forward(tokens, caches)
        tapes.append([ins.label for ins in recorder._instrs])
    assert tapes[0] == tapes[1]
    assert len(tapes[0]) > 50


# ---------------------------------------------------------------------------
# Memoization satellites
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fn,args", [
    (cost.all_gather_time, (1024.0, 8, 1e9)),
    (cost.reduce_scatter_time, (1024.0, 8, 1e9)),
    (cost.all_reduce_time, (1024.0, 8, 1e9)),
    (cost.all_to_all_time, (1024.0, 8, 1e9)),
])
def test_cost_functions_memoized(fn, args):
    fn.cache_clear()
    first = fn(*args)
    assert fn.cache_info().hits == 0
    assert fn(*args) == first
    assert fn.cache_info().hits == 1


def test_mesh_groups_cached_per_axes_tuple():
    mesh = VirtualMesh((2, 2, 2))
    first = list(mesh.groups(("x", "z")))
    cached = mesh._groups_cache[("x", "z")]
    assert list(mesh.groups(("x", "z"))) == first
    assert mesh._groups_cache[("x", "z")] is cached


# ---------------------------------------------------------------------------
# Full-size sweep (slow; runs in CI, opt-in locally via -m slow)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_collectives_identical_on_4x4x4():
    """The paper's 64-chip torus: every collective, bit for bit."""
    shape = (4, 4, 4)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 4, 64))
    for spec, axes, dim in [("BLE_xyz", ("x", "y", "z"), "E"),
                            ("B_zLE_xy", ("x", "y"), "E"),
                            ("B_xL_yE_z", ("z",), "E")]:
        t_loop, t_stacked = make_pair(x, spec, shape)
        assert_bit_identical(all_gather(t_loop, axes, dim),
                             all_gather(t_stacked, axes, dim))
    t_loop, t_stacked = make_pair(x, "B_xyzLE", shape)
    assert_bit_identical(all_to_all(t_loop, ("x", "y", "z"), "B", "E"),
                         all_to_all(t_stacked, ("x", "y", "z"), "B", "E"))
    t_loop, t_stacked = make_pair(x, "B_xLE", shape)
    assert_bit_identical(split(t_loop, ("y", "z"), "E"),
                         split(t_stacked, ("y", "z"), "E"))
    w = rng.standard_normal((64, 64))
    parts = []
    for backend in ("loop", "stacked"):
        mesh = VirtualMesh(shape, backend=backend)
        xt = ShardedTensor.from_global(mesh, x, "BLE_xyz")
        wt = ShardedTensor.from_global(mesh, w, "E_xyzF")
        parts.append(sharded_einsum("ble,ef->blf", xt, wt))
    assert_bit_identical(*parts)
    assert_bit_identical(
        reduce_scatter(parts[0], ("x", "y", "z"), "F"),
        reduce_scatter(parts[1], ("x", "y", "z"), "F"))
    assert_bit_identical(all_reduce(parts[0], ("x", "y", "z")),
                         all_reduce(parts[1], ("x", "y", "z")))
