"""Stacked collectives on operands that hold one copy per replicated axis.

A stacked tensor is size 1 on every mesh axis its spec replicates.  For
random meshes (size-1 axes included), specs, local shapes, operand
layouts and data (``-0.0`` and NaN payloads included), every stacked
collective — ``all_gather``, ``reduce_scatter``, ``all_reduce``,
``all_to_all``, ``split`` — and ``from_global`` / ``to_global`` must

* equal its loop-backend twin bit for bit, the loop operand being the
  stacked one widened to every device;
* return one copy (size 1) on every axis the result's spec replicates;
* and, where it runs as a view recipe (:func:`repro.mesh.stacked.
  view_recipe`: an all-gather, reduce-scatter, all-reduce or global
  conversion), give the same bits through its replay closure
  (:func:`repro.mesh.stacked.replay_kernel`), with the operand passed
  per call and with its view bound once.

Operands come C-contiguous, as a strided column view of a wider buffer
(as a fused projection hands them out), or with the device axes
innermost in memory, where a reduction's rank axis has the smallest
stride and the recipe must take its rank-major copy.  The recipes must
also match their loop twin

* on a fault-widened operand, full size on a replicated axis as
  :meth:`repro.mesh.faults.FaultState.post_collective` leaves it, with
  one chip's copy corrupted;
* on groups whose ranks cannot form one strided axis (``(z, y)``,
  ``(x, z)``), on reductions to a single element, and on operands far
  larger than the decode shapes.

Examples are drawn under the suite's derandomized Hypothesis profile
(``tests/conftest.py``).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mesh import (
    ShardedTensor,
    VirtualMesh,
    all_gather,
    all_reduce,
    all_to_all,
    reduce_scatter,
    split,
    stacked,
)
from repro.sharding.spec import ShardSpec
from tests.unit.grid import every_device, widened

AXES = ("x", "y", "z")
MESHES = [(2, 2, 2), (1, 2, 2), (2, 2, 1), (4, 4, 4)]
VIEW = ("all_gather", "reduce_scatter", "all_reduce")  # view recipes


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


@st.composite
def operands(draw, op, meshes=MESHES, roles=None):
    """``(mesh shape, spec, global shape, one-copy shards, op args)``.

    Each mesh axis shards dim A or B, partially sums, or is replicated
    (the collapse mask), unless ``roles`` fixes that; the op's own axes
    are drawn to fit its rules.
    """
    shape = draw(st.sampled_from(meshes))
    need = {"all_gather": "A", "all_to_all": "A", "reduce_scatter": "psum",
            "all_reduce": "psum", "split": "rep"}.get(op)
    if roles is None:
        roles = [draw(st.sampled_from(["A", "B", "psum", "rep"]))
                 for _ in AXES]
    if op == "global":
        roles = ["rep" if r == "psum" else r for r in roles]
    if need is not None and need not in roles:
        roles = list(roles)
        roles[draw(st.integers(0, 2))] = need
    order = draw(st.permutations(AXES))
    by_role = {r: tuple(a for a in order if roles[AXES.index(a)] == r)
               for r in ("A", "B", "psum", "rep")}
    spec = ShardSpec(("A", "B"), (by_role["A"], by_role["B"]),
                     by_role["psum"])

    def size(axes):
        return math.prod(shape[AXES.index(a)] for a in axes)

    args, local = (), [draw(st.integers(1, 3)), draw(st.integers(1, 3))]
    if op in ("all_gather", "all_to_all"):
        a_axes = by_role["A"]
        axes = a_axes[draw(st.integers(0, len(a_axes) - 1)):]
        args = (axes, "A", "B") if op == "all_to_all" else (axes, "A")
        if op == "all_to_all":
            local[1] *= size(axes)
    elif op in ("reduce_scatter", "all_reduce", "split"):
        pool = by_role["rep" if op == "split" else "psum"]
        axes = tuple(draw(st.permutations(pool))[
            :draw(st.integers(1, len(pool)))])
        if op == "all_reduce":
            args = (axes,)
        else:
            dim = draw(st.sampled_from(["A", "B"]))
            local["AB".index(dim)] *= size(axes)
            args = (axes, dim)
    gshape = (local[0] * size(spec.axes[0]), local[1] * size(spec.axes[1]))
    grid = tuple(1 if r == "rep" else n for r, n in zip(roles, shape))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    shards = special_values(rng, grid + tuple(local))
    return shape, spec, gshape, shards, args


def special_values(rng, shape):
    """Normal draws over many decades, with ``-0.0`` entries, a slab of
    ``-0.0`` (summed over every rank, its bits survive only a sum that
    starts from rank 0's value) and NaNs with distinct payloads."""
    values = rng.standard_normal(shape)
    values *= 10.0 ** rng.integers(-4, 5, shape)
    values[rng.random(shape) < 0.1] = -0.0
    values[..., 0] = -0.0
    nans = rng.random(shape) < 0.02
    payloads = 0x7FF8000000000000 + rng.integers(1, 1 << 40, nans.sum())
    values[nans] = payloads.astype(np.uint64).view(np.float64)
    return values


LAYOUTS = st.sampled_from(["contiguous", "column", "rank-inner"])


def laid_out(shards, layout):
    """The same values as a C-contiguous array, a column view of a wider
    buffer, or with the device axes innermost in memory."""
    if layout == "column":
        wide = np.full(shards.shape[:-1] + (shards.shape[-1] + 3,), 7.0)
        wide[..., 2:-1] = shards
        return wide[..., 2:-1]
    if layout == "rank-inner":
        n = shards.ndim
        moved = np.ascontiguousarray(shards.transpose(
            tuple(range(3, n)) + (0, 1, 2)))
        return moved.transpose((n - 3, n - 2, n - 1) + tuple(range(n - 3)))
    return np.ascontiguousarray(shards)


def twins(shape, spec, gshape, shards):
    """The stacked tensor and its loop twin, the operand widened."""
    stacked_t = ShardedTensor(VirtualMesh(shape, "stacked"), spec, gshape,
                              shards)
    loop_mesh = VirtualMesh(shape, "loop")
    wide = every_device(stacked_t)
    return stacked_t, ShardedTensor(loop_mesh, spec, gshape,
                                    loop_mesh.map_devices(
                                        lambda c: np.array(wide[c])))


def assert_twins(got: ShardedTensor, want: ShardedTensor):
    """Bit-equal on every device, one copy per replicated axis."""
    assert (got.spec, got.global_shape) == (want.spec, want.global_shape)
    assert all(got.shards.shape[i] == 1
               for i in stacked.replicated_axes(got.spec))
    wide = every_device(got)
    for coord in want.mesh.devices():
        assert same_bits(np.array(wide[coord]), want.shards[coord])


OPS = {"all_gather": all_gather, "reduce_scatter": reduce_scatter,
       "all_reduce": all_reduce, "all_to_all": all_to_all, "split": split}


def op_meta(op, spec, args):
    """The op's ``meta`` as :mod:`repro.mesh.ops` records it."""
    if op == "all_reduce":
        return (op, tuple(args[0]))
    return (op, tuple(args[0]), spec.dim_index(args[1]))


def assert_replay(mesh, meta, operand, want):
    """The replay closure of ``meta`` gives ``want``'s bits, fed the
    operand per call and with its view bound."""
    for fixed in (False, True):
        buf = np.full(want.shape, np.nan)
        run = stacked.replay_kernel(mesh.shape, meta, operand, {}, buf,
                                    fixed)
        assert same_bits(run(operand), want)


@given(st.sampled_from(sorted(OPS)).flatmap(
    lambda op: st.tuples(st.just(op), operands(op))), LAYOUTS)
def test_collective_matches_loop_twin(case, layout):
    op, (shape, spec, gshape, shards, args) = case
    shards = laid_out(shards, layout)
    s, l = twins(shape, spec, gshape, shards)
    got = OPS[op](s, *args)
    assert_twins(got, OPS[op](l, *args))
    if op in VIEW:
        assert_replay(s.mesh, op_meta(op, spec, args), shards, got.shards)


VIEW_OPS = st.sampled_from(VIEW).flatmap(
    lambda op: st.tuples(st.just(op), operands(op)))


@given(st.sampled_from(["reduce_scatter", "all_reduce"]).flatmap(
    lambda op: st.tuples(st.just(op), operands(
        op, [(2, 2, 2), (4, 4, 4)], ["psum"] * 3))), LAYOUTS)
def test_large_group_reductions_match_loop_twin(case, layout):
    """Groups of up to 64 ranks, on every layout: where the rank axis is
    innermost in memory numpy would sum it pairwise, so the recipe must
    copy rank-major first."""
    op, (shape, spec, gshape, shards, args) = case
    shards = laid_out(shards, layout)
    s, l = twins(shape, spec, gshape, shards)
    got = OPS[op](s, *args)
    assert_twins(got, OPS[op](l, *args))
    assert_replay(s.mesh, op_meta(op, spec, args), shards, got.shards)


def assert_device_twins(got: ShardedTensor, want: ShardedTensor):
    """Bit-equal on every device, whatever grid ``got`` holds."""
    assert (got.spec, got.global_shape) == (want.spec, want.global_shape)
    wide = every_device(got)
    for coord in want.mesh.devices():
        assert same_bits(np.array(wide[coord]), want.shards[coord])


@given(VIEW_OPS, st.data())
def test_fault_widened_operand_matches_loop_twin(case, data):
    op, (shape, spec, gshape, shards, args) = case
    s = widened(ShardedTensor(VirtualMesh(shape, "stacked"), spec, gshape,
                              shards))
    chip = data.draw(st.tuples(*(st.integers(0, n - 1) for n in shape)))
    s.shards[chip] += 1.0  # one chip's copy corrupted
    s, l = twins(shape, spec, gshape, s.shards)
    got = OPS[op](s, *args)
    assert_device_twins(got, OPS[op](l, *args))
    assert_replay(s.mesh, op_meta(op, spec, args), s.shards, got.shards)


# (mesh, spec, op, args, local, layout, direct): groups whose ranks form
# no strided axis, single-element reductions, a rank axis innermost in
# memory, and operands far above the decode shapes.
EDGES = [
    ((2, 2, 2), ShardSpec(("A", "B"), ((), ()), ("x", "y", "z")),
     "all_reduce", (("z", "y"),), (3, 2), "contiguous", False),
    ((4, 4, 4), ShardSpec(("A", "B"), ((), ()), ("x", "y", "z")),
     "reduce_scatter", (("x", "z"), "B"), (2, 32), "column", False),
    ((4, 2, 2), ShardSpec(("A", "B"), (("z", "x"), ()), ()),
     "all_gather", (("z", "x"), "A"), (2, 3), "contiguous", True),
    ((2, 2, 2), ShardSpec(("A", "B"), ((), ()), ("x", "y", "z")),
     "all_reduce", (("x", "y", "z"),), (1, 1), "contiguous", True),
    ((4, 4, 4), ShardSpec(("A", "B"), ((), ()), ("x", "z")),
     "all_reduce", (("x", "z"),), (1, 1), "contiguous", True),
    ((2, 2, 2), ShardSpec(("A", "B"), ((), ()), ("y", "x")),
     "all_reduce", (("y", "x"),), (1, 1), "contiguous", False),
    ((2, 2, 2), ShardSpec(("A", "B"), ((), ()), ("x", "y", "z")),
     "all_reduce", (("x", "y", "z"),), (3, 2), "rank-inner", False),
    ((4, 4, 4), ShardSpec(("A", "B"), (("x",), ()), ("y", "z")),
     "reduce_scatter", (("y", "z"), "B"), (2, 32), "rank-inner", False),
    ((4, 4, 4), ShardSpec(("A", "B"), (("x",), ()), ("y", "z")),
     "all_reduce", (("y", "z"),), (48, 96), "contiguous", True),
    ((4, 4, 4), ShardSpec(("A", "B"), ((), ("x",)), ("y", "z")),
     "reduce_scatter", (("y", "z"), "A"), (64, 80), "column", True),
    ((4, 4, 4), ShardSpec(("A", "B"), (("y", "z"), ()), ()),
     "all_gather", (("y", "z"), "A"), (64, 80), "contiguous", True),
]


@pytest.mark.parametrize("shape, spec, op, args, local, layout, direct",
                         EDGES)
def test_edge_layouts_match_loop_twin(shape, spec, op, args, local, layout,
                                      direct):
    size = {a: n for a, n in zip(AXES, shape)}
    gshape = tuple(n * math.prod(size[a] for a in axes)
                   for n, axes in zip(local, spec.axes))
    grid = tuple(1 if i in stacked.replicated_axes(spec) else n
                 for i, n in enumerate(shape))
    shards = laid_out(special_values(
        np.random.default_rng(3), grid + local), layout)
    s, l = twins(shape, spec, gshape, shards)
    got = OPS[op](s, *args)
    assert_twins(got, OPS[op](l, *args))
    meta = op_meta(op, spec, args)
    assert stacked.view_recipe(shape, meta, shards.shape,
                               shards.strides).direct == direct
    assert_replay(s.mesh, meta, shards, got.shards)


@given(operands("global"), st.booleans(), LAYOUTS)
def test_global_conversions_match_loop_twin(case, with_psum, layout):
    shape, spec, gshape, shards, _ = case
    array = special_values(np.random.default_rng(0), gshape)
    s_mesh = VirtualMesh(shape, "stacked")
    got = ShardedTensor.from_global(s_mesh, array, spec)
    assert_twins(got, ShardedTensor.from_global(VirtualMesh(shape, "loop"),
                                                array, spec))
    assert_replay(s_mesh, ("from_global", spec, got.local_shape), array,
                  got.shards)

    if with_psum:  # a replicated axis turned partial: one copy per rank
        rep = stacked.replicated_axes(spec)
        if rep:
            spec = ShardSpec(spec.dims, spec.axes, (AXES[rep[0]],))
            shards = np.broadcast_to(shards, tuple(
                shape[i] if i == rep[0] else n
                for i, n in enumerate(shards.shape)))
            shards = shards * np.arange(1, shape[rep[0]] + 1).reshape(
                tuple(-1 if i == rep[0] else 1 for i in range(3))
                + (1, 1))
    shards = laid_out(shards, layout)
    s, l = twins(shape, spec, gshape, shards)
    want = l.to_global()
    assert same_bits(s.to_global(), want)
    assert_replay(s_mesh, ("to_global", spec, gshape), shards, want)
