"""Stacked collectives on operands that hold one copy per replicated axis.

A stacked tensor is size 1 on every mesh axis its spec replicates.  For
random meshes (size-1 axes included), specs, local shapes and data,
every stacked collective — ``all_gather``, ``reduce_scatter``,
``all_reduce``, ``all_to_all``, ``split`` — and ``from_global`` /
``to_global`` must

* equal its loop-backend twin bit for bit, the loop operand being the
  stacked one widened to every device;
* return one copy (size 1) on every axis the result's spec replicates;
* and, where replay traces it to an index table
  (:func:`repro.mesh.stacked.prebind_collective_indexed`,
  ``prebind_to_global``, ``prebind_from_global``), give the same bits
  through the table.

An all-gather, reduce-scatter or all-reduce runs eagerly through that
same memoized table (:func:`repro.mesh.stacked.indexed_collective`), so
the public ops exercise it.  They must also match their loop twin

* on a fault-widened operand, full size on a replicated axis as
  :meth:`repro.mesh.faults.FaultState.post_collective` leaves it, with
  one chip's copy corrupted;
* above the table size limit, where they run the group kernel instead.

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
INDEXED = ("all_gather", "reduce_scatter", "all_reduce")


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


@st.composite
def operands(draw, op):
    """``(mesh shape, spec, global shape, one-copy shards, op args)``.

    Each mesh axis shards dim A or B, partially sums, or is replicated
    (the collapse mask); the op's own axes are drawn to fit its rules.
    """
    shape = draw(st.sampled_from(MESHES))
    need = {"all_gather": "A", "all_to_all": "A", "reduce_scatter": "psum",
            "all_reduce": "psum", "split": "rep"}.get(op)
    roles = [draw(st.sampled_from(["A", "B", "psum", "rep"]))
             for _ in AXES]
    if op == "global":
        roles = ["rep" if r == "psum" else r for r in roles]
    if need is not None and need not in roles:
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
    shards = rng.standard_normal(grid + tuple(local))
    shards *= 10.0 ** rng.integers(-4, 5, shards.shape)
    return shape, spec, gshape, shards, args


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


@given(st.sampled_from(sorted(OPS)).flatmap(
    lambda op: st.tuples(st.just(op), operands(op))))
def test_collective_matches_loop_twin(case):
    op, (shape, spec, gshape, shards, args) = case
    s, l = twins(shape, spec, gshape, shards)
    got = OPS[op](s, *args)
    assert_twins(got, OPS[op](l, *args))
    if op in INDEXED:
        dim_idx = spec.dim_index(args[1]) if len(args) > 1 else None
        run = stacked.indexed_collective(s.mesh, (op, args[0], dim_idx),
                                         shards.shape)
        if run is not None:
            replay = stacked.prebind_collective_indexed(run, shards.dtype,
                                                        scratch={})
            assert same_bits(replay(shards), got.shards)


INDEXED_OPS = st.sampled_from(INDEXED).flatmap(
    lambda op: st.tuples(st.just(op), operands(op)))


def assert_device_twins(got: ShardedTensor, want: ShardedTensor):
    """Bit-equal on every device, whatever grid ``got`` holds."""
    assert (got.spec, got.global_shape) == (want.spec, want.global_shape)
    wide = every_device(got)
    for coord in want.mesh.devices():
        assert same_bits(np.array(wide[coord]), want.shards[coord])


@given(INDEXED_OPS, st.data())
def test_fault_widened_operand_matches_loop_twin(case, data):
    op, (shape, spec, gshape, shards, args) = case
    s = widened(ShardedTensor(VirtualMesh(shape, "stacked"), spec, gshape,
                              shards))
    chip = data.draw(st.tuples(*(st.integers(0, n - 1) for n in shape)))
    s.shards[chip] += 1.0  # one chip's copy corrupted
    s, l = twins(shape, spec, gshape, s.shards)
    assert_device_twins(OPS[op](s, *args), OPS[op](l, *args))


@given(INDEXED_OPS)
def test_above_table_limit_runs_group_kernel(case):
    op, (shape, spec, gshape, shards, args) = case
    s, l = twins(shape, spec, gshape, shards)
    ran = []
    kernel = getattr(stacked, op)

    def spy(*a):
        ran.append(op)
        return kernel(*a)

    memo = stacked._collective_index_table.cache_info()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stacked, "_INDEXED_COLLECTIVE_LIMIT",
                      math.prod(shape) * math.prod(shards.shape[3:]) - 1)
        patch.setattr(stacked, op, spy)
        got = OPS[op](s, *args)
    assert ran == [op]
    assert stacked._collective_index_table.cache_info()[:2] == memo[:2]
    assert_twins(got, OPS[op](l, *args))


@given(operands("global"), st.booleans())
def test_global_conversions_match_loop_twin(case, with_psum):
    shape, spec, gshape, shards, _ = case
    array = np.random.default_rng(0).standard_normal(gshape)
    s_mesh = VirtualMesh(shape, "stacked")
    got = ShardedTensor.from_global(s_mesh, array, spec)
    assert_twins(got, ShardedTensor.from_global(VirtualMesh(shape, "loop"),
                                                array, spec))
    run = stacked.prebind_from_global(s_mesh, spec, gshape, got.local_shape,
                                      array.dtype)
    assert same_bits(run(array), got.shards)

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
    s, l = twins(shape, spec, gshape, shards)
    want = l.to_global()
    assert same_bits(s.to_global(), want)
    assert same_bits(stacked.prebind_to_global(spec, gshape, shards.shape)(
        shards), want)
