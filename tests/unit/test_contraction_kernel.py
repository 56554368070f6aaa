"""The one contraction kernel, :func:`repro.mesh.stacked.contract`.

Every weight contraction the sharded model issues runs as one BLAS
``np.matmul`` over the device grid, and the loop backend and captured
replay run the same product, so their bits agree by construction:

* dispatch depends on the subscripts alone: each of the model's six
  weight subscripts is a matrix product (the logits head's transposed),
  and a row-wise dot or an attention contraction is not;
* on 2x2x2 and 4x4x4 grids the stacked result equals the per-device
  (loop) result bit for bit, with replicated operands held as stride-0
  broadcasts or collapsed to size-1 grid axes, and with an output
  buffer;
* the logits head — the transposed form, whose kernel a contiguous copy
  of the embedding would change — gives the same bits eagerly on both
  backends and in a captured replay.
"""

import itertools

import numpy as np
import pytest

from repro.layouts import ShardedTransformer
from repro.mesh import VirtualMesh
from repro.mesh.capture import capture_decode_step
from repro.mesh.stacked import contract, matmul_form
from repro.model import init_weights, tiny_test_config
from repro.partitioning import AttentionLayoutKind, FfnLayoutKind, LayoutPlan

#: The weight contractions of ``ShardedTransformer`` -> ``(k, transposed)``.
WEIGHT_SUBSCRIPTS = {
    "ble,ef->blf": (1, False),
    "ble,ehd->blhd": (1, False),
    "ble,ekd->blkd": (1, False),
    "blf,fe->ble": (1, False),
    "blhd,hde->ble": (2, False),
    "ble,ve->blv": (1, True),
}
LOCAL = dict(b=2, l=3, e=8, f=6, h=2, d=4, k=1, v=5)


def parse(subscripts):
    inputs, out = subscripts.split("->")
    lhs, rhs = inputs.split(",")
    return lhs, rhs, out


def bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.mark.parametrize("subscripts", WEIGHT_SUBSCRIPTS)
def test_weight_contractions_are_matrix_products(subscripts):
    assert matmul_form(*parse(subscripts)) == WEIGHT_SUBSCRIPTS[subscripts]


@pytest.mark.parametrize("subscripts", [
    "ble,ble->bl",          # the norm's sum of squares
    "blhd,bmhd->bhlm",      # attention scores
    "bhlm,bmhd->blhd",      # attention-weighted values
])
def test_other_contractions_stay_on_einsum(subscripts):
    assert matmul_form(*parse(subscripts)) is None


def operands(grid, subscripts, rng):
    lhs, rhs, _ = parse(subscripts)
    a = rng.standard_normal(grid + tuple(LOCAL[c] for c in lhs))
    b = rng.standard_normal(grid + tuple(LOCAL[c] for c in rhs))
    return a, b


def per_device(letters, a, b, grid):
    """The loop backend's result: one product per device coordinate."""
    out = None
    for coord in itertools.product(*map(range, grid)):
        ca = a[tuple(min(i, n - 1) for i, n in zip(coord, a.shape))]
        cb = b[tuple(min(i, n - 1) for i, n in zip(coord, b.shape))]
        one = contract(*letters, ca, cb)
        if out is None:
            out = np.empty(grid + one.shape)
        out[coord] = one
    return out


@pytest.mark.parametrize("grid", [(2, 2, 2), (4, 4, 4)])
@pytest.mark.parametrize("subscripts", list(WEIGHT_SUBSCRIPTS)
                         + ["ble,ble->bl"])
def test_stacked_equals_per_device(grid, subscripts):
    letters = parse(subscripts)
    a, b = operands(grid, subscripts, np.random.default_rng(len(grid)))
    want = per_device(letters, a, b, grid)
    assert bits_equal(contract(*letters, a, b), want)
    out = np.empty(want.shape)
    assert contract(*letters, a, b, out=out) is out
    assert bits_equal(out, want)


@pytest.mark.parametrize("grid", [(2, 2, 2), (4, 4, 4)])
@pytest.mark.parametrize("subscripts", WEIGHT_SUBSCRIPTS)
@pytest.mark.parametrize("rep_axes", [(0,), (1, 2), (0, 1, 2)])
def test_replicated_operands_stride_zero_and_collapsed(grid, subscripts,
                                                       rep_axes):
    """An activation replicated on ``rep_axes``: held as a stride-0
    broadcast of one copy, or collapsed to size 1 on those axes (as a
    captured program holds it), it gives the per-device bits."""
    letters = parse(subscripts)
    a, b = operands(grid, subscripts, np.random.default_rng(7))
    one = a[tuple(slice(0, 1) if i in rep_axes else slice(None)
                  for i in range(3))]
    full = np.ascontiguousarray(np.broadcast_to(one, a.shape))
    want = per_device(letters, full, b, grid)
    broadcast = np.broadcast_to(one, a.shape)
    assert 0 in broadcast.strides[:3]
    assert bits_equal(contract(*letters, broadcast, b), want)
    assert bits_equal(contract(*letters, one, b), want)


CFG = tiny_test_config(n_layers=1, d_model=16, d_ff=32, n_heads=8,
                       d_head=8, vocab_size=32)
PLAN = LayoutPlan(FfnLayoutKind.WS_1D, AttentionLayoutKind.HEAD)


@pytest.mark.parametrize("batch", [1, 3])
def test_logits_head_same_bits_eager_loop_and_replay(batch):
    weights = init_weights(CFG, seed=0)
    prompt = np.random.default_rng(batch).integers(0, 32, size=(batch, 4))
    runs = {}
    for backend in ("loop", "stacked"):
        model = ShardedTransformer(weights, VirtualMesh((2, 2, 2), backend),
                                   PLAN)
        logits, caches = model.prefill(prompt, 8)
        tok = np.argmax(logits, -1)
        _, replay_caches = model.prefill(prompt, 8)
        _, program = capture_decode_step(model, tok, replay_caches)
        eager = model.decode_step(tok, caches)
        runs[backend] = (logits, eager)
        # The captured step advanced the replay caches: step both on.
        tok = np.argmax(eager, -1)
        assert bits_equal(program.replay(tok, replay_caches),
                          model.decode_step(tok, caches))
    for a, b in zip(runs["loop"], runs["stacked"]):
        assert bits_equal(a, b)
