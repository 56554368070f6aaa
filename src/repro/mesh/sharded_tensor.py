"""Sharded tensors on a :class:`~repro.mesh.virtual_mesh.VirtualMesh`.

A :class:`ShardedTensor` pairs a sharding spec (Section 3.1 notation) with
per-device numpy shards.  ``from_global``/``to_global`` define the
authoritative layout semantics; ``to_global`` additionally *verifies* that
replicated copies are identical, bit for bit, which catches layout-algebra
bugs in the partitioned model implementations.

Two shard representations are supported, chosen by the mesh backend:

* **loop** — an object array of one numpy array per device, every
  replica its own entry;
* **stacked** — one dense array of the device grid then
  ``local_shape``, holding one copy along every mesh axis the spec
  replicates: the grid is size 1 there and the mesh size elsewhere (see
  :mod:`repro.mesh.stacked`).  The one exception is a value widened to
  the mesh size before fault injection corrupts one chip's copy
  (:meth:`repro.mesh.faults.FaultState.post_collective`), so that
  ``to_global``'s replica check still sees the corruption.

Every device-local kernel runs through one dispatcher, :func:`run_local`:
the kernel acts on trailing axes and broadcasts over leading ones, so it
runs once over the whole device grid when every shard operand is
stacked, and once per device otherwise (the loop backend, or a
hand-built object array on a stacked mesh).  Either way the closure that
ran is the one recorded for replay.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.mesh import stacked as stacked_kernels
from repro.mesh.virtual_mesh import VirtualMesh
from repro.sharding.spec import ShardingError, ShardSpec, parse


def record(mesh: VirtualMesh, fn, inputs: tuple, output, label: str, *,
           collective: bool = False, arena: bool = False,
           meta: tuple | None = None) -> None:
    """Capture-recorder hook (duck-typed like ``tracer``/``fault_state``).

    With a :class:`repro.mesh.capture.StepRecorder` installed as
    ``mesh.capture``, records ``fn`` — a closure over the already
    resolved kernel and its parameters — as one replay instruction
    mapping the input shard arrays to the output shard array.  One
    ``getattr`` when capture is off.  ``meta`` optionally carries the
    resolved op parameters for the tape optimizer.
    """
    recorder = getattr(mesh, "capture", None)
    if recorder is not None:
        recorder.record(fn, inputs, output, label, collective=collective,
                        arena=arena, meta=meta)


def run_local(mesh: VirtualMesh, fn: Callable, shards: Sequence, label: str,
              *, whole: tuple = (), arena: bool = False,
              meta: tuple | None = None, replay: Callable | None = None):
    """Run the device-local kernel ``fn`` and record the closure that ran.

    ``fn(*shards, *whole)`` acts on trailing axes and broadcasts over
    leading ones; ``whole`` holds inputs that are the same on every
    device (the RoPE table), passed as they are.  When every array in
    ``shards`` is stacked, ``fn`` runs once over the device grid and is
    itself recorded, with ``arena`` (``fn`` then also takes ``out=``)
    and ``meta`` for the tape optimizer — or ``replay`` in its place,
    when given.  Otherwise ``fn`` runs once per device and that
    per-device loop is recorded, an opaque instruction to the optimizer.
    Returns the output shards: stacked, a grid that is size 1 wherever
    every operand's is, since ``fn`` broadcasts.
    """
    inputs = tuple(shards) + whole
    if all(stacked_kernels.is_stacked(s) for s in shards):
        out = fn(*inputs)
        record(mesh, replay or fn, inputs, out, label, arena=arena,
               meta=meta)
        return out
    n = len(shards)

    def per_device(*arrays):
        # A stacked operand is read at copy 0 along its size-1 axes.
        return mesh.map_devices(lambda c: fn(*(
            a[tuple(i if m > 1 else 0 for i, m in zip(c, a.shape))]
            for a in arrays[:n]), *arrays[n:]))

    out = per_device(*inputs)
    record(mesh, per_device, inputs, out, label)
    return out


def _loop_from_global(mesh: VirtualMesh, array: np.ndarray, spec: ShardSpec,
                      local: tuple[int, ...]) -> np.ndarray:
    """Loop-backend sharding (see :meth:`ShardedTensor.from_global`)."""
    def make(coord):
        slices = []
        for dim_idx, axes in enumerate(spec.axes):
            rank = mesh.rank_in_group(coord, axes)
            size = local[dim_idx]
            slices.append(slice(rank * size, (rank + 1) * size))
        return np.ascontiguousarray(array[tuple(slices)])
    return mesh.map_devices(make)


def _loop_to_global(mesh: VirtualMesh, spec: ShardSpec,
                    global_shape: tuple[int, ...], shards_in: np.ndarray,
                    check_replication: bool) -> np.ndarray:
    """Loop-backend global reassembly (see :meth:`ShardedTensor.to_global`)."""
    local = spec.local_shape(global_shape, mesh.topology)
    # Representative shard (or running partial sum) per shard position.
    accum: dict[tuple, np.ndarray] = {}
    seen: dict[tuple, np.ndarray] = {}
    for coord in mesh.devices():
        pos = tuple(mesh.rank_in_group(coord, axes) for axes in spec.axes)
        psum_rank = mesh.rank_in_group(coord, spec.partial_sum)
        key = pos + (psum_rank,)
        shard = shards_in[coord]
        if key in seen:
            if check_replication and not stacked_kernels.same_bits(
                    seen[key], shard):
                raise ShardingError(
                    f"replicas disagree at shard position {pos} "
                    f"(partial-sum rank {psum_rank}) for spec {spec}")
            continue
        seen[key] = shard
        if pos in accum:
            accum[pos] = accum[pos] + shard
        else:
            accum[pos] = shard.copy()

    out = np.zeros(global_shape, dtype=next(iter(accum.values())).dtype)
    for pos, shard in accum.items():
        slices = tuple(slice(r * s, (r + 1) * s)
                       for r, s in zip(pos, local))
        out[slices] = shard
    return out


class ShardedTensor:
    """A logically global tensor stored as per-device shards."""

    def __init__(self, mesh: VirtualMesh, spec: ShardSpec,
                 global_shape: Sequence[int], shards: np.ndarray):
        spec.validate(mesh.topology)
        self.mesh = mesh
        self.spec = spec
        self.global_shape = tuple(global_shape)
        self.shards = shards
        expected = spec.local_shape(self.global_shape, mesh.topology)
        if self.is_stacked:
            if shards.shape[3:] != expected or not \
                    stacked_kernels.holds_spec(spec, mesh.shape,
                                               shards.shape[:3]):
                grid = tuple(1 if i in stacked_kernels.replicated_axes(spec)
                             else n for i, n in enumerate(mesh.shape))
                raise ShardingError(
                    f"stacked shards have shape {shards.shape}, spec "
                    f"{spec} with global {self.global_shape} expects "
                    f"{grid + expected}")
            return
        for coord in mesh.devices():
            shard = shards[coord]
            if shard.shape != expected:
                raise ShardingError(
                    f"device {coord} shard has shape {shard.shape}, "
                    f"spec {spec} with global {self.global_shape} "
                    f"expects {expected}")

    @property
    def is_stacked(self) -> bool:
        """True if shards live in one dense array (device axes leading)."""
        return self.shards.dtype != object

    # -- construction -----------------------------------------------------

    @classmethod
    def from_global(cls, mesh: VirtualMesh, array: np.ndarray,
                    spec: ShardSpec | str) -> "ShardedTensor":
        """Shard a global array according to ``spec`` (no partial sums)."""
        if isinstance(spec, str):
            spec = parse(spec)
        if spec.partial_sum:
            raise ShardingError(
                "cannot construct a partial-sum tensor from a global array")
        local = spec.local_shape(array.shape, mesh.topology)
        if mesh.backend == "stacked":
            kernel, meta = (stacked_kernels.from_global,
                            ("from_global", spec, local))
        else:
            kernel, meta = _loop_from_global, None

        def run(global_array):
            return kernel(mesh, global_array, spec, local)

        shards = run(array)
        record(mesh, run, (array,), shards, f"from_global:{spec}",
               meta=meta)
        return cls(mesh, spec, array.shape, shards)

    # -- reassembly ---------------------------------------------------------

    def to_global(self, check_replication: bool = True) -> np.ndarray:
        """Reassemble the global array (summing partial sums).

        With ``check_replication=True`` (the default), raises if devices
        that should hold identical replicas disagree — the key consistency
        invariant of SPMD layouts.
        """
        mesh, spec = self.mesh, self.spec
        gshape = self.global_shape
        if self.is_stacked:
            kernel, meta = stacked_kernels.to_global, ("to_global", spec,
                                                       gshape)
        else:
            kernel, meta = _loop_to_global, None
        out = kernel(mesh, spec, gshape, self.shards, check_replication)
        # Replay skips the replication check: the captured step already
        # verified it, and replay reproduces the same bits by contract.
        record(mesh, lambda s: kernel(mesh, spec, gshape, s, False),
               (self.shards,), out, f"to_global:{spec}", meta=meta)
        return out

    # -- elementwise / structural helpers ----------------------------------

    def __add__(self, other: "ShardedTensor") -> "ShardedTensor":
        if not isinstance(other, ShardedTensor):
            return NotImplemented
        if self.spec != other.spec or self.global_shape != other.global_shape:
            raise ShardingError(
                f"cannot add tensors with specs {self.spec} vs {other.spec}")
        shards = run_local(self.mesh, np.add, (self.shards, other.shards),
                           "add", arena=True, meta=("elementwise",))
        return ShardedTensor(self.mesh, self.spec, self.global_shape, shards)

    @property
    def local_shape(self) -> tuple[int, ...]:
        return self.spec.local_shape(self.global_shape, self.mesh.topology)

    @property
    def per_chip_bytes(self) -> int:
        """Bytes of one device's shard (used by cost accounting)."""
        first = self.shards[0, 0, 0]
        return int(first.nbytes)

    def dim_size(self, dim: str) -> int:
        return self.global_shape[self.spec.dim_index(dim)]

    def __repr__(self) -> str:
        return (f"ShardedTensor({self.spec}, global={self.global_shape}, "
                f"local={self.local_shape}, mesh={self.mesh.shape})")
