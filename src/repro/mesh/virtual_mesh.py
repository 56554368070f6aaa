"""A virtual mesh of numpy "chips".

This is the execution substrate that stands in for an XLA/GSPMD TPU slice:
a 3D grid of devices, each holding numpy shards.  All data movement happens
through the collective operations in :mod:`repro.mesh.ops`, which only move
data *within groups along the participating torus axes* — so a program that
runs on the virtual mesh is implementable with exactly the communication
pattern it claims.

Two execution backends share the same semantics:

* ``"loop"`` — one numpy array per device in an object array; collectives
  iterate Python loops over communication groups.  Simple, and the
  semantics oracle for the differential tests.
* ``"stacked"`` — all shards live in one dense array with the three device
  axes leading, and collectives become single whole-mesh numpy ops (see
  :mod:`repro.mesh.stacked`).  Bit-identical to ``"loop"`` and far faster
  on large meshes, because per-device work is batched instead of
  interpreted.

The backend is chosen per mesh: ``VirtualMesh(shape, backend="stacked")``,
with the ``REPRO_MESH_BACKEND`` environment variable as the default.
"""

from __future__ import annotations

import itertools
import os
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.hardware.topology import AXIS_NAMES, Mesh

BACKENDS = ("loop", "stacked")


def default_backend() -> str:
    """The backend used when ``VirtualMesh`` is built without one.

    Controlled by the ``REPRO_MESH_BACKEND`` environment variable so whole
    test suites / benchmarks can be flipped without touching call sites.
    """
    backend = os.environ.get("REPRO_MESH_BACKEND", "loop")
    if backend not in BACKENDS:
        raise ValueError(
            f"REPRO_MESH_BACKEND={backend!r} is not one of {BACKENDS}")
    return backend


class VirtualMesh:
    """A 3D grid of virtual devices with named axes ``x``, ``y``, ``z``."""

    def __init__(self, shape: Sequence[int], backend: str | None = None):
        self.topology = Mesh.from_shape(tuple(shape))
        if backend is None:
            backend = default_backend()
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown mesh backend {backend!r}; choose one of "
                f"{BACKENDS}")
        self.backend = backend
        # Group coordinate lists are pure functions of (shape, axes);
        # they are re-used by every collective call, so derive each once.
        self._groups_cache: dict[tuple[str, ...],
                                 list[list[tuple[int, int, int]]]] = {}

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.topology.shape

    @property
    def num_chips(self) -> int:
        return self.topology.num_chips

    @property
    def axis_names(self) -> tuple[str, str, str]:
        return AXIS_NAMES

    def axis_size(self, axis: str) -> int:
        return self.topology.axis_size(axis)

    def group_size(self, axes: Sequence[str]) -> int:
        return self.topology.group_size(axes)

    def devices(self) -> Iterator[tuple[int, int, int]]:
        return self.topology.devices()

    def axis_indices(self, axes: Sequence[str]) -> tuple[int, ...]:
        return tuple(AXIS_NAMES.index(a) for a in axes)

    def empty_shards(self) -> np.ndarray:
        """An uninitialized object array with one slot per device."""
        return np.empty(self.shape, dtype=object)

    def groups(self, axes: Sequence[str]
               ) -> Iterator[list[tuple[int, int, int]]]:
        """Iterate communication groups for a collective over ``axes``.

        Each group is the list of device coordinates that differ only in the
        given axes; coordinates within a group are ordered row-major over
        ``axes`` (in the order given), which defines shard order for
        gather/scatter semantics.  Group lists are computed once per
        ``axes`` tuple and cached; callers must not mutate them.
        """
        axes = tuple(axes)
        cached = self._groups_cache.get(axes)
        if cached is None:
            cached = self._build_groups(axes)
            self._groups_cache[axes] = cached
        return iter(cached)

    def _build_groups(self, axes: tuple[str, ...]
                      ) -> list[list[tuple[int, int, int]]]:
        part = self.axis_indices(axes)
        rest = [i for i in range(3) if i not in part]
        rest_ranges = [range(self.shape[i]) for i in rest]
        part_ranges = [range(self.shape[i]) for i in part]
        groups = []
        for rest_coords in itertools.product(*rest_ranges):
            group = []
            for part_coords in itertools.product(*part_ranges):
                coord = [0, 0, 0]
                for i, c in zip(rest, rest_coords):
                    coord[i] = c
                for i, c in zip(part, part_coords):
                    coord[i] = c
                group.append(tuple(coord))
            groups.append(group)
        return groups

    def coords_on(self, device: tuple[int, int, int],
                  axes: Sequence[str]) -> tuple[int, ...]:
        """Project a device coordinate onto the given axes."""
        return tuple(device[i] for i in self.axis_indices(axes))

    def rank_in_group(self, device: tuple[int, int, int],
                      axes: Sequence[str]) -> int:
        """Row-major rank of a device within its group along ``axes``."""
        rank = 0
        for axis, coord in zip(axes, self.coords_on(device, axes)):
            rank = rank * self.axis_size(axis) + coord
        return rank

    def install_faults(self, plan, event_log=None):
        """Attach a :class:`~repro.mesh.faults.FaultPlan` to this mesh.

        From then on every collective in :mod:`repro.mesh.ops` consults
        the returned :class:`~repro.mesh.faults.FaultState` — dead chips
        and scheduled collective failures raise typed errors instead of
        silently returning garbage.  Works identically on both backends.
        """
        from repro.mesh.faults import install_fault_plan

        return install_fault_plan(self, plan, event_log)

    def install_tracer(self, chip=None, event_log=None):
        """Attach a :class:`~repro.observability.Tracer` to this mesh.

        From then on every collective and sharded einsum in
        :mod:`repro.mesh.ops` is recorded as a structured span with
        wall-clock timing and the Appendix A.1 modeled cost at ``chip``'s
        constants (default TPU v4).  Works identically on both backends;
        remove with :func:`repro.observability.remove_tracer`.
        """
        from repro.observability.spans import install_tracer

        if chip is None:
            from repro.hardware.chip import TPU_V4

            chip = TPU_V4
        return install_tracer(self, chip=chip, event_log=event_log)

    def map_devices(self, fn: Callable[[tuple[int, int, int]], np.ndarray]
                    ) -> np.ndarray:
        """Build an object array by calling ``fn`` per device coordinate."""
        shards = self.empty_shards()
        for coord in self.devices():
            shards[coord] = fn(coord)
        return shards

    def __repr__(self) -> str:
        return (f"VirtualMesh({self.shape[0]}x{self.shape[1]}x"
                f"{self.shape[2]}, backend={self.backend!r})")
