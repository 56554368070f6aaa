"""Virtual multi-chip execution substrate (stands in for XLA/GSPMD).

``VirtualMesh`` is a grid of numpy devices; ``ShardedTensor`` holds one
shard per device under a Section 3.1 sharding spec; :mod:`repro.mesh.ops`
provides the communication collectives.  ``mesh.comm_log`` (a plain list,
created by :func:`enable_comm_log`) records every collective's per-chip
payload for volume accounting.
"""

from repro.mesh.faults import (
    ChipFailure,
    ChipKill,
    CollectiveCorruption,
    CollectiveFault,
    CollectiveTimeout,
    FaultPlan,
    FaultState,
    MeshFault,
    StragglerFault,
    clear_faults,
    install_fault_plan,
)
from repro.mesh.ops import (
    CommRecord,
    einsum_output_layout,
    all_gather,
    all_reduce,
    all_to_all,
    reduce_scatter,
    sharded_einsum,
    split,
)
from repro.mesh.sharded_tensor import ShardedTensor
from repro.mesh.virtual_mesh import (
    BACKENDS,
    VirtualMesh,
    default_backend,
)


def enable_comm_log(mesh: VirtualMesh) -> list:
    """Attach (or return the existing) communication log to a mesh."""
    if not hasattr(mesh, "comm_log"):
        mesh.comm_log = []
    return mesh.comm_log


__all__ = [
    "BACKENDS",
    "ChipFailure",
    "ChipKill",
    "CollectiveCorruption",
    "CollectiveFault",
    "CollectiveTimeout",
    "CommRecord",
    "FaultPlan",
    "FaultState",
    "MeshFault",
    "StragglerFault",
    "clear_faults",
    "default_backend",
    "install_fault_plan",
    "einsum_output_layout",
    "ShardedTensor",
    "VirtualMesh",
    "all_gather",
    "all_reduce",
    "all_to_all",
    "enable_comm_log",
    "reduce_scatter",
    "sharded_einsum",
    "split",
]
