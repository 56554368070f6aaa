"""Per-device views of shards, for tests that index or corrupt devices.

A stacked tensor holds one copy along every mesh axis its spec
replicates, so indexing its shards with a device coordinate on such an
axis is out of range.  Tests that compare or corrupt per-device shards
go through these helpers; on the loop backend both return the shards
as they are.
"""

import numpy as np

from repro.mesh import ShardedTensor


def every_device(t: ShardedTensor) -> np.ndarray:
    """``t``'s shards indexable by every device coordinate: a stacked
    array broadcast (read-only) from its one copy per replicated axis."""
    if not t.is_stacked:
        return t.shards
    return np.broadcast_to(t.shards, t.mesh.shape + t.shards.shape[3:])


def widened(t: ShardedTensor) -> ShardedTensor:
    """``t`` with a writable copy of every device's shard, so a test can
    corrupt one device's copy of a replicated value."""
    if not t.is_stacked:
        return t
    return ShardedTensor(t.mesh, t.spec, t.global_shape,
                         np.array(every_device(t)))
