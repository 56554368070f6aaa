"""Test-side check that the replication a captured program relies on is real.

The stacked tape optimizer (:func:`repro.mesh.replay_opt._collapse_replicas`)
keeps one copy of a value along every mesh axis its sharding spec leaves
replicated, and reads that copy wherever the value is used.  The analysis
reads specs only, never arrays.  The autouse fixture below checks it
against the arrays: after every :meth:`StepRecorder.finalize` in a test
module that imports it, each value the pass collapsed must be
bit-identical along each axis the pass treats as replicated, in the array
the eager step captured.
"""

import numpy as np
import pytest

from repro.mesh.capture import StepRecorder


def replica_mismatches(collapsed) -> list[str]:
    """The collapsed values whose captured copies differ (empty: all
    real).  ``collapsed`` is :attr:`StepRecorder.collapsed`."""
    bad = []
    for vid, (full, axes) in collapsed.items():
        first = full[tuple(slice(0, 1) if i in axes else slice(None)
                           for i in range(3))]
        bits = np.dtype(f"u{full.dtype.itemsize}")
        if not np.array_equal(full.view(bits),
                              np.broadcast_to(first, full.shape).view(bits)):
            bad.append(f"value {vid} differs along device axes "
                       f"{sorted(axes)}")
    return bad


@pytest.fixture(autouse=True)
def collapsed_replicas_are_real(monkeypatch):
    """Check every capture's collapsed values; yields the checked
    ``(recorder, program)`` pairs, in capture order."""
    finalize = StepRecorder.finalize
    checked = []

    def checking(self, *args, **kwargs):
        program = finalize(self, *args, **kwargs)
        assert not replica_mismatches(self.collapsed)
        checked.append((self, program))
        return program

    monkeypatch.setattr(StepRecorder, "finalize", checking)
    yield checked
