"""The one-replica plane releases every prefix-page lease under faults.

Each attempt of a request group runs as a cluster ``GroupRun`` whose
prefills may pin cached prefix pages in the replica's KV store.  Every
exit path — completion or a mesh fault followed by a retry in place —
must unpin them: after ``serve()`` the store pins nothing and its lease
ledger balances.
"""

import numpy as np
import pytest

from repro.mesh.virtual_mesh import BACKENDS
from repro.serving import Request
from tests.integration.test_fault_tolerance import (
    FAULT_MATRIX,
    REQUESTS,
    assert_matches,
    reference,
    serve,
)


def make_requests(shared_prefix):
    if not shared_prefix:
        return REQUESTS
    # A common first page: every prefill after the first takes a lease
    # and holds it through decode, where the faults land.
    head = REQUESTS[0].prompt[:4]
    return [Request(r.request_id, np.concatenate([head, r.prompt[4:]]),
                    r.max_new_tokens) for r in REQUESTS]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shared_prefix", [False, True])
@pytest.mark.parametrize("scenario", sorted(FAULT_MATRIX))
def test_fault_matrix_releases_every_lease(backend, shared_prefix,
                                           scenario):
    fault_plan, replans = FAULT_MATRIX[scenario]
    requests = make_requests(shared_prefix)
    plane, outcomes = serve(requests, backend, fault_plan)
    assert_matches(outcomes, reference(requests))
    stats = plane.replicas[0].kvstore.stats()
    assert stats["pinned_pages"] == 0
    assert stats["releases"] == stats["leases"]
    if shared_prefix or not replans:
        # Shared prefixes hit within an attempt; after a transient fault
        # the store survives and the retry hits the failed attempt's
        # pages.  (A replan empties the store.)
        assert stats["leases"] > 0
