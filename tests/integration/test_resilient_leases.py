"""The single-mesh resilient server releases every prefix-page lease.

Each attempt of a request group runs as a cluster ``GroupRun`` whose
prefills may pin cached prefix pages in the replica's KV store.  Every
exit path — completion, a mesh fault, a straggler eviction — must unpin
them: after ``serve()`` the store pins nothing and its lease ledger
balances.
"""

import numpy as np
import pytest

from repro.cluster import ResilientTwoPhaseServer
from repro.mesh import FaultPlan, StragglerFault
from repro.mesh.virtual_mesh import BACKENDS
from repro.serving import Request, RequestStatus, ResilientRequest
from tests.integration.test_fault_tolerance import (
    FAULT_MATRIX,
    REQUESTS,
    WEIGHTS,
)

STRAGGLER = FaultPlan(faults=(
    StragglerFault(chip=(0, 0, 1), slowdown=50.0, delay_s_per_op=1e-3,
                   at_step=1, phase="decode"),))


def make_requests(shared_prefix):
    if not shared_prefix:
        return REQUESTS
    # A common first page: every prefill after the first takes a lease
    # and holds it through decode, where the faults land.
    head = REQUESTS[0].prompt[:4]
    return [Request(r.request_id, np.concatenate([head, r.prompt[4:]]),
                    r.max_new_tokens) for r in REQUESTS]


def assert_no_pinned_pages(server):
    stats = server.replica.kvstore.stats()
    assert stats["pinned_pages"] == 0
    assert stats["releases"] == stats["leases"]
    return stats


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shared_prefix", [False, True])
@pytest.mark.parametrize("scenario", sorted(FAULT_MATRIX))
def test_fault_matrix_releases_every_lease(backend, shared_prefix,
                                           scenario):
    fault_plan, replans = FAULT_MATRIX[scenario]
    server = ResilientTwoPhaseServer(WEIGHTS, (2, 2, 2), backend=backend,
                                     decode_batch=4, fault_plan=fault_plan)
    outcomes = server.serve(make_requests(shared_prefix))
    assert all(o.status is RequestStatus.COMPLETED for o in outcomes)
    stats = assert_no_pinned_pages(server)
    if shared_prefix or not replans:
        # Shared prefixes hit within an attempt; after a transient fault
        # the store survives and the retry hits the failed attempt's
        # pages.  (A replan empties the store.)
        assert stats["leases"] > 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shared_prefix", [False, True])
def test_straggler_eviction_releases_every_lease(backend, shared_prefix):
    requests = make_requests(shared_prefix)
    server = ResilientTwoPhaseServer(WEIGHTS, (2, 2, 2), backend=backend,
                                     decode_batch=4, fault_plan=STRAGGLER)
    outcomes = server.serve(
        [ResilientRequest(r, deadline_s=1.2) for r in requests])
    assert all(o.status is RequestStatus.COMPLETED for o in outcomes)
    assert server.mesh.num_chips < 8  # the eviction happened
    stats = assert_no_pinned_pages(server)
    assert stats["leases"] == (len(requests) - 1 if shared_prefix else 0)
