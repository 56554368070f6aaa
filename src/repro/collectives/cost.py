"""Analytical communication cost model (Appendix A.1).

For an all-gather over ``K`` partitions where each chip produces an output
of size ``D`` bytes::

    T = D / bandwidth * (K - 1) / K

Reduce-scatter is the same with ``D`` the per-chip *input*; an all-reduce
is one of each.  The paper usually approximates ``(K-1)/K ~ 1``; both exact
and approximate forms are provided (``exact=`` flag).  These formulas hold
for most real topologies, including the TPU torus (Chan et al., 2007).

All-to-all shifts sharding between tensor dims via direct (source,
destination) exchange; on a bidirectional torus axis each chip only injects
``D * (K-1)/K`` bytes and transfers travel ~``K/4`` of the ring, so we model
it as ``D/(4*bandwidth) * (K-1)/K`` — 4x cheaper than an all-gather of the
same payload.  The paper uses all-to-all only on tiny Q/K/V tensors
(Section 3.3), so results are insensitive to this constant; tests only rely
on it being <= the all-gather cost.

The ``*_time`` functions are pure in hashable scalars and get called once
per traced collective (the span tracer's modeled durations) and once per
KV handoff (the cluster's transfer pricing), usually with a handful of
distinct argument tuples — so they are memoized with
``functools.lru_cache``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


def _factor(k: int, exact: bool) -> float:
    if k < 1:
        raise ValueError(f"group size must be >= 1, got {k}")
    if k == 1:
        return 0.0
    return (k - 1) / k if exact else 1.0


@lru_cache(maxsize=4096)
def all_gather_time(out_bytes_per_chip: float, group_size: int,
                    bandwidth: float, *, exact: bool = True,
                    alpha: float = 0.0) -> float:
    """Seconds for an all-gather producing ``out_bytes_per_chip`` per chip.

    ``alpha`` is an optional per-hop latency (the alpha-beta extension of
    the paper's pure-bandwidth Appendix A.1 model): a ring collective
    over K chips takes K-1 steps, each paying ``alpha`` regardless of
    payload — which is what makes tiny collectives latency-bound.
    """
    return (out_bytes_per_chip / bandwidth * _factor(group_size, exact)
            + alpha * (group_size - 1))


@lru_cache(maxsize=4096)
def reduce_scatter_time(in_bytes_per_chip: float, group_size: int,
                        bandwidth: float, *, exact: bool = True,
                        alpha: float = 0.0) -> float:
    """Seconds for a reduce-scatter consuming ``in_bytes_per_chip``."""
    return (in_bytes_per_chip / bandwidth * _factor(group_size, exact)
            + alpha * (group_size - 1))


@lru_cache(maxsize=4096)
def all_reduce_time(bytes_per_chip: float, group_size: int,
                    bandwidth: float, *, exact: bool = True,
                    alpha: float = 0.0) -> float:
    """Seconds for an all-reduce (reduce-scatter + all-gather)."""
    return (2 * bytes_per_chip / bandwidth * _factor(group_size, exact)
            + 2 * alpha * (group_size - 1))


@lru_cache(maxsize=4096)
def all_to_all_time(bytes_per_chip: float, group_size: int,
                    bandwidth: float, *, exact: bool = True,
                    alpha: float = 0.0) -> float:
    """Seconds for an all-to-all of ``bytes_per_chip`` per chip."""
    return (bytes_per_chip / (4 * bandwidth) * _factor(group_size, exact)
            + alpha * (group_size - 1))


@dataclass(frozen=True)
class CollectiveCost:
    """A (time, bytes) pair for aggregating layout communication costs."""

    seconds: float = 0.0
    bytes: float = 0.0

    def __add__(self, other: "CollectiveCost") -> "CollectiveCost":
        return CollectiveCost(self.seconds + other.seconds,
                              self.bytes + other.bytes)

    @classmethod
    def zero(cls) -> "CollectiveCost":
        return cls()
