"""Seeded backoff schedules shared by every retry loop in the stack.

The retry loop that backs off is the disaggregated KV-handoff
transaction on the cluster control plane
(:mod:`repro.cluster.control_plane`).
It runs on a *virtual* clock, so its backoff schedule must be a pure
function of its inputs.  Two forms:

* :func:`exponential_backoff_s` — the classic deterministic schedule
  ``base_s * factor ** (attempt - 1)``, capped at ``max_s``.
* :func:`jittered_backoff_s` — the same schedule with *seeded* jitter:
  the delay is drawn uniformly from ``[(1 - jitter) * exp, exp]`` using
  ``numpy``'s ``default_rng`` seeded by ``(seed, key, attempt)``.  Two
  retry loops with different ``key``\\ s (the KV handoff uses the group
  id) de-synchronize instead of thundering-herding, yet every run under
  one seed replays bit-identically.

    >>> exponential_backoff_s(3, base_s=0.05)
    0.2
    >>> jittered_backoff_s(1, base_s=0.1, jitter=0.0)
    0.1
    >>> a = jittered_backoff_s(2, base_s=0.1, seed=7, key=3)
    >>> a == jittered_backoff_s(2, base_s=0.1, seed=7, key=3)
    True
"""

from __future__ import annotations

import math

import numpy as np


def exponential_backoff_s(attempt: int, *, base_s: float,
                          factor: float = 2.0,
                          max_s: float = math.inf) -> float:
    """Deterministic exponential backoff before retry ``attempt``.

    ``attempt`` is 1-based: the first retry waits ``base_s``, each later
    one ``factor`` times longer, never more than ``max_s``.
    """
    if attempt < 1:
        raise ValueError(f"attempt is 1-based, got {attempt}")
    if base_s < 0:
        raise ValueError(f"base_s must be >= 0, got {base_s}")
    return min(base_s * (factor ** (attempt - 1)), max_s)


def jittered_backoff_s(attempt: int, *, base_s: float,
                       factor: float = 2.0, max_s: float = math.inf,
                       jitter: float = 0.5, seed: int = 0,
                       key: int = 0) -> float:
    """Seeded jittered exponential backoff before retry ``attempt``.

    The exponential envelope is :func:`exponential_backoff_s`; the
    returned delay is drawn uniformly from ``[(1 - jitter) * env, env]``
    by a generator seeded with ``(seed, key, attempt)`` — so the
    schedule is a pure function of its arguments (same seed, same key,
    same attempt, same delay) while distinct ``key``\\ s (e.g. distinct
    handoff groups) spread their retries apart.  ``jitter=0`` reduces
    exactly to the deterministic schedule.
    """
    if not 0.0 <= jitter <= 1.0:
        raise ValueError(f"jitter must be in [0, 1], got {jitter}")
    envelope = exponential_backoff_s(attempt, base_s=base_s,
                                     factor=factor, max_s=max_s)
    if jitter == 0.0:
        return envelope
    u = float(np.random.default_rng((seed, key, attempt)).random())
    return envelope * (1.0 - jitter + jitter * u)
