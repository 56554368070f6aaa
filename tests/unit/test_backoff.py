"""The shared seeded backoff schedules (``repro.serving.backoff``).

The transactional KV handoff's retry loop runs on a virtual clock, so
its backoff must be a pure function of its inputs.  These tests pin the
exponential envelope, the jitter window and the seeding contract.
"""

import math

import pytest

from repro.serving.backoff import exponential_backoff_s, jittered_backoff_s


class TestExponential:
    def test_doubles_per_attempt(self):
        waits = [exponential_backoff_s(a, base_s=0.05)
                 for a in (1, 2, 3, 4)]
        assert waits == [0.05, 0.1, 0.2, 0.4]

    def test_custom_factor(self):
        assert exponential_backoff_s(3, base_s=1.0, factor=3.0) == 9.0

    def test_max_s_caps_the_schedule(self):
        assert exponential_backoff_s(10, base_s=1.0, max_s=5.0) == 5.0

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            exponential_backoff_s(0, base_s=0.1)

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError, match="base_s"):
            exponential_backoff_s(1, base_s=-0.1)


class TestJittered:
    def test_pure_function_of_seed_key_attempt(self):
        a = jittered_backoff_s(2, base_s=0.1, seed=7, key=3)
        b = jittered_backoff_s(2, base_s=0.1, seed=7, key=3)
        assert a == b

    def test_within_the_jitter_window(self):
        for attempt in range(1, 6):
            env = exponential_backoff_s(attempt, base_s=0.1)
            wait = jittered_backoff_s(attempt, base_s=0.1, jitter=0.5,
                                      seed=11, key=attempt)
            assert (1 - 0.5) * env <= wait <= env

    def test_zero_jitter_is_the_exponential_schedule(self):
        for attempt in (1, 2, 3):
            assert jittered_backoff_s(attempt, base_s=0.1, jitter=0.0) \
                == exponential_backoff_s(attempt, base_s=0.1)

    def test_distinct_keys_desynchronize(self):
        waits = {jittered_backoff_s(2, base_s=0.1, seed=0, key=k)
                 for k in range(16)}
        assert len(waits) > 1

    def test_distinct_seeds_diverge(self):
        assert jittered_backoff_s(2, base_s=0.1, seed=0, key=5) != \
            jittered_backoff_s(2, base_s=0.1, seed=1, key=5)

    def test_max_s_caps_the_envelope(self):
        wait = jittered_backoff_s(12, base_s=1.0, max_s=2.0, seed=3)
        assert wait <= 2.0

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            jittered_backoff_s(0, base_s=0.1)

    def test_finite(self):
        assert math.isfinite(jittered_backoff_s(30, base_s=0.01))
