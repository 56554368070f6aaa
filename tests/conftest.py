"""Suite-wide test configuration: deterministic property tests.

Every ``@given`` test runs under the ``deterministic`` Hypothesis
profile by default — examples derandomized (a pure function of the
test) and no example database — so back-to-back runs of the suite draw
the same examples and give the same pass set.  Random exploration is
opt-in through Hypothesis's own pytest option::

    python -m pytest tests --hypothesis-profile=explore

which the non-blocking ``explore`` CI job runs.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True,
                          database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile("deterministic")
