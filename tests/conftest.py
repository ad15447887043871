"""Session settings: hypothesis draws the same examples on every run.

A derandomized profile seeds each property test from a hash of the test
function (and keeps no example database), so a run's result depends on the
code alone.  The per-test ``@settings`` still choose each test's example count.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
