"""One hypothesis policy for the whole suite: every property test draws
the same examples on every run (``derandomize``), keeps no example
database between runs, and has no deadline, so a slow run fails no test.
A test's own ``@settings`` sets only its ``max_examples``."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
