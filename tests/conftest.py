"""Test-wide settings.

Property tests run under one hypothesis profile: examples are derived from
each test's source rather than drawn at random, no per-example deadline
applies (timings on a shared host vary too much to be a failure), and no
example database is kept, so a run never replays examples saved by an
earlier one and every run of the suite draws the same examples.
"""

from hypothesis import settings

settings.register_profile("flowner", derandomize=True, deadline=None, database=None)
settings.load_profile("flowner")
