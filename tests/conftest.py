"""Shared pytest setup: the hypothesis profile every property test runs under.

The profile is derandomized, so every run draws the same examples in a
bounded time and writes no example database.
"""

from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, database=None, max_examples=40, deadline=None
)
settings.load_profile("tier1")
