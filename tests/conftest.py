"""Shared test settings: one hypothesis profile for every property test.

Examples are derandomized and no example database is kept, so a run is
reproducible and leaves no state behind.
"""

from hypothesis import settings

settings.register_profile(
    "unionfit", max_examples=100, deadline=None, derandomize=True, database=None
)
settings.load_profile("unionfit")
