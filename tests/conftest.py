"""Shared test settings: one hypothesis profile for every property test.

Examples are derandomized and no example database is kept, so a run is
reproducible and leaves no state behind.
"""

import pytest
from hypothesis import settings

from unionfit import fitting

settings.register_profile(
    "unionfit", max_examples=100, deadline=None, derandomize=True, database=None
)
settings.load_profile("unionfit")


@pytest.fixture
def ritz_rows(monkeypatch):
    """[kept, left to eigh]: the slices that ``fitting._ritz_pairs``
    certified and those it did not, counted over the test."""
    counts = [0, 0]
    ritz = fitting._ritz_pairs

    def counted(gram, t):
        out = ritz(gram, t)
        kept = 0 if out is None else len(out[0])
        counts[0] += kept
        counts[1] += len(t) - kept
        return out

    monkeypatch.setattr(fitting, "_ritz_pairs", counted)
    return counts
