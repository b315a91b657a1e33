"""Fixtures shared by the test files."""

import tracemalloc

import pytest
from hypothesis import settings

# Property tests draw the same few examples on every run, with no deadline,
# so Tier-1 stays repeatable and its time bounded.
settings.register_profile("tier1", derandomize=True, max_examples=25, deadline=None,
                          database=None)
settings.load_profile("tier1")


def _run_traced(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced():
    """``traced(fn, *args, **kwargs)`` runs the call under ``tracemalloc``
    and returns its result with the peak traced bytes."""
    return _run_traced
