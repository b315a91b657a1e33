"""Fixtures shared by the test files."""

import tracemalloc

import pytest


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
