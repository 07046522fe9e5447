"""Shared test settings: one derandomized ``hypothesis`` profile, so every run
draws the same examples and nothing is stored between runs; and ``peak_mib``,
the one measure of memory that memory bounds use."""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None, max_examples=300)
settings.load_profile("derandomized")


def _peak_mib(fn, *args) -> float:
    """The traced peak of ``fn(*args)`` above what was traced when it started, in MiB.

    numpy reports its array buffers to ``tracemalloc``, so this counts every
    array the call makes, including those it returns.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - start) / 2**20


@pytest.fixture
def peak_mib():
    return _peak_mib
