import gc

import pytest

from cobarlab.verify import run_suite


@pytest.fixture(scope="session")
def suite_report():
    """``suite_report(name)`` is the report of the named suite at its
    default dimensions, run once per test session."""
    reports = {}

    def get(name):
        if name not in reports:
            reports[name] = run_suite(name)
        return reports[name]
    return get


@pytest.fixture
def no_collector():
    """Runs the test with the cyclic garbage collector off, so that an
    object kept alive by a reference cycle stays alive."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()
