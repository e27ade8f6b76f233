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
