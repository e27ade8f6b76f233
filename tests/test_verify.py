import json

import pytest

from cobarlab.verify import SUITES, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name, suite_report):
    report = suite_report(name)
    assert report.ok, report.render()


def test_report_renderings_agree(suite_report):
    report = suite_report("combinatorics")
    data = report.to_dict()
    assert data["suite"] == "combinatorics"
    text = report.render()
    for check in data["checks"]:
        assert f"[{check['status']:4s}] {check['name']}" in text
        assert "millis" in check
    json.dumps(data)  # machine rendering is serializable


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("astrology")
