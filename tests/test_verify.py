import importlib.util
import json
import pickle
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from cobarlab import loopgroup, perms, szczarba, verify
from cobarlab.cubes import cubical_chains
from cobarlab.verdict import Frozen, Record, Verdict
from cobarlab.verify import SUITES, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name, suite_report):
    report = suite_report(name)
    assert report.ok, report.render()


def _benchmark_workloads():
    """``perfbench/workloads.py``, loaded by path: the library imports
    nothing from the benchmark."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EXPECTED_CHECKS = _benchmark_workloads().EXPECTED_CHECKS


@pytest.mark.parametrize("name", sorted(set(SUITES) | set(EXPECTED_CHECKS)))
def test_suite_checks_are_the_benchmark_checks(name, suite_report):
    # the benchmark's gate counts a missing or extra check as a wrong
    # answer, so adding, dropping or renaming a check fails here first
    names = [check.name for check in suite_report(name).checks]
    assert sorted(names) == sorted(EXPECTED_CHECKS[name])


def test_benchmark_calls_run(monkeypatch):
    # the harness reaches the library by name: a renamed entry point fails
    # here, not in the benchmark; the loop-homology pass and the negative
    # controls take about 0.1 s
    workloads = _benchmark_workloads()
    monkeypatch.setattr(sys, "path", list(sys.path))
    lib = workloads.load_library(Path(__file__).parent.parent)
    outcomes = workloads.negative_controls(lib)
    homology = workloads.WORKLOADS["loop-homology"]
    outcomes += homology.run_pass(lib, homology.setup(lib),
                                  random.Random(1))[0]
    assert len(outcomes) == 14
    assert all(outcome.ok for outcome in outcomes), outcomes


def test_report_renderings_agree(suite_report):
    report = suite_report("combinatorics")
    data = report.to_dict()
    assert data["suite"] == "combinatorics"
    text = report.render()
    for check in data["checks"]:
        assert f"[{check['status']:4s}] {check['name']}" in text
        assert "millis" in check
    json.dumps(data)  # machine rendering is serializable


def test_report_value_semantics():
    # the reprs and renderings of the former dataclasses
    fail = verify.CheckResult("b", "fail", {"identity": "dd"}, 2.25)
    assert repr(fail) == ("CheckResult(name='b', status='fail',"
                          " witness={'identity': 'dd'}, millis=2.25)")
    assert fail == verify.CheckResult(name="b", status="fail",
                                      witness={"identity": "dd"}, millis=2.25)
    assert fail != verify.CheckResult("b", "fail", None, 2.25)
    empty, other = verify.Report("s"), verify.Report("s")
    assert repr(empty) == "Report(suite='s', degree=None, setup_ms=0.0, checks=[])"
    assert empty == other and empty.ok
    empty.checks.append(fail)
    assert other.checks == [] and empty != other
    report = verify.Report("s", 3, 12.5,
                           [fail, verify.CheckResult("a", "pass", None, 0.5)])
    assert report.render() == (
        "suite s: FAIL at degree 3 (setup 12 ms)\n"
        "  [pass] a (0 ms)\n"
        "  [fail] b (2 ms)\n"
        "         witness: {'identity': 'dd'}")
    assert report.to_dict() == {
        "suite": "s", "degree": 3, "setup_ms": 12.5, "checks": [
            {"name": "a", "status": "pass", "millis": 0.5},
            {"name": "b", "status": "fail", "millis": 2.25,
             "witness": "{'identity': 'dd'}"}]}
    for value in (fail, report):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    assert pickle.loads(pickle.dumps(report)) == report


def test_suite_value_semantics():
    suite = SUITES["cube-lemmas"]
    assert repr(suite) == (f"Suite(checks={verify.cube_lemmas_checks!r},"
                           " degree=4, least=1)")
    assert suite == verify.Suite(verify.cube_lemmas_checks, 4, 1)
    assert verify.Suite(print, None) == verify.Suite(print, None, least=0)
    assert suite != verify.Suite(verify.cube_lemmas_checks, 4)
    assert hash(suite) == hash((verify.cube_lemmas_checks, 4, 1))
    assert pickle.loads(pickle.dumps(suite)) == suite
    with pytest.raises(AttributeError):
        suite.degree = 5
    with pytest.raises(AttributeError):
        del suite.least


def test_records_read_their_fields_as_a_tuple():
    # each class reads its fields through one getter: an attrgetter for two
    # fields or more, a one-tuple for one field, the empty tuple for none
    class One(Frozen):
        __slots__ = _fields = ("a",)

        def __init__(self, a):
            object.__setattr__(self, "a", a)

    class Two(Record):
        __slots__ = _fields = ("a", "b")

        def __init__(self, a, b):
            self.a, self.b = a, b

    assert Record()._values() == () and Frozen()._values() == ()
    assert One(1)._values() == (1,) and Two(1, [2])._values() == (1, [2])
    assert One(1) == One(1) and One(1) != One(2)
    assert Two(1, 2) == Two(1, 2) and Two(1, 2) != Two(2, 1)
    assert hash(One(1)) == hash((1,))
    assert One(1).__reduce__() == (One, (1,))
    assert repr(One(1)) == "One(a=1)"
    assert repr(Two(1, [2])) == "Two(a=1, b=[2])"


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("astrology")


@pytest.mark.parametrize("name", ["cube-lemmas", "cobar-iso",
                                  "szczarba-contract", "main-theorem"])
@pytest.mark.parametrize("max_dim", [0, -1])
def test_suite_refuses_a_degree_where_it_checks_nothing(name, max_dim):
    with pytest.raises(ValueError, match="checks nothing below degree 1"):
        run_suite(name, max_dim)


@pytest.mark.parametrize("max_dim, contract, twisting",
                         [(None, 2, 3), (1, 1, 2), (4, 4, 5)])
def test_contract_suite_follows_max_dim(max_dim, contract, twisting,
                                        monkeypatch):
    # the contract runs at the degree, and the twisting check one above it,
    # on the simplices whose words the contract checks
    seen = Counter()

    def counting(name):
        def check(target, n):
            # the rival-convention check runs its own providers, on the
            # rival twist
            group = getattr(target, "group", target)
            if (type(target) in (szczarba.SzProvider, loopgroup.LoopGroup)
                    and group.twist == "standard"):
                seen[name, n] += 1
            return Verdict.passed()
        return check

    monkeypatch.setattr(szczarba, "contract_check", counting("contract"))
    monkeypatch.setattr(loopgroup, "check_twisting", counting("twisting"))
    run_suite("szczarba-contract", max_dim)
    assert seen == {("contract", contract): 3, ("twisting", twisting): 3}


@pytest.mark.parametrize("max_dim, degree", [(None, 1), (1, 1), (2, 1), (3, 2)])
def test_multiplicative_checks_follow_max_dim(max_dim, degree, monkeypatch):
    # products of total degree below the suite's degree, and at least 1
    seen = Counter()

    def multiplicative(f, n):
        seen[n] += 1
        return Verdict.passed()

    passed = lambda *args: Verdict.passed()
    for name in ("build_f", "check_f_simplicial", "main_theorem_check"):
        monkeypatch.setattr(szczarba, name, passed)
    monkeypatch.setattr(szczarba, "word_map", lambda provider, n: None)
    monkeypatch.setattr(szczarba, "check_f_multiplicative", multiplicative)
    monkeypatch.setattr(verify, "check_chain_map", passed)
    monkeypatch.setattr(verify, "check_coalgebra_map", passed)
    assert run_suite("main-theorem", max_dim).ok
    assert seen == {degree: 2}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_refuses_a_degree_below_its_least(name):
    least = SUITES[name].least
    assert run_suite(name, least).ok
    with pytest.raises(ValueError, match="must be >= 0"):
        run_suite(name, -1)
    if least > 0:
        with pytest.raises(ValueError,
                           match=f"checks nothing below degree {least}"):
            run_suite(name, least - 1)


@pytest.mark.parametrize("name, max_dim, degree", [
    ("cube-lemmas", None, 4), ("cube-lemmas", 2, 2),
    ("combinatorics", None, None), ("combinatorics", 3, None)])
def test_report_says_its_degree(name, max_dim, degree):
    report = run_suite(name, max_dim)
    assert report.degree == degree
    data = report.to_dict()
    assert data["degree"] == degree and data["setup_ms"] >= 0
    at = "" if degree is None else f" at degree {degree}"
    assert report.render().startswith(f"suite {name}: PASS{at} (setup ")


def test_report_times_the_setup(monkeypatch):
    # the set-up is building the checks, before the first one runs
    def checks(d):
        time.sleep(0.02)
        return [("quick", Verdict.passed)]

    monkeypatch.setitem(SUITES, "sleepy", verify.Suite(checks, 1))
    report = run_suite("sleepy")
    assert report.setup_ms >= 20 and report.checks[0].millis < 20
    assert report.to_dict()["setup_ms"] >= 20


@pytest.mark.parametrize("max_dim, degree", [(None, 3), (1, 1), (4, 3)])
def test_cubical_cobar_checks_follow_max_dim(max_dim, degree, monkeypatch):
    # the cobar sets and their chains are built at min(3, max_dim)
    seen = Counter()

    def validate(cobar, n):
        seen["validate", n] += 1
        return Verdict.passed()

    def chains(cobar, n):
        seen["chains", n] += 1
        return cubical_chains(cobar, n)

    monkeypatch.setattr(verify.CobarSet, "validate", validate)
    monkeypatch.setattr(verify, "cubical_chains", chains)
    assert run_suite("cubical", max_dim).ok
    assert seen == {("validate", degree): 2, ("chains", degree): 2}


@pytest.mark.parametrize("max_dim, degree", [(None, 3), (1, 1), (4, 3)])
def test_cubical_product_checks_follow_max_dim(max_dim, degree, monkeypatch):
    # the products are validated at min(3, max_dim), as the cobar sets are
    seen = Counter()

    def validate(product, n):
        seen[n] += 1
        return Verdict.passed()

    monkeypatch.setattr(verify.ProductCubicalSet, "validate", validate)
    assert run_suite("cubical", max_dim).ok
    assert seen == {degree: 2}


@pytest.mark.parametrize("name, wrong, label", [
    # a transposition that swaps the wrong pair of letters
    ("transposition", lambda n, j: perms.transposition(n, n - j),
     "descent swap"),
    # a removal that keeps the removed value's slot in the numbering
    ("remove_assignment",
     lambda pi, i: tuple(v for j, v in enumerate(pi, 1) if j != i),
     "bottom face"),
])
def test_index_level_translations_catch_a_wrong_rule(name, wrong, label,
                                                     monkeypatch):
    assert verify.check_xi_split(5).ok
    monkeypatch.setattr(verify, name, wrong)
    verdict = verify.check_xi_split(5)
    assert not verdict.ok
    assert verdict.witness["check"] == label
