import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cobarlab
from cobarlab.cli import main
from cobarlab.simplicial import fixture
from cobarlab.ssetfile import save
from test_ssetfile import PROBES


def test_validate_fixture(capsys):
    assert main(["validate", "S2"]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_file(tmp_path, capsys):
    path = tmp_path / "s2.sset"
    save(path, fixture("S2"))
    assert main(["validate", str(path)]) == 0


def test_validate_corrupt_file_exits_1(tmp_path, capsys):
    sset = fixture("Delta2")
    sset.faces[("0.1.2", 0)] = sset.faces[("0.1.2", 2)]  # breaks d_i d_j
    path = tmp_path / "bad.sset"
    # serialize tolerates the bad table; validation must catch it
    save(path, sset)
    assert main(["validate", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_unreadable_input_exits_2(capsys):
    assert main(["validate", "no-such-fixture"]) == 2
    assert capsys.readouterr().err == ("error: 'no-such-fixture' is neither a"
                                       " readable file nor a known fixture\n")


@pytest.mark.parametrize("name,reason", [
    ("S1", "need n >= 2"),
    ("D10sk1", "m <= 9, not 10"),
])
def test_fixture_builder_reason_is_printed(name, reason, capsys):
    # a name that a fixture pattern matches reports why its builder refused
    assert main(["validate", name]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: ") and reason in err
    assert "neither" not in err and "Traceback" not in err


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.sset"
    path.write_text("sset X\ngen a dim=zebra\n")
    assert main(["validate", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["validate"], ["homology"], ["cobar"], ["szczarba", "--simplex", "x"]],
    ids=["validate", "homology", "cobar", "szczarba"])
@pytest.mark.parametrize("kind", ["directory", "non-utf-8"])
def test_unreadable_file_exits_2(command, kind, tmp_path, capsys):
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / "latin1.sset"
        path.write_bytes("sset X\n# caf\xe9\n".encode("latin-1"))
    assert main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_homology_output(capsys):
    assert main(["homology", "S3", "--max-dim", "3"]) == 0
    out = capsys.readouterr().out
    assert "H_0(S3) = Z" in out
    assert "H_3(S3) = Z" in out
    assert "H_1(S3) = 0" in out


@pytest.mark.parametrize("name, top", [("Delta3", 2), ("D4sk1", 3)])
def test_homology_top_degree_sees_the_next_cells(name, top, capsys):
    # H_top needs the (top+1)-cells; a complex cut at top reads H_top = Z
    assert main(["homology", name, "--max-dim", str(top)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"H_{top}({name}) = 0"
    assert len(lines) == top + 1


def test_triangulate_report(capsys):
    assert main(["triangulate", "--fixture", "cube2"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["triangulate", "--fixture", "mystery"]) == 2


def test_cobar_report(capsys):
    assert main(["cobar", "S2", "--max-deg", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_szczarba_words(capsys):
    assert main(["szczarba", "S2", "--simplex", "sigma"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t(sigma) = ")
    assert main(["szczarba", "S2", "--simplex", "missing"]) == 2
    capsys.readouterr()
    # a 4-simplex: the six permutations of S_3, one term each
    assert main(["szczarba", "D4sk1", "--simplex", "01234"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t(01234) = ")
    terms = out.split(" = ", 1)[1].replace(" - ", " + ").split(" + ")
    assert len(terms) == 6


@pytest.mark.parametrize("argv, message", [
    (["szczarba", "Delta2", "--simplex", "0.1.2"],
     "the loop group needs a reduced input"),
    (["cobar", "Delta2"], "the cobar construction needs a 1-reduced input"),
    (["triangulate", "--fixture", "cobar-Delta2"],
     "the cobar construction needs a 1-reduced input"),
])
def test_input_that_is_not_reduced_exits_2(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: Delta2: {message}\n"


def test_verify_suite_with_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["verify", "--suite", "combinatorics",
                 "--json-out", str(out_path)]) == 0
    text = capsys.readouterr().out
    data = json.loads(out_path.read_text())
    assert data["suite"] == "combinatorics"
    statuses = {c["name"]: c["status"] for c in data["checks"]}
    assert statuses and all(s == "pass" for s in statuses.values())
    # the renderings agree on statuses
    for name, status in statuses.items():
        assert f"[{status:4s}] {name}" in text


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "astrology"]) == 2


def test_environment_sets_no_dimension(monkeypatch, capsys):
    monkeypatch.setenv("COBARLAB_MAX_DIM", "2")
    assert main(["validate", "S2"]) == 0
    assert capsys.readouterr().out == "S2: valid up to dimension 4\n"


@pytest.mark.parametrize("command", [["validate"], ["cobar"],
                                     ["szczarba", "--simplex", "c"]])
@pytest.mark.parametrize("name", sorted(PROBES))
def test_contradicted_header_claim_exits_2(name, command, tmp_path, capsys):
    path = tmp_path / f"{name}.sset"
    path.write_text(PROBES[name])
    assert main([command[0], str(path), *command[1:]]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: line 1: header claims ")


def test_reducedness_is_read_from_the_generators(tmp_path, capsys):
    # TwoLoopsCell is reduced whether or not its header says so
    saved = tmp_path / "TwoLoopsCell.sset"
    save(saved, fixture("TwoLoopsCell"))
    path = tmp_path / "unflagged.sset"
    path.write_text(saved.read_text().replace(" reduced\n", "\n", 1))
    assert main(["szczarba", str(saved), "--simplex", "T"]) == 0
    want = capsys.readouterr().out
    assert main(["szczarba", str(path), "--simplex", "T"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name", ["Delta-1", "Delta-2"])
def test_negative_simplex_fixture_exits_2(name, capsys):
    # a simplex of negative dimension has nothing to check, so it must not
    # pass as valid
    assert main(["validate", name]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["S 3", "S+3", "S3 ", "S02", "Delta02",
                                  "Delta 2", "S", "Delta", "D04sk1", "D4sk01",
                                  "D4sk", "Dsk1"])
def test_noncanonical_fixture_name_exits_2(name, capsys):
    with pytest.raises(ValueError, match="unknown fixture"):
        fixture(name)
    assert main(["validate", name]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["cubeX", "cube2xY", "cube", "cube1x2x3",
                                  "cube02", "cube1x01", "cube01x1"])
def test_bad_cube_fixture_exits_2(name, capsys):
    assert main(["triangulate", "--fixture", name]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("m,k", [(4, 1), (5, 1), (5, 2)])
def test_collapsed_simplex_is_a_wedge_of_spheres(m, k, capsys):
    # Delta^m/sk_k is a wedge of C(m, k + 1) spheres S^(k+1)
    assert main(["homology", f"D{m}sk{k}", "--max-dim", str(k + 1)]) == 0
    lines = capsys.readouterr().out.splitlines()
    top = " + ".join(["Z"] * math.comb(m, k + 1))
    assert lines == [f"H_{n}(D{m}sk{k}) = {h}" for n, h in
                     enumerate(["Z"] + ["0"] * k + [top])]


def test_homology_refuses_an_invalid_presentation(tmp_path, capsys):
    # the faces of 012 are 01, 02, 01: d_0 d_1 is vertex 2, d_0 d_0 vertex 1
    path = tmp_path / "bad.sset"
    path.write_text("sset Bad\n"
                    "gen 0 dim=0\ngen 1 dim=0\ngen 2 dim=0\n"
                    "gen 01 dim=1\ngen 02 dim=1\ngen 12 dim=1\n"
                    "gen 012 dim=2\n"
                    "face 01 0 = 1\nface 01 1 = 0\n"
                    "face 02 0 = 2\nface 02 1 = 0\n"
                    "face 12 0 = 2\nface 12 1 = 1\n"
                    "face 012 0 = 01\nface 012 1 = 02\nface 012 2 = 01\n")
    assert main(["validate", str(path)]) == 1
    witness = ("{'identity': 'dd', 'x': 012, 'i': 0, 'j': 1, 'lhs': 2,"
               " 'rhs': 1}")
    assert capsys.readouterr().out == f"Bad: INVALID: {witness}\n"
    assert main(["homology", str(path), "--max-dim", "2"]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: Bad: INVALID: {witness}\n"
    assert out.out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "cubical", "--max-dim", "-1"],
    ["triangulate", "--fixture", "cube1", "--max-dim", "-1"],
    ["homology", "S2", "--max-dim", "-1"],
    ["validate", "S2", "--max-dim", "-1"],
    ["cobar", "S2", "--max-deg", "-1"],
])
def test_negative_dimension_exits_2(argv, capsys):
    assert main(argv) == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["cube-lemmas", "cobar-iso",
                                   "szczarba-contract", "main-theorem", "all"])
def test_verify_refuses_degree_zero_where_nothing_is_checked(suite, capsys):
    # the Szczarba side enumerates nothing below degree 1, nor do the cube
    # lemmas' pushforward checks, so a report there would pass vacuously;
    # nothing runs before the refusal
    assert main(["verify", "--suite", suite, "--max-dim", "0"]) == 2
    out = capsys.readouterr()
    assert "checks nothing below degree 1" in out.err
    assert out.out == ""


@pytest.mark.parametrize("argv", [
    ["triangulate", "--fixture", "cube2", "--max-dim", "0"],
    ["cobar", "S2", "--max-deg", "0"],
], ids=["triangulate", "cobar"])
def test_comparisons_refuse_degree_zero(argv, capsys):
    # quasi-iso runs over range(max_dim) and the cobar comparison has no
    # word to compare at degree 0, so a report there would pass vacuously
    assert main(argv) == 2
    out = capsys.readouterr()
    assert "checks nothing below degree 1" in out.err
    assert out.out == ""


@pytest.mark.parametrize("fixture", ["cube1", "cube1x1"])
def test_triangulate_refuses_cubes_past_the_byte_codes(fixture, capsys):
    # a standard cube's cells have dimension at most 7, and the
    # triangulation through degree d reads cubes of dimension d
    assert main(["triangulate", "--fixture", fixture, "--max-dim", "7"]) == 0
    capsys.readouterr()
    assert main(["triangulate", "--fixture", fixture, "--max-dim", "8"]) == 2
    out = capsys.readouterr()
    assert "triangulates through degree 7 at most" in out.err
    assert out.out == ""


@pytest.mark.parametrize("suite, degree", [
    ("cubical", "6"), ("cubical", "9"), ("all", "6")])
def test_verify_refuses_cubical_degrees_past_the_byte_codes(suite, degree,
                                                            capsys):
    # standard-cube-d validates through d, which reads cells of dimension
    # d + 2, at most 7; nothing runs before the refusal
    assert main(["verify", "--suite", suite, "--max-dim", degree]) == 2
    out = capsys.readouterr()
    assert out.err == (f"error: suite 'cubical' checks through degree 5 at"
                       f" most; got {degree}\n")
    assert out.out == ""


def test_cubical_degree_refusal_ends_without_traceback():
    src = Path(cobarlab.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "cobarlab.cli", "verify", "--suite", "all",
         "--max-dim", "6"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: suite 'cubical' checks through")
    assert proc.stdout == ""


@pytest.mark.parametrize("suite", ["cube-lemmas", "cobar-iso",
                                   "szczarba-contract", "main-theorem"])
def test_verify_runs_at_degree_one(suite, capsys):
    assert main(["verify", "--suite", suite, "--max-dim", "1"]) == 0
    assert f"suite {suite}: PASS" in capsys.readouterr().out


def test_verify_all_keeps_every_suite_in_json(tmp_path, monkeypatch, capsys):
    from cobarlab import verify
    from cobarlab.verdict import Verdict

    def suite(name):
        return verify.Suite(lambda d: [(f"{name}-check", Verdict.passed)], 0)

    monkeypatch.setattr(verify, "SUITES", {"alpha": suite("alpha"),
                                           "beta": suite("beta")})
    out_path = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", "--json-out", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert [r["suite"] for r in data["suites"]] == ["alpha", "beta"]
    assert [r["checks"][0]["name"] for r in data["suites"]] == [
        "alpha-check", "beta-check"]
    text = capsys.readouterr().out
    assert "suite alpha: PASS" in text and "suite beta: PASS" in text


@pytest.mark.parametrize("suite", ["main-theorem", "all"])
def test_verify_runs_beyond_degree_two(suite, monkeypatch, capsys):
    from cobarlab import verify
    from cobarlab.verdict import Verdict

    seen = []

    def stub(d):
        seen.append(d)
        return [("stub-check", Verdict.passed)]

    monkeypatch.setattr(verify, "SUITES",
                        {"main-theorem": verify.Suite(stub, 2, 1)})
    assert main(["verify", "--suite", suite, "--max-dim", "3"]) == 0
    assert seen == [3]
    assert "suite main-theorem: PASS" in capsys.readouterr().out


def test_verify_profile_writes_to_stderr_only(tmp_path, capsys):
    # the profile goes to stderr; the report on stdout and in the JSON file
    # is the one a run without --profile writes, up to its timings
    def run(*extra):
        out_path = tmp_path / f"report{len(extra)}.json"
        assert main(["verify", "--suite", "cube-lemmas", "--max-dim", "2",
                     "--json-out", str(out_path), *extra]) == 0
        out = capsys.readouterr()
        data = json.loads(out_path.read_text())
        data.pop("setup_ms")
        for check in data["checks"]:
            check.pop("millis")
        return re.sub(r"\((setup )?\d+ ms\)", "", out.out), data, out.err

    plain_out, plain_json, plain_err = run()
    out, data, err = run("--profile")
    assert (out, data) == (plain_out, plain_json)
    assert plain_err == ""
    assert "Ordered by: cumulative time" in err
    assert "List reduced from" in err and "due to restriction <20>" in err
    assert "verify.py" in err and "(run_suite)" in err


def test_closed_stdout_ends_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line
    src = Path(cobarlab.__file__).parent.parent
    with os.fdopen(write_end, "wb") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "cobarlab.cli", "verify", "--suite",
             "combinatorics"],
            stdout=stdout, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.stderr == ""
    assert proc.returncode == 141


JSON_COMMANDS = {
    "verify": ["verify", "--suite", "main-theorem"],
    "cobar": ["cobar", "S2"],
    "triangulate": ["triangulate", "--fixture", "cube1"],
}


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", sorted(JSON_COMMANDS))
def test_unwritable_json_out_is_refused_before_any_check(
        command, where, tmp_path, monkeypatch, capsys):
    from cobarlab import verify

    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "run_checks", no_check)
    monkeypatch.setattr(verify, "run_suite", no_check)
    target = (tmp_path / "missing" / "x.json" if where == "missing-directory"
              else tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main([*JSON_COMMANDS[command], "--json-out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --json-out ") and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", sorted(JSON_COMMANDS))
def test_writable_json_out_is_written(command, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main([*JSON_COMMANDS[command], "--json-out", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["checks"]
