"""Command-line front end.

Subcommands: ``validate``, ``homology``, ``triangulate``, ``cobar``,
``szczarba`` and ``verify``.  Exit codes: 0 on success, 1 when a check
produces a failing verdict (its witness is printed), 2 on input errors,
141 (as after SIGPIPE) when the reader of the output goes away early.
Operator words exist for every n: ``szczarba`` takes a generator of any
dimension.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import loopgroup, ssetfile, szczarba, verify
from .cobar import CobarSet, compare_models
from .cubes import MAX_CELL_DIM, ProductCubicalSet, StandardCube
from .simplicial import (FIXTURES, canonical_decimal, fixture,
                         simplicial_chains)


class InputError(Exception):
    pass


def _degree(command: str, value, default: int, least: int = 0) -> int:
    """``verify.degree``, its refusal reported as an input error."""
    try:
        return verify.degree(command, value, default, least)
    except ValueError as exc:
        raise InputError(exc)


def _load_sset(source: str):
    if os.path.exists(source):
        try:
            return ssetfile.load(source)
        except (ssetfile.ParseError, OSError, UnicodeDecodeError) as exc:
            raise InputError(f"{source}: {exc}")
    try:
        return fixture(source)
    except ValueError as exc:
        if any(re.fullmatch(pattern, source) for pattern, _ in FIXTURES):
            raise InputError(f"{source}: {exc}")  # the builder's reason
        raise InputError(f"{source!r} is neither a readable file nor a known"
                         " fixture")


def _build(make, sset):
    """``make(sset)``, with its refusal of an input that is not (1-)reduced
    reported as an input error."""
    try:
        return make(sset)
    except ValueError as exc:
        raise InputError(f"{sset.name}: {exc}")


def _cube_dim(text: str, name: str) -> int:
    n = canonical_decimal(text)
    if n is None:
        raise InputError(f"bad cube dimension {text!r} in fixture {name!r}")
    return n


def _cubical_fixture(name: str):
    if name.startswith("cube") and "x" not in name:
        return StandardCube(_cube_dim(name[4:], name))
    if name.startswith("cube") and "x" in name:
        a, _, b = name[4:].partition("x")
        return ProductCubicalSet(StandardCube(_cube_dim(a, name)),
                                 StandardCube(_cube_dim(b, name)))
    if name.startswith("cobar-"):
        return _build(CobarSet, _load_sset(name[6:]))
    raise InputError(f"unknown cubical fixture {name!r}; use cube<n>,"
                     " cube<k>x<l>, or cobar-<sset>")


def _check_json_out(json_out):
    """Refuse a ``--json-out`` path that cannot be written, before any
    check runs; nothing is written."""
    if not json_out:
        return
    parent = os.path.dirname(os.path.abspath(json_out))
    if os.path.isdir(json_out):
        raise InputError(f"--json-out {json_out!r} is a directory")
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise InputError(f"--json-out {json_out!r}: no writable directory"
                         f" {parent!r}")
    if os.path.exists(json_out) and not os.access(json_out, os.W_OK):
        raise InputError(f"--json-out {json_out!r} is not writable")


def _emit(report, json_out):
    print(report.render())
    _write_json([report], json_out)
    return 0 if report.ok else 1


def _write_json(reports, json_out):
    """One document for all reports; a single report keeps its own shape."""
    if not json_out:
        return
    if len(reports) == 1:
        doc = reports[0].to_dict()
    else:
        doc = {"suites": [report.to_dict() for report in reports]}
    with open(json_out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_validate(args) -> int:
    sset = _load_sset(args.input)
    max_dim = _degree("validate", args.max_dim, 4)
    verdict = sset.validate_presentation(max_dim)
    if verdict.ok:
        print(f"{sset.name}: valid up to dimension {max_dim}")
        return 0
    print(f"{sset.name}: INVALID: {verdict.witness!r}")
    return 1


def cmd_homology(args) -> int:
    sset = _load_sset(args.input)
    max_dim = _degree("homology", args.max_dim, 4)
    # H_n needs the (n+1)-cells, so the complex carries one degree more,
    # and the identities must hold through that degree
    verdict = sset.validate_presentation(max_dim + 1)
    if not verdict.ok:
        raise InputError(f"{sset.name}: INVALID: {verdict.witness!r}")
    cx = simplicial_chains(sset, max_dim + 1)
    for n in range(max_dim + 1):
        print(f"H_{n}({sset.name}) = {cx.homology(n)}")
    return 0


def cmd_triangulate(args) -> int:
    _check_json_out(args.json_out)
    cset = _cubical_fixture(args.fixture)
    d = _degree("triangulate", args.max_dim, 3, 1)
    if not isinstance(cset, CobarSet) and d > MAX_CELL_DIM:
        # the triangulation through degree d reads cubes of dimension d
        raise InputError(f"a cube fixture triangulates through degree"
                         f" {MAX_CELL_DIM} at most, the largest dimension"
                         f" of a standard cube's cells; got {d}")
    report = verify.run_checks(
        f"triangulate-{args.fixture}",
        lambda d: [("triangulation",
                    lambda: verify.check_triangulation(cset, d))], d)
    return _emit(report, args.json_out)


def cmd_cobar(args) -> int:
    _check_json_out(args.json_out)
    sset = _load_sset(args.input)
    max_deg = _degree("cobar", args.max_deg, 3, 1)
    _build(CobarSet, sset)  # refuse an input that is not 1-reduced up front
    # the comparison runs as set-up; its verdicts are the checks
    report = verify.run_checks(
        f"cobar-{sset.name}",
        lambda d: [(name, lambda v=v: v)
                   for name, v in compare_models(sset, d)[3].items()],
        max_deg)
    return _emit(report, args.json_out)


def _format_chain(chain) -> str:
    if not chain:
        return "0"
    parts = []
    for word, coeff in sorted(chain.items(), key=repr):
        lead = "" if coeff == 1 else "-" if coeff == -1 else f"{coeff}*"
        parts.append(f"{lead}{word!r}")
    return " + ".join(parts).replace("+ -", "- ")


def cmd_szczarba(args) -> int:
    sset = _load_sset(args.input)
    if args.simplex not in sset.gens:
        raise InputError(f"unknown generator {args.simplex!r}")
    x = sset.simplex((), args.simplex, sset.gens[args.simplex])
    provider = szczarba.SzProvider(_build(loopgroup.LoopGroup, sset))
    print(f"t({x!r}) = {_format_chain(szczarba.t_sz(provider, x))}")
    return 0


def cmd_verify(args) -> int:
    _check_json_out(args.json_out)
    suites = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    for name in suites:
        try:
            verify.check_request(name, args.max_dim)
        except ValueError as exc:
            raise InputError(exc)
    profiler = None
    if args.profile:
        # imported here: pstats loads dataclasses and inspect
        import cProfile
        import pstats
        profiler = cProfile.Profile()
        profiler.enable()
    reports = []
    for name in suites:
        reports.append(verify.run_suite(name, args.max_dim))
        print(reports[-1].render())
    if profiler:
        profiler.disable()
        pstats.Stats(profiler, stream=sys.stderr).sort_stats(
            "cumulative").print_stats(20)
    _write_json(reports, args.json_out)
    return 0 if all(report.ok for report in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobarlab",
        description="exact checks for simplicial/cubical loop-space models")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a presentation file or fixture")
    sp.add_argument("input")
    sp.add_argument("--max-dim", type=int)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("homology", help="integral homology of a presentation")
    sp.add_argument("input")
    sp.add_argument("--max-dim", type=int)
    sp.set_defaults(fn=cmd_homology)

    sp = sub.add_parser("triangulate",
                        help="triangulation checks on a cubical fixture")
    sp.add_argument("--fixture", required=True)
    sp.add_argument("--max-dim", type=int)
    sp.add_argument("--json-out")
    sp.set_defaults(fn=cmd_triangulate)

    sp = sub.add_parser("cobar", help="cobar model comparison on an input")
    sp.add_argument("input")
    sp.add_argument("--max-deg", type=int)
    sp.add_argument("--json-out")
    sp.set_defaults(fn=cmd_cobar)

    sp = sub.add_parser("szczarba",
                        help="print the operator cochain on a generator")
    sp.add_argument("input")
    sp.add_argument("--simplex", required=True)
    sp.set_defaults(fn=cmd_szczarba)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--max-dim", type=int)
    sp.add_argument("--json-out")
    sp.add_argument("--profile", action="store_true",
                    help="print the 20 functions with the most cumulative"
                    " time to stderr")
    sp.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does); stop quietly, and
        # point stdout at devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
