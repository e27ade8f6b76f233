"""The structure layers never reach the loop-group side, the library has
one normalized-chain builder, and importing it stays light.

The modules that the structure checks and the loop-space homology run must
not import ``loopgroup`` or ``szczarba``, at module level or inside a
function, so that what the loop-group side stores never rides along on
their paths.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "cobarlab"
LOWER = ("perms", "snf", "verdict", "chains", "simplicial", "ssetfile",
         "cubes", "simpcube", "triangulate", "cobar")
UPPER = {"loopgroup", "szczarba"}


def imported_modules(tree):
    """The cobarlab modules an ast imports, by their last name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                out.add(node.module.split(".")[-1])
            # ``from . import szczarba`` and ``from cobarlab import szczarba``
            if node.level or (node.module or "").split(".")[0] == "cobarlab":
                out.update(alias.name for alias in node.names)
    return out


def test_the_lower_layers_are_all_present():
    assert {p.stem for p in LIBRARY.glob("*.py")} >= set(LOWER) | UPPER


@pytest.mark.parametrize("module", LOWER)
def test_lower_layer_imports_no_loop_group_module(module):
    tree = ast.parse((LIBRARY / f"{module}.py").read_text(encoding="utf-8"))
    assert not imported_modules(tree) & UPPER


@pytest.mark.parametrize("source,found", [
    ("from .szczarba import sz", {"szczarba"}),
    ("from . import loopgroup", {"loopgroup"}),
    ("def f():\n    from cobarlab import szczarba", {"szczarba"}),
    ("import cobarlab.loopgroup as lg", {"loopgroup"}),
    ("from .chains import Chain", set()),
    ("from collections import Counter", set()),
])
def test_the_guard_sees_every_import_form(source, found):
    assert imported_modules(ast.parse(source)) & UPPER == found


def test_simplicial_imports_no_presentation_file_reader():
    # fixtures are built by generators; the reader of files builds on
    # simplicial, so an import back would be a cycle
    tree = ast.parse((LIBRARY / "simplicial.py").read_text(encoding="utf-8"))
    assert "ssetfile" not in imported_modules(tree)


# ----- import weight ----------------------------------------------------------

def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize, about a tenth of a
    # fresh process's set-up; the record classes are plain slotted classes
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert "dataclasses" not in imported_modules(tree), path.name


def test_importing_the_library_loads_no_dataclasses_or_inspect():
    # compared with a bare interpreter, so that what ``site`` preloads does
    # not count; ``cli`` imports pstats, which loads dataclasses, only
    # where its --profile option is handled
    modules = sorted(p.stem for p in LIBRARY.glob("*.py")
                     if p.stem != "__init__")
    env = dict(os.environ, PYTHONPATH=str(LIBRARY.parent))

    def loaded(imports):
        code = f"import sys\n{imports}\nprint(' '.join(sys.modules))"
        return set(subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  check=True).stdout.split())

    added = (loaded("".join(f"import cobarlab.{m}\n" for m in modules))
             - loaded(""))
    assert f"cobarlab.{modules[0]}" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


# ----- one normalized-chain builder ---------------------------------------------

COMPLEX_MAKERS = {("chains", "normalized_complex"), ("chains", "mapping_cone"),
                  ("cobar", "omega_complex")}


def complex_makers(module, tree):
    """(module, top-level function or class) of each ``ChainComplex(``
    call in an ast."""
    out = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    getattr(func, "id", None))
                if name == "ChainComplex":
                    out.add((module, getattr(top, "name", None)))
    return out


def test_only_the_builder_cone_and_word_complex_make_complexes():
    # the normalized chains of every simplicial and cubical set come from
    # chains.normalized_complex; omega_complex stays an independent model
    found = set()
    for path in sorted(LIBRARY.glob("*.py")):
        found |= complex_makers(path.stem, ast.parse(
            path.read_text(encoding="utf-8")))
    assert found == COMPLEX_MAKERS


@pytest.mark.parametrize("source,found", [
    ("def f():\n    return ChainComplex({}, {})", {("m", "f")}),
    ("def f():\n    return chains.ChainComplex({}, {})", {("m", "f")}),
    ("class C:\n    def g(self):\n        ChainComplex({}, {})", {("m", "C")}),
    ("cx = ChainComplex({}, {})", {("m", None)}),
    ("def f(cx):\n    return cx.basis", set()),
])
def test_the_builder_guard_sees_every_call_form(source, found):
    assert complex_makers("m", ast.parse(source)) == found


# ----- one record base and one intern store ---------------------------------------

def defined_methods(module, tree, names):
    """(module, class, method) of each method named in ``names`` that a
    class of an ast defines, nested classes included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            out.update((module, node.name, item.name) for item in node.body
                       if isinstance(item, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                       and item.name in names)
    return out


def names_used(tree):
    """Every name and attribute name an ast reads."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
            | {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names})


def store_builds_naming_self(tree):
    """The line of each ``Store(...)`` call whose arguments name ``self``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                getattr(func, "id", None))
            args = node.args + [kw.value for kw in node.keywords]
            if name == "Store" and any(
                    isinstance(sub, ast.Name) and sub.id == "self"
                    for arg in args for sub in ast.walk(arg)):
                out.add(node.lineno)
    return out


def library_trees():
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(LIBRARY.glob("*.py"))]


def test_only_the_record_bases_guard_and_pickle_fields():
    # every value type derives its immutability and pickling from
    # verdict.Record and verdict.Frozen
    found = set()
    for module, tree in library_trees():
        found |= defined_methods(
            module, tree, {"__setattr__", "__delattr__", "__reduce__"})
    assert found == {("verdict", "Record", "__reduce__"),
                     ("verdict", "Frozen", "__setattr__"),
                     ("verdict", "Frozen", "__delattr__")}


def test_only_the_store_interns_on_a_miss():
    found = set()
    for module, tree in library_trees():
        found |= defined_methods(module, tree, {"__missing__"})
        assert "defaultdict" not in names_used(tree), module
    assert found == {("verdict", "Store", "__missing__")}


def test_no_store_build_refers_to_its_owner():
    # a build that reads self keeps the owner alive through its own store,
    # a cycle that only the collector frees
    for module, tree in library_trees():
        assert not store_builds_naming_self(tree), module


@pytest.mark.parametrize("source,found", [
    ("class C:\n    def __reduce__(self):\n        pass", {("m", "C")}),
    ("class C:\n    class D:\n        def __setattr__(s, n, v):\n"
     "            pass", {("m", "D")}),
    ("def __delattr__(self, name):\n    pass", set()),
])
def test_the_method_guard_sees_every_class(source, found):
    assert {(m, c) for m, c, _ in defined_methods(
        "m", ast.parse(source),
        {"__setattr__", "__delattr__", "__reduce__"})} == found


@pytest.mark.parametrize("source,found", [
    ("import collections\nd = collections.defaultdict(dict)", True),
    ("from collections import defaultdict", True),
    ("d = {}", False),
])
def test_the_defaultdict_guard_sees_every_form(source, found):
    assert ("defaultdict" in names_used(ast.parse(source))) == found


@pytest.mark.parametrize("source,found", [
    ("s = Store(lambda k: self.build(k))", {1}),
    ("s = verdict.Store(partial(f, self))", {1}),
    ("s = Store(build=lambda k: Store(lambda j: g(self, j)))", {1}),
    ("s = Store(lambda k: Store(partial(CubeMorphism, k, n)))", set()),
    ("s = Store(lambda key: Simplex(*key))", set()),
])
def test_the_store_guard_sees_every_build_form(source, found):
    assert store_builds_naming_self(ast.parse(source)) == found
