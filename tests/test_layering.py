"""The structure layers never reach the loop-group side.

The modules that the structure checks and the loop-space homology run must
not import ``loopgroup`` or ``szczarba``, at module level or inside a
function, so that what the loop-group side stores never rides along on
their paths.
"""

import ast
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
