"""The library holds only what runs.

Every public function, method and class defined in ``src/cobarlab`` must be
referenced somewhere in ``src/cobarlab`` or ``perfbench``: as a name, as an
attribute, or inside a string that is a dotted identifier (such as the
qualified names in ``perfbench/run.py``'s ``COUNTED``).  A helper that only
tests call belongs in the test module that states it.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "cobarlab"
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

# public definitions that nothing references, and why each stays
ALLOWED = {
    "ssetfile.save": "the writing twin of load, kept with it",
}

# test-only helpers now defined in the tests that state them; a name
# collision (``vertices``, ``evaluate``) would hide some from the scan
MOVED = (
    "simpcube.from_matrix",
    "simpcube.PartitionSimplex.to_matrix",
    "simpcube.PartitionSimplex.vertex",
    "simpcube.PartitionSimplex.vertices",
    "simpcube.PartitionSimplex.part_index",
    "simpcube.PartitionSimplex.bracket",
    "cubes.CubeMorphism.evaluate",
    "perms.identity_perm",
    "triangulate.TriangulatedCubicalSet.reduction_options",
    "chains.tensor_complex",
    "chains.scaled",
    "simplicial.normalized_boundary",
    "simplicial.front_back_diagonal",
    "loopgroup.check_group_identities",
    "snf.smith_normal_form",
    "snf.SNFResult",
    "snf.identity_matrix",
    "cobar.CobarSet.unit",
)


def _scan():
    """The library's definitions (qualified name -> name) and every name
    referenced in the library or the benchmark."""
    defined, used = {}, set()
    for path in sorted(LIBRARY.glob("*.py")) + sorted(
            (ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == LIBRARY:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined[f"{path.stem}.{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            defined[f"{path.stem}.{node.name}.{item.name}"] \
                                = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and DOTTED.fullmatch(node.value)):
                used.update(node.value.split("."))
    return defined, used


DEFINED, USED = _scan()
UNREFERENCED = {qualname for qualname, name in DEFINED.items()
                if not name.startswith("_") and name not in USED}


def test_every_public_definition_is_referenced():
    stray = sorted(UNREFERENCED - set(ALLOWED))
    assert not stray, f"public but referenced by no library code: {stray}"


@pytest.mark.parametrize("qualname", sorted(ALLOWED))
def test_allowlisted_names_are_still_defined_and_unreferenced(qualname):
    assert qualname in UNREFERENCED


@pytest.mark.parametrize("qualname", MOVED)
def test_test_only_helpers_stay_out_of_the_library(qualname):
    assert qualname not in DEFINED, f"{qualname} is back in the library"
