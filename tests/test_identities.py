"""Every identity family of the shared checker fires on a structure
corrupted for that family, so no family can drop out of a table unseen."""

import pytest

from cobarlab.cubes import CubeMorphism, StandardCube, cubical_identities
from cobarlab.loopgroup import LoopGroup, check_group_identities
from cobarlab.simplicial import (Simplex, fixture, nondeg,
                                 simplicial_identities)


def patched(obj, name, wrong):
    """obj whose operator ``name`` answers ``wrong(original, x, *args)``."""
    original = getattr(obj, name)
    setattr(obj, name, lambda x, *args: wrong(original, x, *args))
    return obj


def bad_face_table():
    sset = fixture("Delta2")
    sset.faces[("0.1.2", 0)] = sset.faces[("0.1.2", 2)]
    return sset


S0_VERTEX = Simplex((0,), "0", 0)

SIMPLICIAL = {
    "dd": bad_face_table,
    "ss": lambda: patched(
        fixture("Delta2"), "degeneracy",
        lambda s, x, i: (Simplex((1, 0), "1", 0) if x == S0_VERTEX and i == 1
                         else s(x, i))),
    "ds": lambda: patched(
        fixture("Delta2"), "face",
        lambda d, x, i: nondeg("1", 0) if x == S0_VERTEX and i == 0 else d(x, i)),
}

CONST_0 = CubeMorphism(1, 1, (0,))  # the constant 1-cube at 0


def _folded(y):
    return any(out not in (0, 1) and len(out) > 1 for out in y.outputs)


CUBICAL = {
    "dd": lambda: patched(
        StandardCube(2), "face",
        lambda d, y, e, i: (d(y, 1, 1) if y == CubeMorphism.identity(2)
                            and (e, i) == (0, 1) else d(y, e, i))),
    "ss": lambda: patched(
        StandardCube(1), "degen",
        lambda s, y, i: s(y, 1) if y.source == 1 and i == 2 else s(y, i)),
    "ds": lambda: patched(
        StandardCube(1), "face",
        lambda d, y, e, i: (CubeMorphism(0, 1, (1,)) if y == CONST_0 and e == 1
                            else d(y, e, i))),
    "gg": lambda: patched(
        StandardCube(1), "conn",
        lambda g, y, i: (y.compose(CubeMorphism.sigma(3, 3))
                         if y.source == 2 and i == 2 else g(y, i))),
    "dg": lambda: patched(
        StandardCube(1), "face",
        lambda d, y, e, i: (d(y, 1 - e, i) if y.source == 2 and _folded(y)
                            else d(y, e, i))),
    "gs": lambda: patched(
        StandardCube(1), "conn",
        lambda g, y, i: (CubeMorphism(2, 1, (1,)) if y == CONST_0 and i == 1
                         else g(y, i))),
}


def test_every_family_has_a_corruption():
    assert {row[0] for row in simplicial_identities(3)} == set(SIMPLICIAL)
    assert {row[0] for row in cubical_identities(3)} == set(CUBICAL)


@pytest.mark.parametrize("label", sorted(SIMPLICIAL))
def test_simplicial_family_fires(label):
    verdict = SIMPLICIAL[label]().validate(3)
    assert not verdict.ok
    assert verdict.witness["identity"] == label
    assert {"x", "i", "j", "lhs", "rhs"} <= set(verdict.witness)


@pytest.mark.parametrize("label", sorted(CUBICAL))
def test_cubical_family_fires(label):
    verdict = CUBICAL[label]().validate(2)
    assert not verdict.ok
    assert verdict.witness["identity"] == label
    assert {"y", "i", "j"} <= set(verdict.witness)
    assert "lhs" not in verdict.witness


def _group_case(label):
    """A loop group with one corrupted operator, and the elements on which
    the corruption first breaks the family ``label``."""
    group = LoopGroup(fixture("D4sk1"))
    sset = group.sset
    if label == "dd":
        # only the 3-dimensional word is checked, so the wrong bottom face
        # in dimension 2 is first seen composed with another face
        patched(group, "face",
                lambda d, a, i: group.inv(d(a, i)) if a.n == 2 and i == 0
                else d(a, i))
        return group, [group.tau(x) for x in sset.nondegenerate(4)]
    if label == "ss":
        patched(group, "degeneracy",
                lambda s, a, i: s(a, 0) if a.n == 1 and i == 1 else s(a, i))
    else:
        patched(group, "face",
                lambda d, a, i: d(a, 1) if a.n == 2 and i == 2 else d(a, i))
    return group, [group.tau(x) for n in (2, 3, 4)
                   for x in sset.nondegenerate(n)]


@pytest.mark.parametrize("label", ["dd", "ss", "ds"])
def test_loop_group_family_fires(label):
    group, elements = _group_case(label)
    verdict = check_group_identities(group, elements)
    assert not verdict.ok
    assert verdict.witness["identity"] == label
