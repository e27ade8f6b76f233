"""Every identity family of the shared checker fires on a structure
corrupted for that family, so no family can drop out of a table unseen, and
the checker, which reads values from its tables, gives the same verdict as a
reference checker that calls every operator."""

from collections import Counter

import pytest

from cobarlab.cubes import CubeMorphism, StandardCube, cubical_identities
from cobarlab.loopgroup import LoopGroup, check_group_identities
from cobarlab.simplicial import (Simplex, fixture, nondeg,
                                 simplicial_identities)
from cobarlab.verdict import Verdict


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


# a 2-cube of the 3-cube and a face of the identity 3-cube, so at dimension 3
# the checker reads the corrupted faces of this face from its table (the
# 2-cube's own rows break first, at dimension 2)
TWO_CUBE = CubeMorphism(2, 3, ((1,), 0, (2,)))
TABLE_CORRUPTIONS = {
    "2-cube face": lambda: patched(
        StandardCube(3), "face",
        lambda d, y, e, i: d(y, 1 - e, i) if y == TWO_CUBE and i == 2
        else d(y, e, i)),
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


# ----- the reference checker -----------------------------------------------------------


def reference_check(elements, operators, table, key="x", values=True):
    """``check_identities`` as a plain loop nest: every operator of both
    sides of every row is called on every element, and no value is read
    from a table."""
    for n, x in elements:
        for label, fields, lhs, rhs in table(n):
            sides = []
            for word in (lhs, rhs):
                value = x
                for letter, *args in word:
                    value = operators[letter](value, *args)
                sides.append(value)
            if sides[0] != sides[1]:
                witness = {"identity": label, key: x, **fields}
                if values:
                    witness["lhs"], witness["rhs"] = sides
                return Verdict.failed(witness)
    return Verdict.passed()


def reference_simplicial(sset, max_dim):
    return reference_check(
        ((n, x) for n in range(max_dim + 1) for x in sset.simplices(n)),
        {"d": sset.face, "s": sset.degeneracy}, simplicial_identities)


def reference_cubical(cset, max_dim):
    return reference_check(
        ((n, y) for n in range(max_dim + 1) for y in cset.cubes(n)),
        {"d": cset.face, "s": cset.degen, "g": cset.conn},
        cubical_identities, key="y", values=False)


@pytest.mark.parametrize("max_dim", [3, 4])
@pytest.mark.parametrize("label", sorted(SIMPLICIAL))
def test_simplicial_witness_matches_reference(label, max_dim):
    fast = SIMPLICIAL[label]().validate(max_dim)
    assert not fast.ok
    assert repr(fast) == repr(reference_simplicial(SIMPLICIAL[label](),
                                                   max_dim))


@pytest.mark.parametrize("max_dim", [2, 3])
@pytest.mark.parametrize("label", sorted(CUBICAL) + sorted(TABLE_CORRUPTIONS))
def test_cubical_witness_matches_reference(label, max_dim):
    build = {**CUBICAL, **TABLE_CORRUPTIONS}[label]
    fast = build().validate(max_dim)
    assert not fast.ok
    assert repr(fast) == repr(reference_cubical(build(), max_dim))


@pytest.mark.parametrize("label", ["dd", "ss", "ds"])
def test_loop_group_witness_matches_reference(label):
    group, elements = _group_case(label)
    fast = check_group_identities(group, elements)
    group, elements = _group_case(label)
    slow = reference_check(((a.n, a) for a in elements),
                           {"d": group.face, "s": group.degeneracy},
                           simplicial_identities)
    assert not fast.ok
    assert repr(fast) == repr(slow)


def test_loop_group_checks_elements_in_any_order():
    group = LoopGroup(fixture("D4sk1"))
    words = [group.tau(x) for n in (2, 3, 4)
             for x in group.sset.nondegenerate(n)]
    for elements in (words, words[::-1], words[1::2] + words[::2]):
        assert check_group_identities(group, elements).ok


def test_standard_cube_operator_call_count():
    # the faces of each face are read from the previous dimension's table;
    # calling every second operator made 127,582 calls
    cube = StandardCube(3)
    calls = Counter()
    for name in ("face", "degen", "conn"):
        patched(cube, name, lambda op, y, *args, name=name:
                calls.update([name]) or op(y, *args))
    assert cube.validate(4).ok
    assert sum(calls.values()) == 82_304
