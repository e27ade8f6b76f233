import pytest

from cobarlab.loopgroup import (GroupWord, LoopGroup, check_group_identities,
                                check_twisting)
from cobarlab.simplicial import fixture, nondeg, sphere, standard_simplex


def generator_elements(group, max_dim):
    out = []
    for n in range(1, max_dim + 2):
        for x in group.sset.simplices(n):
            w = group.tau(x)
            if w.letters:
                out.append(w)
                out.append(group.inv(w))
    return out


def test_requires_reduced():
    with pytest.raises(ValueError):
        LoopGroup(standard_simplex(2))


def test_group_laws():
    g = LoopGroup(fixture("TwoLoopsCell"))
    a = g.tau(nondeg("a", 1))
    b = g.tau(nondeg("b", 1))
    assert g.mul(a, g.one(0)) == a
    assert g.mul(a, g.inv(a)) == g.one(0)
    assert g.inv(g.mul(a, b)) == g.mul(g.inv(b), g.inv(a))
    assert g.mul(a, b) != g.mul(b, a)  # free, noncommutative


def test_erasure_of_bottom_degenerate_letters():
    g = LoopGroup(sphere(2))
    s2 = g.sset
    x = s2.degeneracy(nondeg("sigma", 2), 0)
    assert g.tau(x) == g.one(2)


@pytest.mark.parametrize("build,max_dim", [
    (sphere(2), 3), (sphere(3), 3), (fixture("D4sk1"), 3),
    (fixture("TwoLoopsCell"), 3),
])
def test_simplicial_group_identities(build, max_dim):
    g = LoopGroup(build)
    assert check_group_identities(g, generator_elements(g, max_dim)).ok


@pytest.mark.parametrize("build", [
    sphere(2), sphere(3), fixture("D4sk1"), fixture("TwoLoopsCell")])
def test_universal_twisting(build):
    assert check_twisting(LoopGroup(build), 3).ok


def test_twisted_bottom_face():
    g = LoopGroup(fixture("TwoLoopsCell"))
    t = g.tau(nondeg("T", 2))
    a = g.tau(nondeg("a", 1))
    b = g.tau(nondeg("b", 1))
    # faces of the 2-cell: bottom a, then b, b
    assert g.face(t, 0) == g.mul(b, g.inv(a))
    assert g.face(t, 1) == b


def test_rival_convention_reverses_the_pair():
    g = LoopGroup(fixture("TwoLoopsCell"), twist="rival")
    t = g.tau(nondeg("T", 2))
    a = g.tau(nondeg("a", 1))
    b = g.tau(nondeg("b", 1))
    assert g.face(t, 0) == g.mul(g.inv(a), b)


def test_front_back_faces():
    g = LoopGroup(fixture("D4sk1"))
    w = g.tau(nondeg("0123", 3))
    assert g.front_face(w, 0).n == 0
    assert g.back_face(w, 2).n == 0
    assert g.front_face(w, 2) == w
