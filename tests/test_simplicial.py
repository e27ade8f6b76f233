import weakref

import pytest

from cobarlab.chains import ChainMap, check_chain_map
from cobarlab.simplicial import (ProductSimplicialSet, Simplex,
                                 SimplicialPresentation, SimplicialSet,
                                 degenerate_point, fixture,
                                 nondeg, shuffle_terms, sphere,
                                 simplicial_chains, standard_simplex)
from test_chains import tensor_complex

FIXTURES = ("Delta2", "I", "S2", "S3", "D4sk1", "TwoLoopsCell")


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_identities(name):
    assert fixture(name).validate_presentation(5).ok


def test_simplex_normal_form():
    s2 = sphere(2)
    x = nondeg("sigma", 2)
    # s_0 s_0 = s_1 s_0 in normal form
    a = s2.degeneracy(s2.degeneracy(x, 0), 0)
    b = s2.degeneracy(s2.degeneracy(x, 0), 1)
    assert a == b
    assert a.degens == (1, 0)


def test_simplex_is_an_immutable_value():
    x = Simplex((3, 1), "0123", 3)
    y = Simplex((3, 1), "0123", 3)
    assert x == y and hash(x) == hash(y) and x is not y
    assert len({x, y, Simplex((3, 0), "0123", 3), Simplex((3, 1), "0124", 3)}) == 3
    assert x != Simplex((3, 1), "0123", 2) and x != ((3, 1), "0123", 3)
    assert x.dim == 5 and nondeg("0123", 3).dim == 3
    assert repr(x) == "s3 s1 0123" and repr(nondeg("0123", 3)) == "0123"
    with pytest.raises(AttributeError):
        x.gen = "0124"
    with pytest.raises(AttributeError):
        x.dim = 4
    assert x == y and x.dim == 5


def test_face_counts_of_standard_simplex():
    d3 = standard_simplex(3)
    assert len(d3.nondegenerate(0)) == 4
    assert len(d3.nondegenerate(1)) == 6
    assert len(d3.nondegenerate(2)) == 4
    assert len(d3.nondegenerate(3)) == 1
    # with degeneracies: 4 triangles, two lifts of each edge, one per vertex
    assert len(list(d3.simplices(2))) == 4 + 2 * 6 + 4


def test_front_back_faces():
    d3 = standard_simplex(3)
    top = nondeg("0.1.2.3", 3)
    assert d3.front_face(top, 1) == nondeg("0.1", 1)
    assert d3.back_face(top, 2) == nondeg("2.3", 1)


def test_sphere_homology():
    for n in (2, 3):
        cx = simplicial_chains(sphere(n), n + 1)
        assert cx.check_d_squared().ok
        assert cx.check_coalgebra().ok
        for k in range(n + 1):
            expect = 1 if k in (0, n) else 0
            assert cx.homology(k).betti == expect
            assert not cx.homology(k).torsion


def test_collapsed_skeleton_homology():
    # collapsing the 1-skeleton of the 4-simplex leaves a wedge-like space
    # with six 2-cells; its degree-2 homology is free of rank 6
    cx = simplicial_chains(fixture("D4sk1"), 3)
    assert cx.homology(0).betti == 1
    assert cx.homology(1).betti == 0
    assert cx.homology(2).betti == 6


def test_two_loops_cell_homology():
    cx = simplicial_chains(fixture("TwoLoopsCell"), 3)
    assert cx.homology(0).betti == 1
    # d(T) = a - b + b = a, killing one loop
    assert cx.homology(1).betti == 1


def test_degenerate_point_helper():
    pt = degenerate_point("*", 3)
    assert pt.dim == 3 and pt.is_degenerate
    assert pt.degens == (2, 1, 0)


def shuffle_chain_map(left: SimplicialSet, right: SimplicialSet,
                      max_dim: int) -> ChainMap:
    """Chain map C(X) (x) C(Y) -> C(X x Y) given by the shuffle expansion."""
    prod = ProductSimplicialSet(left, right)
    cl = simplicial_chains(left, max_dim)
    cr = simplicial_chains(right, max_dim)
    cp = simplicial_chains(prod, max_dim)
    present = {x for labels in cp.basis.values() for x in labels}
    src = tensor_complex(cl, cr, max_degree=max_dim)
    mapping = {}
    for n in src.degrees:
        for (a, b) in src.basis[n]:
            terms = shuffle_terms(left, right, a, b)
            mapping[(a, b)] = {pair: c for pair, c in terms.items() if pair in present}
    return ChainMap(src, cp, mapping)


def test_product_and_shuffle_map():
    interval = standard_simplex(1, name="I")
    f = shuffle_chain_map(interval, interval, 2)
    assert check_chain_map(f).ok
    prod = ProductSimplicialSet(interval, interval)
    # the square has 4 vertices, 5 edges (4 sides + diagonal), 2 triangles
    assert len(prod.nondegenerate(0)) == 4
    assert len(prod.nondegenerate(1)) == 5
    assert len(prod.nondegenerate(2)) == 2


def test_validate_detects_corruption():
    bad = fixture("TwoLoopsCell")
    bad.faces[("T", 0)] = bad.faces[("a", 0)]  # wrong dimension
    assert not bad.validate_presentation(3).ok
    # the corrupted-face-table negative control edits the table after
    # construction, past the store
    bad = fixture("Delta2")
    bad.faces[("0.1.2", 0)] = bad.faces[("0.1.2", 2)]
    verdict = bad.validate_presentation(3)
    assert not verdict.ok
    assert verdict.witness == {"identity": "dd", "x": nondeg("0.1.2", 2),
                               "i": 0, "j": 1, "lhs": nondeg("2", 0),
                               "rhs": nondeg("1", 0)}


POINT_EDGE = degenerate_point("*", 1)


@pytest.mark.parametrize("key, value, error", [
    (("s", 0), nondeg("zz", 1), "unknown simplex"),  # no generator zz
    (("s", 0), Simplex((), "*", 1), "unknown simplex"),  # * has dimension 0
    (("s", 0), Simplex((2,), "*", 0), "unknown simplex"),  # s_2 on a vertex
    (("s", 7), POINT_EDGE, "stray face"),  # s has dimension 2
    (("q", 0), POINT_EDGE, "stray face"),  # no generator q
    (("*", 0), POINT_EDGE, "stray face"),  # a vertex has no faces
], ids=["unknown-generator", "generator-dimension", "degeneracy-index",
        "face-index", "unknown-key", "vertex-key"])
def test_malformed_face_table_fails_with_a_witness(key, value, error):
    # the keys and values are checked before the identities run, which
    # would raise on an unknown simplex and never read a stray key
    faces = {("s", i): POINT_EDGE for i in range(3)}
    gens = {"*": 0, "s": 2}
    assert SimplicialPresentation("S2", gens, faces).validate_presentation(3).ok
    sset = SimplicialPresentation("bad", gens, faces | {key: value})
    verdict = sset.validate_presentation(3)
    assert not verdict.ok
    assert verdict.witness["error"] == error
    assert (verdict.witness["gen"], verdict.witness["i"]) == key


# ----- one stored object per simplex ---------------------------------------------


def test_operators_hand_out_one_object_per_simplex():
    s = fixture("D4sk1")
    x = s.nondegenerate(3)[0]
    assert s.nondegenerate(3)[0] is x
    assert s.face(s.degeneracy(x, 0), 0) is x  # d_0 s_0 x = x
    assert s.face(s.degeneracy(x, 2), 3) is x  # d_3 s_2 x = x
    assert s.degeneracy(s.degeneracy(x, 0), 0) is s.degeneracy(
        s.degeneracy(x, 0), 1)  # s_0 s_0 = s_1 s_0
    assert s.front_face(x, 2) is s.face(x, 3)
    assert s.back_face(x, 1) is s.face(x, 0)
    # a nondegenerate face in the table is the generator's simplex itself
    for (g, i), y in s.faces.items():
        if not y.degens:
            assert any(y is z for z in s.nondegenerate(y.dim)), (g, i)
    seen = {}
    for n in range(5):
        for y in s.simplices(n):
            for z in [y] + [s.face(y, i) for i in range(n + 1) if n]:
                assert seen.setdefault(z, z) is z
    assert all(s.simplex(y.degens, y.gen, y.gen_dim) is y for y in seen)


def test_simplex_built_by_hand_is_answered_from_the_store():
    s = fixture("D4sk1")
    x = s.nondegenerate(3)[0]
    by_hand = Simplex((), x.gen, 3)
    assert by_hand == x and hash(by_hand) == hash(x) and by_hand is not x
    assert s.degeneracy(by_hand, 1) is s.degeneracy(x, 1)
    assert s.face(Simplex((1,), x.gen, 3), 1) is x
    assert s.simplex((), x.gen, 3) is x


def test_malformed_simplex_cannot_replace_a_stored_one():
    # the store is keyed on the whole triple, so a hand-built simplex with
    # the wrong generator dimension lands under a key of its own
    s = fixture("D4sk1")
    wrong = s.degeneracy(Simplex((), "0123", 5), 0)
    assert (wrong.gen_dim, wrong.dim) == (5, 6)
    right = s.degeneracy(s.nondegenerate(3)[0], 0)
    assert right.gen == "0123" and (right.gen_dim, right.dim) == (3, 4)
    assert right != wrong and s.simplex((0,), "0123", 3) is right


def test_store_lives_and_dies_with_its_presentation(no_collector):
    first, second = fixture("D4sk1"), fixture("D4sk1")
    assert first.validate_presentation(2).ok
    a, b = list(first.simplices(3)), list(second.simplices(3))
    assert a == b and not {id(x) for x in a} & {id(x) for x in b}
    ref = weakref.ref(first)
    del first
    assert ref() is None


def test_fixture_unknown_name():
    with pytest.raises(ValueError):
        fixture("nope")


def test_collapsed_simplex_refuses_two_digit_vertices():
    # vertex sets are named by their digits, which stay unique only while
    # every vertex is one digit: from m = 13 on, {12, 13} and {1, 2, 13}
    # would both be 1213
    with pytest.raises(ValueError, match="single digits"):
        fixture("D13sk0")
    assert fixture("D9sk8").gens == {"*": 0, "0123456789": 9}
