import pytest

from cobarlab import cobar
from cobarlab.cobar import (CobarSet, compare_models, omega_complex,
                            word_to_cube)
from cobarlab.cubes import cubical_chains
from cobarlab.simplicial import (fixture, nondeg, simplicial_chains, sphere,
                                 standard_simplex)

UNIT = ((), ())  # the empty word, the cobar construction's unit cube


def test_requires_one_reduced():
    with pytest.raises(ValueError):
        CobarSet(standard_simplex(2))


def test_unit_and_letter_dimensions():
    cset = CobarSet(sphere(2))
    sigma = nondeg("sigma", 2)
    assert cset.dim(UNIT) == 0
    assert cset.dim(word_to_cube((sigma,))) == 1
    assert cset.dim(word_to_cube((sigma, sigma))) == 2


def test_normalized_counts_for_sphere():
    # words in a single degree-1 letter: one basis element per degree
    cset = CobarSet(sphere(2))
    for n in range(5):
        assert len(cset.normalized(n)) == 1


def test_cubical_identities_on_cobar():
    assert CobarSet(sphere(2)).validate(3).ok
    assert CobarSet(fixture("D4sk1")).validate(2).ok


@pytest.mark.parametrize("cube", [
    ((), ()),
    word_to_cube((nondeg("sigma", 2),)),
    ((nondeg("sigma", 2), nondeg("sigma", 2)), (("s", 1),)),
], ids=["unit", "letter", "degenerate-word"])
def test_public_operators_refuse_indices_out_of_range(cube):
    cset = CobarSet(sphere(2))
    n = cset.dim(cube)
    for eps in (0, 1):
        for i in (0, n + 1):
            with pytest.raises(ValueError, match="face index"):
                cset.face(cube, eps, i)
    for eps in (-1, 2):
        for i in range(1, n + 2):
            with pytest.raises(ValueError, match="face direction"):
                cset.face(cube, eps, i)
    for i in (0, n + 2):
        with pytest.raises(ValueError, match="degeneracy index"):
            cset.degen(cube, i)
    for i in (0, n + 1):
        with pytest.raises(ValueError, match="connection index"):
            cset.conn(cube, i)


def test_degenerate_letters_are_operator_images():
    cset = CobarSet(sphere(2))
    sigma = nondeg("sigma", 2)
    s2 = cset.sset
    # a degenerate simplex letter re-canonicalizes into an operator cube
    cube = cset.canonicalize([s2.degeneracy(sigma, 1)])
    base, ops = cube
    assert base == (sigma,) and len(ops) == 1
    # bottom-degenerate letters over the base point disappear
    assert cset.canonicalize([s2.degeneracy(s2.face(sigma, 0), 0)]) \
        == cset.degen(UNIT, 1)


def test_multiplication_shifts_operators():
    cset = CobarSet(sphere(3))
    tau = nondeg("sigma", 3)
    c1 = cset.degen(word_to_cube((tau,)), 1)
    c2 = word_to_cube((tau,))
    prod = cset.mul(c1, c2)
    assert prod[0] == (tau, tau)
    assert cset.dim(prod) == 5
    assert cset.mul(UNIT, c2) == c2
    assert cset.mul(c2, UNIT) == c2


def test_operators_of_a_product_act_on_the_factor_of_their_coordinate():
    # z1 z2 has the n1 coordinates of z1 first: a face, degeneracy or
    # connection at coordinate i <= n1 acts on z1, and one at i > n1 acts
    # on z2 at i - n1.  Every pair of cubes of D4sk1 (degenerate and
    # folded ones included) whose product has degree at most 2.
    cset = CobarSet(fixture("D4sk1"))
    mul, dim = cset.mul, cset.dim
    operators = [(("d", eps), lambda z, i, eps=eps: cset.face(z, eps, i), 0)
                 for eps in (0, 1)]
    operators += [(("s",), cset.degen, 1), (("g",), cset.conn, 0)]
    cubes = [z for n in range(3) for z in cset.cubes(n)]
    checked = 0
    wrong = []
    for z1 in cubes:
        n1 = dim(z1)
        for z2 in cubes:
            n = n1 + dim(z2)
            if n > 2:
                continue
            z = mul(z1, z2)
            for name, act, extra in operators:
                for i in range(1, n + 1 + extra):
                    split = (mul(act(z1, i), z2) if i <= n1
                             else mul(z1, act(z2, i - n1)))
                    checked += 1
                    if act(z, i) != split:
                        wrong.append((name, i, z1, z2))
    assert checked == 3648
    assert wrong == []


def test_word_cube_roundtrip():
    cset = CobarSet(sphere(2))
    sigma = nondeg("sigma", 2)
    w = (sigma, sigma)
    # a word is the base of its cube, which is normalized; a degenerate
    # cube is no word
    cube = word_to_cube(w)
    assert cube[0] == w and cube in cset.normalized(2)
    assert cset.degen(cube, 1) not in cset.normalized(3)


@pytest.mark.parametrize("name,max_deg", [("S2", 3), ("S3", 3), ("D4sk1", 3)])
def test_model_comparison(name, max_deg):
    omega, cset, cchain, verdicts = compare_models(fixture(name), max_deg)
    for key in ("basis", "differential", "product"):
        assert verdicts[key].ok, verdicts[key].witness


def test_basis_witness_names_a_missing_cube(monkeypatch):
    # the cubical side loses one normalized 2-cube; the word side, which
    # enumerates its words on its own, still has it
    sset = fixture("D4sk1")
    normalized = CobarSet.normalized
    dropped = normalized(CobarSet(sset), 2)[0]
    monkeypatch.setattr(CobarSet, "normalized", lambda self, n: [
        cube for cube in normalized(self, n) if cube != dropped])
    verdicts = compare_models(sset, 2)[3]
    assert verdicts["basis"].witness == {
        "degree": 2, "missing": set(), "extra": {dropped}}
    assert verdicts["differential"].witness == {"check": "basis"}


def test_differential_witness_names_a_corrupted_cube(monkeypatch):
    sset = fixture("D4sk1")
    true_chains = cobar.cubical_chains
    omega = omega_complex(sset, 2)
    w = next(w for w in omega.basis[2] if omega.boundary[w])

    def corrupted(cset, max_deg):
        cchain = true_chains(cset, max_deg)
        cube = word_to_cube(w)
        cchain.boundary[cube] = {c: -a for c, a in cchain.boundary[cube].items()}
        return cchain

    monkeypatch.setattr(cobar, "cubical_chains", corrupted)
    verdicts = compare_models(sset, 2)[3]
    assert verdicts["basis"].ok
    assert verdicts["differential"].witness["check"] == "chain_map"
    assert verdicts["differential"].witness["label"] == w


def test_product_witness_is_first_failing_pair(monkeypatch):
    sset = fixture("D4sk1")
    omega = omega_complex(sset, 2)
    # every pair in the order compare_models visits them
    pairs = [(w1, w2) for d1 in range(3) for d2 in range(3 - d1)
             for w1 in omega.basis[d1] for w2 in omega.basis[d2]]
    broken = {pairs[7], pairs[-3]}
    mul = CobarSet.mul

    def bad_mul(self, c1, c2):
        out = mul(self, c1, c2)
        if (c1[0], c2[0]) in broken:  # compare_models multiplies words
            return self.degen(out, 1)
        return out

    monkeypatch.setattr(CobarSet, "mul", bad_mul)
    verdict = compare_models(sset, 2)[3]["product"]
    assert not verdict.ok
    assert verdict.witness == {"pair": pairs[7]}


def test_omega_complex_d_squared():
    for name in ("S2", "S3", "D4sk1"):
        omega = omega_complex(fixture(name), 3)
        assert omega.check_d_squared().ok


def test_loop_space_homology_of_spheres():
    # James splitting: the loop space of the (d+1)-sphere has one integral
    # homology generator in every degree divisible by d
    cx = cubical_chains(CobarSet(sphere(2)), 4)
    for n in range(4):
        assert cx.homology(n).betti == 1 and not cx.homology(n).torsion
    cx3 = cubical_chains(CobarSet(sphere(3)), 4)
    for n in range(4):
        expect = 1 if n % 2 == 0 else 0
        assert cx3.homology(n).betti == expect


def test_loop_space_homology_of_wedge():
    # six 2-cells wedge: loop homology is the tensor algebra on six
    # degree-one generators
    cx = cubical_chains(CobarSet(fixture("D4sk1")), 2)
    assert cx.homology(0).betti == 1
    assert cx.homology(1).betti == 6
    assert cx.check_coalgebra().ok


def test_loop_space_homology_of_the_mod_two_moore_space():
    # P^3(2) = S^2 with a 3-cell attached by degree 2 has H_2 = Z/2, and
    # its loop space has H_0 = Z and H_n = (Z/2)^F_n, F_n the Fibonacci
    # numbers 1, 1, 2, 3, 5, 8 for n = 1..6.  Each complex is built one
    # degree above the last one read.
    sset = fixture("P3_2")
    assert sset.one_reduced and sset.validate_presentation(5).ok
    space = simplicial_chains(sset, 4)
    assert [(space.homology(n).betti, tuple(space.homology(n).torsion))
            for n in range(4)] == [(1, ()), (0, ()), (0, (2,)), (0, ())]
    expected = [(1, ())] + [(0, (2,) * f) for f in (1, 1, 2, 3, 5, 8)]
    omega = omega_complex(sset, 7)
    cubical = cubical_chains(CobarSet(sset), 5)
    for cx, top in ((omega, 6), (cubical, 4)):
        assert [(cx.homology(n).betti, tuple(cx.homology(n).torsion))
                for n in range(top + 1)] == expected[:top + 1]


# ----- the store of base faces -------------------------------------------------------


@pytest.mark.parametrize("name", ["S2", "D4sk1"])
def test_stored_faces_match_a_fresh_set(name):
    # every face of every cube through dimension 4, degenerate and folded
    # cubes included, is the same read from a store that validate(3)
    # filled as computed on a set whose store is empty
    sset = fixture(name)
    filled = CobarSet(sset)
    assert filled.validate(3).ok and filled._base_faces
    faces = 0
    for n in range(5):
        for cube in filled.cubes(n):
            for i in range(1, n + 1):
                for eps in (0, 1):
                    assert (filled.face(cube, eps, i)
                            == CobarSet(sset).face(cube, eps, i))
                    faces += 1
    assert faces == {"S2": 436, "D4sk1": 180_252}[name]


def reference_push(cset, base, ops, eps, i):
    """The face (eps, i) of (base, ops) pushed through ops one operator at a
    time, outermost first, by the cubical identities (the recursive body
    that ``cobar._push_plan`` replaced); the push ends at an operator that
    cancels the face or at the public face of (base, ())."""
    if not ops:
        return cset.face((base, ()), eps, i)
    (kind, j), inner = ops[0], ops[1:]
    if kind == "s":
        if i == j:
            return (base, inner)
        if i < j:
            op = ("s", j - 1)
        else:
            op, i = ("s", j), i - 1
    elif i < j:
        op = ("g", j - 1)
    elif i in (j, j + 1):
        if eps == 1:
            return (base, inner)
        op, eps, i = ("s", j), 0, j
    else:
        op, i = ("g", j), i - 1
    face = reference_push(cset, base, inner, eps, i)
    return (face[0], cobar._compose_op(op, face[1]))


@pytest.mark.parametrize("name, top, count", [
    # S2 has one base per dimension, so its cubes carry every canonical
    # operator word through the top dimension; D4sk1's bases have faces
    # that are degenerate or split
    ("S2", 6, 5_994), ("D4sk1", 3, 3_702)])
def test_push_plans_match_a_push_one_operator_at_a_time(name, top, count):
    cset = CobarSet(fixture(name))
    faces = 0
    for n in range(top + 1):
        for base, ops in cset.cubes(n):
            if not ops:
                continue
            for i in range(1, n + 1):
                for eps in (0, 1):
                    plan = cobar._push_plan(ops, eps, i)
                    assert cset._pushed(base, plan) == reference_push(
                        cset, base, ops, eps, i)
                    faces += 1
    assert faces == count


def test_validate_canonicalizes_each_base_face_once(monkeypatch):
    calls = 0
    canonicalize = CobarSet.canonicalize

    def counted(self, simplices):
        nonlocal calls
        calls += 1
        return canonicalize(self, simplices)

    monkeypatch.setattr(CobarSet, "canonicalize", counted)
    cset = CobarSet(fixture("D4sk1"))
    assert cset.validate(3).ok
    # 74,338 calls without the store: each face pushed through an operator
    # word computed its base face anew.  Direct faces of normalized cubes
    # read the store too, since their keys are the same, so each base face
    # is canonicalized once.
    assert calls == 7_046
    assert len(cset._base_faces) == 7_046


def test_cubical_chains_leave_the_store_empty(monkeypatch):
    # the boundaries read direct faces of normalized cubes only, which
    # bypass the store, and the diagonals read the faces the boundaries
    # kept; a second build on the same set computes every face again
    calls = 0
    face = CobarSet.face

    def counted(self, cube, eps, i):
        nonlocal calls
        calls += 1
        return face(self, cube, eps, i)

    monkeypatch.setattr(CobarSet, "face", counted)
    cset = CobarSet(fixture("D4sk1"))
    for _ in range(2):
        calls = 0
        cx = cubical_chains(cset, 3)
        assert calls == 7_046
        assert [cx.homology(n).betti for n in range(3)] == [1, 6, 36]
        for n in cx.degrees:
            for y in cx.basis[n]:
                cx.diagonal_of(y)
                assert cset._base_faces == {}
        assert calls == 7_046
