import pytest

from cobarlab import cobar, cubes
from cobarlab.chains import (Chain, ChainComplex, ChainMap, Homology,
                             add_scaled, check_chain_map, check_coalgebra_map,
                             check_quasi_iso, mapping_cone, tensor_chains)
from cobarlab.cobar import CobarSet, compare_models, omega_complex
from cobarlab.cubes import (CubeMorphism, CubicalSet, ProductCubicalSet,
                            StandardCube, cubical_chains)
from cobarlab.loopgroup import LoopGroup
from cobarlab.perms import all_shuffles
from cobarlab.simpcube import SimplicialCube
from cobarlab.simplicial import (SimplicialSet, collapsed_simplex, fixture,
                                 nondeg, simplicial_chains, sphere)
from cobarlab.szczarba import SzProvider, word_map
from cobarlab.triangulate import TriangulatedCubicalSet, triangulation_map
from cobarlab.verdict import Verdict
from cobarlab.verify import SIMPLICIAL_FIXTURES
from test_snf import smith_normal_form


def scaled(src: Chain, coeff: int) -> Chain:
    return {label: coeff * c for label, c in src.items()} if coeff else {}


def tensor_complex(c1: ChainComplex, c2: ChainComplex,
                   max_degree=None) -> ChainComplex:
    """Tensor product complex; labels are pairs, signs follow the Koszul rule."""
    if max_degree is None:
        max_degree = c1.max_degree + c2.max_degree
    basis = {}
    boundary = {}
    for n in range(max_degree + 1):
        labels = []
        for p in range(n + 1):
            for a in c1.basis.get(p, ()):
                for b in c2.basis.get(n - p, ()):
                    labels.append((a, b))
                    d: Chain = {}
                    for a2, ca in c1.boundary[a].items():
                        add_scaled(d, {(a2, b): 1}, ca)
                    s = -1 if p % 2 else 1
                    for b2, cb in c2.boundary[b].items():
                        add_scaled(d, {(a, b2): 1}, s * cb)
                    boundary[(a, b)] = d
        basis[n] = tuple(labels)
    return ChainComplex(basis, boundary)


def chain_sub(a, b):
    out = dict(a)
    return add_scaled(out, b, -1)


def circle():
    return ChainComplex({0: ("v",), 1: ("e",)}, {"v": {}, "e": {}})


def disk_mod_2():
    # one cell in each dimension 0..2, the 2-cell wrapping twice
    return ChainComplex({0: ("v",), 1: ("e",), 2: ("f",)},
                        {"v": {}, "e": {}, "f": {"e": 2}})


def test_chain_arithmetic():
    a = {"x": 2, "y": -1}
    b = {"y": 1, "z": 3}
    assert chain_sub(a, b) == {"x": 2, "y": -2, "z": -3}
    assert scaled(a, 0) == {}
    out = dict(a)
    add_scaled(out, b, 2)
    assert out == {"x": 2, "y": 1, "z": 6}
    assert tensor_chains({"x": 2}, {"y": 3}, -1) == {("x", "y"): -6}


def test_homology_of_circle():
    cx = circle()
    assert cx.check_d_squared().ok
    assert str(cx.homology(0)) == "Z"
    assert str(cx.homology(1)) == "Z"


def test_homology_with_torsion():
    cx = disk_mod_2()
    assert str(cx.homology(0)) == "Z"
    assert str(cx.homology(1)) == "Z/2"
    assert str(cx.homology(2)) == "0"


def test_d_squared_detects_errors():
    bad = ChainComplex({0: ("v",), 1: ("e",), 2: ("f",)},
                       {"v": {}, "e": {"v": 1}, "f": {"e": 1}})
    assert not bad.check_d_squared().ok


def test_tensor_complex_homology():
    # two circles: the product complex has torus Betti numbers 1, 2, 1
    t = tensor_complex(circle(), circle())
    assert t.check_d_squared().ok
    assert t.homology(0).betti == 1
    assert t.homology(1).betti == 2
    assert t.homology(2).betti == 1


def test_mapping_cone_of_identity_is_acyclic():
    cx = circle()
    ident = ChainMap(cx, cx, {"v": {"v": 1}, "e": {"e": 1}})
    assert check_chain_map(ident).ok
    cone = mapping_cone(ident)
    assert cone.check_d_squared().ok
    for n in cone.degrees:
        h = cone.homology(n)
        assert h.betti == 0 and not h.torsion
    assert check_quasi_iso(ident).ok


def test_quasi_iso_fails_for_zero_map():
    cx = circle()
    zero = ChainMap(cx, cx, {"v": {}, "e": {}})
    assert check_chain_map(zero).ok
    assert not check_quasi_iso(zero).ok


def test_homology_and_chain_map_value_semantics():
    # the reprs of the former dataclasses; a chain map's leaves out mapping
    h = Homology(2, (3,))
    assert repr(h) == "Homology(betti=2, torsion=(3,))" and str(h) == "Z + Z + Z/3"
    assert h == Homology(betti=2, torsion=(3,)) and h != Homology(2, ())
    h.betti = 0
    assert h == Homology(0, (3,))
    cx = circle()
    f = ChainMap(cx, cx, {"v": {"v": 1}, "e": {"e": 1}})
    assert repr(f) == f"ChainMap(source={cx!r}, target={cx!r})"
    assert f == ChainMap(cx, cx, {"v": {"v": 1}, "e": {"e": 1}})
    assert f != ChainMap(cx, cx, {"v": {}, "e": {}})
    assert f != ChainMap(circle(), cx, f.mapping)  # complexes by identity
    for value in (h, f):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def dense_homology(cx, n):
    """H_n by dense Smith normal form of the boundary matrices."""
    rank_dn = smith_normal_form(cx.boundary_matrix(n)).rank if n >= 1 else 0
    snf_up = smith_normal_form(cx.boundary_matrix(n + 1))
    return (cx.rank(n) - rank_dn - snf_up.rank,
            tuple(d for d in snf_up.diag if d > 1))


@pytest.mark.parametrize("build", [
    lambda: tensor_complex(disk_mod_2(), disk_mod_2()),
    lambda: simplicial_chains(SimplicialCube(3), 3),
    lambda: cubical_chains(CobarSet(sphere(3)), 4),
    lambda: mapping_cone(triangulation_map(StandardCube(2), 3)[3]),
], ids=["disk-mod-2-squared", "simplicial-cube-3", "cobar-chains-S3",
        "cone-triangulation-cube-2"])
def test_homology_agrees_with_dense_snf(build):
    cx = build()
    for n in range(cx.max_degree):
        h = cx.homology(n)
        assert (h.betti, h.torsion) == dense_homology(cx, n), n


def test_torsion_comes_from_the_non_unit_block():
    t = tensor_complex(disk_mod_2(), disk_mod_2())
    # Kunneth: H_1 = Z/2 + Z/2, H_2 = Z/2 (tensor), H_3 = Z/2 (Tor)
    assert [str(t.homology(n)) for n in range(4)] == [
        "Z", "Z/2 + Z/2", "Z/2", "Z/2"]


# ----- the diagonal, built on demand ---------------------------------------------


def reference_cubical_diagonal(cset, present, y):
    """The per-shuffle formula: every front and back face is taken afresh
    from y, largest coordinate first."""

    def multi_face(z, eps, coords):
        for i in sorted(coords, reverse=True):
            z = cset.face(z, eps, i)
        return z

    n = cset.dim(y)
    delta = {}
    for k in range(n + 1):
        for sh in all_shuffles(k, n - k):
            front = multi_face(y, 0, sh.beta)
            back = multi_face(y, 1, sh.alpha)
            if front in present and back in present:
                add_scaled(delta, {(front, back): 1}, sh.sign())
    return delta


def reference_simplicial_diagonal(sset, keep, x):
    """The front/back formula: every front and back face is taken afresh
    from x, and kept when ``keep`` accepts both."""
    delta = {}
    for i in range(sset.dim(x) + 1):
        front = sset.front_face(x, i)
        back = sset.back_face(x, i)
        if keep(front) and keep(back):
            add_scaled(delta, {(front, back): 1}, 1)
    return delta


def all_labels(cx):
    return [label for n in cx.degrees for label in cx.basis[n]]


class CountingCubes(CubicalSet):
    """A cubical set that delegates to another and counts face calls."""

    def __init__(self, inner):
        self.inner = inner
        self.faces = 0

    def cubes(self, n):
        return self.inner.cubes(n)

    def normalized(self, n):
        return self.inner.normalized(n)

    def dim(self, y):
        return self.inner.dim(y)

    def face(self, y, eps, i):
        self.faces += 1
        return self.inner.face(y, eps, i)

    def degen(self, y, i):
        return self.inner.degen(y, i)

    def conn(self, y, i):
        return self.inner.conn(y, i)


@pytest.mark.parametrize("build,max_dim", [
    (lambda: CobarSet(fixture("D4sk1")), 3),
    (lambda: CobarSet(fixture("S3")), 4),
    (lambda: StandardCube(4), 4),
    (lambda: ProductCubicalSet(StandardCube(2), StandardCube(1)), 3),
    (lambda: CobarSet(fixture("S2")), 4),
    (lambda: StandardCube(3), 3),
], ids=["cobar-D4sk1", "cobar-S3", "standard-cube-4", "product-2x1",
        "cobar-S2", "standard-cube-3"])
def test_cubical_diagonal_matches_per_shuffle_formula(build, max_dim):
    # on cobar-S3 some faces of normalized cubes carry operators, so are no
    # labels, and the diagonal faces them anew; on the others every face
    # of a label is a label
    cset = build()
    cx = cubical_chains(cset, max_dim)
    present = set(all_labels(cx))
    assert cx.basis[max_dim]
    for y in all_labels(cx):
        assert cx.diagonal_of(y) == reference_cubical_diagonal(cset, present, y), y


def simplicial_complex(sset, max_dim):
    """The simplicial chains of sset, with the basis test as its filter."""
    cx = simplicial_chains(sset, max_dim)
    return sset, cx, set(all_labels(cx)).__contains__


def group_chains():
    """The group chains of the degree-2 word map on D4sk1, on the words its
    values touch and their faces, with nondegeneracy as the reference's
    filter: the word map's basis holds every nondegenerate iterated face
    of its words."""
    provider = SzProvider(LoopGroup(fixture("D4sk1")))
    group = provider.group
    return (group, word_map(provider, 2).target,
            lambda g: not group.is_degenerate(g))


@pytest.mark.parametrize("build", [
    lambda: simplicial_complex(fixture("D4sk1"), 4),
    lambda: simplicial_complex(SimplicialCube(3), 3),
    lambda: group_chains(),
    lambda: simplicial_complex(
        TriangulatedCubicalSet(CobarSet(fixture("S2")), 3), 3),
], ids=["D4sk1", "simplicial-cube-3", "group-D4sk1", "triangulated-cobar-S2"])
def test_simplicial_diagonal_matches_front_back_formula(build):
    sset, cx, keep = build()
    assert cx.basis[cx.max_degree]
    for x in all_labels(cx):
        assert cx.diagonal_of(x) == reference_simplicial_diagonal(
            sset, keep, x), x


def test_diagonal_takes_two_faces_per_coordinate_subset():
    # the diagonal of an n-cube takes its 2 (2^n - 1) iterated faces from
    # the rows its boundary kept; only a face of a cube that is no label
    # calls face again.  Every face of a label on D4sk1 and S2 is a label;
    # 12 on S3 carry operators.  Taking every face afresh would make
    # 16,064, 52 and 36 calls.
    for name, max_dim, calls in [("D4sk1", 3, 0), ("S2", 4, 0),
                                 ("S3", 4, 20)]:
        counting = CountingCubes(CobarSet(fixture(name)))
        cx = cubical_chains(counting, max_dim)
        built = counting.faces
        for y in all_labels(cx):
            cx.diagonal_of(y)
            cx.diagonal_of(y)  # kept, not computed again
        assert counting.faces - built == calls, name


class CountingSimplices(SimplicialSet):
    """A simplicial set that delegates to another and counts face calls."""

    def __init__(self, inner):
        self.inner = inner
        self.faces = 0

    def nondegenerate(self, n):
        return self.inner.nondegenerate(n)

    def dim(self, x):
        return self.inner.dim(x)

    def face(self, x, i):
        self.faces += 1
        return self.inner.face(x, i)

    def degeneracy(self, x, i):
        return self.inner.degeneracy(x, i)


@pytest.mark.parametrize("build,max_dim", [
    (lambda: fixture("D4sk1"), 4),
    (lambda: SimplicialCube(3), 3),
], ids=["D4sk1", "simplicial-cube-3"])
def test_simplicial_chains_keep_no_face_on_the_set(build, max_dim):
    # each build computes the n + 1 faces of every basis simplex of
    # dimension n >= 1 once: nothing outlives a complex on the set
    counting = CountingSimplices(build())
    builds = []
    for _ in range(2):
        before = counting.faces
        cx = simplicial_chains(counting, max_dim)
        builds.append(counting.faces - before)
        for x in all_labels(cx):
            cx.diagonal_of(x)
    assert builds[0] == builds[1] == sum(
        (n + 1) * cx.rank(n) for n in cx.degrees if n)


# ----- the one builder against the two it replaced -------------------------------


def reference_cubical_chains(cset, max_dim):
    """Normalized cubical chains as a builder of their own made them: rows
    of faces d0_1, d1_1, ..., d0_n, d1_n, and a diagonal that reads its
    iterated faces from them."""
    basis = {n: tuple(cset.normalized(n)) for n in range(max_dim + 1)}
    rows = {}
    boundary = {}
    for n in range(max_dim + 1):
        for y in basis[n]:
            row = [y]
            d = {}
            for i in range(1, n + 1):
                sign = -1 if i % 2 else 1
                for face in (cset.face(y, 0, i), cset.face(y, 1, i)):
                    face_row = rows.get(face)
                    if face_row is None:
                        row.append(face)
                    else:
                        row.append(face_row)
                        add_scaled(d, {face_row[0]: 1}, sign)
                    sign = -sign
            rows[y] = row
            boundary[y] = d

    def face_of(z, eps, i):
        face = cset.face(z, eps, i)
        return rows.get(face, face)

    def face_labels(row, eps, n):
        table = [row]
        for i in range(n, 0, -1):
            k = 2 * i - 1 + eps
            table += [z[k] if z.__class__ is list else face_of(z, eps, i)
                      for z in table]
        return [z[0] if z.__class__ is list else None for z in table]

    def diagonal(y):
        row = rows[y]
        n = (len(row) - 1) // 2
        fronts = face_labels(row, 0, n)
        backs = face_labels(row, 1, n)
        delta = {}
        for front_mask, back_mask, sign in cubes._shuffle_splits(n):
            front = fronts[front_mask]
            if front is not None:
                back = backs[back_mask]
                if back is not None:
                    key = (front, back)
                    c = delta.get(key, 0) + sign
                    if c:
                        delta[key] = c
                    else:
                        del delta[key]
        return delta

    return ChainComplex(basis, boundary, diagonal)


def reference_normalized_chains(sset, basis, keep):
    """Normalized simplicial chains on ``basis`` as a builder of their own
    made them: the faces and diagonal terms that ``keep`` rejects are
    zero, and a basis simplex that ``keep`` rejects has None for its
    label in its row."""
    rows = {}
    boundary = {}
    for n in sorted(basis):
        for x in basis[n]:
            row = [x if keep(x) else None]
            d = {}
            for i in range(n + 1 if n else 0):
                face = sset.face(x, i)
                face_row = rows.get(face)
                if face_row is None:
                    row.append(face)
                    label = face if keep(face) else None
                else:
                    row.append(face_row)
                    label = face_row[0]
                if label is not None:
                    add_scaled(d, {label: 1}, -1 if i % 2 else 1)
            rows[x] = row
            boundary[x] = d

    def face_of(z, i):
        if z.__class__ is list:
            return z[1 + i]
        face = sset.face(z, i)
        return rows.get(face, face)

    def label(z):
        if z.__class__ is list:
            return z[0]
        return z if keep(z) else None

    def diagonal(x):
        row = rows[x]
        fronts = [row]
        backs = [row]
        for i in range(sset.dim(x), 0, -1):
            fronts.append(face_of(fronts[-1], i))
            backs.append(face_of(backs[-1], 0))
        fronts.reverse()
        delta = {}
        for front, back in zip(fronts, backs):
            front = label(front)
            if front is not None:
                back = label(back)
                if back is not None:
                    add_scaled(delta, {(front, back): 1}, 1)
        return delta

    return ChainComplex(basis, boundary, diagonal)


def cubical_pair(cset, max_dim):
    return (cubical_chains(cset, max_dim),
            reference_cubical_chains(cset, max_dim))


def simplicial_pair(sset, max_dim):
    cx = simplicial_chains(sset, max_dim)
    present = set(all_labels(cx)).__contains__
    return cx, reference_normalized_chains(sset, cx.basis, present)


def word_map_pair(sset, max_deg):
    """The target of the word map and the same basis filtered, as the
    word map once filtered it, by nondegeneracy."""
    group = LoopGroup(sset)
    cx = word_map(SzProvider(group), max_deg).target
    return cx, reference_normalized_chains(
        group, cx.basis, lambda g: not group.is_degenerate(g))


@pytest.mark.parametrize("build", [
    lambda: cubical_pair(CobarSet(fixture("S2")), 3),
    lambda: cubical_pair(CobarSet(fixture("D4sk1")), 3),
    lambda: cubical_pair(StandardCube(3), 3),
    lambda: cubical_pair(
        ProductCubicalSet(StandardCube(2), StandardCube(1)), 3),
    lambda: simplicial_pair(SimplicialCube(3), 3),
    lambda: simplicial_pair(fixture("D4sk1"), 3),
    lambda: word_map_pair(fixture("D4sk1"), 2),
    lambda: word_map_pair(collapsed_simplex(5, 2), 2),
], ids=["cobar-S2", "cobar-D4sk1", "standard-cube-3", "product-2x1",
        "simplicial-cube-3", "simplicial-D4sk1", "word-map-D4sk1",
        "word-map-Delta5/sk2"])
def test_builder_matches_the_builders_it_replaced(build):
    # equal as dicts and in key order, so that every iteration over a
    # boundary or a diagonal, and so every witness, is unchanged
    cx, ref = build()
    assert list(cx.basis.items()) == list(ref.basis.items())
    assert cx.basis[cx.max_degree]
    for x in all_labels(ref):
        assert list(cx.boundary[x].items()) == list(ref.boundary[x].items()), x
        assert (list(cx.diagonal_of(x).items())
                == list(ref.diagonal_of(x).items())), x


def test_homology_and_d_squared_build_no_diagonal():
    counting = CountingCubes(CobarSet(fixture("D4sk1")))
    cx = cubical_chains(counting, 3)
    built = counting.faces
    assert cx.check_d_squared().ok
    assert [cx.homology(n).betti for n in range(3)] == [1, 6, 36]
    assert counting.faces == built


def test_diagonal_function_runs_once_per_label_on_demand():
    calls = []

    def diagonal(label):
        calls.append(label)
        return {("v", "v"): 1} if label == "v" else {("v", "e"): 1, ("e", "v"): 1}

    cx = ChainComplex({0: ("v",), 1: ("e",)}, {"v": {}, "e": {}}, diagonal)
    assert cx.check_d_squared().ok
    assert str(cx.homology(1)) == "Z"
    assert calls == []
    assert cx.check_coalgebra().ok
    assert cx.check_coalgebra().ok
    assert sorted(calls) == ["e", "v"]
    with pytest.raises(KeyError):
        cx.diagonal_of("w")
    assert sorted(calls) == ["e", "v"]


def test_complex_without_diagonal():
    cx = circle()
    verdict = cx.check_coalgebra()
    assert not verdict.ok
    assert verdict.witness == {"check": "coalgebra", "error": "no diagonal"}
    assert repr(verdict) == repr(reference_check_coalgebra(cx))
    with pytest.raises(ValueError):
        cx.diagonal_of("v")


def test_cubical_diagonal_keys_terms_by_stored_labels():
    cx = cubical_chains(CobarSet(fixture("D4sk1")), 2)
    stored = {y: y for y in all_labels(cx)}
    for y in all_labels(cx):
        for a, b in cx.diagonal_of(y):
            assert stored[a] is a and stored[b] is b, (y, a, b)


def reference_check_coalgebra(cx):
    """``check_coalgebra`` on labels: every sum is a chain keyed by labels,
    built with ``add_scaled``, and the sides are compared whole."""
    if cx._diagonal_fn is None:
        return Verdict.failed({"check": "coalgebra", "error": "no diagonal"})
    diagonal_of = cx.diagonal_of
    for n in cx.degrees:
        for label in cx.basis[n]:
            delta = diagonal_of(label)
            for a, b in delta:
                if cx.degree_of(a) + cx.degree_of(b) != n:
                    return Verdict.failed(
                        {"check": "diagonal_degree", "label": label,
                         "term": (a, b)})
            if n >= 1:
                lhs = cx.diagonal_chain(cx.boundary[label])
                rhs = cx._tensor_boundary(delta)
                if lhs != rhs:
                    return Verdict.failed(
                        {"check": "diagonal_chain_map", "label": label,
                         "delta_d": lhs, "d_delta": rhs})
            left: Chain = {}
            right: Chain = {}
            for (a, b), c in delta.items():
                for (a1, a2), ca in diagonal_of(a).items():
                    add_scaled(left, {(a1, a2, b): 1}, c * ca)
                for (b1, b2), cb in diagonal_of(b).items():
                    add_scaled(right, {(a, b1, b2): 1}, c * cb)
            if left != right:
                return Verdict.failed({"check": "coassociativity", "label": label})
            lcounit: Chain = {}
            rcounit: Chain = {}
            for (a, b), c in delta.items():
                if cx.degree_of(a) == 0:
                    add_scaled(lcounit, {b: 1}, c)
                if cx.degree_of(b) == 0:
                    add_scaled(rcounit, {a: 1}, c)
            if lcounit != {label: 1} or rcounit != {label: 1}:
                return Verdict.failed({"check": "counit", "label": label})
    return Verdict.passed()


COALGEBRAS = {
    **{f"simplicial-{name}": lambda name=name: simplicial_chains(
        fixture(name), 3) for name in SIMPLICIAL_FIXTURES},
    "cobar-S2": lambda: cubical_chains(CobarSet(fixture("S2")), 3),
    "cobar-D4sk1": lambda: cubical_chains(CobarSet(fixture("D4sk1")), 2),
    "standard-cube-3": lambda: cubical_chains(StandardCube(3), 3),
}


@pytest.mark.parametrize("name", sorted(COALGEBRAS))
def test_coalgebra_verdict_matches_reference(name):
    verdict = COALGEBRAS[name]().check_coalgebra()
    assert verdict.ok
    assert repr(verdict) == repr(reference_check_coalgebra(COALGEBRAS[name]()))


def corruptions(cx):
    """Complexes that share the boundaries of ``cx``, each with the
    diagonal of one label corrupted: its sign flipped, its first term
    dropped, or a term added (the label paired with the first vertex, or
    with itself)."""
    vertex = cx.basis[0][0]
    kinds = {
        "flip": lambda delta, y: {k: -c for k, c in delta.items()},
        "drop": lambda delta, y: dict(list(delta.items())[1:]),
        "add-vertex": lambda delta, y: add_scaled(dict(delta),
                                                  {(vertex, y): 1}),
        "add-square": lambda delta, y: add_scaled(dict(delta), {(y, y): 1}),
    }
    targets = [labels[k] for labels in cx.basis.values() if labels
               for k in {0, len(labels) // 2, len(labels) - 1}]
    for kind, wrong in kinds.items():
        for target in targets:
            def corrupted(y, wrong=wrong, target=target):
                delta = cx.diagonal_of(y)
                return wrong(delta, y) if y == target else delta
            yield kind, target, ChainComplex(cx.basis, cx.boundary, corrupted)


@pytest.mark.parametrize("name", ["simplicial-D4sk1", "cobar-D4sk1",
                                  "standard-cube-3"])
def test_corrupted_coalgebra_witness_matches_reference(name):
    cx = COALGEBRAS[name]()
    failures = set()
    for kind, target, bad in corruptions(cx):
        verdict = bad.check_coalgebra()
        assert repr(verdict) == repr(reference_check_coalgebra(bad)), (
            kind, target)
        if not verdict.ok:
            failures.add(verdict.witness["check"])
    assert failures == {"diagonal_degree", "diagonal_chain_map",
                        "coassociativity", "counit"}


def test_diagonal_of_wrong_degree_fails_with_witness():
    # x -> 1 (x) x + x (x) 1 + x (x) x is counital, coassociative and
    # commutes with d, but x (x) x has degree 4 for the degree-2 word x
    cx = cubical_chains(CobarSet(fixture("D4sk1")), 2)
    word = nondeg("012", 2)
    x = next(y for y in cx.basis[2] if y == ((word, word), ()))

    def corrupted(y):
        delta = cx.diagonal_of(y)
        return add_scaled(dict(delta), {(x, x): 1}) if y == x else delta

    bad = ChainComplex(cx.basis, cx.boundary, corrupted)
    verdict = bad.check_coalgebra()
    assert not verdict.ok
    assert verdict.witness == {"check": "diagonal_degree", "label": x,
                               "term": (x, x)}
    assert repr(verdict) == repr(reference_check_coalgebra(bad))


def test_corrupted_diagonal_fails_with_witness():
    cx = cubical_chains(StandardCube(2), 2)
    assert cx.check_coalgebra().ok
    top = CubeMorphism.identity(2)

    def corrupted(y):
        delta = cx.diagonal_of(y)
        return {k: -c for k, c in delta.items()} if y == top else delta

    bad = ChainComplex(cx.basis, cx.boundary, corrupted)
    verdict = bad.check_coalgebra()
    assert not verdict.ok
    assert verdict.witness["check"] == "diagonal_chain_map"
    assert verdict.witness["label"] == top
    ident = {y: {y: 1} for y in all_labels(cx)}
    assert check_coalgebra_map(ChainMap(cx, cx, ident)).ok
    verdict = check_coalgebra_map(ChainMap(bad, cx, ident))
    assert not verdict.ok
    assert verdict.witness["check"] == "coalgebra_map"
    assert verdict.witness["label"] == top


def reference_check_chain_map(f):
    """``check_chain_map`` before the term-by-term comparison: both sides
    built as chains and compared whole."""
    for n in f.source.degrees:
        for label in f.source.basis[n]:
            for t, c in f.mapping[label].items():
                if f.target.degree_of(t) != n:
                    return Verdict.failed(
                        {"check": "degree", "label": label, "target": t})
            if n == 0:
                continue
            lhs = f.target.boundary_chain(f.mapping[label])
            rhs = f.apply(f.source.boundary[label])
            if lhs != rhs:
                return Verdict.failed(
                    {"check": "chain_map", "label": label, "d_f": lhs,
                     "f_d": rhs})
    return Verdict.passed()


def sign_flipped_triangulation():
    """The benchmark's negative control: the top cube's image negated."""
    _, _, _, tmap = triangulation_map(StandardCube(2), 3)
    top = CubeMorphism.identity(2)
    tmap.mapping[top] = {k: -c for k, c in tmap.mapping[top].items()}
    return tmap


def cobar_identification(sset, max_deg, corrupt=False):
    """The label identification that ``compare_models`` checks; with
    ``corrupt``, the cube of the first top-degree word with a nonzero
    boundary has its boundary negated."""
    omega = omega_complex(sset, max_deg)
    cchain = cubical_chains(CobarSet(sset), max_deg)
    if corrupt:
        w = next(w for w in omega.basis[max_deg] if omega.boundary[w])
        cube = cobar.word_to_cube(w)
        cchain.boundary[cube] = scaled(cchain.boundary[cube], -1)
    return ChainMap(omega, cchain, {
        w: {cobar.word_to_cube(w): 1}
        for words in omega.basis.values() for w in words})


def misfiled_word_map():
    """A degree-2 source word whose value is a degree-1 word's value."""
    fmap = word_map(SzProvider(LoopGroup(fixture("D4sk1"))), 2)
    w1, w2 = fmap.source.basis[1][0], fmap.source.basis[2][0]
    fmap.mapping[w2] = fmap.mapping[w1]
    return fmap


@pytest.mark.parametrize("build,ok", [
    (sign_flipped_triangulation, False),
    (lambda: triangulation_map(StandardCube(2), 3)[3], True),
    (lambda: cobar_identification(fixture("D4sk1"), 3), True),
    (lambda: cobar_identification(fixture("D4sk1"), 2, corrupt=True), False),
    (lambda: cobar_identification(fixture("D4sk1"), 3, corrupt=True), False),
    (lambda: word_map(SzProvider(LoopGroup(fixture("D4sk1"))), 2), True),
    (misfiled_word_map, False),
], ids=["sign-flip", "triangulation", "cobar-D4sk1", "cobar-corrupt-2",
        "cobar-corrupt-3", "word-map", "misfiled"])
def test_chain_map_witness_matches_reference(build, ok):
    f = build()
    verdict, reference = check_chain_map(f), reference_check_chain_map(f)
    assert verdict.ok == ok
    assert verdict == reference
    assert repr(verdict) == repr(reference)


def test_compare_models_differential_matches_reference(monkeypatch):
    true_chains = cobar.cubical_chains
    sset = fixture("D4sk1")
    omega = omega_complex(sset, 2)
    w = next(w for w in omega.basis[2] if omega.boundary[w])

    def corrupted(cset, max_deg):
        cchain = true_chains(cset, max_deg)
        cube = cobar.word_to_cube(w)
        cchain.boundary[cube] = scaled(cchain.boundary[cube], -1)
        return cchain

    monkeypatch.setattr(cobar, "cubical_chains", corrupted)
    verdicts = compare_models(sset, 2)[3]
    monkeypatch.setattr(cobar, "check_chain_map", reference_check_chain_map)
    reference = compare_models(sset, 2)[3]
    assert not verdicts["differential"].ok
    assert repr(verdicts) == repr(reference)
