import pytest

from cobarlab import simpcube, szczarba, triangulate
from cobarlab.chains import (check_chain_map, check_coalgebra_map,
                             check_quasi_iso)
from cobarlab.cobar import CobarSet
from cobarlab.cubes import CubeMorphism, ProductCubicalSet, StandardCube
from cobarlab.loopgroup import LoopGroup
from cobarlab.perms import all_perms
from cobarlab.simpcube import (SimplicialCube, lambda_star, partition_degeneracy,
                               partition_face, u_pi)
from cobarlab.simplicial import fixture, sphere
from cobarlab.triangulate import (TriangulatedCubicalSet, TriSimplex,
                                  full_support_simplices, triangulation_map,
                                  product_split_backward,
                                  product_split_forward)


def reductions(tri, y, u):
    """The applicable identifications of (y, u), lazily, in the scan order
    of ``canon``, read from the triangulation's store of cube sides."""
    side = tri._cube_side(y)
    n = side.n
    lower = [tri._face_side(side.lower, i).cube for i in range(n)]
    upper = [tri._face_side(side.upper, i).cube for i in range(n)]
    # coordinates in the first part, then in the last, increasing
    for i, k in enumerate(u.ks, 1):
        if k == 0:
            yield upper[i - 1], lambda_star(CubeMorphism.sigma(n, i), u)
    for i, k in enumerate(u.ks, 1):
        if k == u.dim + 1:
            yield lower[i - 1], lambda_star(CubeMorphism.sigma(n, i), u)
    for i in side.degenerate:
        yield lower[i - 1], lambda_star(CubeMorphism.sigma(n, i), u)
    for i in side.folded:
        yield upper[i - 1], lambda_star(CubeMorphism.gamma(n, i), u)


def reduction_options(tri, y, u):
    """Every applicable identification, in the scan order of canon."""
    return list(reductions(tri, y, u))


def test_full_support_counts():
    # m-simplices touching every wall: surjections {1..n} -> {1..m}
    assert len(list(full_support_simplices(2, 1))) == 1
    assert len(list(full_support_simplices(2, 2))) == 2
    assert len(list(full_support_simplices(3, 2))) == 6
    assert list(full_support_simplices(0, 0))


def test_triangulated_cube_is_simplicial():
    for n in range(3):
        tri = TriangulatedCubicalSet(StandardCube(n), n)
        assert tri.validate(n).ok


def canon_is_order_independent():
    """Whether each of the two applicable first reductions of [s_1 g_1 of
    the identity; u_(1234)] in the 2-cube reaches the normal form."""
    cube = StandardCube(2)
    tri = TriangulatedCubicalSet(cube, 2)
    y = cube.degen(cube.conn(CubeMorphism.identity(2), 1), 1)
    u = u_pi((1, 2, 3, 4))
    expected = tri.canon(y, u)
    options = reduction_options(tri, y, u)
    return len(options) == 2 and all(tri.canon(y2, u2) == expected
                                     for y2, u2 in options)


def test_canon_is_reduction_order_independent():
    assert canon_is_order_independent()


def test_one_folding_rule_serves_canon_and_the_glued_map(monkeypatch):
    # canon and the glued map's reader fold a bracket by the one step of
    # simpcube; keeping the earlier part in its place must break both
    def keep_earlier(ks, i):
        return ks[:i - 1] + bytes((min(ks[i - 1], ks[i]),)) + ks[i + 1:]

    shared = simpcube._fold_bracket
    for module in (simpcube, triangulate, szczarba):
        assert module._fold_bracket is shared
        monkeypatch.setattr(module, "_fold_bracket", keep_earlier)
    f = szczarba.CobarToGroupMap(
        szczarba.SzProvider(LoopGroup(fixture("D4sk1"))))
    assert not szczarba.build_f(f, 2).ok
    assert not canon_is_order_independent()


@pytest.mark.parametrize("cset", [StandardCube(2), CobarSet(sphere(2))],
                         ids=["cube-2", "cobar-S2"])
def test_canon_is_first_reduction_fixed_point(cset):
    tri = TriangulatedCubicalSet(cset, 2)
    pairs = 0
    for n in range(3):
        simplices = [u for m in range(3) for u in SimplicialCube(n).simplices(m)]
        for y in cset.cubes(n):
            for u in simplices:
                # reference: apply the first listed reduction until none is left
                y2, u2 = y, u
                while options := reduction_options(tri, y2, u2):
                    y2, u2 = options[0]
                assert tri.canon(y, u) == TriSimplex(y2, u2)
                pairs += 1
    assert pairs


@pytest.mark.parametrize("n", range(4))
def test_triangulation_map_on_cubes(n):
    _, _, _, tmap = triangulation_map(StandardCube(n), n + 1)
    assert check_chain_map(tmap).ok
    assert check_coalgebra_map(tmap).ok
    assert check_quasi_iso(tmap, range(n + 1)).ok


def test_triangulation_map_on_product():
    prod = ProductCubicalSet(StandardCube(1), StandardCube(1))
    _, _, _, tmap = triangulation_map(prod, 3)
    assert check_chain_map(tmap).ok
    assert check_quasi_iso(tmap, range(3)).ok


def test_triangulation_map_on_cobar_sphere():
    cset = CobarSet(sphere(2))
    _, cy, ct, tmap = triangulation_map(cset, 3)
    assert check_chain_map(tmap).ok
    assert check_quasi_iso(tmap, range(3)).ok
    # loop-space chains of the sphere: one generator per degree
    for n in range(3):
        assert ct.homology(n).betti == 1
        assert not ct.homology(n).torsion


def test_sign_flip_breaks_chain_map():
    cube = StandardCube(2)
    tri, cy, ct, tmap = triangulation_map(cube, 3)
    top = CubeMorphism.identity(2)
    tmap.mapping[top] = {k: -c for k, c in tmap.mapping[top].items()}
    verdict = check_chain_map(tmap)
    assert not verdict.ok
    assert verdict.witness is not None


def test_product_splitting_bijection():
    left = StandardCube(1)
    right = StandardCube(1)
    prod = ProductCubicalSet(left, right)
    tri_prod = TriangulatedCubicalSet(prod, 2)
    tri_left = TriangulatedCubicalSet(left, 1)
    tri_right = TriangulatedCubicalSet(right, 1)
    seen = set()
    for m in range(3):
        for x in tri_prod.nondegenerate(m):
            a, b = product_split_backward(tri_left, tri_right, prod, x)
            assert product_split_forward(tri_prod, prod, a, b) == x
            seen.add((a, b))
    assert len(seen) == sum(len(tri_prod.nondegenerate(m)) for m in range(3))


def reference_reductions(tri, y, u):
    """The identifications of (y, u) in the scan order of ``canon``, with
    every face and operator image read afresh from the cubical set."""
    cset = tri.cset
    n = cset.dim(y)
    for i, k in enumerate(u.ks, 1):
        if k == 0:
            yield (cset.face(y, 1, i),
                   lambda_star(CubeMorphism.sigma(n, i), u))
    for i, k in enumerate(u.ks, 1):
        if k == u.dim + 1:
            yield (cset.face(y, 0, i),
                   lambda_star(CubeMorphism.sigma(n, i), u))
    for i in range(1, n + 1):
        fy = cset.face(y, 0, i)
        if cset.degen(fy, i) == y:
            yield (fy, lambda_star(CubeMorphism.sigma(n, i), u))
    for i in range(1, n):
        fy = cset.face(y, 1, i)
        if cset.conn(fy, i) == y:
            yield (fy, lambda_star(CubeMorphism.gamma(n, i), u))


def reference_canon(tri, y, u):
    while (step := next(reference_reductions(tri, y, u), None)) is not None:
        y, u = step
    return TriSimplex(y, u)


def patch_reference_reductions(patch):
    """Make ``canon``, ``face`` and ``degeneracy`` of every triangulation
    reduce through :func:`reference_canon`, as they all did through one
    reduction scan before ``face`` and ``degeneracy`` cut brackets.
    Returns a list that gets one entry per reference reduction."""
    calls = []

    def canon(tri, y, u):
        calls.append((y, u))
        return reference_canon(tri, y, u)

    patch.setattr(TriangulatedCubicalSet, "canon", canon)
    patch.setattr(TriangulatedCubicalSet, "face", lambda tri, x, i: canon(
        tri, x.cube, partition_face(x.simplex, i)))
    patch.setattr(TriangulatedCubicalSet, "degeneracy",
                  lambda tri, x, i: canon(
                      tri, x.cube, partition_degeneracy(x.simplex, i)))
    return calls


@pytest.mark.parametrize("build", [
    lambda: StandardCube(3), lambda: CobarSet(sphere(2)),
    lambda: CobarSet(fixture("D4sk1"))], ids=["cube-3", "cobar-S2", "cobar-D4sk1"])
def test_reductions_match_reference(build):
    cset = build()
    tri = TriangulatedCubicalSet(cset, 2)
    pairs = []
    # every canonical simplex, with its faces and degeneracies ...
    for m in range(3):
        for ts in tri.nondegenerate(m):
            u = ts.simplex
            pairs += [(ts.cube, v) for v in (
                [u] + [partition_face(u, i) for i in range(m + 1) if m]
                + [partition_degeneracy(u, i) for i in range(m + 1)])]
    # ... and every cube, degenerate and folded ones included
    for n in range(3):
        simplices = [u for m in range(3) for u in SimplicialCube(n).simplices(m)]
        pairs += [(y, u) for y in cset.cubes(n) for u in simplices]
    for y, u in pairs:
        assert reduction_options(tri, y, u) == list(
            reference_reductions(tri, y, u)), (y, u)
        assert tri.canon(y, u) == reference_canon(tri, y, u), (y, u)
    assert pairs


def test_tri_simplex_is_an_immutable_value():
    import pickle

    tri = TriangulatedCubicalSet(CobarSet(fixture("D4sk1")), 2)
    ts = tri.nondegenerate(2)[-1]
    fresh = TriSimplex(ts.cube, ts.simplex)
    assert ts == fresh and hash(ts) == hash(fresh) and ts is not fresh
    assert hash(ts) == hash((ts.cube, ts.simplex))
    assert {ts: 1}[fresh] == 1
    assert ts != TriSimplex(ts.cube, partition_face(ts.simplex, 0))
    assert ts != (ts.cube, ts.simplex)
    # the repr of the former dataclass, which witnesses print
    assert repr(ts) == f"[{ts.cube!r}; {ts.simplex!r}]"
    copy = pickle.loads(pickle.dumps(ts))
    assert copy == ts and hash(copy) == hash(ts)
    with pytest.raises(AttributeError, match="immutable"):
        ts.cube = fresh.cube
    with pytest.raises(AttributeError, match="immutable"):
        del ts.simplex
    assert ts == fresh


@pytest.mark.parametrize("build", [
    lambda: StandardCube(3), lambda: CobarSet(fixture("D4sk1"))],
    ids=["cube-3", "cobar-D4sk1"])
def test_canonical_simplices_share_their_cubes(build):
    tri = TriangulatedCubicalSet(build(), 2)
    cubes = {}
    for m in range(3):
        for ts in tri.nondegenerate(m):
            out = [ts] + [tri.face(ts, i) for i in range(m + 1) if m]
            out += [tri.degeneracy(ts, i) for i in range(m + 1)]
            for x in out:
                # equal cubes of canonical simplices are one object
                assert cubes.setdefault(x.cube, x.cube) is x.cube
    assert cubes
