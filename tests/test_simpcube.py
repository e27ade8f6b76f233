import math
import pickle
from fractions import Fraction

import pytest

from cobarlab.cubes import CubeMorphism
from cobarlab.perms import all_perms, psi_inv
from cobarlab.simpcube import (PartitionSimplex, SimplicialCube,
                               combine_simplices, common_bars, extend_family,
                               from_parts, hereditary_path, lambda_star,
                               partition_face, partition_degeneracy,
                               project_simplex, u_pi)
from cobarlab.simplicial import shuffle_pair, sphere
from cobarlab.verify import (check_degeneracy_lemma, check_face_lemma,
                             check_hereditary)
from test_cubes import all_cube_morphisms, evaluate


# ----- coordinate views of a partition simplex --------------------------------------


def part_index(u: PartitionSimplex, coord: int) -> int:
    if not 1 <= coord <= u.n:
        raise ValueError(f"coordinate {coord} out of range")
    return u.ks[coord - 1]


def to_matrix(u: PartitionSimplex):
    """Row i is the 0/1 step vector of coordinate i over the m+1 vertices."""
    m = u.dim
    return tuple(tuple(0 if c < k else 1 for c in range(m + 1))
                 for k in u.ks)


def vertex(u: PartitionSimplex, c: int) -> tuple:
    """The c-th vertex (0 <= c <= dim) as a 0/1 coordinate tuple."""
    return tuple(0 if c < k else 1 for k in u.ks)


def vertices(u: PartitionSimplex):
    ks = u.ks
    return [tuple(0 if c < k else 1 for k in ks)
            for c in range(u.dim + 1)]


def from_matrix(rows) -> PartitionSimplex:
    """Inverse of :func:`to_matrix`; rows must be step vectors."""
    n = len(rows)
    if n == 0:
        raise ValueError("cannot infer the simplex dimension from no rows")
    m = len(rows[0]) - 1
    ks = []
    for i, row in enumerate(rows, 1):
        if len(row) != m + 1:
            raise ValueError("ragged matrix")
        k = sum(1 for v in row if v == 0)
        if tuple(row) != tuple(0 if c < k else 1 for c in range(m + 1)):
            raise ValueError(f"row {i} is not a 0*1* step vector: {row}")
        ks.append(k)
    return PartitionSimplex(n, ks, m)


def test_u_pi_shape():
    u = u_pi((2, 1, 3))
    assert u.parts == (frozenset(), frozenset({2}), frozenset({1}),
                       frozenset({3}), frozenset())
    assert u.dim == 3 and not u.is_degenerate


def test_top_simplices_triangulate():
    # the n! top simplices are exactly the nondegenerate n-simplices of
    # the simplicial n-cube with full support
    for n in range(1, 5):
        cube = SimplicialCube(n)
        tops = {u for u in cube.nondegenerate(n)
                if not u.parts[0] and not u.parts[-1]}
        assert tops == {u_pi(pi) for pi in all_perms(n)}
        assert len(tops) == math.factorial(n)


def test_simplicial_identities():
    for n in range(4):
        assert SimplicialCube(n).validate(n + 1).ok


def test_negative_simplicial_cube_is_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        SimplicialCube(-1).validate(2)


def face_by_bar_removal(pi, removed) -> PartitionSimplex:
    """Iterated face of u_pi obtained by deleting the bars in ``removed``.

    Bars are labelled 0..n between consecutive parts of u_pi; at most n of
    them can be removed (each removal is one face operation).
    """
    n = len(pi)
    removed = set(removed)
    if not removed <= set(range(n + 1)):
        raise ValueError("bar labels out of range")
    if len(removed) > n:
        raise ValueError("an n-simplex admits at most n face operations")
    kept = sorted(set(range(n + 1)) - removed)
    cuts = [0] + kept + [n]
    parts = [frozenset(pi[a:b]) for a, b in zip(cuts, cuts[1:])]
    return from_parts(n, parts)


def test_face_by_bar_removal_matches_iterated_faces():
    pi = (2, 3, 1)
    u = u_pi(pi)
    assert face_by_bar_removal(pi, []) == u
    assert face_by_bar_removal(pi, [0]) == partition_face(u, 0)
    assert face_by_bar_removal(pi, [3]) == partition_face(u, 3)
    assert face_by_bar_removal(pi, [1, 2]) == \
        partition_face(partition_face(u, 2), 1)
    with pytest.raises(ValueError):
        face_by_bar_removal(pi, [0, 1, 2, 3])


def test_pushforward_lemmas():
    assert check_face_lemma(4).ok
    assert check_degeneracy_lemma(4).ok


def test_hereditary_property():
    assert check_hereditary(4).ok
    path = hereditary_path((3, 1, 2), (1, 2, 3))
    assert path[0] == (3, 1, 2) and path[-1] == (1, 2, 3)
    assert common_bars((2, 1, 3), (1, 2, 3)) == [0, 2, 3]


def test_matrix_and_vertex_forms():
    u = u_pi((2, 1))
    assert from_parts(u.n, u.parts) == u
    assert from_matrix(to_matrix(u)) == u
    assert vertex(u, 0) == (0, 0)
    assert vertex(u, 2) == (1, 1)


def test_combine_project_roundtrip():
    a = u_pi((1, 2))
    b = u_pi((2, 1))
    c = combine_simplices(a, b)
    assert project_simplex(c, 1, 2) == a
    assert project_simplex(c, 3, 4) == b


def decompose_product_simplex(pi, k: int):
    """Split the top simplex u_pi of the (k+l)-cube along the first k
    coordinates.

    Returns ``(sh, u_left, u_right)`` where sh is the (k, l)-shuffle from the
    value split of pi and the two factors are the degenerate expansions
    s_{beta-1} u_sigma and s_{alpha-1} u_tau; combining them coordinatewise
    gives back u_pi.
    """
    sh, sigma, tau = psi_inv(pi, k)
    return (sh,) + shuffle_pair(SimplicialCube(k), SimplicialCube(len(pi) - k),
                                sh, u_pi(sigma), u_pi(tau))


def test_decompose_product_simplex():
    for pi in all_perms(3):
        for k in range(4):
            sh, a, b = decompose_product_simplex(pi, k)
            assert combine_simplices(a, b) == u_pi(pi)
            assert sh.k == k


def realize(u: PartitionSimplex, weights) -> tuple:
    """Cube point of a barycentric point of the simplex, exactly.

    ``weights`` are the m+1 barycentric coordinates (Fractions summing to 1);
    coordinate j of the result is the total weight of vertices where t_j = 1.
    """
    m = u.dim
    weights = tuple(Fraction(w) for w in weights)
    if len(weights) != m + 1 or sum(weights) != 1:
        raise ValueError("need m+1 barycentric weights summing to 1")
    ks = u.ks
    return tuple(sum(weights[k:], Fraction(0)) for k in ks)


def unrealize(point) -> tuple:
    """Inverse of :func:`realize` on the top-dimensional triangulation.

    Returns ``(pi, weights)`` with pi the coordinate order (descending
    values, ties broken by smaller label) such that
    ``realize(u_pi(pi), weights) == point``.
    """
    point = tuple(Fraction(b) for b in point)
    n = len(point)
    if any(not 0 <= b <= 1 for b in point):
        raise ValueError("cube coordinates must lie in [0, 1]")
    pi = tuple(sorted(range(1, n + 1), key=lambda j: (-point[j - 1], j)))
    weights = [1 - (point[pi[0] - 1] if n else Fraction(0))]
    for t in range(n - 1):
        weights.append(point[pi[t] - 1] - point[pi[t + 1] - 1])
    if n:
        weights.append(point[pi[n - 1] - 1])
    return pi, tuple(weights)


def test_realize_unrealize():
    u = u_pi((2, 1, 3))
    weights = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(0))
    point = realize(u, weights)
    assert unrealize(point) is not None


def test_extend_family_on_top_simplices():
    # the permutation-indexed family of top simplices of the cube itself
    # glues to the identity evaluator
    n = 2
    cube = SimplicialCube(n)
    family = {pi: u_pi(pi) for pi in all_perms(n)}
    evaluate, verdict = extend_family(n, family, cube)
    assert verdict.ok
    for pi in all_perms(n):
        assert evaluate(u_pi(pi)) == u_pi(pi)
        u = partition_face(u_pi(pi), 1)
        assert evaluate(u) == u
        w = partition_degeneracy(u_pi(pi), 0)
        assert evaluate(w) == w


def test_extend_family_rejects_incompatible_member():
    n = 2
    cube = SimplicialCube(n)
    family = {pi: u_pi(pi) for pi in all_perms(n)}
    family[(2, 1)] = partition_degeneracy(partition_face(u_pi((2, 1)), 2), 1)
    _, verdict = extend_family(n, family, cube)
    assert not verdict.ok
    assert verdict.witness is not None


def test_lambda_star_on_generators():
    u = u_pi((2, 1))
    # dropping coordinate 1 projects to the interval
    v = lambda_star(CubeMorphism.sigma(2, 1), u)
    assert v.n == 1 and v.dim == 2


def test_bracket_reads_part_index():
    for n in range(4):
        cube = SimplicialCube(n)
        for m in range(3):
            for u in cube.simplices(m):
                ks = bytes(part_index(u, i) for i in range(1, n + 1))
                assert (u.ks, u.dim) == (ks, m)
                with pytest.raises(ValueError):
                    part_index(u, n + 1)


def _lambda_star_by_vertices(lam, u):
    """Reference pushforward: map each vertex through lam and read the
    result back from its 0/1 matrix."""
    if lam.target == 0:
        return from_parts(0, tuple(frozenset() for _ in range(u.dim + 2)))
    cols = [evaluate(lam, v) for v in vertices(u)]
    rows = tuple(tuple(col[i] for col in cols) for i in range(lam.target))
    return from_matrix(rows)


def test_lambda_star_bracket_rule_matches_vertex_images():
    pairs = 0
    for s in range(4):
        simplices = [u for m in range(3) for u in SimplicialCube(s).simplices(m)]
        for t in range(4):
            for lam in all_cube_morphisms(s, t):
                for u in simplices:
                    assert lambda_star(lam, u) == _lambda_star_by_vertices(lam, u)
                    pairs += 1
    # targets of dimension 0 and constant outputs included
    assert pairs == 19280


# ----- simplices stored by their bracket --------------------------------------------


def _cube_simplices(max_n=3, max_dim=3):
    return [u for n in range(max_n + 1) for m in range(max_dim + 1)
            for u in SimplicialCube(n).simplices(m)]


def test_parts_round_trip_through_the_bracket():
    simplices = _cube_simplices()
    for u in simplices:
        for v in (from_parts(u.n, u.parts),
                  PartitionSimplex(u.n, u.ks, u.dim)):
            assert v == u and hash(v) == hash(u)
        assert u.is_degenerate == any(not p for p in u.parts[1:-1])
    assert len(set(simplices)) == len(simplices) == sum(
        (m + 2) ** n for n in range(4) for m in range(4))


def test_partition_simplex_value_semantics():
    u = u_pi((2, 1, 3))
    assert repr(u) == "<|2|1|3|>" and u.ks == bytes((2, 1, 3)) and u.dim == 3
    copy = pickle.loads(pickle.dumps(u))
    assert copy == u and hash(copy) == hash(u) and copy is not u
    assert u != PartitionSimplex(3, (2, 1, 3), 4)
    with pytest.raises(AttributeError):
        u.dim = 2


@pytest.mark.parametrize("n, ks, dim", [
    (2, (0, 3), 1),    # part index above dim + 1
    (2, (-1, 0), 1),   # negative part index
    (2, (0,), 1),      # one index short
    (1, (0, 1), 0),    # one index too many
    (1, (0,), -1),     # fewer than two parts
    (0, (), -1),
], ids=["high", "negative", "short", "long", "one-part", "no-parts"])
def test_bracket_constructor_rejects_malformed_brackets(n, ks, dim):
    with pytest.raises(ValueError):
        PartitionSimplex(n, ks, dim)


def test_derived_simplices_match_their_partition_formulas():
    # the formulas on the parts that the bracket rules replace
    for u in _cube_simplices():
        n, parts = u.n, u.parts
        for j in range(u.dim + 1):
            if u.dim:
                merged = parts[:j] + (parts[j] | parts[j + 1],) + parts[j + 2:]
                assert partition_face(u, j) == from_parts(n, merged)
            spread = parts[:j + 1] + (frozenset(),) + parts[j + 1:]
            assert partition_degeneracy(u, j) == from_parts(n, spread)
        for lo in range(1, n + 2):
            for hi in range(lo - 1, n + 1):
                window = [[v - lo + 1 for v in p if lo <= v <= hi]
                          for p in parts]
                assert project_simplex(u, lo, hi) == \
                    from_parts(hi - lo + 1, window)
    for u in _cube_simplices(2, 2):
        for w in _cube_simplices(2, 2):
            if u.dim == w.dim:
                joined = [p | {v + u.n for v in q}
                          for p, q in zip(u.parts, w.parts)]
                assert combine_simplices(u, w) == from_parts(u.n + w.n, joined)


@pytest.mark.parametrize("lo, hi", [(0, 1), (2, 4), (3, 1)])
def test_project_simplex_rejects_windows_outside_the_cube(lo, hi):
    with pytest.raises(ValueError):
        project_simplex(u_pi((2, 1, 3)), lo, hi)


def test_extend_family_of_top_simplices_is_the_identity_everywhere():
    # the evaluator reads each simplex's bracket; gluing the cube's own top
    # simplices must give back every simplex, degenerate ones included
    for n in range(4):
        cube = SimplicialCube(n)
        evaluate, verdict = extend_family(
            n, {pi: u_pi(pi) for pi in all_perms(n)}, cube)
        assert verdict.ok
        for m in range(4):
            for u in cube.simplices(m):
                assert evaluate(u) == u
