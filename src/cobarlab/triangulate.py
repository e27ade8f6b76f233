"""Triangulation of cubical sets.

An m-simplex of the triangulation of a cubical set Y is a class [y, u] with
y an n-cube of Y and u an m-simplex of the simplicial n-cube, modulo three
identifications: u lying in a coordinate face of the cube (replace y by that
face), y degenerate (strip the degeneracy, project u), and y folded (strip
the connection, fold u).  Every class has a unique reduced representative:
y neither degenerate nor folded and u touching every coordinate wall.
"""

from __future__ import annotations

import itertools

from .chains import Chain, ChainMap, add_scaled
from .cubes import CubicalSet, cubical_chains
from .perms import all_perms, sign
from .simpcube import (PartitionSimplex, _degeneracy_bracket, _drop_bracket,
                       _face_bracket, _fold_bracket, combine_simplices,
                       project_simplex, u_pi)
from .simplicial import SimplicialSet, simplicial_chains
from .verdict import Frozen


class TriSimplex(Frozen):
    """The class [cube; simplex] of the triangulation, stored by its
    reduced representative.

    Immutable; equality and hashing are on ``(cube, simplex)``, and the
    hash is computed once, at construction, since simplices of the
    triangulation are keys of the chain builder's and the glued-map
    checks' tables.
    """

    _fields = ("cube", "simplex")
    __slots__ = _fields + ("_hash",)

    def __init__(self, cube, simplex: PartitionSimplex):
        init = object.__setattr__
        init(self, "cube", cube)
        init(self, "simplex", simplex)
        init(self, "_hash", hash((cube, simplex)))

    def __eq__(self, other):
        if other.__class__ is not TriSimplex:
            return NotImplemented
        return self is other or (self._hash == other._hash
                                 and self.simplex == other.simplex
                                 and self.cube == other.cube)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"[{self.cube!r}; {self.simplex!r}]"


def full_support_simplices(n: int, m: int):
    """Nondegenerate m-simplices of the simplicial n-cube lying in no
    coordinate face: ordered partitions of {1..n} into m nonempty inner parts
    with empty end parts."""
    if m == 0:
        if n == 0:
            yield PartitionSimplex(0, (), 0)
        return
    if not 1 <= m <= n:
        return
    for ks in itertools.product(range(1, m + 1), repeat=n):
        if len(set(ks)) == m:
            yield PartitionSimplex(n, ks, m)


class _Side:
    """What the identifications read of one cube: the cube, its dimension
    n, its 0- and 1-faces at coordinates 1..n (``lower`` and ``upper``),
    the coordinates i with y = s_i d0_i y (``degenerate``) and those with
    y = g_i d1_i y (``folded``).  Every index is in range, so each
    operator is the one the set's ``_bind`` hands out, used once.  A face
    in ``lower`` or ``upper`` is replaced by its own side the first time a
    reduction steps to it."""

    __slots__ = ("cube", "n", "lower", "upper", "degenerate", "folded")

    def __init__(self, cset: CubicalSet, y):
        bind = cset._bind
        n = cset.dim(y)
        lower = [bind(n, ("d", 0, i))(y) for i in range(1, n + 1)]
        upper = [bind(n, ("d", 1, i))(y) for i in range(1, n + 1)]
        self.cube = y
        self.n = n
        self.lower = lower
        self.upper = upper
        self.degenerate = [i for i in range(1, n + 1)
                           if bind(n - 1, ("s", i))(lower[i - 1]) == y]
        self.folded = [i for i in range(1, n)
                       if bind(n - 1, ("g", i))(upper[i - 1]) == y]


class TriangulatedCubicalSet(SimplicialSet):
    """The triangulation of a cubical set, as a simplicial set of reduced
    representatives.  ``max_dim`` bounds the cube dimensions enumerated.

    What the identifications read of a cube (its faces, and where it is
    degenerate or folded) is computed once per cube, through the operators
    the set's ``_bind`` hands out, and kept with the triangulation, which
    frees it; a set whose bound operators store their results (a
    ``CobarSet``'s bound faces do) keeps those faces as long as the set
    lives.  A reduction steps from a cube's side to its face's side by
    reference, so once the faces on its way have been met, a canonical
    representative is reached with one store lookup.  Its cube is the
    object that keys the store: equal cubes of canonical simplices, those
    that :meth:`nondegenerate` lists included, are one object, and
    comparing them is an identity test."""

    def __init__(self, cset: CubicalSet, max_dim: int):
        self.cset = cset
        self.max_dim = max_dim
        self._sides = {}

    # ----- reduction to the canonical representative -----------------------------

    def _cube_side(self, y) -> _Side:
        """The side of the cube y, computed once per cube."""
        side = self._sides.get(y)
        if side is None:
            side = self._sides[y] = _Side(self.cset, y)
        return side

    def _face_side(self, faces: list, i: int) -> _Side:
        """The side of ``faces[i]``, put in its place on first use."""
        face = faces[i]
        if face.__class__ is not _Side:
            face = faces[i] = self._cube_side(face)
        return face

    def _canon(self, side: _Side, ks: bytes, m: int, u=None) -> TriSimplex:
        """The reduced representative of the class of the cube of
        ``side`` and the m-simplex with bracket ks.

        The first applicable identification is applied until none
        applies, in a fixed scan order: a coordinate in the first part
        (replace the cube by its 1-face there), then one in the last part
        (its 0-face), then a coordinate where the cube is degenerate, then
        one where it is folded, each the lowest such coordinate.  Each
        step cuts the bracket by the rule of ``simpcube``: a projection
        drops coordinate i (:func:`~.simpcube._drop_bracket`), a folding
        merges coordinates i and i + 1 (:func:`~.simpcube._fold_bracket`).
        The simplex is built once, at the end, unless u, the simplex with
        bracket ks, is the answer."""
        face_side = self._face_side
        while True:
            # i is a coordinate, 1 <= i <= n, and its faces are at i - 1
            if 0 in ks:
                faces, i = side.upper, ks.index(0) + 1
            elif m + 1 in ks:
                faces, i = side.lower, ks.index(m + 1) + 1
            elif side.degenerate:
                faces, i = side.lower, side.degenerate[0]
            elif side.folded:
                i = side.folded[0]
                side, ks = face_side(side.upper, i - 1), _fold_bracket(ks, i)
                continue
            else:
                break
            side, ks = face_side(faces, i - 1), _drop_bracket(ks, i)
        if u is None or ks is not u.ks:
            u = PartitionSimplex(side.n, ks, m)
        return TriSimplex(side.cube, u)

    def canon(self, y, u: PartitionSimplex) -> TriSimplex:
        """The reduced representative of [y; u], reached by applying the
        first applicable identification until none applies (see
        :meth:`_canon` for their scan order).

        The cube's dimension and faces are read from its stored side, the
        bracket of u is cut step by step with no generator and no
        intermediate simplex, and the simplex of the result is built once,
        at the end; it is u itself when no identification applies."""
        side = self._cube_side(y)
        if side.n != u.n:
            raise ValueError("cube dimension must match the simplex coordinates")
        return self._canon(side, u.ks, u.dim, u)

    # ----- simplicial set interface -----------------------------------------------

    def nondegenerate(self, m: int):
        out = []
        for n in range(m, self.max_dim + 1):
            for y in self.cset.normalized(n):
                y = self._cube_side(y).cube
                for u in full_support_simplices(n, m):
                    out.append(TriSimplex(y, u))
        return out

    def dim(self, x: TriSimplex) -> int:
        return x.simplex.dim

    def face(self, x: TriSimplex, i: int) -> TriSimplex:
        u = x.simplex
        return self._canon(self._cube_side(x.cube), _face_bracket(u, i),
                           u.dim - 1)

    def degeneracy(self, x: TriSimplex, i: int) -> TriSimplex:
        u = x.simplex
        return self._canon(self._cube_side(x.cube),
                           _degeneracy_bracket(u, i), u.dim + 1)


def triangulation_map(cset: CubicalSet, max_dim: int):
    """The canonical chain map from cubical chains to triangulated chains.

    Sends an n-cube y to the signed sum over permutations of the classes
    [y, u_pi].  Returns (triangulation, cubical chains, simplicial chains,
    chain map).
    """
    tri = TriangulatedCubicalSet(cset, max_dim)
    cy = cubical_chains(cset, max_dim)
    ct = simplicial_chains(tri, max_dim)
    mapping = {}
    for n in cy.degrees:
        for y in cy.basis[n]:
            chain: Chain = {}
            for pi in all_perms(n):
                add_scaled(chain, {TriSimplex(y, u_pi(pi)): 1}, sign(pi))
            mapping[y] = chain
    return tri, cy, ct, ChainMap(cy, ct, mapping)


def product_split_forward(tri_prod: TriangulatedCubicalSet, prod, a: TriSimplex,
                          b: TriSimplex) -> TriSimplex:
    """From a pair of triangulated simplices to a simplex of the triangulated
    product: multiply the cubes, juxtapose the coordinate rows."""
    return tri_prod.canon(prod.pair(a.cube, b.cube),
                          combine_simplices(a.simplex, b.simplex))


def product_split_backward(tri_left: TriangulatedCubicalSet,
                           tri_right: TriangulatedCubicalSet, prod,
                           x: TriSimplex):
    """Inverse of :func:`product_split_forward` on canonical classes."""
    y, z = x.cube
    k = prod.left.dim(y)
    n = x.simplex.n
    a = tri_left.canon(y, project_simplex(x.simplex, 1, k))
    b = tri_right.canon(z, project_simplex(x.simplex, k + 1, n))
    return a, b
