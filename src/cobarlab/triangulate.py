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
from dataclasses import dataclass

from .chains import Chain, ChainComplex, ChainMap, add_scaled
from .cubes import CubeMorphism, CubicalSet, cubical_chains
from .perms import all_perms, sign
from .simpcube import (PartitionSimplex, SimplicialCube, combine_simplices,
                       lambda_star, partition_degeneracy, partition_face,
                       project_simplex, u_pi)
from .simplicial import SimplicialSet, simplicial_chains


@dataclass(frozen=True)
class TriSimplex:
    cube: object
    simplex: PartitionSimplex

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


class TriangulatedCubicalSet(SimplicialSet):
    """The triangulation of a cubical set, as a simplicial set of reduced
    representatives.  ``max_dim`` bounds the cube dimensions enumerated.

    What the identifications read of a cube (its faces, and where it is
    degenerate or folded) is computed once per cube and kept with the
    triangulation, which frees it."""

    def __init__(self, cset: CubicalSet, max_dim: int):
        self.cset = cset
        self.max_dim = max_dim
        self._sides = {}

    # ----- reduction to the canonical representative -----------------------------

    def _cube_side(self, y):
        """What the identifications read of the cube y, computed once per
        cube: its dimension n, its 0- and 1-faces at coordinates 1..n, the
        coordinates i with y = s_i d0_i y and those with y = g_i d1_i y."""
        side = self._sides.get(y)
        if side is None:
            cset = self.cset
            n = cset.dim(y)
            lower = [cset.face(y, 0, i) for i in range(1, n + 1)]
            upper = [cset.face(y, 1, i) for i in range(1, n + 1)]
            side = self._sides[y] = (
                n, lower, upper,
                [i for i in range(1, n + 1)
                 if cset.degen(lower[i - 1], i) == y],
                [i for i in range(1, n)
                 if cset.conn(upper[i - 1], i) == y])
        return side

    def _reductions(self, y, u):
        """The applicable identifications, lazily, in a fixed scan order."""
        n, lower, upper, degenerate, folded = self._cube_side(y)
        # coordinates in the first part, then in the last, increasing
        for i, k in enumerate(u.ks, 1):
            if k == 0:
                yield upper[i - 1], lambda_star(CubeMorphism.sigma(n, i), u)
        for i, k in enumerate(u.ks, 1):
            if k == u.dim + 1:
                yield lower[i - 1], lambda_star(CubeMorphism.sigma(n, i), u)
        for i in degenerate:
            yield lower[i - 1], lambda_star(CubeMorphism.sigma(n, i), u)
        for i in folded:
            yield upper[i - 1], lambda_star(CubeMorphism.gamma(n, i), u)

    def canon(self, y, u: PartitionSimplex) -> TriSimplex:
        """The reduced representative, reached by applying the first
        applicable identification until none applies."""
        if self.cset.dim(y) != u.n:
            raise ValueError("cube dimension must match the simplex coordinates")
        while True:
            step = next(self._reductions(y, u), None)
            if step is None:
                return TriSimplex(y, u)
            y, u = step

    # ----- simplicial set interface -----------------------------------------------

    def nondegenerate(self, m: int):
        out = []
        for n in range(m, self.max_dim + 1):
            for y in self.cset.normalized(n):
                for u in full_support_simplices(n, m):
                    out.append(TriSimplex(y, u))
        return out

    def dim(self, x: TriSimplex) -> int:
        return x.simplex.dim

    def face(self, x: TriSimplex, i: int) -> TriSimplex:
        return self.canon(x.cube, partition_face(x.simplex, i))

    def degeneracy(self, x: TriSimplex, i: int) -> TriSimplex:
        return self.canon(x.cube, partition_degeneracy(x.simplex, i))


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
