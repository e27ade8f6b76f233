"""The simplicial n-cube: simplices as ordered partitions of the coordinate set.

An m-simplex of the simplicial n-cube is an ordered partition
``(u_0, u_1, ..., u_{m+1})`` of {1, ..., n} into m + 2 (possibly empty)
parts.  Vertex c of the simplex is the 0/1 point whose i-th coordinate is 1
exactly when i lies in ``u_0 | ... | u_c``; a coordinate in the last part is
0 at every vertex and one in the first part is 1 at every vertex.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cubes import CubeMorphism
from .perms import inversions, transposition, compose, invert
from .simplicial import SimplicialSet
from .verdict import Verdict


@functools.lru_cache(maxsize=None)
def _coordinates(n: int) -> frozenset:
    return frozenset(range(1, n + 1))


@dataclass(frozen=True)
class PartitionSimplex:
    n: int
    parts: tuple  # of frozensets, disjoint union {1..n}, length dim + 2

    def __post_init__(self):
        # {1..n} is the union of the parts and their sizes add up to n
        # exactly when every coordinate lies in exactly one part.
        parts = self.parts
        if len(parts) < 2:
            raise ValueError("need at least two parts")
        if (sum(map(len, parts)) != self.n
                or frozenset().union(*parts) != _coordinates(self.n)):
            raise ValueError("parts must partition {1..n}")

    @property
    def dim(self) -> int:
        return len(self.parts) - 2

    @property
    def is_degenerate(self) -> bool:
        return any(not p for p in self.parts[1:-1])

    def __repr__(self):
        body = "|".join("".join(map(str, sorted(p))) for p in self.parts)
        return f"<{body}>"

    # ----- coordinate views -----------------------------------------------------

    def part_index(self, coord: int) -> int:
        for k, p in enumerate(self.parts):
            if coord in p:
                return k
        raise ValueError(f"coordinate {coord} out of range")

    def bracket(self):
        """(k_1, ..., k_n): part index of each coordinate, plus the dimension."""
        ks = [0] * self.n
        for k, p in enumerate(self.parts):
            for i in p:
                ks[i - 1] = k
        return tuple(ks), self.dim

    def to_matrix(self):
        """Row i is the 0/1 step vector of coordinate i over the m+1 vertices."""
        m = self.dim
        ks, _ = self.bracket()
        return tuple(tuple(0 if c < k else 1 for c in range(m + 1)) for k in ks)

    def vertex(self, c: int) -> tuple:
        """The c-th vertex (0 <= c <= dim) as a 0/1 coordinate tuple."""
        ks, _ = self.bracket()
        return tuple(0 if c < k else 1 for k in ks)

    def vertices(self):
        ks, m = self.bracket()
        return [tuple(0 if c < k else 1 for k in ks) for c in range(m + 1)]


def from_parts(n: int, parts) -> PartitionSimplex:
    return PartitionSimplex(n, tuple(frozenset(p) for p in parts))


def from_matrix(rows) -> PartitionSimplex:
    """Inverse of :meth:`PartitionSimplex.to_matrix`; rows must be step vectors."""
    n = len(rows)
    if n == 0:
        raise ValueError("cannot infer the simplex dimension from no rows")
    m = len(rows[0]) - 1
    parts = [set() for _ in range(m + 2)]
    for i, row in enumerate(rows, 1):
        if len(row) != m + 1:
            raise ValueError("ragged matrix")
        k = sum(1 for v in row if v == 0)
        if tuple(row) != tuple(0 if c < k else 1 for c in range(m + 1)):
            raise ValueError(f"row {i} is not a 0*1* step vector: {row}")
        parts[k].add(i)
    return from_parts(n, parts)


def u_pi(pi) -> PartitionSimplex:
    """The nondegenerate n-simplex attached to a permutation of S_n."""
    n = len(pi)
    return from_parts(n, [()] + [(v,) for v in pi] + [()])


def partition_face(u: PartitionSimplex, j: int) -> PartitionSimplex:
    """d_j: merge parts j and j+1 (0 <= j <= dim)."""
    if not 0 <= j <= u.dim:
        raise ValueError("face index out of range")
    parts = (u.parts[:j] + (u.parts[j] | u.parts[j + 1],) + u.parts[j + 2:])
    return PartitionSimplex(u.n, parts)


def partition_degeneracy(u: PartitionSimplex, j: int) -> PartitionSimplex:
    """s_j: insert an empty part after part j (0 <= j <= dim)."""
    if not 0 <= j <= u.dim:
        raise ValueError("degeneracy index out of range")
    parts = u.parts[: j + 1] + (frozenset(),) + u.parts[j + 1:]
    return PartitionSimplex(u.n, parts)


class SimplicialCube(SimplicialSet):
    """The simplicial n-cube as a simplicial set of partition simplices."""

    def __init__(self, n: int):
        self.n = n

    def nondegenerate(self, m: int):
        """Ordered partitions of {1..n} with all inner parts nonempty."""
        out = []
        coords = range(1, self.n + 1)
        for assign in itertools.product(range(m + 2), repeat=self.n):
            if all(any(a == k for a in assign) for k in range(1, m + 1)):
                parts = [frozenset(c for c, a in zip(coords, assign) if a == k)
                         for k in range(m + 2)]
                out.append(PartitionSimplex(self.n, tuple(parts)))
        return out

    def dim(self, u: PartitionSimplex) -> int:
        return u.dim

    def face(self, u, i):
        if u.dim == 0:
            raise ValueError("a vertex has no faces")
        return partition_face(u, i)

    def degeneracy(self, u, i):
        return partition_degeneracy(u, i)

    def is_degenerate(self, u) -> bool:
        return u.is_degenerate


def lambda_star(lam: CubeMorphism, u: PartitionSimplex) -> PartitionSimplex:
    """Covariant coordinate pushforward along a cube-category morphism.

    Sends a simplex of the source cube to one of the target cube, the image
    of each vertex under ``lam``.  It works by the bracket rule: a coordinate
    in part k of u is 1 exactly at the vertices c >= k, so the minimum over a
    block B is 1 exactly at c >= max(k_v for v in B).  An output block B goes
    to part max(k_v), the constant 1 to part 0 and the constant 0 to part
    m + 1, where m is the dimension of u.
    """
    if u.n != lam.source:
        raise ValueError("coordinate count mismatch")
    ks, m = u.bracket()
    parts = [[] for _ in range(m + 2)]
    for j, out in enumerate(lam.outputs, 1):
        if out == 0:
            k = m + 1
        elif out == 1:
            k = 0
        else:
            k = max(ks[v - 1] for v in out)
        parts[k].append(j)
    return from_parts(lam.target, parts)


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
    return PartitionSimplex(n, tuple(parts))


def hereditary_path(pi, rho):
    """A walk pi -> rho by adjacent transpositions staying inside the common
    prefix blocks.

    Returns the list of intermediate permutations (including both ends); every
    consecutive pair differs by one adjacent transposition, and each swap
    happens strictly inside a block delimited by the positions b where
    ``{pi(1..b)} == {rho(1..b)}``.
    """
    n = len(pi)
    if sorted(pi) != sorted(rho) or sorted(pi) != list(range(1, n + 1)):
        raise ValueError("need two permutations of the same set")
    bars = [b for b in range(n + 1) if set(pi[:b]) == set(rho[:b])]
    path = [tuple(pi)]
    cur = list(pi)
    for lo, hi in zip(bars, bars[1:]):
        for pos in range(lo, hi):
            q = cur.index(rho[pos], lo, hi)
            while q > pos:
                cur[q - 1], cur[q] = cur[q], cur[q - 1]
                path.append(tuple(cur))
                q -= 1
    assert tuple(cur) == tuple(rho)
    return path


def common_bars(pi, rho):
    """Positions b with {pi(1..b)} == {rho(1..b)} (always contains 0 and n)."""
    n = len(pi)
    return [b for b in range(n + 1) if set(pi[:b]) == set(rho[:b])]


def extend_family(n: int, family: dict, target) -> tuple:
    """Glue a compatible family of n-simplices into a simplicial-cube evaluator.

    ``family`` maps each permutation of S_n to an n-simplex of ``target``
    (a :class:`~cobarlab.simplicial.SimplicialSet`).  The family is
    compatible when d_j x_pi == d_j x_{pi o (j, j+1)} for 0 < j < n; then a
    unique simplicial map from the simplicial n-cube is induced and its
    evaluator is returned as ``(eval, Verdict.passed())``.  On a violation
    returns ``(None, Verdict.failed(witness))``.
    """
    from .perms import all_perms

    for pi in all_perms(n):
        for j in range(1, n):
            rho = compose(pi, transposition(n, j))
            lhs = target.face(family[pi], j)
            rhs = target.face(family[rho], j)
            if lhs != rhs:
                return None, Verdict.failed(
                    {"check": "family_compatibility", "pi": pi, "j": j,
                     "lhs": lhs, "rhs": rhs})

    def evaluate(u: PartitionSimplex):
        if u.n != n:
            raise ValueError("coordinate count mismatch")
        pi = tuple(v for part in u.parts for v in sorted(part))
        # collapse inner empty parts; remember where they sat
        core = [u.parts[0]]
        insertions = []
        for t in range(1, len(u.parts) - 1):
            if u.parts[t]:
                core.append(u.parts[t])
            else:
                insertions.append(t)
        core.append(u.parts[-1])
        # the core is the face of u_pi keeping one bar per part boundary
        kept = set()
        acc = 0
        for part in core[:-1]:
            acc += len(part)
            kept.add(acc)
        x = family[pi]
        for j in sorted(set(range(n + 1)) - kept, reverse=True):
            x = target.face(x, j)
        for t in insertions:
            x = target.degeneracy(x, t - 1)
        return x

    return evaluate, Verdict.passed()


def combine_simplices(u: PartitionSimplex, w: PartitionSimplex) -> PartitionSimplex:
    """The simplex of the (k+l)-cube whose coordinate rows are those of u
    followed by those of w (both must have the same dimension)."""
    if u.dim != w.dim:
        raise ValueError("dimension mismatch")
    parts = tuple(p | frozenset(v + u.n for v in q)
                  for p, q in zip(u.parts, w.parts))
    return PartitionSimplex(u.n + w.n, parts)


def project_simplex(u: PartitionSimplex, lo: int, hi: int) -> PartitionSimplex:
    """Restrict to the coordinate window {lo..hi}, relabelled from 1."""
    parts = tuple(frozenset(v - lo + 1 for v in p if lo <= v <= hi)
                  for p in u.parts)
    return PartitionSimplex(hi - lo + 1, parts)


def decompose_product_simplex(pi, k: int):
    """Split the top simplex u_pi of the (k+l)-cube along the first k
    coordinates.

    Returns ``(sh, u_left, u_right)`` where sh is the (k, l)-shuffle from the
    value split of pi and the two factors are the degenerate expansions
    s_{beta-1} u_sigma and s_{alpha-1} u_tau; combining them coordinatewise
    gives back u_pi.
    """
    from .perms import psi_inv

    n = len(pi)
    sh, sigma, tau = psi_inv(pi, k)
    left = u_pi(sigma)
    for b in sh.beta:
        left = partition_degeneracy(left, b - 1)
    right = u_pi(tau)
    for a in sh.alpha:
        right = partition_degeneracy(right, a - 1)
    return sh, left, right


def realize(u: PartitionSimplex, weights) -> tuple:
    """Cube point of a barycentric point of the simplex, exactly.

    ``weights`` are the m+1 barycentric coordinates (Fractions summing to 1);
    coordinate j of the result is the total weight of vertices where t_j = 1.
    """
    m = u.dim
    weights = tuple(Fraction(w) for w in weights)
    if len(weights) != m + 1 or sum(weights) != 1:
        raise ValueError("need m+1 barycentric weights summing to 1")
    ks, _ = u.bracket()
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
