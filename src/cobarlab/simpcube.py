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
from operator import methodcaller

from .cubes import CubeMorphism
from .perms import compose, transposition
from .simplicial import (SimplicialSet, degeneracy_words,
                         simplicial_identities)
from .verdict import Frozen, Store, Verdict, check_coded_identities

# the largest dimension of a partition simplex: its last part index,
# dim + 1, must fit in a byte
MAX_DIM = 254


class PartitionSimplex(Frozen):
    """An m-simplex of the simplicial n-cube, stored by its bracket.

    ``PartitionSimplex(n, ks, dim)`` is the dim-simplex whose coordinate i
    lies in part ``ks[i - 1]``; :func:`from_parts` builds one from its
    ordered partition.  The bracket is kept as ``bytes``, one part index
    per coordinate, so one object is the field, the hash input and the
    key of a cube's store, and a face or degeneracy is one
    ``bytes.translate``.  A part index is at most 255, so the dimension is
    at most 254.  Immutable; equality and hashing are on ``(n, ks,
    dim)``, which determine the parts, and the hash is computed once, at
    construction.
    """

    _fields = ("n", "ks", "dim")
    __slots__ = _fields + ("_hash",)

    def __init__(self, n: int, ks, dim: int):
        # the partition invariant in bracket form: one part index per
        # coordinate, each in 0..dim+1, and at least two parts
        if dim > MAX_DIM:
            raise ValueError(f"a partition simplex has dimension at most"
                             f" {MAX_DIM}, since its part indices are"
                             f" bytes; got {dim}")
        if ks.__class__ is not bytes:
            # bytes(k) of an int k would be k zero bytes
            ks = bytes(list(ks))
        if len(ks) != n:
            raise ValueError("bracket needs one part index per coordinate")
        if dim < 0:
            raise ValueError("need at least two parts")
        if ks and max(ks) > dim + 1:
            raise ValueError("part index out of range")
        init = object.__setattr__
        init(self, "n", n)
        init(self, "ks", ks)
        init(self, "dim", dim)
        init(self, "_hash", hash((ks, dim)))

    def __eq__(self, other):
        if other.__class__ is not PartitionSimplex:
            return NotImplemented
        # the bracket's length is n
        return self is other or (self._hash == other._hash
                                 and self.ks == other.ks
                                 and self.dim == other.dim)

    def __hash__(self):
        return self._hash

    @property
    def parts(self) -> tuple:
        """The ordered partition, one frozenset per part."""
        parts = [[] for _ in range(self.dim + 2)]
        for i, k in enumerate(self.ks, 1):
            parts[k].append(i)
        return tuple(map(frozenset, parts))

    @property
    def is_degenerate(self) -> bool:
        inner = set(self.ks)
        inner.discard(0)
        inner.discard(self.dim + 1)
        return len(inner) < self.dim

    def __repr__(self):
        body = "|".join("".join(map(str, sorted(p))) for p in self.parts)
        return f"<{body}>"


def from_parts(n: int, parts) -> PartitionSimplex:
    """The simplex of the ordered partition ``parts`` of {1..n}."""
    parts = tuple(parts)
    # {1..n} is the union of the parts and their sizes add up to n
    # exactly when every coordinate lies in exactly one part.
    if (sum(map(len, parts)) != n
            or set().union(*parts) != set(range(1, n + 1))):
        raise ValueError("parts must partition {1..n}")
    ks = [0] * n
    for k, p in enumerate(parts):
        for i in p:
            ks[i - 1] = k
    return PartitionSimplex(n, ks, len(parts) - 2)


def u_pi(pi) -> PartitionSimplex:
    """The nondegenerate n-simplex attached to a permutation of S_n: its
    inner parts are the singletons {pi(1)}, ..., {pi(n)}, so coordinate v
    lies in part pi^-1(v).  Raises ``ValueError`` unless pi is a permutation
    of 1..n."""
    n = len(pi)
    return PartitionSimplex(n, [pi.index(v) + 1 for v in range(1, n + 1)], n)


@functools.lru_cache(maxsize=None)
def _face_table(j: int) -> bytes:
    """The translation table of d_j: part k stays for k <= j and becomes
    k - 1 above, so parts j and j + 1 merge."""
    return bytes(range(j + 1)) + bytes(range(j, 255))


@functools.lru_cache(maxsize=None)
def _degeneracy_table(j: int) -> bytes:
    """The translation table of s_j: part k stays for k <= j and becomes
    k + 1 above, so part j + 1 is empty.  Index 255 is the last part of a
    254-simplex, which has no degeneracy; it is left in place."""
    return bytes(range(j + 1)) + bytes(range(j + 2, 256)) + b"\xff"


def _face_bracket(u: PartitionSimplex, j: int) -> bytes:
    """The bracket of d_j u: parts j and j+1 merged (0 <= j <= dim)."""
    if not 0 <= j <= u.dim:
        raise ValueError("face index out of range")
    return u.ks.translate(_face_table(j))


def _degeneracy_bracket(u: PartitionSimplex, j: int) -> bytes:
    """The bracket of s_j u: an empty part inserted after part j
    (0 <= j <= dim)."""
    if not 0 <= j <= u.dim:
        raise ValueError("degeneracy index out of range")
    return u.ks.translate(_degeneracy_table(j))


def _drop_bracket(ks: bytes, i: int) -> bytes:
    """ks pushed along the projection s_i (1 <= i <= len(ks)): coordinate
    i is dropped."""
    return ks[:i - 1] + ks[i:]


def _fold_bracket(ks: bytes, i: int) -> bytes:
    """ks pushed along the connection g_i (1 <= i < len(ks)): coordinates
    i and i + 1 merge into the later of their two parts, so the one in
    the earlier part is dropped."""
    if ks[i - 1] <= ks[i]:
        return ks[:i - 1] + ks[i:]
    return ks[:i] + ks[i + 1:]


def partition_face(u: PartitionSimplex, j: int) -> PartitionSimplex:
    """d_j: merge parts j and j+1 (0 <= j <= dim)."""
    return PartitionSimplex(u.n, _face_bracket(u, j), u.dim - 1)


def partition_degeneracy(u: PartitionSimplex, j: int) -> PartitionSimplex:
    """s_j: insert an empty part after part j (0 <= j <= dim)."""
    return PartitionSimplex(u.n, _degeneracy_bracket(u, j), u.dim + 1)


class SimplicialCube(SimplicialSet):
    """The simplicial n-cube as a simplicial set of partition simplices.

    The complex stores each simplex it hands out, one
    :class:`~.verdict.Store` per dimension keyed by the simplex's bracket
    ``ks``, and ``face`` and ``degeneracy`` return the stored simplex: each
    distinct simplex is built, through the checked constructor with this
    cube's n, once per complex, and the store is freed with the complex.

    A face or degeneracy translates the bracket through the operator's
    256-byte table, built once per process, and reads the store with
    ``get``, subscripting it only on a miss.  The code operators of
    :meth:`_code_op` translate alone, and :meth:`validate` checks the
    identities on brackets, so it builds no simplex unless an identity
    fails.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"cube dimension must be nonnegative, got {n}")
        self.n = n
        self._cells = Store(lambda m: Store(
            functools.partial(PartitionSimplex, n, dim=m)))

    def nondegenerate(self, m: int):
        """Ordered partitions of {1..n} with all inner parts nonempty."""
        inner = set(range(1, m + 1))
        cells = self._cells[m]
        return [cells[ks]
                for ks in map(bytes, itertools.product(range(m + 2),
                                                       repeat=self.n))
                if inner <= set(ks)]

    def dim(self, u: PartitionSimplex) -> int:
        return u.dim

    def face(self, u, i):
        if u.dim == 0:
            raise ValueError("a vertex has no faces")
        ks = _face_bracket(u, i)
        cells = self._cells[u.dim - 1]
        return cells.get(ks) or cells[ks]

    def degeneracy(self, u, i):
        ks = _degeneracy_bracket(u, i)
        cells = self._cells[u.dim + 1]
        return cells.get(ks) or cells[ks]

    def _codes(self, m: int) -> list:
        """The brackets of the m-simplices in the order of :meth:`simplices`:
        each nondegenerate k-simplex, k <= m, under each degeneracy word up
        to dimension m, applied by the code operators."""
        codes = []
        for k in range(m + 1):
            inner = set(range(1, k + 1))
            words = [[self._code_op(k + t, ("s", j))
                      for t, j in enumerate(word)]
                     for word in degeneracy_words(k, m)]
            for top in map(bytes, itertools.product(range(k + 2),
                                                    repeat=self.n)):
                if inner <= set(top):
                    for word in words:
                        ks = top
                        for degeneracy in word:
                            ks = degeneracy(ks)
                        codes.append(ks)
        return codes

    def _code_op(self, n, op):
        """The face or degeneracy ``op`` of n-simplices as a function of one
        n-simplex's bracket: the translation through its table."""
        letter, j = op
        return methodcaller("translate", _face_table(j) if letter == "d"
                            else _degeneracy_table(j))

    def validate(self, max_dim: int) -> Verdict:
        """The simplicial identities checked on brackets through
        ``max_dim``, by :func:`~.verdict.check_coded_identities` with
        :meth:`_code_op`; only a failure's simplices are built."""
        cells = self._cells
        return check_coded_identities(
            self._codes, self._code_op, simplicial_identities, max_dim,
            lambda m, ks: cells[m][ks])

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
    ks, m = u.ks, u.dim
    out_ks = []
    for out in lam.outputs:
        if out == 0:
            out_ks.append(m + 1)
        elif out == 1:
            out_ks.append(0)
        else:
            out_ks.append(max(ks[v - 1] for v in out))
    return PartitionSimplex(lam.target, bytes(out_ks), m)


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
    bars = common_bars(pi, rho)
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
        ks, m = u.ks, u.dim
        # coordinates part by part, increasing within a part
        pi = tuple(v + 1 for v in sorted(range(n), key=ks.__getitem__))
        sizes = [0] * (m + 2)
        for k in ks:
            sizes[k] += 1
        # u is the face of u_pi keeping the bar after each of parts 0..m
        # (an empty part repeats the bar before it), degenerated at each
        # empty inner part
        kept = set(itertools.accumulate(sizes[:m + 1]))
        insertions = [t for t in range(1, m + 1) if not sizes[t]]
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
    return PartitionSimplex(u.n + w.n, u.ks + w.ks, u.dim)


def project_simplex(u: PartitionSimplex, lo: int, hi: int) -> PartitionSimplex:
    """Restrict to the coordinate window {lo..hi}, relabelled from 1."""
    if not 1 <= lo <= hi + 1 <= u.n + 1:
        raise ValueError("coordinate window out of range")
    return PartitionSimplex(hi - lo + 1, u.ks[lo - 1:hi], u.dim)
