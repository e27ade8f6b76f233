"""Simplicial sets presented by generators and face tables.

Simplices are stored in Eilenberg-Zilber normal form: a strictly decreasing
degeneracy word applied to a nondegenerate generator.  Face and degeneracy
operators rewrite words using the simplicial identities, so every element has
a unique representation and equality is structural.
"""

from __future__ import annotations

import itertools
import re
from operator import gt

from .chains import Chain, ChainComplex, add_scaled, normalized_complex
from .perms import all_shuffles
from .verdict import Frozen, Store, Verdict, check_identities


class Simplex(Frozen):
    """``degens`` is a strictly decreasing tuple of degeneracy indices applied
    (outermost first) to the nondegenerate generator ``gen`` of dimension
    ``gen_dim``.

    Immutable; equality and hashing are on ``(degens, gen, gen_dim)``.  The
    dimension and the hash are computed once, at construction, since
    simplices are hashed and measured far more often than they are built.
    """

    _fields = ("degens", "gen", "gen_dim")
    __slots__ = _fields + ("dim", "_hash")

    def __init__(self, degens: tuple, gen: str, gen_dim: int):
        if len(degens) > 1 and not all(map(gt, degens, degens[1:])):
            raise ValueError("degeneracy word must be strictly decreasing")
        init = object.__setattr__
        init(self, "degens", degens)
        init(self, "gen", gen)
        init(self, "gen_dim", gen_dim)
        init(self, "dim", gen_dim + len(degens))
        init(self, "_hash", hash((degens, gen, gen_dim)))

    def __eq__(self, other):
        if other.__class__ is not Simplex:
            return NotImplemented
        return self is other or (self._hash == other._hash
                                 and self.degens == other.degens
                                 and self.gen == other.gen
                                 and self.gen_dim == other.gen_dim)

    def __hash__(self):
        return self._hash

    @property
    def is_degenerate(self) -> bool:
        return bool(self.degens)

    def __repr__(self):
        if not self.degens:
            return self.gen
        word = " ".join(f"s{j}" for j in self.degens)
        return f"{word} {self.gen}"


def nondeg(gen: str, dim: int) -> Simplex:
    return Simplex((), gen, dim)


def degenerate_point(gen: str, n: int) -> Simplex:
    """The n-fold degeneracy of a vertex."""
    return Simplex(tuple(range(n - 1, -1, -1)), gen, 0)


def insert_degeneracy(degens: tuple, i: int) -> tuple:
    """Normal form of s_i applied outside an already-normal word."""
    out = []
    k = 0
    while k < len(degens) and i <= degens[k]:
        out.append(degens[k] + 1)
        k += 1
    out.append(i)
    out.extend(degens[k:])
    return tuple(out)


def degeneracy_words(m: int, n: int):
    """Increasing index tuples whose ascending application maps dim m to dim n.

    Yields each tuple (j_1 < ... < j_r), r = n - m, with j_t <= m + t - 1;
    these parametrize the degenerate n-simplices over a nondegenerate
    m-simplex, each exactly once.
    """
    r = n - m
    if r < 0:
        return
    for word in itertools.combinations(range(n), r):
        if all(word[t] <= m + t for t in range(r)):
            yield word


def monotone_operators(theta: tuple, m: int) -> tuple:
    """(face indices, degeneracy indices) of theta^* for a monotone map
    theta: [k] -> [m]: delete each vertex outside the image, highest first,
    then apply s_j, in ascending j, for every j with theta(j) = theta(j + 1);
    theta^* x is the simplex with vertices x_theta(0), ..., x_theta(k).

    >>> monotone_operators((0, 1, 1, 3), 3)
    ((2,), (1,))
    """
    return (tuple(v for v in range(m, -1, -1) if v not in theta),
            tuple(j for j in range(len(theta) - 1) if theta[j] == theta[j + 1]))


class SimplicialSet:
    """Base interface: subclasses provide nondegenerate/face/degeneracy/dim."""

    def nondegenerate(self, n: int):
        raise NotImplementedError

    def face(self, x, i):
        raise NotImplementedError

    def degeneracy(self, x, i):
        raise NotImplementedError

    def dim(self, x) -> int:
        raise NotImplementedError

    # ----- derived operations -------------------------------------------------

    def is_degenerate(self, x) -> bool:
        n = self.dim(x)
        if n == 0:
            return False
        return any(self.degeneracy(self.face(x, i), i) == x for i in range(n))

    def simplices(self, n: int):
        """All n-simplices (degenerate ones included), each exactly once."""
        for m in range(n + 1):
            for g in self.nondegenerate(m):
                for word in degeneracy_words(m, n):
                    x = g
                    for j in word:
                        x = self.degeneracy(x, j)
                    yield x

    def front_face(self, x, i: int):
        """The face spanned by vertices 0..i (drop the last dim(x)-i vertices)."""
        for _ in range(self.dim(x) - i):
            x = self.face(x, self.dim(x))
        return x

    def back_face(self, x, i: int):
        """The face spanned by vertices i..dim(x) (drop the first i vertices)."""
        for _ in range(i):
            x = self.face(x, 0)
        return x

    def validate(self, max_dim: int) -> Verdict:
        """Exhaustive simplicial identities on all simplices up to max_dim."""
        return check_identities(self.simplices, self._bind,
                                simplicial_identities, max_dim)

    def _bind(self, n: int, op: tuple):
        """The face ``("d", i)`` or degeneracy ``("s", i)`` of n-simplices
        as a function of one simplex, for :func:`check_identities`: the
        public operator with its index bound."""
        letter, i = op
        operator = self.face if letter == "d" else self.degeneracy
        return lambda x: operator(x, i)


def simplicial_identities(n: int) -> list:
    """The simplicial identities on an n-simplex, as rows of
    :func:`check_identities` in the order they are checked."""
    rows = []
    # d_i d_j = d_{j-1} d_i for i < j
    if n >= 2:
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                rows.append(("dd", {"i": i, "j": j},
                             (("d", j), ("d", i)), (("d", i), ("d", j - 1))))
    # s_i s_j = s_{j+1} s_i for i <= j
    for i in range(n + 1):
        for j in range(i, n + 1):
            rows.append(("ss", {"i": i, "j": j},
                         (("s", j), ("s", i)), (("s", i), ("s", j + 1))))
    # d_i s_j: mixed identities
    for j in range(n + 1):
        for i in range(n + 2):
            if i < j:
                rhs = (("d", i), ("s", j - 1))
            elif i in (j, j + 1):
                rhs = ()
            else:
                rhs = (("d", i - 1), ("s", j))
            rows.append(("ds", {"i": i, "j": j}, (("s", j), ("d", i)), rhs))
    return rows


class SimplicialPresentation(SimplicialSet):
    """Simplicial set given by generators, dimensions and a face table.

    ``faces[(g, i)]`` is the i-th face of generator g, itself a
    :class:`Simplex` over the same presentation.  Whether the set is
    reduced or 1-reduced is read from the generators (:attr:`reduced`,
    :attr:`one_reduced`), never declared.

    The presentation keeps one object per simplex it hands out: faces,
    degeneracies and generators come from a :class:`~.verdict.Store` keyed
    on ``(degens, gen, gen_dim)``, whose build is the checked constructor,
    so equal simplices of one presentation are one object and compare by
    identity.  Simplices built by hand still compare equal to the stored
    ones.
    """

    def __init__(self, name, gens, faces):
        self.name = name
        self.gens = dict(gens)
        self._store = Store(lambda key: Simplex(*key))
        self.faces = {key: self._store[x.degens, x.gen, x.gen_dim]
                      for key, x in dict(faces).items()}

    @property
    def reduced(self) -> bool:
        """Exactly one generator of dimension 0."""
        return list(self.gens.values()).count(0) == 1

    @property
    def one_reduced(self) -> bool:
        """Reduced, and no generator of dimension 1."""
        return self.reduced and 1 not in self.gens.values()

    def simplex(self, degens: tuple, gen: str, gen_dim: int) -> Simplex:
        """The stored simplex equal to ``Simplex(degens, gen, gen_dim)``."""
        return self._store[degens, gen, gen_dim]

    def nondegenerate(self, n: int):
        return [self._store[(), g, d] for g, d in self.gens.items() if d == n]

    def dim(self, x: Simplex) -> int:
        return x.dim

    def degeneracy(self, x: Simplex, i: int) -> Simplex:
        if not 0 <= i <= x.dim:
            raise ValueError(f"s_{i} undefined on a {x.dim}-simplex")
        return self._store[insert_degeneracy(x.degens, i), x.gen, x.gen_dim]

    def face(self, x: Simplex, i: int) -> Simplex:
        if x.dim == 0:
            raise ValueError("a vertex has no faces")
        if not 0 <= i <= x.dim:
            raise ValueError(f"d_{i} undefined on a {x.dim}-simplex")
        if not x.degens:
            return self.faces[(x.gen, i)]
        j = x.degens[0]
        rest = self._store[x.degens[1:], x.gen, x.gen_dim]
        if i < j:
            return self.degeneracy(self.face(rest, i), j - 1)
        if i in (j, j + 1):
            return rest
        return self.degeneracy(self.face(rest, i - 1), j)

    def is_degenerate(self, x: Simplex) -> bool:
        return x.is_degenerate

    def validate_presentation(self, max_dim: int) -> Verdict:
        """Each key and face of the table once, then the identities: every
        key is (g, i) with 0 <= i <= d for a generator g of dimension
        d >= 1, every such key is present, and its face is a generator at
        its own dimension, under an in-range degeneracy word, of dimension
        d - 1."""
        gens = self.gens
        for (g, i), x in self.faces.items():
            d = gens.get(g, 0)
            if not (d >= 1 and 0 <= i <= d):
                return Verdict.failed({"error": "stray face", "gen": g, "i": i})
            if gens.get(x.gen) != x.gen_dim or x.degens and not (
                    x.degens[-1] >= 0 and x.degens[0] < x.dim):
                return Verdict.failed({"error": "unknown simplex", "gen": g,
                                       "i": i, "face": x})
            if x.dim != d - 1:
                return Verdict.failed({"error": "face dimension", "gen": g, "i": i})
        for g, d in gens.items():
            for i in range(d + 1 if d >= 1 else 0):
                if (g, i) not in self.faces:
                    return Verdict.failed({"error": "missing face", "gen": g, "i": i})
        return self.validate(max_dim)


class ProductSimplicialSet(SimplicialSet):
    """Levelwise product of two simplicial sets; elements are pairs."""

    def __init__(self, left: SimplicialSet, right: SimplicialSet):
        self.left = left
        self.right = right

    def dim(self, xy) -> int:
        return self.left.dim(xy[0])

    def face(self, xy, i):
        return (self.left.face(xy[0], i), self.right.face(xy[1], i))

    def degeneracy(self, xy, i):
        return (self.left.degeneracy(xy[0], i), self.right.degeneracy(xy[1], i))

    def nondegenerate(self, n: int):
        out = []
        for x in self.left.simplices(n):
            for y in self.right.simplices(n):
                if not self.is_degenerate((x, y)):
                    out.append((x, y))
        return out


# ----- chains with the front/back-face diagonal ---------------------------------


def _front_back_diagonal(row, slot) -> Chain:
    """The sum of (front_face(x, i), back_face(x, i)) over the pairs of
    labels, read from the row of x."""
    # fronts[i] and backs[i] are each one face of the one before them
    fronts = [row]
    backs = [row]
    for i in range(len(row) - 2, 0, -1):
        fronts.append(slot(fronts[-1], 1 + i))
        backs.append(slot(backs[-1], 1))
    fronts.reverse()
    delta: Chain = {}
    for front, back in zip(fronts, backs):
        if front.__class__ is list and back.__class__ is list:
            add_scaled(delta, {(front[0], back[0]): 1}, 1)
    return delta


def simplicial_chains(sset: SimplicialSet, max_dim: int) -> ChainComplex:
    """Normalized chains on every nondegenerate simplex up to max_dim,
    slot 1 + i of a row holding d_i with sign (-1)^i, and with the
    front-face/back-face diagonal built on demand."""
    basis = {n: tuple(sset.nondegenerate(n)) for n in range(max_dim + 1)}
    face = sset.face
    return normalized_complex(
        basis, lambda n: tuple((-1) ** i for i in range(n + 1)) if n else (),
        lambda x, k: face(x, k - 1), _front_back_diagonal)


class NormalizedChains:
    """The normalized chains of a simplicial set, read on demand: the
    labels are its nondegenerate simplices, of degree ``sset.dim``, and a
    degenerate face is zero.  ``boundary[x]``, the sum of (-1)^i d_i x,
    is built on the first read of x and kept; ``diagonal_of(x)``, the
    front-face/back-face diagonal, is walked one face at a time on every
    read.  There is no basis, so d^2, the coalgebra identities and
    homology cannot be checked here: this is a chain map's target."""

    def __init__(self, sset: SimplicialSet):
        face, dim, is_degenerate = sset.face, sset.dim, sset.is_degenerate
        self.degree_of = dim

        def boundary(x) -> Chain:
            d: Chain = {}
            n = dim(x)
            for i in range(n + 1 if n else 0):
                y = face(x, i)
                if not is_degenerate(y):
                    add_scaled(d, {y: 1}, -1 if i % 2 else 1)
            return d

        def diagonal(x) -> Chain:
            # fronts[i] and backs[i] are each one face of the one before them
            fronts = [x]
            backs = [x]
            for i in range(dim(x), 0, -1):
                fronts.append(face(fronts[-1], i))
                backs.append(face(backs[-1], 0))
            fronts.reverse()
            delta: Chain = {}
            for front, back in zip(fronts, backs):
                if not (is_degenerate(front) or is_degenerate(back)):
                    add_scaled(delta, {(front, back): 1}, 1)
            return delta

        self.boundary = Store(boundary)
        self.diagonal_of = diagonal

    boundary_chain = ChainComplex.boundary_chain
    diagonal_chain = ChainComplex.diagonal_chain


def shuffle_terms(left: SimplicialSet, right: SimplicialSet, x, y) -> Chain:
    """The signed degenerate-pair expansion of the product cell (x, y).

    Returns a chain over pairs of (k+l)-simplices, one term per (k, l)-shuffle,
    including degenerate pairs (callers drop them when landing in normalized
    chains).
    """
    out: Chain = {}
    for sh in all_shuffles(left.dim(x), right.dim(y)):
        add_scaled(out, {shuffle_pair(left, right, sh, x, y): 1}, sh.sign())
    return out


def shuffle_pair(left: SimplicialSet, right: SimplicialSet, sh, x, y) -> tuple:
    """The pair (s_{beta-1} x, s_{alpha-1} y) of the shuffle sh: x degenerated
    at each index of beta minus one, y at each of alpha minus one, in
    ascending order."""
    for b in sh.beta:
        x = left.degeneracy(x, b - 1)
    for a in sh.alpha:
        y = right.degeneracy(y, a - 1)
    return x, y


# ----- fixtures -----------------------------------------------------------------


def standard_simplex(n: int, name=None) -> SimplicialPresentation:
    """The simplicial n-simplex: generators are nonempty vertex subsets."""
    if n < 0:
        raise ValueError(f"no standard simplex of dimension {n}")

    def gname(verts):
        return ".".join(map(str, verts))

    gens = {}
    faces = {}
    for r in range(1, n + 2):
        for verts in itertools.combinations(range(n + 1), r):
            gens[gname(verts)] = r - 1
            for i in range(r):
                if r >= 2:
                    sub = verts[:i] + verts[i + 1:]
                    faces[(gname(verts), i)] = nondeg(gname(sub), r - 2)
    return SimplicialPresentation(name or f"Delta{n}", gens, faces)


def sphere(n: int) -> SimplicialPresentation:
    """The n-sphere as the n-simplex with its whole boundary collapsed."""
    if n < 2:
        raise ValueError("need n >= 2 for a reduced sphere presentation")
    gens = {"*": 0, "sigma": n}
    faces = {("sigma", i): degenerate_point("*", n - 1) for i in range(n + 1)}
    return SimplicialPresentation(f"S{n}", gens, faces)


def collapsed_simplex(m: int, k: int) -> SimplicialPresentation:
    """Delta^m with its k-skeleton collapsed to the base point: a generator
    per vertex set of more than k + 1 vertices, named by its vertices."""
    if m > 9:
        raise ValueError("the vertices of a collapsed simplex are named by"
                         f" single digits, so m <= 9, not {m}")
    gens = {"*": 0}
    faces = {}
    for size in range(k + 2, m + 2):
        for vs in itertools.combinations(range(m + 1), size):
            name = "".join(map(str, vs))
            gens[name] = size - 1
            for i in range(size):
                rest = "".join(map(str, vs[:i] + vs[i + 1:]))
                faces[name, i] = (nondeg(rest, size - 2) if size - 2 > k
                                  else degenerate_point("*", size - 2))
    return SimplicialPresentation(f"D{m}sk{k}", gens, faces)


def two_loops_cell() -> SimplicialPresentation:
    """One vertex, two loops a and b, and a 2-cell T with faces (a, b, b)."""
    point, a, b = nondeg("*", 0), nondeg("a", 1), nondeg("b", 1)
    gens = {"*": 0, "a": 1, "b": 1, "T": 2}
    faces = {("a", 0): point, ("a", 1): point, ("b", 0): point,
             ("b", 1): point, ("T", 0): a, ("T", 1): b, ("T", 2): b}
    return SimplicialPresentation("TwoLoopsCell", gens, faces)


def moore_space_p3_2() -> SimplicialPresentation:
    """P^3(2) = S^2 with a 3-cell attached by a map of degree 2: a 2-cell s
    with every face the base point, and a 3-cell t with d_0 t = d_2 t = s
    and d_1 t, d_3 t the base point, so that d t = 2 s in normalized
    chains and H_2 = Z/2."""
    s = nondeg("s", 2)
    point = degenerate_point("*", 2)
    gens = {"*": 0, "s": 2, "t": 3}
    faces = {("s", i): degenerate_point("*", 1) for i in range(3)}
    faces.update({("t", 0): s, ("t", 1): point, ("t", 2): s,
                  ("t", 3): point})
    return SimplicialPresentation("P3_2", gens, faces)


def canonical_decimal(text: str):
    """The number ``text`` writes in canonical decimal, or None: digits
    only, with no sign, space or leading zero."""
    return int(text) if text.isdecimal() and str(int(text)) == text else None


# name pattern -> builder, called with the pattern's groups as numbers
FIXTURES = (
    ("I", lambda: standard_simplex(1, name="I")),
    ("TwoLoopsCell", two_loops_cell),
    ("P3_2", moore_space_p3_2),
    ("Delta(.+)", standard_simplex),
    ("S(.+)", sphere),
    ("D(.+)sk(.+)", collapsed_simplex),
)


def fixture(name: str) -> SimplicialPresentation:
    """A fresh presentation of a named fixture, built by its generator.

    I is the 1-simplex, Delta<n> the standard n-simplex, S<n> (n >= 2) the
    n-simplex with its boundary collapsed and D<m>sk<k> (m <= 9) the
    m-simplex with its k-skeleton collapsed to the base point, a wedge of
    C(m, k + 1) spheres S^(k+1); each number is written in canonical
    decimal.  TwoLoopsCell is one vertex, two loops a and b, and a 2-cell
    with faces (a, b, b): reduced but not 1-reduced, its loop group has
    noncommuting generators in dimension 0, which makes it sensitive to
    ordering conventions that collapse on 1-reduced inputs.  P3_2 is the
    mod-2 Moore space P^3(2) = S^2 with a 3-cell attached by degree 2,
    1-reduced, whose loop space has 2-torsion in every positive degree.
    """
    for pattern, build in FIXTURES:
        match = re.fullmatch(pattern, name)
        if match:
            numbers = [canonical_decimal(n) for n in match.groups()]
            if None not in numbers:
                return build(*numbers)
    raise ValueError(f"unknown fixture {name!r}")
