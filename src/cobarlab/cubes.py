"""The cube category with connections, cubical sets, and cubical chains.

A morphism of the cube category from the k-cube to the n-cube is stored in a
canonical output table: each output coordinate is the constant 0, the
constant 1, or the minimum over a nonempty block of input coordinates; the
blocks are pairwise disjoint and strictly ordered.  Composition and equality
are exact on this table.  The generators are the faces delta, the
degeneracies sigma and the connections gamma.
"""

from __future__ import annotations

import functools
import itertools

from .chains import Chain, ChainComplex, normalized_complex
from .perms import all_shuffles
from .verdict import Frozen, Store, Verdict, check_identities

# the largest source dimension whose entries are coded in one byte each:
# 2^k + 1 symbols
MAX_CELL_DIM = 7


class CubeMorphism(Frozen):
    """Map from the source-dimensional cube to the target-dimensional cube.

    ``outputs`` has one entry per target coordinate: 0, 1, or a strictly
    increasing tuple of source coordinates (a block, evaluated by minimum).

    ``code`` is the same table as ``bytes``, one symbol per entry: 0 and 1
    for the constants and 1 + the bitmask of a block's coordinates (bit
    v - 1 for coordinate v), so 2^k + 1 symbols for source dimension k.
    Symbols fit in a byte for k <= 7; a morphism of a larger source has
    ``code`` None.  The standard cube keys its cells by ``code``.

    Immutable; equality and hashing are on ``(source, target, outputs)``.
    The hash is computed once, at construction, since morphisms are keys
    of the identity checker's and the chain builder's tables.
    """

    _fields = ("source", "target", "outputs")
    __slots__ = _fields + ("code", "_hash")

    def __init__(self, source: int, target: int, outputs: tuple):
        if source < 0:
            raise ValueError("the source dimension must be nonnegative")
        # One pass over the entries: every block coordinate must exceed the
        # one before it, in its own block or in an earlier one, and lie in
        # the source range; the same pass codes each entry.
        if len(outputs) != target:
            raise ValueError("one output entry per target coordinate")
        last = 0
        code = []
        for out in outputs:
            if out in (0, 1):
                code.append(out)
                continue
            if not isinstance(out, tuple) or not out:
                raise ValueError(f"bad output entry {out!r}")
            prev = last
            symbol = 1
            for v in out:
                if not prev < v <= source:
                    if not 1 <= v <= source:
                        raise ValueError("block entry out of source range")
                    if prev == last:  # v opens its block
                        raise ValueError("blocks must be disjoint and ordered")
                    raise ValueError("blocks must be strictly increasing")
                prev = v
                symbol += 1 << (v - 1)
            last = prev
            code.append(symbol)
        init = object.__setattr__
        init(self, "source", source)
        init(self, "target", target)
        init(self, "outputs", outputs)
        init(self, "code", bytes(code) if source <= MAX_CELL_DIM else None)
        init(self, "_hash", hash((source, target, outputs)))

    def __eq__(self, other):
        if other.__class__ is not CubeMorphism:
            return NotImplemented
        return self is other or (self._hash == other._hash
                                 and self.outputs == other.outputs
                                 and self.source == other.source
                                 and self.target == other.target)

    def __hash__(self):
        return self._hash

    def compose(self, inner: "CubeMorphism") -> "CubeMorphism":
        """self o inner (apply ``inner`` first)."""
        if inner.target != self.source:
            raise ValueError("composition mismatch")
        return CubeMorphism(inner.source, self.target,
                            _compose_outputs(self.outputs, inner.outputs))

    # ----- generators ----------------------------------------------------------
    # Generators are frozen and their key space is tiny, so each is built and
    # checked once; argument errors raise before anything is cached.

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def identity(n: int) -> "CubeMorphism":
        return CubeMorphism(n, n, tuple((i,) for i in range(1, n + 1)))

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def delta(n: int, eps: int, i: int) -> "CubeMorphism":
        """Face inclusion from the (n-1)-cube: insert the constant eps at
        coordinate i (1 <= i <= n)."""
        if not 1 <= i <= n:
            raise ValueError("face coordinate out of range")
        outs = [(j,) for j in range(1, i)] + [eps] + [(j,) for j in range(i, n)]
        return CubeMorphism(n - 1, n, tuple(outs))

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def sigma(n: int, i: int) -> "CubeMorphism":
        """Projection from the n-cube dropping coordinate i."""
        if not 1 <= i <= n:
            raise ValueError("projection coordinate out of range")
        outs = [(j,) for j in range(1, i)] + [(j,) for j in range(i + 1, n + 1)]
        return CubeMorphism(n, n - 1, tuple(outs))

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def gamma(n: int, i: int) -> "CubeMorphism":
        """Min-connection from the n-cube merging coordinates i, i+1."""
        if not 1 <= i <= n - 1:
            raise ValueError("connection coordinate out of range")
        outs = ([(j,) for j in range(1, i)] + [(i, i + 1)]
                + [(j,) for j in range(i + 2, n + 1)])
        return CubeMorphism(n, n - 1, tuple(outs))


def _compose_outputs(outer: tuple, inner: tuple) -> tuple:
    """The output table of the composite of two morphisms, given theirs:
    each entry of ``outer`` reads the entries of ``inner`` it names."""
    outs = []
    for out in outer:
        if out in (0, 1):
            outs.append(out)
            continue
        if len(out) == 1:
            # a single coordinate reads the inner entry unchanged
            outs.append(inner[out[0] - 1])
            continue
        merged = []
        is_zero = False
        for v in out:
            entry = inner[v - 1]
            if entry == 0:
                is_zero = True
                break
            if entry == 1:
                continue
            merged.extend(entry)
        if is_zero:
            outs.append(0)
        elif not merged:
            outs.append(1)
        else:
            outs.append(tuple(sorted(merged)))
    return tuple(outs)


@functools.lru_cache(maxsize=None)
def _symbols(k: int) -> tuple:
    """Every possible output entry of a morphism out of the k-cube, at the
    index of its symbol: 0, 1, then the block of each bitmask 1..2^k - 1.
    A k above :data:`MAX_CELL_DIM`, whose symbols do not fit in a byte, is
    refused."""
    if k > MAX_CELL_DIM:
        raise ValueError(f"a cell of a standard cube has dimension at most"
                         f" {MAX_CELL_DIM}, since its entries are coded in"
                         f" one byte each; got {k}")
    return (0, 1) + tuple(
        tuple(v for v in range(1, k + 1) if mask >> (v - 1) & 1)
        for mask in range(1, 2 ** k))


@functools.lru_cache(maxsize=None)
def _symbol_of(k: int) -> dict:
    """The symbol of every possible output entry of a morphism out of the
    k-cube: :func:`_symbols` inverted."""
    return {entry: s for s, entry in enumerate(_symbols(k))}


def _entry_table(gen: CubeMorphism) -> bytes:
    """The translation table of composing with ``gen``: the symbol of every
    possible output entry of a morphism out of the target cube of ``gen``,
    mapped to the symbol of the entry of the composite with ``gen`` that
    it becomes.  Unused symbols map to 0."""
    symbol = _symbol_of(gen.source).__getitem__
    entries = _symbols(gen.target)
    return (bytes(map(symbol, _compose_outputs(entries, gen.outputs)))
            + bytes(256 - len(entries)))


# One table per generator, cached as the generators are; the generator is
# built first, so an index out of range raises before anything is cached.

@functools.lru_cache(maxsize=None)
def _delta_entries(k: int, eps: int, i: int) -> bytes:
    return _entry_table(CubeMorphism.delta(k, eps, i))


@functools.lru_cache(maxsize=None)
def _sigma_entries(k: int, i: int) -> bytes:
    return _entry_table(CubeMorphism.sigma(k, i))


@functools.lru_cache(maxsize=None)
def _gamma_entries(k: int, i: int) -> bytes:
    return _entry_table(CubeMorphism.gamma(k, i))


def _cell_store(n: int, k: int) -> Store:
    """The store of the k-cubes of the standard n-cube, keyed by code and
    built through the checked constructor."""
    if k < 0:
        raise ValueError("the source dimension must be nonnegative")
    entry = _symbols(k).__getitem__
    return Store(lambda code: CubeMorphism(k, n, tuple(map(entry, code))))


def _all_outputs(source: int, target: int):
    """The output table of every morphism from the source-cube to the
    target-cube, exactly once."""

    def rec(j, lo):
        if j == target:
            yield ()
            return
        for rest_lo, choice in _choices(lo):
            for tail in rec(j + 1, rest_lo):
                yield (choice,) + tail

    def _choices(lo):
        yield lo, 0
        yield lo, 1
        avail = range(lo, source + 1)
        for r in range(1, source - lo + 2):
            for block in itertools.combinations(avail, r):
                yield block[-1] + 1, block

    return rec(0, 1)


class CubicalSet:
    """Base interface for cubical sets with connections.

    Subclasses provide ``cubes``, ``face``, ``degen``, ``conn`` and ``dim``.
    Faces carry a direction eps in {0, 1}; coordinates are 1-based.
    Callers whose indices are in range by construction read the operators
    through :meth:`_bind` alone.
    """

    def cubes(self, n: int):
        raise NotImplementedError

    def face(self, y, eps: int, i: int):
        raise NotImplementedError

    def degen(self, y, i: int):
        raise NotImplementedError

    def conn(self, y, i: int):
        raise NotImplementedError

    def dim(self, y) -> int:
        raise NotImplementedError

    # ----- derived --------------------------------------------------------------

    def is_degenerate(self, y) -> bool:
        n = self.dim(y)
        return any(self.degen(self.face(y, 0, i), i) == y for i in range(1, n + 1))

    def is_folded(self, y) -> bool:
        """True when y lies in the image of a connection."""
        n = self.dim(y)
        return any(self.conn(self.face(y, 1, i), i) == y for i in range(1, n))

    def normalized(self, n: int):
        return [y for y in self.cubes(n) if not self.is_degenerate(y)
                and not self.is_folded(y)]

    def validate(self, max_dim: int) -> Verdict:
        """Exhaustive cubical identities (with connections) up to max_dim.

        The checker calls the operators that :meth:`_bind` hands out; it
        asks only for indices of the rows of :func:`cubical_identities`,
        which are in range by construction.
        """
        return check_identities(self.cubes, self._bind, cubical_identities,
                                max_dim, key="y", values=False)

    def _bind(self, n: int, op: tuple):
        """The operator ``op`` (``("d", eps, i)``, ``("s", i)`` or
        ``("g", i)``) of n-cubes as a function of one cube: the one entry
        for callers whose indices are in range by construction (the
        identity checker, a triangulation's sides, the glued-map check).
        This one binds the public operator; a subclass's may trust the
        indices or keep what it computes, since a caller keeps a bound
        operator only while it uses it."""
        if op[0] == "d":
            _, eps, i = op
            face = self.face
            return lambda y: face(y, eps, i)
        operator, i = (self.degen if op[0] == "s" else self.conn), op[1]
        return lambda y: operator(y, i)


def cubical_identities(n: int) -> list:
    """The cubical identities (with connections) on an n-cube, as rows of
    :func:`check_identities` in the order they are checked."""
    rows = []
    # face-face: d_i d_j = d_{j-1} d_i for i < j
    for e1 in (0, 1):
        for e2 in (0, 1):
            for j in range(2, n + 1):
                for i in range(1, j):
                    rows.append(("dd", {"i": i, "j": j, "eps": (e1, e2)},
                                 (("d", e2, j), ("d", e1, i)),
                                 (("d", e1, i), ("d", e2, j - 1))))
    # degen-degen: s_i s_j = s_{j+1} s_i for i <= j
    for j in range(1, n + 2):
        for i in range(1, j + 1):
            rows.append(("ss", {"i": i, "j": j},
                         (("s", j), ("s", i)), (("s", i), ("s", j + 1))))
    # face-degen
    for j in range(1, n + 2):
        for eps in (0, 1):
            for i in range(1, n + 2):
                if i < j:
                    rhs = (("d", eps, i), ("s", j - 1))
                elif i == j:
                    rhs = ()
                else:
                    rhs = (("d", eps, i - 1), ("s", j))
                rows.append(("ds", {"i": i, "j": j, "eps": eps},
                             (("s", j), ("d", eps, i)), rhs))
    # conn-conn: g_i g_j = g_{j+1} g_i for i <= j
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            rows.append(("gg", {"i": i, "j": j},
                         (("g", j), ("g", i)), (("g", i), ("g", j + 1))))
    # face-conn (including the unit identities d_j g_j = d_{j+1} g_j = id
    # in direction 1 and s_j d0_j in direction 0)
    for j in range(1, n + 1):
        for eps in (0, 1):
            for i in range(1, n + 2):
                if i < j:
                    rhs = (("d", eps, i), ("g", j - 1))
                elif i in (j, j + 1):
                    rhs = () if eps == 1 else (("d", 0, j), ("s", j))
                else:
                    rhs = (("d", eps, i - 1), ("g", j))
                rows.append(("dg", {"i": i, "j": j, "eps": eps},
                             (("g", j), ("d", eps, i)), rhs))
    # conn-degen
    for j in range(1, n + 2):
        for i in range(1, n + 2):
            if i < j:
                rhs = (("g", i), ("s", j + 1))
            elif i == j:
                rhs = (("s", i), ("s", i + 1))
            else:
                rhs = (("g", i - 1), ("s", j))
            rows.append(("gs", {"i": i, "j": j}, (("s", j), ("g", i)), rhs))
    return rows


class StandardCube(CubicalSet):
    """The n-cube as a representable cubical set: k-cubes are morphisms
    from the k-cube into the n-cube.

    The complex stores each cell it hands out, one :class:`~.verdict.Store`
    per dimension keyed by the cell's ``code``, and the structure maps
    return the stored cell: each distinct cell is built, through the
    checked constructor with this cube's n, once per complex, and the
    store is freed with the complex.  A cell's dimension is at most
    :data:`MAX_CELL_DIM`; a larger one is refused with ``ValueError``.

    A face, degeneracy or connection of y is y composed with one generator,
    and each entry of the composite depends only on the matching entry of
    y.  So each map translates ``y.code`` through a 256-byte table per
    (source dimension, generator, index), built once per process with the
    composition rule and cached as the generators are, and reads the store
    with ``get``, subscripting it only on a miss.  :meth:`_bind` resolves
    the table and the target dimension's store once; the function it
    returns keeps both while its caller uses it.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"cube dimension must be nonnegative, got {n}")
        self.n = n
        self._cells = Store(functools.partial(_cell_store, n))

    def cubes(self, k: int):
        cells = self._cells[k]
        symbol = _symbol_of(k).__getitem__
        return [cells[bytes(map(symbol, outs))]
                for outs in _all_outputs(k, self.n)]

    def dim(self, y: CubeMorphism) -> int:
        return y.source

    def face(self, y, eps, i):
        table = _delta_entries(y.source, eps, i)
        code = y.code.translate(table)
        cells = self._cells[y.source - 1]
        return cells.get(code) or cells[code]

    def degen(self, y, i):
        k = y.source + 1
        table = _sigma_entries(k, i)
        code = y.code.translate(table)
        cells = self._cells[k]
        return cells.get(code) or cells[code]

    def conn(self, y, i):
        k = y.source + 1
        table = _gamma_entries(k, i)
        code = y.code.translate(table)
        cells = self._cells[k]
        return cells.get(code) or cells[code]

    def _bind(self, n, op):
        """The operator ``op`` of n-cubes as a function of one cube: the
        rule of ``face``, ``degen`` and ``conn`` with the table and the
        store resolved once."""
        letter = op[0]
        if letter == "d":
            table, k = _delta_entries(n, *op[1:]), n - 1
        elif letter == "s":
            table, k = _sigma_entries(n + 1, op[1]), n + 1
        else:
            table, k = _gamma_entries(n + 1, op[1]), n + 1
        cells = self._cells[k]
        find = cells.get

        def bound(y):
            code = y.code.translate(table)
            return find(code) or cells[code]
        return bound


class ProductCubicalSet(CubicalSet):
    """Product of two cubical sets via coordinate splitting.

    A pair (y, z) with dims (k, l) is identified with (top-degen y, z') when
    z = s_1 z'; canonical pairs have a left factor that is not top-degenerate
    unless the right factor is zero-dimensional.
    """

    def __init__(self, left: CubicalSet, right: CubicalSet):
        self.left = left
        self.right = right

    def _top_strip(self, y):
        """If y = s_k y' (k = dim y), return y', else None."""
        k = self.left.dim(y)
        if k == 0:
            return None
        cand = self.left.face(y, 0, k)
        if self.left.degen(cand, k) == y:
            return cand
        return None

    def pair(self, y, z):
        """Canonical representative of the class of (y, z): every top
        degeneracy of the left factor is pushed into the right factor,
        using (s_k y', z) ~ (y', s_1 z)."""
        while True:
            y2 = self._top_strip(y)
            if y2 is None:
                break
            y = y2
            z = self.right.degen(z, 1)
        return (y, z)

    def dim(self, yz) -> int:
        return self.left.dim(yz[0]) + self.right.dim(yz[1])

    def cubes(self, n: int):
        out = []
        seen = set()
        for k in range(n + 1):
            for y in self.left.cubes(k):
                for z in self.right.cubes(n - k):
                    c = self.pair(y, z)
                    if c not in seen:
                        seen.add(c)
                        out.append(c)
        return out

    def face(self, yz, eps, i):
        y, z = yz
        k = self.left.dim(y)
        if i <= k:
            return self.pair(self.left.face(y, eps, i), z)
        return self.pair(y, self.right.face(z, eps, i - k))

    def degen(self, yz, i):
        y, z = yz
        k = self.left.dim(y)
        if i <= k:
            return self.pair(self.left.degen(y, i), z)
        return self.pair(y, self.right.degen(z, i - k))

    def conn(self, yz, i):
        y, z = yz
        k = self.left.dim(y)
        if i <= k:
            return self.pair(self.left.conn(y, i), z)
        return self.pair(y, self.right.conn(z, i - k))


@functools.lru_cache(maxsize=None)
def _shuffle_splits(n: int):
    """(front mask, back mask, sign) of every shuffle of n coordinates, in
    the order of :func:`all_shuffles` over k = 0..n.  A mask has bit n - i
    set for each coordinate i of its side, the order in which the face
    tables of :func:`_shuffle_diagonal` grow."""

    def mask(coords):
        return sum(1 << (n - i) for i in coords)

    return tuple((mask(sh.beta), mask(sh.alpha), sh.sign())
                 for k in range(n + 1) for sh in all_shuffles(k, n - k))


def _shuffle_diagonal(row, slot) -> Chain:
    """The two-sided face splitting of a label's n-cube over all shuffles
    of its coordinates, read from the label's row."""

    def face_labels(eps, n):
        """The iterated face in direction eps at every subset of the
        coordinates, indexed by mask, as the label it is or None.  Faces
        are taken at original coordinates, largest first: each subset's
        face is one face, at its smallest coordinate, of the face of the
        subset without it."""
        table = [row]
        for i in range(n, 0, -1):
            k = 2 * i - 1 + eps
            table += [slot(z, k) for z in table]
        return [z[0] if z.__class__ is list else None for z in table]

    n = (len(row) - 1) // 2
    fronts = face_labels(0, n)
    backs = face_labels(1, n)
    delta: Chain = {}
    for front_mask, back_mask, sign in _shuffle_splits(n):
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


def cubical_chains(cset: CubicalSet, max_dim: int) -> ChainComplex:
    """Normalized cubical chains: degenerate and folded cubes are zero.

    Boundary d y = sum_i (-1)^i (d0_i y - d1_i y), slot 2i - 1 + eps of a
    row holding d^eps_i; the diagonal, built on demand, is the two-sided
    face splitting over all shuffles of the coordinate set.
    """

    def signs(n):
        return tuple((-1) ** (i + eps)
                     for i in range(1, n + 1) for eps in (0, 1))

    def face(y, k):
        return cset.face(y, 1 - k % 2, (k + 1) // 2)

    basis = {n: tuple(cset.normalized(n)) for n in range(max_dim + 1)}
    return normalized_complex(basis, signs, face, _shuffle_diagonal)
