"""The cubical cobar construction on a 1-reduced simplicial set.

An n-cube is a pair (base, ops).  The base is a word of nondegenerate
simplices of dimension >= 2; it contributes dimension m - 1 per letter of
dimension m.  ops is a word of degeneracy and connection operators applied
on top of the base, stored outermost first in canonical form: all
degeneracies before all connections, each block with strictly decreasing
indices.  The rewriting rules

    s_i s_j = s_{j+1} s_i          (i <= j)
    g_i g_j = g_{j+1} g_i          (i <= j)
    g_i s_j = s_{j+1} g_i / s_{i+1} s_i / s_j g_{i-1}   (i < j / i = j / i > j)

bring every composite into this form, so two cubes are equal exactly when
their pairs coincide.  Faces are pushed through the operator word with the
cubical identities until they reach the base, where an inner face replaces a
letter by its simplicial face and an outer face splits a letter into its
front and back parts; the raw outcome is re-canonicalized by peeling the
degeneracies of each letter into operators (bottom ones become s_1, middle
ones connections, top ones top degeneracies) and dropping letters over the
base point.

The operators are read two ways: the public ``face``, ``degen`` and
``conn`` check their indices, and the bound ones that ``_bind`` hands out,
for callers whose indices are in range by construction, do not.  A face
pushed through a non-empty operator word ends as a face of the normalized
cube (base, ()), and many cubes share a base, so each cobar set keeps
those base faces in a store that lives and dies with the set.  A bound
face reads direct faces of normalized cubes from the same store, whose
keys they share; the public ``face`` bypasses it, since the chain builder
asks each such face once and keeps it with the complex.

Words multiply by concatenation, with the right factor's operators shifted
past the left factor; the unit is the empty word.
"""

from __future__ import annotations

from .chains import (Chain, ChainComplex, ChainMap, add_scaled,
                     check_chain_map)
from .cubes import CubicalSet, cubical_chains
from .simplicial import Simplex, SimplicialPresentation
from .verdict import Verdict


def _compose_op(op, ops):
    """Prepend one operator (outermost) to a canonical operator word."""
    if not ops:
        return (op,)
    kind, i = op
    head_kind, j = ops[0]
    rest = ops[1:]
    if kind == "s":
        if head_kind == "s" and i <= j:
            return (("s", j + 1),) + _compose_op(("s", i), rest)
        return (op,) + ops
    if head_kind == "s":
        if i < j:
            return (("s", j + 1),) + _compose_op(("g", i), rest)
        if i == j:
            return _compose_op(("s", i + 1), _compose_op(("s", i), rest))
        return (("s", j),) + _compose_op(("g", i - 1), rest)
    if i <= j:
        return (("g", j + 1),) + _compose_op(("g", i), rest)
    return (op,) + ops


def _push_plan(ops, eps, i):
    """The face (eps, i) of a cube (base, ops) pushed through ops by the
    cubical identities, as ``(outer, at, bare)``.  Either an operator of
    ops cancels the face, ``at`` is None and the face is (base, outer), or
    the face reaches the base as its face ``at = (eps', i')``, and the face
    is that face of (base, ()) with the operators ``outer`` composed onto
    it, innermost first (for ops = (), ``((), (eps, i), ())``); ``bare`` is
    then their composite on the empty word, the face's operators when that
    face of (base, ()) has none.  The plan depends on ops, eps and i alone,
    not on the base."""
    outer = []
    while ops:
        (kind, j), ops = ops[0], ops[1:]
        if kind == "s":
            if i == j:
                break
            if i < j:
                op = ("s", j - 1)
            else:
                op, i = ("s", j), i - 1
        elif i < j:
            op = ("g", j - 1)
        elif i in (j, j + 1):
            if eps == 1:
                break
            op, eps, i = ("s", j), 0, j
        else:
            op, i = ("g", j), i - 1
        outer.append(op)
    else:
        bare = ()
        for op in reversed(outer):
            bare = _compose_op(op, bare)
        return tuple(reversed(outer)), (eps, i), bare
    for op in reversed(outer):
        ops = _compose_op(op, ops)
    return ops, None, None


def _concat(base1, ops1, shift, base2, ops2):
    """Product of canonical cubes, ``shift`` being the cube dimension of
    ``base1``: the right operators move past the left base and the left
    operators are pushed onto them."""
    ops = tuple((k, i + shift) for k, i in ops2)
    for op in reversed(ops1):
        ops = _compose_op(op, ops)
    return (base1 + base2, ops)


def _op_words(d: int, r: int):
    """Canonical operator words (outermost first) from dimension d to d + r.

    Read innermost first, the words consist of connections with strictly
    increasing indices followed by degeneracies with strictly increasing
    indices, each index valid at its stage.
    """

    def rec(cur, rem, in_s, last):
        if rem == 0:
            yield ()
            return
        if not in_s:
            for i in range(last + 1, cur + 1):
                for outer in rec(cur + 1, rem - 1, False, i):
                    yield outer + (("g", i),)
        start = last + 1 if in_s else 1
        for i in range(start, cur + 2):
            for outer in rec(cur + 1, rem - 1, True, i):
                yield outer + (("s", i),)

    return rec(d, r, False, 0)


class CobarSet(CubicalSet):
    """Cubical monoid of simplex words over a 1-reduced presentation.

    Its operators are read two ways.  The public ``face``, ``degen`` and
    ``conn`` refuse an index or a face direction out of range.  The bound
    ones that :meth:`_bind` hands out skip that check, which sums the
    letter dimensions of the base; they serve the identity checker, a
    triangulation's cube sides and ``build_f``, whose indices are in range
    by construction.

    The set stores the faces of normalized cubes that faces of cubes with
    operators reduce to, keyed by (base, eps, i), each computed on its
    first use; the store is freed with the set.  A bound face reads and
    fills the same store for a direct face of a normalized cube too; the
    public ``face`` computes such a face without it.  Each bound operator
    keeps its own table from operator words to their composites with it
    or to their face push plans, filled on a miss, for as long as its
    caller keeps it.
    """

    def __init__(self, sset: SimplicialPresentation):
        if not sset.one_reduced:
            raise ValueError("the cobar construction needs a 1-reduced input")
        self.sset = sset
        (self.basepoint,) = [g for g, d in sset.gens.items() if d == 0]
        self._base_faces = {}  # (base, eps, i) -> face of (base, ())

    # ----- cubical set interface ---------------------------------------------------

    def dim(self, cube) -> int:
        base, ops = cube
        return sum(x.dim - 1 for x in base) + len(ops)

    def degen(self, cube, i):
        if not 1 <= i <= self.dim(cube) + 1:
            raise ValueError("degeneracy index out of range")
        return (cube[0], _compose_op(("s", i), cube[1]))

    def conn(self, cube, i):
        if not 1 <= i <= self.dim(cube):
            raise ValueError("connection index out of range")
        return (cube[0], _compose_op(("g", i), cube[1]))

    def face(self, cube, eps, i):
        if eps not in (0, 1):
            raise ValueError("face direction must be 0 or 1")
        if not 1 <= i <= self.dim(cube):
            raise ValueError("face index out of range")
        return self._face(cube[0], cube[1], eps, i)

    # ----- in-range operators ------------------------------------------------------

    def _pushed(self, base, plan):
        """The face of (base, ops) that ``plan = _push_plan(ops, eps, i)``
        describes; a face of (base, ()) that it reaches is read from the
        set's store, and one with no operators takes the plan's composite."""
        outer, at, bare = plan
        if at is None:
            return (base, outer)
        key = (base,) + at
        face = self._base_faces.get(key)
        if face is None:
            face = self._base_faces[key] = self._face(base, (), *at)
        ops = face[1]
        if not ops:
            return (face[0], bare)
        for op in outer:
            ops = _compose_op(op, ops)
        return (face[0], ops)

    def _bind(self, n, op):
        """The operator ``op`` of n-cubes as a function of one cube, for
        callers whose indices are in range; only the faces of normalized
        cubes that it reads from the set's store depend on X."""
        table = {}
        get = table.get
        if op[0] != "d":
            def bound(cube):
                base, ops = cube
                composite = get(ops)
                if composite is None:
                    composite = table[ops] = _compose_op(op, ops)
                return (base, composite)
            return bound
        _, eps, i = op
        pushed = self._pushed

        def bound(cube):
            base, ops = cube
            plan = get(ops)
            if plan is None:
                plan = table[ops] = _push_plan(ops, eps, i)
            return pushed(base, plan)
        return bound

    def _face(self, base, ops, eps, i):
        """Face of an in-range coordinate; the cubical identities keep every
        index they produce in range."""
        if ops:
            return self._pushed(base, _push_plan(ops, eps, i))
        t, local = self._locate(base, i)
        x = base[t]
        if eps == 1:
            pieces = [self.sset.face(x, local)]
        else:
            pieces = [self.sset.front_face(x, local),
                      self.sset.back_face(x, local)]
        return self.canonicalize(list(base[:t]) + pieces + list(base[t + 1:]))

    def cubes(self, n: int):
        out = []
        for k in range(n + 1):
            for base in self._bases(k):
                for ops in _op_words(k, n - k):
                    out.append((base, ops))
        return out

    def normalized(self, n: int):
        return [(base, ()) for base in self._bases(n)]

    # ----- monoid structure ----------------------------------------------------------

    def mul(self, c1, c2):
        base1, ops1 = c1
        base2, ops2 = c2
        # the shift only moves the right operators
        shift = sum(x.dim - 1 for x in base1) if ops2 else 0
        return _concat(base1, ops1, shift, base2, ops2)

    # ----- canonicalization ------------------------------------------------------------

    def canonicalize(self, simplices):
        """The cube represented by a raw word of simplices of dimension >= 0."""
        base, ops, shift = (), (), 0
        for x in simplices:
            if x.dim == 0:
                continue
            letter_base, letter_ops = self._letter_cube(x)
            base, ops = _concat(base, ops, shift, letter_base, letter_ops)
            if letter_base:
                shift += x.gen_dim - 1
        return (base, ops)

    def _letter_cube(self, x: Simplex):
        """A single simplex as a cube: peel its degeneracies into operators."""
        degens = x.degens
        if x.gen_dim == 0:
            # fully degenerate over the base point; the innermost s_0 is the
            # zero-dimensional unit cube
            degens = degens[:-1]
            base = ()
            m = 1
        elif x.gen_dim >= 2:
            base = (x if not degens
                    else self.sset.simplex((), x.gen, x.gen_dim),)
            m = x.gen_dim
        else:
            raise ValueError("a 1-reduced input has no nondegenerate edges")
        # m is the simplex dimension below each degeneracy
        ops = ()
        for q in reversed(degens):
            if q == 0:
                op = ("s", 1)
            elif q == m:
                op = ("s", m)
            elif 0 < q < m:
                op = ("g", q)
            else:
                raise ValueError(f"s_{q} undefined on a {m}-simplex")
            ops = _compose_op(op, ops)
            m += 1
        return (base, ops)

    def _locate(self, base, i):
        """Letter index and local coordinate for global coordinate i."""
        acc = 0
        for t, x in enumerate(base):
            if i <= acc + x.dim - 1:
                return t, i - acc
            acc += x.dim - 1
        raise ValueError(f"coordinate {i} out of range")

    def _bases(self, k: int):
        """Words of nondegenerate simplices of dimension >= 2 with total cube
        dimension k."""
        if k == 0:
            return [()]
        out = []
        for m in range(2, k + 2):
            for x in self.sset.nondegenerate(m):
                for rest in self._bases(k - (m - 1)):
                    out.append((x,) + rest)
        return out


# ----- the word-algebra model and the comparison isomorphism ---------------------


def omega_complex(sset: SimplicialPresentation, max_deg: int) -> ChainComplex:
    """Tensor-algebra complex on desuspended nondegenerate simplices.

    Basis in degree d: words of nondegenerate simplices of dimension >= 2
    with total degree d (each letter of dimension m contributes m - 1).  The
    differential is the derivation extending the alternating face sum plus
    the signed front/back splittings.
    """
    letters_by_deg = {}
    for m in range(2, max_deg + 2):
        for x in sset.nondegenerate(m):
            letters_by_deg.setdefault(m - 1, []).append(x)

    def words(d):
        if d == 0:
            yield ()
            return
        for first_deg in sorted(letters_by_deg):
            if first_deg > d:
                break
            for x in letters_by_deg[first_deg]:
                for rest in words(d - first_deg):
                    yield (x,) + rest

    def letter_boundary(x: Simplex) -> Chain:
        n = x.dim - 1  # letter degree
        out: Chain = {}
        for i in range(x.dim + 1):
            fx = sset.face(x, i)
            if not fx.is_degenerate and fx.dim >= 2:
                add_scaled(out, {(fx,): 1}, -(-1 if i % 2 else 1))
        for i in range(2, n):
            front = sset.front_face(x, i)
            back = sset.back_face(x, i)
            if not front.is_degenerate and not back.is_degenerate:
                add_scaled(out, {(front, back): 1}, -1 if i % 2 else 1)
        return out

    basis = {d: tuple(words(d)) for d in range(max_deg + 1)}
    boundary = {}
    for d in range(max_deg + 1):
        for w in basis[d]:
            total: Chain = {}
            sign = 1
            for t, x in enumerate(w):
                for frag, c in letter_boundary(x).items():
                    key = w[:t] + frag + w[t + 1:]
                    add_scaled(total, {key: 1}, sign * c)
                sign *= -1 if (x.dim - 1) % 2 else 1
            boundary[w] = total
    return ChainComplex(basis, boundary)


def word_to_cube(w) -> tuple:
    """Label identification: a word of simplices as a normalized cube."""
    return (tuple(w), ())


def compare_models(sset: SimplicialPresentation, max_deg: int):
    """Verdicts for the isomorphism between the word algebra and the
    normalized chains of the cobar cubical set.

    Returns ``(omega, cobar set, cubical chains, verdicts dict)``.
    """
    omega = omega_complex(sset, max_deg)
    cset = CobarSet(sset)
    cchain = cubical_chains(cset, max_deg)
    verdicts = {}

    # basis bijection
    verdicts["basis"] = Verdict.passed()
    for d in range(max_deg + 1):
        image = {word_to_cube(w) for w in omega.basis[d]}
        target = set(cchain.basis[d])
        if image != target or len(image) != len(omega.basis[d]):
            verdicts["basis"] = Verdict.failed(
                {"degree": d, "missing": target - image,
                 "extra": image - target})
            break

    # the label identification is a chain map; without a basis bijection
    # there is no identification to check
    verdicts["differential"] = check_chain_map(ChainMap(
        omega, cchain, {w: {word_to_cube(w): 1}
                        for words in omega.basis.values() for w in words})
    ) if verdicts["basis"].ok else Verdict.failed({"check": "basis"})

    # multiplication match (concatenation on both sides); the first failing
    # pair in basis order is the witness
    verdicts["product"] = Verdict.passed()
    pairs = ((w1, w2) for d1 in range(max_deg + 1)
             for d2 in range(max_deg + 1 - d1)
             for w1 in omega.basis[d1] for w2 in omega.basis[d2])
    for w1, w2 in pairs:
        if word_to_cube(w1 + w2) != cset.mul(word_to_cube(w1), word_to_cube(w2)):
            verdicts["product"] = Verdict.failed({"pair": (w1, w2)})
            break
    return omega, cset, cchain, verdicts
