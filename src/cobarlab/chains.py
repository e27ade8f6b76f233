"""Chain complexes of free Z-modules, with diagonals, products and homology.

A chain is a dict ``{label: coefficient}`` with nonzero int coefficients;
labels are arbitrary hashable objects, globally unique across degrees within
one complex.  All arithmetic is exact.
"""

from __future__ import annotations

from .snf import invariant_factors
from .verdict import Record, Verdict

Chain = dict


def add_scaled(dst: Chain, src: Chain, coeff: int = 1) -> Chain:
    """In place dst += coeff * src, dropping zeros."""
    for label, c in src.items():
        new = dst.get(label, 0) + coeff * c
        if new:
            dst[label] = new
        else:
            dst.pop(label, None)
    return dst


def tensor_chains(a: Chain, b: Chain, sign: int = 1) -> Chain:
    out: Chain = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            add_scaled(out, {(la, lb): 1}, sign * ca * cb)
    return out


class Homology(Record):
    __slots__ = _fields = ("betti", "torsion")

    def __init__(self, betti: int, torsion: tuple):
        self.betti = betti
        self.torsion = torsion  # invariant factors > 1, each dividing the next

    def __str__(self):
        parts = ["Z"] * self.betti + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


class ChainComplex:
    """Finitely generated chain complex with optional coalgebra structure.

    ``basis`` maps degree to an ordered tuple of labels; ``boundary`` maps
    each label to a chain one degree down; ``diagonal`` (optional) is a
    function taking a label to a chain in the tensor square, keyed by label
    pairs.  It runs only when :meth:`diagonal_of` first asks for that label,
    so boundaries and homology never pay for the coalgebra.
    """

    def __init__(self, basis, boundary, diagonal=None):
        self.basis = {n: tuple(labels) for n, labels in sorted(basis.items())}
        self.boundary = boundary
        self._diagonal_fn = diagonal
        self._diagonal = {}
        self._degree = {}
        for n, labels in self.basis.items():
            for label in labels:
                if label in self._degree:
                    raise ValueError(f"duplicate basis label {label!r}")
                self._degree[label] = n

    @property
    def degrees(self):
        return sorted(self.basis)

    @property
    def max_degree(self) -> int:
        return max(self.basis) if self.basis else -1

    def degree_of(self, label) -> int:
        return self._degree[label]

    def rank(self, n: int) -> int:
        return len(self.basis.get(n, ()))

    def boundary_chain(self, chain: Chain) -> Chain:
        out: Chain = {}
        for label, c in chain.items():
            add_scaled(out, self.boundary[label], c)
        return out

    def diagonal_of(self, label) -> Chain:
        """The diagonal of a basis label, computed once and then kept."""
        delta = self._diagonal.get(label)
        if delta is None:
            if self._diagonal_fn is None:
                raise ValueError("complex carries no diagonal")
            if label not in self._degree:
                raise KeyError(label)
            delta = self._diagonal[label] = self._diagonal_fn(label)
        return delta

    def diagonal_chain(self, chain: Chain) -> Chain:
        out: Chain = {}
        for label, c in chain.items():
            add_scaled(out, self.diagonal_of(label), c)
        return out

    # ----- structural checks -------------------------------------------------

    def check_d_squared(self) -> Verdict:
        for n in self.degrees:
            if n < 2:
                continue
            for label in self.basis[n]:
                dd = self.boundary_chain(self.boundary[label])
                if dd:
                    return Verdict.failed({"check": "d_squared", "label": label, "dd": dd})
        return Verdict.passed()

    def _tensor_boundary(self, chain: Chain) -> Chain:
        """Boundary on the tensor square with the usual sign rule."""
        out: Chain = {}
        for (a, b), c in chain.items():
            for a2, ca in self.boundary[a].items():
                add_scaled(out, {(a2, b): 1}, c * ca)
            s = -1 if self.degree_of(a) % 2 else 1
            for b2, cb in self.boundary[b].items():
                add_scaled(out, {(a, b2): 1}, c * s * cb)
        return out

    def check_coalgebra(self) -> Verdict:
        """Diagonal has degree 0, is a chain map, coassociative and counital.

        The checks run on label numbers: the labels are numbered once, in
        basis order, and a pair of numbers ``(a, b)`` is the int
        ``a * size + b`` (a triple likewise), so every term is added under
        an int key.  Each boundary and each kept diagonal is translated to
        numbers the first time a check needs it.  The labels are checked
        in basis order, each by the degree, chain-map, coassociativity and
        counit checks in turn; the first failure's witness is built on
        labels.  The degree check asks that every term (a, b) of the
        diagonal of x have deg a + deg b = deg x.
        """
        if self._diagonal_fn is None:
            return Verdict.failed({"check": "coalgebra", "error": "no diagonal"})
        labels = []
        degrees = []
        for n in self.degrees:
            labels += self.basis[n]
            degrees += [n] * self.rank(n)
        size = len(labels)
        number = {label: k for k, label in enumerate(labels)}
        boundaries = [None] * size
        diagonals = [None] * size

        def boundary(k):
            d = boundaries[k]
            if d is None:
                d = boundaries[k] = {
                    number[t]: c for t, c in self.boundary[labels[k]].items()}
            return d

        def diagonal(k):
            d = diagonals[k]
            if d is None:
                d = diagonals[k] = {
                    number[a] * size + number[b]: c
                    for (a, b), c in self.diagonal_of(labels[k]).items()}
            return d

        for k, label in enumerate(labels):
            terms = [divmod(p, size) + (c,) for p, c in diagonal(k).items()]
            for a, b, _ in terms:
                if degrees[a] + degrees[b] != degrees[k]:
                    return Verdict.failed(
                        {"check": "diagonal_degree", "label": label,
                         "term": (labels[a], labels[b])})
            if degrees[k] >= 1:
                # delta d - (d tensor 1 + 1 tensor d) delta, the sign of the
                # second part that of the front label's degree
                diff = {}
                get = diff.get
                for t, c in boundary(k).items():
                    for p, e in diagonal(t).items():
                        diff[p] = get(p, 0) + c * e
                for a, b, c in terms:
                    for t, e in boundary(a).items():
                        p = t * size + b
                        diff[p] = get(p, 0) - c * e
                    if degrees[a] % 2:
                        c = -c
                    front = a * size
                    for t, e in boundary(b).items():
                        diff[front + t] = get(front + t, 0) - c * e
                if any(diff.values()):
                    return Verdict.failed(
                        {"check": "diagonal_chain_map", "label": label,
                         "delta_d": self.diagonal_chain(self.boundary[label]),
                         "d_delta": self._tensor_boundary(
                             self.diagonal_of(label))})
            # (delta tensor 1) delta - (1 tensor delta) delta
            diff = {}
            get = diff.get
            for a, b, c in terms:
                for p, e in diagonal(a).items():
                    p = p * size + b
                    diff[p] = get(p, 0) + c * e
                front = a * size * size
                for p, e in diagonal(b).items():
                    diff[front + p] = get(front + p, 0) - c * e
            if any(diff.values()):
                return Verdict.failed({"check": "coassociativity", "label": label})
            # counit: degree-0 labels count with weight 1, and both sides
            # must give the label back
            left = {k: -1}
            right = {k: -1}
            for a, b, c in terms:
                if degrees[a] == 0:
                    left[b] = left.get(b, 0) + c
                if degrees[b] == 0:
                    right[a] = right.get(a, 0) + c
            if any(left.values()) or any(right.values()):
                return Verdict.failed({"check": "counit", "label": label})
        return Verdict.passed()

    # ----- homology -----------------------------------------------------------

    def _boundary_columns(self, n: int):
        """Sparse columns of d_n, one per degree-n label in basis order, each
        ``{position in the degree n-1 basis: coefficient}``."""
        index = {label: i for i, label in enumerate(self.basis.get(n - 1, ()))}
        boundary = self.boundary
        return [{index[target]: c for target, c in boundary[label].items()}
                for label in self.basis.get(n, ())]

    def boundary_matrix(self, n: int):
        """Matrix of d_n, rows indexed by degree n-1 basis, columns by degree n."""
        columns = self._boundary_columns(n)
        mat = [[0] * len(columns) for _ in self.basis.get(n - 1, ())]
        for j, column in enumerate(columns):
            for i, c in column.items():
                mat[i][j] = c
        return mat

    def homology(self, n: int) -> Homology:
        """H_n from the invariant factors of d_n and d_{n+1}.

        Degree n needs the complex to carry every (n+1)-cell: on a complex
        truncated at degree n, H_n comes out as the n-cycles, too large.
        """
        if n < 0 or n > self.max_degree:
            raise ValueError(f"degree {n} outside carried range 0..{self.max_degree}")
        rank_dn = len(invariant_factors(self._boundary_columns(n))) if n >= 1 else 0
        factors_up = invariant_factors(self._boundary_columns(n + 1))
        betti = self.rank(n) - rank_dn - len(factors_up)
        torsion = tuple(d for d in factors_up if d > 1)
        return Homology(betti, torsion)


def normalized_complex(basis, signs, face, diagonal) -> ChainComplex:
    """Normalized chains on ``basis`` (degree -> labels) of a simplicial
    or cubical set: a face that is not a basis label is zero.

    ``face(z, k)`` is the face of a cell z in slot k, slots counted from
    1, and ``signs(n)`` gives the boundary sign of each slot of a degree-n
    cell, slot 1 first; it also says how many slots there are.

    While it builds the boundaries, the builder keeps one row per basis
    label: a list of the label, then each of its faces in slot order, as
    the face's own row when that face is a label and as the face itself
    when it is not.  ``diagonal(row, slot)`` is the diagonal of the label
    whose row it is given, built on demand.  ``slot(z, k)`` reads slot k
    of a row; for a cell that is no label it computes the face, handing
    back the face's row when the face is a label.  So each face of a label
    is computed once per complex; only a face of a cell that is no label
    is computed again.  A diagonal tells a label's row, whose item 0 is
    the label, from a cell that is none by ``z.__class__ is list``.  The
    rows live in the complex's diagonal and are freed with it; nothing is
    stored on the set.  Boundary chains and diagonal terms are keyed by
    the basis label objects themselves, not by the faces just computed
    that equal them, so that a lookup of a label hits by identity and the
    complex holds no second copy of a label.
    """
    rows = {}
    boundary = {}
    for n in sorted(basis):
        slot_signs = tuple(enumerate(signs(n), 1))
        for x in basis[n]:
            row = [x]
            d: Chain = {}
            for k, sign in slot_signs:
                z = face(x, k)
                z_row = rows.get(z)
                if z_row is None:
                    row.append(z)
                else:
                    row.append(z_row)
                    add_scaled(d, {z_row[0]: 1}, sign)
            rows[x] = row
            boundary[x] = d

    def slot(z, k):
        if z.__class__ is list:
            return z[k]
        z = face(z, k)
        return rows.get(z, z)

    return ChainComplex(basis, boundary, lambda x: diagonal(rows[x], slot))


class ChainMap(Record):
    """Degree-zero linear map between complexes, given on basis labels.

    Its repr leaves out ``mapping``.
    """

    __slots__ = _fields = ("source", "target", "mapping")

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 mapping: dict):
        self.source = source
        self.target = target
        self.mapping = mapping

    def __repr__(self):
        return f"ChainMap(source={self.source!r}, target={self.target!r})"

    def apply(self, chain: Chain) -> Chain:
        out: Chain = {}
        for label, c in chain.items():
            add_scaled(out, self.mapping[label], c)
        return out

    def apply_tensor(self, chain: Chain) -> Chain:
        """(f tensor f) on a chain keyed by label pairs; no signs (degree 0)."""
        out: Chain = {}
        for (a, b), c in chain.items():
            add_scaled(out, tensor_chains(self.mapping[a], self.mapping[b]), c)
        return out


def check_chain_map(f: ChainMap) -> Verdict:
    """f keeps degrees and commutes with the differentials: d f = f d on
    every source label, compared term by term in one difference chain."""
    source, target, mapping = f.source, f.target, f.mapping
    degree, d_target = target._degree, target.boundary
    for n in source.degrees:
        for label in source.basis[n]:
            value = mapping[label]
            for t in value:
                if degree[t] != n:
                    return Verdict.failed(
                        {"check": "degree", "label": label, "target": t})
            if n == 0:
                continue
            diff = {}
            get = diff.get
            for t, c in value.items():
                for s, e in d_target[t].items():
                    diff[s] = get(s, 0) + c * e
            for s, c in source.boundary[label].items():
                for t, e in mapping[s].items():
                    diff[t] = get(t, 0) - c * e
            if any(diff.values()):
                return Verdict.failed(
                    {"check": "chain_map", "label": label,
                     "d_f": target.boundary_chain(value),
                     "f_d": f.apply(source.boundary[label])})
    return Verdict.passed()


def check_coalgebra_map(f: ChainMap) -> Verdict:
    """f commutes with diagonals and preserves the counit."""
    for n in f.source.degrees:
        for label in f.source.basis[n]:
            lhs = f.target.diagonal_chain(f.mapping[label])
            rhs = f.apply_tensor(f.source.diagonal_of(label))
            if lhs != rhs:
                return Verdict.failed(
                    {"check": "coalgebra_map", "label": label,
                     "delta_f": lhs, "ff_delta": rhs})
            if n == 0 and sum(f.mapping[label].values()) != 1:
                return Verdict.failed({"check": "counit_map", "label": label})
    return Verdict.passed()


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone of f; acyclic exactly when f is a quasi-isomorphism."""
    basis = {}
    boundary = {}
    top = max(f.source.max_degree + 1, f.target.max_degree)
    for n in range(top + 1):
        labels = []
        for b in f.target.basis.get(n, ()):
            labels.append(("t", b))
            boundary[("t", b)] = {("t", b2): c for b2, c in f.target.boundary[b].items()}
        for a in f.source.basis.get(n - 1, ()):
            labels.append(("s", a))
            d: Chain = {}
            for a2, c in f.source.boundary[a].items():
                add_scaled(d, {("s", a2): 1}, -c)
            for b2, c in f.mapping[a].items():
                add_scaled(d, {("t", b2): 1}, c)
            boundary[("s", a)] = d
        basis[n] = tuple(labels)
    return ChainComplex(basis, boundary)


def check_quasi_iso(f: ChainMap, degrees=None) -> Verdict:
    """Mapping-cone acyclicity in the requested degrees (all carried if None)."""
    cone = mapping_cone(f)
    if degrees is None:
        degrees = range(cone.max_degree + 1)
    for n in degrees:
        h = cone.homology(n)
        if h.betti or h.torsion:
            return Verdict.failed({"check": "quasi_iso", "degree": n, "cone_homology": str(h)})
    return Verdict.passed()
