"""The loop group of a reduced simplicial set.

An n-dimensional element is a reduced word of generators and inverses
indexed by (n + 1)-simplices; generators over bottom-degenerate simplices
are the identity, and adjacent cancelling pairs are removed.  Faces and
degeneracies act letter by letter with a dimension shift; the bottom face
twists each generator into a two-letter word.  The generator map is the
universal twisting map of the underlying simplicial set.
"""

from __future__ import annotations

from .simplicial import Simplex, SimplicialPresentation, SimplicialSet
from .verdict import Frozen, Verdict


class GroupWord(Frozen):
    """Reduced word in the dimension-n component of the loop group.

    ``letters`` is a tuple of (Simplex of dimension n + 1, +1 or -1).
    Immutable; equality and hashing are on ``(n, letters)``.  The hash is
    not stored: a stored hash is one more int object per live word, and
    the memoized chains keep thousands of words alive.
    """

    __slots__ = _fields = ("n", "letters")

    def __init__(self, n: int, letters: tuple):
        init = object.__setattr__
        init(self, "n", n)
        init(self, "letters", letters)

    def __eq__(self, other):
        if other.__class__ is not GroupWord:
            return NotImplemented
        return self is other or (self.n == other.n
                                 and self.letters == other.letters)

    def __hash__(self):
        return hash((self.n, self.letters))

    def __repr__(self):
        if not self.letters:
            return f"<1>_{self.n}"
        parts = [f"{x!r}" + ("'" if e < 0 else "") for x, e in self.letters]
        return "<" + " ".join(parts) + ">"

    def __len__(self):
        return len(self.letters)


def _reduce(letters):
    out = []
    for letter in letters:
        x, e = letter
        # generators over bottom-degenerate simplices are the identity
        if x.degens and x.degens[-1] == 0:
            continue
        if out and out[-1][1] == -e and out[-1][0] == x:
            out.pop()
        else:
            # the letter itself, not a copy: stored words share letters
            out.append(letter)
    return tuple(out)


class LoopGroup(SimplicialSet):
    """Simplicial group of reduced words over a reduced simplicial set.

    ``twist`` selects the bottom-face convention on generators; the default
    sends a generator over x to the word over (d_1 x, then d_0 x inverted),
    the "rival" convention to the reversed and inverted word.

    Faces and degeneracies act on each letter separately (Kan, 1958), so
    the group keeps the presentation's face and degeneracy of each letter
    it has met, keyed by (letter, index) and filled through the
    presentation's checked maps on first use.  The stores hold plain
    letter faces, not twisted pairs, so one rule serves both conventions;
    they belong to the group and are freed with it.

    The degeneracy test reads the letters (:meth:`is_degenerate`); front
    and back faces come from :class:`SimplicialSet`.  Each dimension is an
    infinite free group, so there is no list of nondegenerate elements.
    """

    def __init__(self, sset: SimplicialPresentation, twist: str = "standard"):
        if not sset.reduced:
            raise ValueError("the loop group needs a reduced input")
        if twist not in ("standard", "rival"):
            raise ValueError(f"unknown twist convention {twist!r}")
        self.sset = sset
        self.twist = twist
        self._faces = {}
        self._degeneracies = {}

    # ----- group structure ---------------------------------------------------------

    def word(self, n: int, letters) -> GroupWord:
        for x, _ in letters:
            if x.dim != n + 1:
                raise ValueError("letters must live one dimension up")
        return GroupWord(n, _reduce(letters))

    def one(self, n: int) -> GroupWord:
        return GroupWord(n, ())

    def mul(self, a: GroupWord, b: GroupWord) -> GroupWord:
        return self.product(a.n, (a, b))

    def product(self, n: int, words) -> GroupWord:
        """The product of the dimension-n words, left to right, reduced
        once; the empty product is ``one(n)``."""
        letters = []
        for a in words:
            if a.n != n:
                raise ValueError("dimension mismatch")
            letters.extend(a.letters)
        return GroupWord(n, _reduce(letters))

    def inv(self, a: GroupWord) -> GroupWord:
        return GroupWord(a.n, tuple((x, -e) for x, e in reversed(a.letters)))

    def tau(self, x: Simplex) -> GroupWord:
        """The universal twisting map on a positive-dimensional simplex."""
        if x.dim < 1:
            raise ValueError("twisting map needs positive dimension")
        return self.word(x.dim - 1, ((x, 1),))

    # ----- simplicial structure -------------------------------------------------------

    def dim(self, a: GroupWord) -> int:
        return a.n

    def is_degenerate(self, a: GroupWord) -> bool:
        """Whether ``a`` is s_{i-1} of a word, for some i in 1..n.

        The group degeneracy s_{i-1} is an injective homomorphism that sends
        the free generator over y to the free generator over s_i y (Kan,
        1958), so a reduced word lies in its image exactly when every letter
        lies over an s_i-degenerate simplex.  In Eilenberg-Zilber form a
        simplex is s_i-degenerate exactly when i is in its (decreasing)
        degeneracy word.  The empty word in dimension n >= 1 is s_0 of the
        unit, so it is degenerate; no 0-dimensional word is.
        """
        common = set(range(1, a.n + 1))
        for x, _ in a.letters:
            if not common:
                break
            common.intersection_update(x.degens)
        return bool(common)

    def _letter_images(self, store: dict, op, a: GroupWord, j: int) -> list:
        """The letters of ``a`` with ``op(x, j)`` in place of each x, read
        from ``store`` and filled on a miss."""
        out = []
        for x, e in a.letters:
            key = (x, j)
            y = store.get(key)
            if y is None:
                y = store[key] = op(x, j)
            out.append((y, e))
        return out

    def face(self, a: GroupWord, i: int) -> GroupWord:
        if not 0 <= i <= a.n:
            raise ValueError("face index out of range")
        faces, face = self._faces, self.sset.face
        if i > 0:
            return GroupWord(a.n - 1, _reduce(
                self._letter_images(faces, face, a, i + 1)))
        rival = self.twist == "rival"
        out = []
        for x, e in a.letters:
            d1 = faces.get((x, 1))
            if d1 is None:
                d1 = faces[x, 1] = face(x, 1)
            d0 = faces.get((x, 0))
            if d0 is None:
                d0 = faces[x, 0] = face(x, 0)
            # the generator over x goes to (d_1 x)(d_0 x)^-1, or under the
            # rival convention to (d_0 x)^-1 (d_1 x); its inverse to the
            # inverse word
            if rival:
                out += ((d0, -1), (d1, 1)) if e > 0 else ((d1, -1), (d0, 1))
            else:
                out += ((d1, 1), (d0, -1)) if e > 0 else ((d0, 1), (d1, -1))
        return GroupWord(a.n - 1, _reduce(out))

    def degeneracy(self, a: GroupWord, i: int) -> GroupWord:
        if not 0 <= i <= a.n:
            raise ValueError("degeneracy index out of range")
        return GroupWord(a.n + 1, _reduce(self._letter_images(
            self._degeneracies, self.sset.degeneracy, a, i + 1)))


def check_twisting(group: LoopGroup, max_dim: int) -> Verdict:
    """The defining identities of a twisting map for the generator map.

    For x of dimension m: d_0 t(x) = t(d_1 x) t(d_0 x)^{-1} (m >= 2),
    d_i t(x) = t(d_{i+1} x), s_i t(x) = t(s_{i+1} x), and t(s_0 x) = 1.
    (Positive-dimensional faces of edges land in dimension -1 and are
    skipped; t extends to edges by the unit since the input is reduced.)
    """
    sset = group.sset

    def tau(x):
        return group.one(x.dim - 1) if x.dim == 0 else group.tau(x)

    for m in range(1, max_dim + 1):
        for x in sset.simplices(m):
            tx = group.tau(x)
            if x.degens and x.degens[-1] == 0:
                if tx != group.one(m - 1):
                    return Verdict.failed({"check": "erasure", "x": x})
            if m >= 2:
                lhs = group.face(tx, 0)
                rhs = group.mul(tau(sset.face(x, 1)),
                                group.inv(tau(sset.face(x, 0))))
                if lhs != rhs:
                    return Verdict.failed({"check": "twisted face", "x": x})
                for i in range(1, m):
                    if group.face(tx, i) != tau(sset.face(x, i + 1)):
                        return Verdict.failed(
                            {"check": "face", "x": x, "i": i})
            for i in range(m):
                if group.degeneracy(tx, i) != tau(sset.degeneracy(x, i + 1)):
                    return Verdict.failed(
                        {"check": "degeneracy", "x": x, "i": i})
    return Verdict.passed()
