"""Pass/fail result carried by every structural check in the library, the
one exhaustive checker of operator identities that produces it (run on
cells, or on their codes by :func:`check_coded_identities`), and the
bases of the library's value types: :class:`Record`, :class:`Frozen` and
the intern store :class:`Store`."""

from __future__ import annotations

from itertools import chain
from operator import attrgetter, itemgetter
from typing import Any, NamedTuple


class Record:
    """A slotted record built from its ``_fields``, in order: equal to a
    record of its class with equal fields, shown as ``Name(field=value,
    ...)``, pickled as a constructor call, and unhashable.  Each class
    reads the tuple of its fields through one getter, ``_get``, made with
    the class by ``operator.attrgetter``; ``Record`` itself has none."""

    __slots__ = ()
    _fields = ()
    _get = staticmethod(lambda record: ())

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            get = attrgetter(*cls._fields)
            cls._get = staticmethod(get if len(cls._fields) > 1 else
                                    lambda record: (get(record),))

    def _values(self) -> tuple:
        return self._get(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._get
        return get(self) == get(other)

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({body})"

    def __reduce__(self):
        return self.__class__, self._values()


class Frozen(Record):
    """A :class:`Record` hashed on its fields, whose slots are set once,
    by its constructor through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{self.__class__.__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"{self.__class__.__name__} is immutable; cannot delete {name!r}")

    def __hash__(self):
        return hash(self._get(self))


class Store(dict):
    """Intern store: a key read for the first time gets ``build(key)``,
    kept, so equal keys read one object.  A build that refers to no owner
    of the store makes no cycle, so both die by reference counting."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class Verdict(NamedTuple):
    """Outcome of a check: ``ok`` plus a witness describing the first failure.

    A passing verdict has ``witness is None``.  A failing verdict carries a
    small picklable object (usually a dict) naming the offending element and
    the identity that broke.
    """

    ok: bool
    witness: Any = None

    @staticmethod
    def passed() -> "Verdict":
        return Verdict(True, None)

    @staticmethod
    def failed(witness: Any) -> "Verdict":
        return Verdict(False, witness)


def check_identities(cells, bind, table, top, key="x", values=True):
    """Check every identity of ``table`` on every cell, dimension by
    dimension, and return the first failure.

    ``cells(n)`` lists the cells of dimension n, for n = 0..``top``, in the
    order they are checked.  ``bind(n, op)`` returns the operator ``op``
    on the cells of dimension n as a function of one cell; ``op`` is a
    tuple ``(letter, *args)`` with one or two index arguments.  It is the
    structure's ``_bind``, its one entry for callers whose indices are in
    range by construction, as every index of a table row is (or, on
    codes, a cube's ``_code_op``: see :func:`check_coded_identities`).  The
    checker calls ``bind`` once per dimension and first operator, before
    it applies the result to any cell, and keeps what it returns only
    until it returns, so a bound operator may resolve its tables once and
    keep them for that long.  The letter ``d`` names a face, which lowers
    the dimension by one; every other letter (a degeneracy ``s``, a
    connection ``g``) raises it by one.  The checker relies on this rule.
    ``table(n)`` lists the identities on an n-dimensional cell as rows
    ``(label, fields, lhs, rhs)``: ``fields`` are the witness's index
    fields, and ``lhs`` and ``rhs`` are operator words of at most two
    operators, innermost first; the empty word is the cell itself.  A
    witness names the identity, the cell under ``key`` and the fields, and
    carries both sides when ``values`` is set.

    Each dimension's table is compiled once, to a list of the distinct
    first operators of its words and to rows that index into it, so each
    first operator is applied to each cell once.  A cell's first-operator
    list is slot 0, the cell, followed by its image under each first
    operator.  The second operator of a word must be a first operator of
    the dimension its first operator leads to (a table with a word that is
    not is refused), and the side reads its value from the list of that
    value, which the checker keeps in a dict keyed by the value:

    - a face of an n-cell reads from the list of dimension n - 1; these
      lists are the ones kept for the cells of dimension n - 1, and a face
      that is not a key gets its list computed and stored;
    - below ``top``, a degeneracy or connection of an n-cell reads from a
      dict of dimension n + 1 lists, filled on a miss; at dimension n + 1,
      that dict becomes the dimension's own store, so a cell found in it
      reuses its list, and the store is kept until dimension n + 2 is done;
    - at ``top``, each cell takes its list out of the store, and the lists
      of dimension ``top + 1`` live in a window of one cell: those made by
      the previous cell are found, all older ones are dropped.

    No list outlives the call.  A cell's rows are checked in one tuple
    comparison of their sides, which tests identity before ``==``, and
    walked only to name a failure, so stored-cell structures make no
    ``__eq__`` call on a row that holds.
    """
    firsts = {}
    prev, cur, nxt = {}, {}, {}
    for n in range(top + 1):
        ops, faces, rises, rows, left, right = _plan(firsts, table, bind, n)
        lower = firsts[n - 1][2] if faces else ()
        upper = firsts[n + 1][2] if rises else ()
        window = n == top
        older = {}
        for x in cells(n):
            if window:
                first = cur.pop(x, None)
                older, nxt = nxt, {}
            else:
                first = cur.get(x)
            if first is None:
                first = [x]
                first += [op(x) for op in ops]
                if not window:
                    cur[x] = first
            else:
                first[0] = x
            lists = []
            for k in faces:
                stored = prev.get(first[k])
                if stored is None:
                    face = first[k]
                    stored = prev[face] = [face] + [op(face) for op in lower]
                # keep the stored value, so that the lists hold one object
                # per distinct value
                first[k] = stored[0]
                lists.append(stored)
            for k in rises:
                y = first[k]
                stored = nxt.get(y) or older.get(y)
                if stored is None:
                    stored = nxt[y] = [y] + [op(y) for op in upper]
                first[k] = stored[0]
                lists.append(stored)
            vals = list(chain(first, *lists))
            if left(vals) == right(vals):
                continue
            for label, fields, lk, rk in rows:
                lhs, rhs = vals[lk], vals[rk]
                if lhs is not rhs and lhs != rhs:
                    witness = {"identity": label, key: x, **fields}
                    if values:
                        witness["lhs"] = lhs
                        witness["rhs"] = rhs
                    return Verdict.failed(witness)
        prev, cur, nxt = cur, nxt, {}
    return Verdict.passed()


def check_coded_identities(codes, bind, table, top, decode, key="x",
                           values=True):
    """:func:`check_identities` run on the codes of cells instead of the
    cells: ``codes(n)`` lists the codes of the n-cells, ``bind(n, op)``
    returns the operator ``op`` as a function of one code, and
    ``decode(n, code)`` is the n-cell of a code.  Each code stands for one
    cell of its dimension and each bound operator maps the code of a cell
    to the code of its image, so an identity holds on the cells exactly
    when it holds on their codes.  Only a failure's witness is decoded:
    the cell, whose dimension is that of the ``codes(n)`` call in progress,
    and, when ``values`` is set, both sides, whose dimensions follow the
    letters of their row's words."""
    dims = []
    verdict = check_identities(lambda n: dims.append(n) or codes(n), bind,
                               table, top, key, values)
    if verdict.ok:
        return verdict
    witness, n = verdict.witness, dims[-1]
    witness[key] = decode(n, witness[key])
    if values:
        label = witness["identity"]
        lhs, rhs = next(row[2:] for row in table(n) if row[0] == label
                        and all(witness[f] == v for f, v in row[1].items()))
        for side, word in (("lhs", lhs), ("rhs", rhs)):
            m = n + sum(-1 if op[0] == "d" else 1 for op in word)
            witness[side] = decode(m, witness[side])
    return verdict


def _firsts(firsts, table, bind, n):
    """Dimension n's table and its distinct first operators, kept in
    ``firsts[n]`` as ``(rows, slots, ops)``.

    ``slots`` maps each first operator to its slot in a cell's
    first-operator list (slot 0 is the cell), and ``ops[k - 1]`` is the
    operator of slot k, bound by ``bind(n, op)`` to a function of one cell.
    """
    got = firsts.get(n)
    if got is None:
        rows = table(n)
        slots = {}
        for _, _, lhs, rhs in rows:
            for word in (lhs, rhs):
                if word and word[0] not in slots:
                    slots[word[0]] = len(slots) + 1
        ops = [bind(n, op) for op in slots]
        got = firsts[n] = (rows, slots, ops)
    return got


def _plan(firsts, table, bind, n):
    """Compile dimension n's table: ``(ops, faces, rises, rows, left,
    right)``.

    ``ops`` are dimension n's bound first operators.  ``faces`` and
    ``rises`` are the slots whose values have a list read: faces, with
    lists of dimension n - 1, and degeneracies or connections, with lists
    of dimension n + 1.  ``rows`` are ``(label, fields, lhs, rhs)`` with
    ``lhs`` and ``rhs`` positions in the concatenation of the
    first-operator list and those lists, faces first, and ``left`` and
    ``right`` pick every row's two sides out of it.  A word longer than
    two, or whose second operator is no first operator of the dimension
    its first operator leads to, raises ``ValueError``.
    """
    rows, slots, ops = _firsts(firsts, table, bind, n)
    below = _firsts(firsts, table, bind, n - 1)[1] if n > 0 else {}
    above = _firsts(firsts, table, bind, n + 1)[1]
    faces = []
    rises = []
    for _, _, lhs, rhs in rows:
        for word in (lhs, rhs):
            if len(word) > 2:
                raise ValueError(f"operator word {word!r} is longer than two")
            if len(word) == 2:
                links, near, m = ((faces, below, n - 1) if word[0][0] == "d"
                                  else (rises, above, n + 1))
                if word[1] not in near:
                    raise ValueError(
                        f"operator word {word!r}: {word[1]!r} is no first"
                        f" operator of dimension {m}")
                slot = slots[word[0]]
                if slot not in links:
                    links.append(slot)
    offset = {}
    at = len(ops) + 1
    for links, near in ((faces, below), (rises, above)):
        for slot in links:
            offset[slot] = at
            at += len(near) + 1

    def position(word):
        if not word:
            return 0
        if len(word) == 1:
            return slots[word[0]]
        near = below if word[0][0] == "d" else above
        return offset[slots[word[0]]] + near[word[1]]

    rows = [(label, fields, position(lhs), position(rhs))
            for label, fields, lhs, rhs in rows]
    return (ops, faces, rises, rows, itemgetter(*[row[2] for row in rows], 0),
            itemgetter(*[row[3] for row in rows], 0))
