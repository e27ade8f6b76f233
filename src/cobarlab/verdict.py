"""Pass/fail result carried by every structural check in the library, and
the one exhaustive checker of operator identities that produces it."""

from __future__ import annotations

from typing import Any, NamedTuple


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


def check_identities(elements, operators, table, top, key="x", values=True):
    """Check every identity of ``table`` on every element, in order, and
    return the first failure.

    ``elements`` yields ``(n, x)`` pairs, x of dimension n, and ``top`` is
    the last dimension among them.  ``operators`` maps an operator letter
    to its function, called as ``op(x, *args)`` with one or two index
    arguments; the letter ``d`` names a face, which lowers the dimension by
    one.  ``table(n)`` lists the identities on an n-dimensional element as
    rows ``(label, fields, lhs, rhs)``: ``fields`` are the witness's index
    fields, and ``lhs`` and ``rhs`` are operator words of at most two
    operators, innermost first, each a tuple ``(letter, *args)``; the empty
    word is the element itself.  A witness names the identity, the element
    under ``key`` and the fields, and carries both sides when ``values`` is
    set.

    Each dimension's table is compiled once, to a list of the distinct
    first operators of its words and to rows that index into it, so each
    first operator is applied to each element once.  While it checks
    dimension n, the checker also keeps the first-operator list of each
    element of dimension n - 1, keyed by that element.  A side whose first
    operator is a face and whose second operator is a first operator of
    dimension n - 1 reads its value from the list of that face.  When a
    face of the element is not a key (elements need not come dimension by
    dimension), its list is computed with dimension n - 1's first
    operators and stored.  No list is kept for ``top``, and none outlives
    the call.
    """
    plans = {}
    dim = None
    cur = None
    for n, x in elements:
        if n != dim:
            prev = cur if dim is not None and n == dim + 1 else {}
            cur = {} if n < top else None
            dim = n
            plan = plans.get(n)
            if plan is None:
                plan = _plan(plans, table, operators, n)
            firsts, faces, reads, rows = plan[1:]
            lower = plans[n - 1][1] if faces else ()
        first = [x]
        first += [op(x, a) if b is None else op(x, a, b)
                  for op, a, b in firsts]
        if cur is not None:
            cur[x] = first
        lists = []
        for k in faces:
            stored = prev.get(first[k])
            if stored is None:
                face = first[k]
                stored = prev[face] = [face] + [
                    op(face, a) if b is None else op(face, a, b)
                    for op, a, b in lower]
            # keep the stored face, so that the table holds one object per
            # distinct face
            first[k] = stored[0]
            lists.append(stored)
        vals = first + [lists[f][p] for f, p in reads]
        for label, fields, lk, lop, la, lb, rk, rop, ra, rb in rows:
            lhs = vals[lk]
            if lop is not None:
                lhs = lop(lhs, la) if lb is None else lop(lhs, la, lb)
            rhs = vals[rk]
            if rop is not None:
                rhs = rop(rhs, ra) if rb is None else rop(rhs, ra, rb)
            if lhs != rhs:
                witness = {"identity": label, key: x, **fields}
                if values:
                    witness["lhs"] = lhs
                    witness["rhs"] = rhs
                return Verdict.failed(witness)
    return Verdict.passed()


def _plan(plans, table, operators, n):
    """Compile dimension n's table into ``plans[n]``: ``(slots, firsts,
    faces, reads, rows)``.

    Slot 0 of an element's first-operator list is the element itself, slot
    k its image under ``firsts[k - 1]``; ``slots`` maps each first operator
    to its slot.  Each operator is bound as ``(function, first index,
    second index or None)``, so that it is called with its arguments
    spelled out: a call through ``*args`` costs several times a direct
    call.  ``rows`` index into the first-operator list extended by
    ``reads``: read ``(f, p)`` is slot p of the dimension n - 1 list of the
    face in slot ``faces[f]``.  A side read this way calls no operator; any
    other side calls its second operator.
    """
    below = {}
    if n > 0:
        below = (plans.get(n - 1) or _plan(plans, table, operators, n - 1))[0]
    slots = {}
    firsts = []
    faces = []
    reads = {}

    def bind(op):
        return (operators[op[0]],) + op[1:] + (None,) * (3 - len(op))

    rows = table(n)
    for _, _, lhs, rhs in rows:
        for word in (lhs, rhs):
            if len(word) > 2:
                raise ValueError(f"operator word {word!r} is longer than two")
            if word and word[0] not in slots:
                slots[word[0]] = len(firsts) + 1
                firsts.append(bind(word[0]))
    width = len(firsts) + 1

    def side(word):
        if not word:
            return 0, None, None, None
        slot = slots[word[0]]
        if len(word) == 1:
            return slot, None, None, None
        if word[0][0] == "d" and word[1] in below:
            if slot not in faces:
                faces.append(slot)
            read = (faces.index(slot), below[word[1]])
            return width + reads.setdefault(read, len(reads)), None, None, None
        return (slot,) + bind(word[1])

    rows = [(label, fields) + side(lhs) + side(rhs)
            for label, fields, lhs, rhs in rows]
    plans[n] = (slots, firsts, faces, list(reads), rows)
    return plans[n]
