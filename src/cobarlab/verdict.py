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
    dimension), every second operator on the element is called.  No list
    is kept for ``top``, and none outlives the call.
    """
    plans = {}
    dim = None
    prev = cur = None
    for n, x in elements:
        if n != dim:
            prev = cur if dim is not None and n == dim + 1 else None
            cur = {} if n < top else None
            dim = n
            plan = plans.get(n)
            if plan is None:
                plan = _plan(plans, table, operators, n)
            firsts, faces, reads, fed_rows, rows = plan[1:]
        first = [x]
        first += [op(x, a) if b is None else op(x, a, b)
                  for op, a, b in firsts]
        if cur is not None:
            cur[x] = first
        vals, order = first, rows
        if prev is not None:
            lists = [prev.get(first[k]) for k in faces]
            if None not in lists:
                # keep the stored face, so that the table holds one object
                # per distinct face
                for k, stored in zip(faces, lists):
                    first[k] = stored[0]
                vals = first + [lists[f][p] for f, p in reads]
                order = fed_rows
        for label, fields, lk, lop, la, lb, rk, rop, ra, rb in order:
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
    faces, reads, fed rows, rows)``.

    Slot 0 of an element's first-operator list is the element itself, slot
    k its image under ``firsts[k - 1]``; ``slots`` maps each first operator
    to its slot.  Each operator is bound as ``(function, first index,
    second index or None)``, so that it is called with its arguments
    spelled out: a call through ``*args`` costs several times a direct
    call.  ``rows`` index into the first-operator list and call every
    second operator.  ``fed rows`` index into that list extended by
    ``reads``: read ``(f, p)`` is slot p of the dimension n - 1 list of the
    face in slot ``faces[f]``.
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

    def side(word):
        if len(word) > 2:
            raise ValueError(f"operator word {word!r} is longer than two")
        if not word:
            return 0, None, None, None
        slot = slots.get(word[0])
        if slot is None:
            slot = slots[word[0]] = len(firsts) + 1
            firsts.append(bind(word[0]))
        return (slot,) + (bind(word[1]) if len(word) == 2
                          else (None, None, None))

    rows = table(n)
    plain = [(label, fields) + side(lhs) + side(rhs)
             for label, fields, lhs, rhs in rows]
    width = len(firsts) + 1

    def fed_side(word):
        if len(word) == 2 and word[0][0] == "d" and word[1] in below:
            slot = slots[word[0]]
            if slot not in faces:
                faces.append(slot)
            read = (faces.index(slot), below[word[1]])
            return width + reads.setdefault(read, len(reads)), None, None, None
        return side(word)

    fed = [(label, fields) + fed_side(lhs) + fed_side(rhs)
           for label, fields, lhs, rhs in rows]
    plans[n] = (slots, firsts, faces, list(reads), fed, plain)
    return plans[n]
