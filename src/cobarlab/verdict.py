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


def check_identities(elements, operators, table, key="x", values=True):
    """Check every identity of ``table`` on every element, in order, and
    return the first failure.

    ``elements`` yields ``(n, x)`` pairs, x of dimension n.  ``operators``
    maps an operator letter to its function, called as ``op(x, *args)``
    with one or two index arguments.  ``table(n)`` lists the identities on
    an n-dimensional element as rows ``(label, fields, lhs, rhs)``:
    ``fields`` are the witness's index fields, and ``lhs`` and ``rhs`` are
    operator words of at most two operators, innermost first, each a tuple
    ``(letter, *args)``; the empty word is the element itself.  A witness
    names the identity, the element under ``key`` and the fields, and
    carries both sides when ``values`` is set.

    Each dimension's table is compiled once, to a list of the distinct
    first operators of its words and to rows that index into it, so each
    first operator is applied to each element once.
    """
    plans = {}
    for n, x in elements:
        plan = plans.get(n)
        if plan is None:
            plan = plans[n] = _compile(table(n), operators)
        firsts, rows = plan
        first = [x]
        first += [op(x, a) if b is None else op(x, a, b)
                  for op, a, b in firsts]
        for label, fields, lk, lop, la, lb, rk, rop, ra, rb in rows:
            lhs = first[lk]
            if lop is not None:
                lhs = lop(lhs, la) if lb is None else lop(lhs, la, lb)
            rhs = first[rk]
            if rop is not None:
                rhs = rop(rhs, ra) if rb is None else rop(rhs, ra, rb)
            if lhs != rhs:
                witness = {"identity": label, key: x, **fields}
                if values:
                    witness["lhs"] = lhs
                    witness["rhs"] = rhs
                return Verdict.failed(witness)
    return Verdict.passed()


def _compile(rows, operators):
    """(first operators, rows).  Slot 0 of an element's first-operator list
    is the element itself, slot k its image under ``firsts[k - 1]``.  Each
    operator is bound as ``(function, first index, second index or None)``,
    so that it is called with its arguments spelled out: a call through
    ``*args`` costs several times a direct call."""
    slots = {}
    firsts = []

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

    return firsts, [(label, fields) + side(lhs) + side(rhs)
                    for label, fields, lhs, rhs in rows]
