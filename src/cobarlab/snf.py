"""Smith normal form over the integers, by elimination on sparse columns.

:func:`invariant_factors` takes a matrix as its sparse columns and
:func:`matrix_rank` as a list of lists; all arithmetic is on exact Python
ints.
"""

from __future__ import annotations

import heapq
from math import gcd


def invariant_factors(columns) -> tuple:
    """Nonzero invariant factors of the matrix with the given sparse columns.

    Each column is a dict ``{row: nonzero int}``; rows are any hashable
    keys.  The result is the nonzero diagonal of the Smith normal form:
    positive, each dividing the next.  Each +-1 pivot, once its row is
    cleared from the other columns by exact column operations, splits off a
    unit summand, so the pivot row and column are dropped.  When no +-1
    entry is left, Euclid steps go on with the sparse columns: the pivot is
    an entry p of least absolute value; its row is cleared by column
    operations, and then its column by row operations, which change only
    that column since the row holds only p.  Each step leaves remainders
    smaller than |p|, the next pivots; once row and column are clear, |p|
    splits off.  Pairwise gcd and lcm turn the split-off entries into the
    divisibility chain.

    >>> invariant_factors([{0: 1, 1: -1}, {1: 2, 2: 2}])
    (1, 2)
    >>> invariant_factors([{"a": 2, "b": 4}, {"a": 4, "b": 4}])
    (2, 4)
    """
    cols = [{r: c for r, c in col.items() if c} for col in columns]
    rows = {}  # row -> indices of the columns with an entry in it
    for j, col in enumerate(cols):
        for r in col:
            rows.setdefault(r, set()).add(j)
    # sparsest column first; a column goes back on the heap whenever it
    # changes, so one popped with no unit entry can be forgotten
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapq.heapify(heap)
    units = 0
    while heap:
        _, j = heapq.heappop(heap)
        pivot_col = cols[j]
        if pivot_col is None:
            continue
        candidates = [r for r, c in pivot_col.items() if c in (1, -1)]
        if not candidates:
            continue
        r = min(candidates, key=lambda row: len(rows[row]))
        sign = pivot_col[r]
        for k in rows[r] - {j}:
            col = cols[k]
            factor = col[r] * sign  # col_k -= factor * col_j clears row r
            for s, c in pivot_col.items():
                new = col.get(s, 0) - factor * c
                if new:
                    if s not in col:
                        rows[s].add(k)
                    col[s] = new
                elif s in col:
                    del col[s]
                    rows[s].discard(k)
            heapq.heappush(heap, (len(col), k))
        for s in pivot_col:
            rows[s].discard(j)
        cols[j] = None
        units += 1
    # no +-1 entry is left; the pivot is chosen by magnitude alone, since
    # row keys need not be orderable
    split = []
    while entries := [(j, r) for j, col in enumerate(cols) if col for r in col]:
        j, r = min(entries, key=lambda e: abs(cols[e[0]][e[1]]))
        pivot_col = cols[j]
        p = pivot_col[r]
        for k in rows[r] - {j}:
            col = cols[k]
            q = col[r] // p  # col_k -= q * col_j leaves col_k[r] % p
            for s, c in pivot_col.items():
                new = col.get(s, 0) - q * c
                if new:
                    if s not in col:
                        rows[s].add(k)
                    col[s] = new
                elif s in col:
                    del col[s]
                    rows[s].discard(k)
        if len(rows[r]) > 1:
            continue
        for s in [s for s in pivot_col if s != r]:
            if pivot_col[s] % p:  # row_s -= (pivot_col[s] // p) * row_r
                pivot_col[s] %= p
            else:
                del pivot_col[s]
                rows[s].discard(j)
        if len(pivot_col) == 1:
            split.append(abs(p))
            rows[r].discard(j)
            cols[j] = None
    for i in range(len(split)):
        for k in range(i + 1, len(split)):
            g = gcd(split[i], split[k])
            split[i], split[k] = g, split[i] * split[k] // g
    return (1,) * units + tuple(split)


def matrix_rank(a) -> int:
    cols = len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    return len(invariant_factors(
        [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(cols)]))
