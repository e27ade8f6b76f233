"""Smith normal form over the integers, with unimodular transforms.

Matrices are lists of lists of Python ints (exact, arbitrary precision).
:func:`invariant_factors` works on sparse columns instead: it splits off
the unit summands by elimination on +-1 pivots and hands only the rest to
the dense :func:`smith_normal_form`.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple


def identity_matrix(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class SNFResult(NamedTuple):
    """diag: nonneg invariant factors (d_1 | d_2 | ...); U*A*V == D."""

    diag: tuple
    rank: int
    U: list
    V: list


def smith_normal_form(a) -> SNFResult:
    """Diagonalize an integer matrix: U*A*V = D with U, V unimodular.

    The diagonal entries are nonnegative and each divides the next.

    >>> smith_normal_form([[2, 4], [4, 4]]).diag
    (2, 4)
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(map(int, row)) for row in a]
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def row_add(i, j, k):  # row_i += k * row_j
        for t in range(cols):
            m[i][t] += k * m[j][t]
        for t in range(rows):
            u[i][t] += k * u[j][t]

    def col_add(i, j, k):  # col_i += k * col_j
        for t in range(rows):
            m[t][i] += k * m[t][j]
        for t in range(cols):
            v[t][i] += k * v[t][j]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for t in range(rows):
            m[t][i], m[t][j] = m[t][j], m[t][i]
        for t in range(cols):
            v[t][i], v[t][j] = v[t][j], v[t][i]

    def row_negate(i):
        for t in range(cols):
            m[i][t] = -m[i][t]
        for t in range(rows):
            u[i][t] = -u[i][t]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate a nonzero entry of least magnitude in the trailing block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        # euclidean reduction of the pivot row and column
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                row_add(i, t, -q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                col_add(j, t, -q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the block for the divisibility chain
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        if m[t][t] < 0:
            row_negate(t)
        t += 1

    diag = tuple(m[i][i] for i in range(limit) if m[i][i] != 0)
    return SNFResult(diag, len(diag), u, v)


def invariant_factors(columns) -> tuple:
    """Nonzero invariant factors of the matrix with the given sparse columns.

    Each column is a dict ``{row: nonzero int}``; rows are any hashable
    keys.  The result has the form of :attr:`SNFResult.diag`.  Each +-1
    pivot, once its row is cleared from the other columns by exact column
    operations, splits off a unit summand, so the pivot row and column are
    dropped; what is left when no +-1 entry remains goes to the dense
    :func:`smith_normal_form`.

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
    rest = [col for col in cols if col]
    if not rest:
        return (1,) * units
    index = {r: i for i, r in enumerate(dict.fromkeys(r for col in rest for r in col))}
    dense = [[0] * len(rest) for _ in index]
    for j, col in enumerate(rest):
        for r, c in col.items():
            dense[index[r]][j] = c
    return (1,) * units + smith_normal_form(dense).diag


def matrix_rank(a) -> int:
    cols = len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    return len(invariant_factors(
        [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(cols)]))
