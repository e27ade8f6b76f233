import random
from typing import NamedTuple

from cobarlab.snf import invariant_factors, matrix_rank

# The dense Smith normal form with unimodular transforms is the reference
# that the sparse elimination of the library is compared against; check_snf
# certifies it by U*A*V = D with U and V unimodular.


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


def mat_mul(a, b):
    if not a or not b:
        rows = len(a)
        cols = len(b[0]) if b else 0
        return [[0] * cols for _ in range(rows)]
    n, m, p = len(a), len(b), len(b[0])
    assert len(a[0]) == m
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)] for i in range(n)]


def det_unimodular(m) -> int:
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    prev = 1
    sgn = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sgn = -sgn
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sgn * a[n - 1][n - 1]


def check_snf(a):
    res = smith_normal_form(a)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    uav = mat_mul(mat_mul(res.U, a), res.V)
    for i in range(rows):
        for j in range(cols):
            expect = res.diag[i] if i == j and i < len(res.diag) else 0
            assert uav[i][j] == expect
    if rows:
        assert det_unimodular(res.U) in (1, -1)
    if cols:
        assert det_unimodular(res.V) in (1, -1)
    diag = [d for d in res.diag if d]
    assert res.rank == len(diag)
    for x, y in zip(diag, diag[1:]):
        assert x > 0 and y % x == 0


def test_known_matrix():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert smith_normal_form(a).diag == (2, 2, 156)
    assert invariant_factors(columns_of(a)) == (2, 2, 156)


def test_zero_and_identity():
    check_snf([[0, 0], [0, 0]])
    check_snf(identity_matrix(3))
    assert smith_normal_form([[0, 0], [0, 0]]).rank == 0
    assert smith_normal_form(identity_matrix(3)).diag == (1, 1, 1)


def test_random_matrices():
    rng = random.Random(20260823)
    for _ in range(50):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        check_snf(a)


def test_rank():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 3]]) == 2
    assert matrix_rank([[0]]) == 0


def columns_of(a):
    cols = len(a[0]) if a else 0
    return [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(cols)]


def test_invariant_factors_agree_with_dense_snf():
    rng = random.Random(20261018)
    # the second pool has no +-1 entry, so only the Euclid steps reduce it
    for entries, count in (((0, 0, 0, 0, 1, -1, 2, -2, 3, -4), 300),
                           ((0, 0, 0, 2, -2, 3, -3, 4, 5, -6, 10, -15), 1000)):
        for _ in range(count):
            rows = rng.randrange(0, 9)
            cols = rng.randrange(0, 9)
            a = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
            diag = smith_normal_form(a).diag
            assert invariant_factors(columns_of(a)) == diag, a
            assert matrix_rank(a) == len(diag)


def test_invariant_factors_without_unit_entries():
    assert invariant_factors(columns_of([[2, 4], [4, 4]])) == (2, 4)
    assert invariant_factors([{"x": 6}, {"y": 4}]) == (2, 12)
    assert invariant_factors([{0: 2}, {1: 3}]) == (1, 6)
    assert invariant_factors([{0: 2}, {0: 3}]) == (1,)  # by column operations
    assert invariant_factors([{0: 2, 1: 3}]) == (1,)  # by row operations
    # rows of mixed key types: ties in magnitude must not compare the keys
    assert invariant_factors([{"a": 4, 0: 6}, {"a": 6, 0: 4}]) == (2, 10)


def test_invariant_factors_of_zero_and_empty_shapes():
    assert invariant_factors([]) == ()  # no columns: n x 0
    assert invariant_factors([{}, {}, {}]) == ()  # 0 x 3
    assert invariant_factors([{0: 0, 1: 0}, {}]) == ()  # all-zero columns
    assert invariant_factors(columns_of([[0, 0], [0, 0]])) == ()
    assert invariant_factors([{0: 1}, {}, {1: 0}]) == (1,)
    assert matrix_rank([]) == 0
    assert matrix_rank([[], [], []]) == smith_normal_form([[], [], []]).rank == 0
