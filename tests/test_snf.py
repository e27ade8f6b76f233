import random

from cobarlab.snf import (identity_matrix, invariant_factors, matrix_rank,
                          smith_normal_form)


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
    res = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert res.diag == (2, 2, 156)


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
    entries = (0, 0, 0, 0, 1, -1, 2, -2, 3, -4)
    for _ in range(300):
        rows = rng.randrange(0, 9)
        cols = rng.randrange(0, 9)
        a = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
        diag = smith_normal_form(a).diag
        assert invariant_factors(columns_of(a)) == diag, a
        assert matrix_rank(a) == len(diag)


def test_invariant_factors_without_unit_entries():
    assert invariant_factors(columns_of([[2, 4], [4, 4]])) == (2, 4)
    assert invariant_factors([{"x": 6}, {"y": 4}]) == (2, 12)


def test_invariant_factors_of_zero_and_empty_shapes():
    assert invariant_factors([]) == ()  # no columns: n x 0
    assert invariant_factors([{}, {}, {}]) == ()  # 0 x 3
    assert invariant_factors([{0: 0, 1: 0}, {}]) == ()  # all-zero columns
    assert invariant_factors(columns_of([[0, 0], [0, 0]])) == ()
    assert invariant_factors([{0: 1}, {}, {1: 0}]) == (1,)
    assert matrix_rank([]) == 0
    assert matrix_rank([[], [], []]) == smith_normal_form([[], [], []]).rank == 0
