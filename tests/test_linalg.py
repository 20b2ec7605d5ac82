import numpy as np
import pytest

from finslerlab import FinslerError, SingularMetric
from finslerlab.jets import Jet, extract_partial, get_context, lift_variable
from finslerlab.linalg import (
    det,
    invert,
    is_positive_definite,
    solve,
    solve_rows,
)


def test_invert_matches_numpy():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5):
        for _ in range(20):
            m = rng.uniform(-1, 1, size=(n, n))
            a = m @ m.T + n * np.eye(n)
            inv = np.array(invert(a.tolist()))
            np.testing.assert_allclose(inv, np.linalg.inv(a),
                                       rtol=1e-10, atol=1e-12)
            assert det(a.tolist()) == pytest.approx(np.linalg.det(a), rel=1e-10)


def test_singular_raises():
    with pytest.raises(SingularMetric):
        invert([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMetric):
        invert([[0.0, 0.0], [0.0, 0.0]])


def test_solve_columns():
    a = [[2.0, 1.0], [1.0, 3.0]]
    cols = solve(a, [[5.0, 10.0]])
    x = cols[0]
    assert x[0] == pytest.approx(1.0)
    assert x[1] == pytest.approx(3.0)


def test_jet_matrix_inverse():
    ctx = get_context(1, 3)
    x = lift_variable(ctx, 0, 0.4)
    a = [[1.0 + x * x, 0.3 * x], [0.3 * x, 2.0 - x]]
    inv = invert(a)
    for i in range(2):
        for j in range(2):
            entry = sum(a[i][k] * inv[k][j] for k in range(2))
            want = 1.0 if i == j else 0.0
            for mono in ctx.monomials:
                got = extract_partial(entry, mono)
                expect = want if sum(mono) == 0 else 0.0
                assert got == pytest.approx(expect, abs=1e-12)


def test_positive_definite():
    assert is_positive_definite([[2.0, 0.5], [0.5, 1.0]])
    assert not is_positive_definite([[1.0, 2.0], [2.0, 1.0]])
    assert not is_positive_definite([[-1.0, 0.0], [0.0, -2.0]])
    assert not is_positive_definite([[0.0, 0.0], [0.0, 0.0]])


def _jet_solve(ctx, matrix, rhs):
    """The one-point jet solve of one row: coefficients, or the error."""
    a = [[Jet(ctx, matrix[i, j].copy()) for j in range(len(rhs))]
         for i in range(len(rhs))]
    try:
        cols = solve(a, [[Jet(ctx, r.copy()) for r in rhs]])
    except FinslerError as exc:
        return exc
    return np.array([x.c for x in cols[0]])


@pytest.mark.parametrize("n,order", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_solve_rows_match_the_jet_solve_row_by_row(n, order):
    """Rows pivot differently (the value matrices are random, some nearly
    lower triangular), and rows that hit the zero-row test, the pivot
    floor or the division floor are flagged, not raised."""
    ctx = get_context(2 * n, order)
    rng = np.random.default_rng(10 * n + order)
    rows = 24
    a = rng.uniform(-1.0, 1.0, size=(rows, n, n, ctx.ncoef))
    a[::3, :, :, 1:] *= 1e-3
    a[1::4, 0, :, 0] *= 1e-6   # the first pivot is taken from a later row
    a[5, 1] = 0.0               # a zero row
    a[6, :, :, 0] = 1.0         # equal rows: a pivot below the floor
    a[7, :, :, 0] = np.diag([1e-15] * n)  # pivots below the division floor
    rhs = rng.uniform(-1.0, 1.0, size=(rows, n, ctx.ncoef))
    rhs[2, 0] = -0.0
    before = (a.tobytes(), rhs.tobytes())
    x, ok = solve_rows(ctx, a, rhs)
    assert (a.tobytes(), rhs.tobytes()) == before
    for b in range(rows):
        want = _jet_solve(ctx, a[b], rhs[b])
        assert ok[b] == (not isinstance(want, FinslerError)), b
        if ok[b]:
            assert np.array_equal(x[b], want)
            assert np.array_equal(np.signbit(x[b]), np.signbit(want))
    assert not ok[5:8].any() and ok.sum() == rows - 3
