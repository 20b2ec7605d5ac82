import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import FinslerError, SingularMetric
from finslerlab.jets import Jet, extract_partial, get_context, lift_variable
from finslerlab.linalg import (
    PIVOT_FLOOR,
    _det_rows,
    det,
    invert,
    is_positive_definite,
    positive_definite_rows,
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


# entries that meet the floors and the pivot search's ties: exact small
# integers, zeros of both signs, the pivot floor itself, huge and tiny
# magnitudes and non-finite values
ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, PIVOT_FLOOR,
                     -PIVOT_FLOOR, 1e-300, 1e200, np.nan, np.inf, -np.inf]),
    st.integers(-3, 3).map(float),
    st.floats(-10.0, 10.0))


@st.composite
def matrix_rows(draw):
    """(B, n, n) matrices: Gram matrices, which are positive definite,
    nearly singular ones at the floor, and free entries."""
    n = draw(st.integers(2, 5))
    rows = draw(st.integers(1, 6))
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["gram", "floor", "free", "zero"]))
        if kind == "zero":
            m = np.zeros((n, n))
        elif kind == "free":
            m = np.array(draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                                       min_size=n, max_size=n)))
        else:
            v = np.array(draw(st.lists(
                st.lists(st.integers(-2, 2).map(float), min_size=n,
                         max_size=n), min_size=n, max_size=n)))
            m = v @ v.T
            if kind == "floor":
                k = draw(st.integers(0, n - 1))
                m[k, k] = draw(st.sampled_from(
                    [PIVOT_FLOOR, -PIVOT_FLOOR, 0.0, PIVOT_FLOOR ** 2]))
        out.append(m)
    return np.array(out)


def test_positive_definite_rows_fail_on_the_limit():
    """A leading minor whose determinant equals its limit
    (floor * scale) ** k is not positive, as in is_positive_definite."""
    t = PIVOT_FLOOR
    rows = np.array([[[t, 0.0], [0.0, 1.0]],
                     [[1.0, 0.0], [0.0, t ** 2]],
                     [[1.0, 0.0], [0.0, np.nextafter(t ** 2, 1.0)]]])
    want = [is_positive_definite(m.tolist()) for m in rows]
    assert want == [False, False, True]
    assert positive_definite_rows(rows).tolist() == want


def test_positive_definite_rows_with_an_overflowing_limit():
    """At scale 1e90 in 4-D the limit (floor * scale) ** 4 overflows.  A
    row whose second minor fails first is not positive, as in
    is_positive_definite; one that reaches the fourth minor raises the
    OverflowError of the one-point power; the rows beside it keep their
    verdicts."""
    big = np.diag([1e90, -1.0, 1.0, 1.0])
    rows = np.array([np.eye(4), big, np.diag([1.0, 1.0, -1.0, 1.0])])
    want = [is_positive_definite(m.tolist()) for m in rows]
    assert want == [True, False, False]
    assert positive_definite_rows(rows).tolist() == want
    huge = np.diag([1e90] * 4)
    with pytest.raises(OverflowError):
        is_positive_definite(huge.tolist())
    with pytest.raises(OverflowError):
        positive_definite_rows(np.array([np.eye(4), huge]))


def _one_point_solve(matrix, rhs):
    try:
        return np.array(solve(matrix.tolist(), [rhs.tolist()])[0])
    except (FinslerError, ZeroDivisionError) as exc:
        return exc


@settings(max_examples=100, deadline=None)
@given(a=matrix_rows(), data=st.data())
def test_float_rows_match_the_one_point_calls(a, data):
    """_det_rows gives det's bits on every row with finite entries, where
    it gives no NaN; positive_definite_rows gives is_positive_definite's
    verdict on every row; and solve_rows(None, ...) the bits of the float
    solve wherever it takes a row: it takes every row with finite entries
    whose solve returns a finite solution, and flags the rest."""
    rhs = np.array(data.draw(st.lists(
        st.lists(ENTRY, min_size=a.shape[1], max_size=a.shape[1]),
        min_size=len(a), max_size=len(a))))
    for k in range(1, a.shape[1] + 1):
        with np.errstate(all="ignore"):
            d = _det_rows(a[:, :k, :k])
        for b in range(len(a)):
            if np.isfinite(a[b]).all() and not np.isnan(d[b]):
                assert d[b].tobytes() == np.float64(
                    det(a[b, :k, :k].tolist())).tobytes()
    try:
        want = [is_positive_definite(m.tolist()) for m in a]
    except OverflowError:  # the floor's power overflows: raised as well
        with pytest.raises(OverflowError):
            positive_definite_rows(a)
    else:
        assert positive_definite_rows(a).tolist() == want
    before = (a.tobytes(), rhs.tobytes())
    x, ok = solve_rows(None, a, rhs)
    assert (a.tobytes(), rhs.tobytes()) == before
    for b in range(len(a)):
        want = _one_point_solve(a[b], rhs[b])
        taken = (not isinstance(want, Exception)
                 and np.isfinite(want).all()
                 and np.isfinite(a[b]).all() and np.isfinite(rhs[b]).all())
        assert ok[b] == taken, b
        if ok[b]:
            assert x[b].tobytes() == want.tobytes()  # -0.0 too
