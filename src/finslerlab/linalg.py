"""Partial-pivot elimination for the tiny dense systems this package needs.

One generic implementation serves two element types: plain floats and jets
(anything supporting + - * / and neg).  Pivots are compared by a magnitude
functional -- abs for floats, abs of the value coefficient for jets -- and a
pivot falling below ``floor`` times its row scale raises SingularMetric.
``solve_rows`` runs either case for a batch of systems at once, on raw
arrays, and ``positive_definite_rows`` the Sylvester test for a batch of
matrices, each row with the bits or the verdict of the one-point call.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMetric
from .jets import Jet, _cauchy, _one, _recip

PIVOT_FLOOR = 1e-12


def _magnitude(element):
    if isinstance(element, Jet):
        return abs(element.value)
    return abs(element)


def solve(matrix, rhs_columns, floor=PIVOT_FLOOR):
    """Solve A X = B for X, with B given as a list of columns.

    ``matrix`` is a list of rows; entries may be floats or jets (mixed is
    fine as long as the arithmetic accepts it).  Returns the solution as a
    list of columns matching ``rhs_columns``.
    """
    n = len(matrix)
    a = [list(row) for row in matrix]
    cols = [list(col) for col in rhs_columns]
    scales = [max(_magnitude(e) for e in row) for row in a]
    if min(scales) == 0.0:
        raise SingularMetric("matrix has a zero row")
    perm = list(range(n))
    for k in range(n):
        pivot_row = max(range(k, n),
                        key=lambda r: _magnitude(a[r][k]) / scales[perm[r]])
        if _magnitude(a[pivot_row][k]) < floor * scales[perm[pivot_row]]:
            raise SingularMetric(
                f"pivot {k} below {floor} of row scale during elimination")
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            perm[k], perm[pivot_row] = perm[pivot_row], perm[k]
            for col in cols:
                col[k], col[pivot_row] = col[pivot_row], col[k]
        pivot = a[k][k]
        for r in range(k + 1, n):
            factor = a[r][k] / pivot
            for c in range(k + 1, n):
                a[r][c] = a[r][c] - factor * a[k][c]
            a[r][k] = 0.0
            for col in cols:
                col[r] = col[r] - factor * col[k]
    solutions = []
    for col in cols:
        x = [None] * n
        for i in range(n - 1, -1, -1):
            acc = col[i]
            for j in range(i + 1, n):
                acc = acc - a[i][j] * x[j]
            x[i] = acc / a[i][i]
        solutions.append(x)
    return solutions


def solve_rows(ctx, matrix, rhs, floor=PIVOT_FLOOR):
    """:func:`solve` of one system per batch row, on raw arrays.

    Float systems come as a (B, n, n) ``matrix`` and a (B, n) ``rhs`` with
    ``ctx`` None; jet systems as (B, n, n, ncoef) and (B, n, ncoef)
    arrays of coefficient vectors of ``ctx``.  Returns ``(x, ok)``: x[b]
    holds ``solve(A_b, [rhs_b])[0]`` (its coefficients, for jets) with
    its bits wherever ok[b] is true.  ok[b] is false where that solve
    would raise (a zero row, a pivot below ``floor`` times its row scale,
    a jet pivot value below the context's division floor, a float pivot
    of zero) and where a value is not finite; x[b] is then meaningless.

    Every step runs the operations of ``solve`` on the same operands, in
    the same order, for all rows at once: a float is taken as a jet with
    its value coefficient only, multiplied by a float product and divided
    by a float ``/``, and a jet is multiplied and divided by the kernels
    of the jet operators.  The pivot is chosen per row, the first largest
    scaled magnitude as ``max`` chooses it.
    """
    a = np.array(matrix, dtype=float)
    col = np.array(rhs, dtype=float)
    if ctx is None:
        a, col = a[..., None], col[..., None]
        mul, divide, div_floor = np.multiply, np.divide, 0.0
        one = np.ones(1)

        def divisor(pivot):  # a float row is divided by its pivot
            return pivot
    else:
        def mul(p, q):
            return _cauchy(ctx, p, q)

        def divisor(pivot):  # a jet row is multiplied by its reciprocal
            return _recip(ctx, pivot)

        divide, div_floor, one = mul, ctx.div_floor, _one(ctx)
    batch, n = a.shape[:2]
    every = np.arange(batch)
    with np.errstate(all="ignore"):
        ok = (np.isfinite(a).all(axis=(1, 2, 3))
              & np.isfinite(col).all(axis=(1, 2)))
        scales = np.abs(a[..., 0]).max(axis=2)
        ok &= scales.min(axis=1) != 0.0
        perm = np.tile(np.arange(n), (batch, 1))
        divisors = []
        for k in range(n):
            magnitude = np.abs(a[:, k:, k, 0])
            ratio = magnitude / np.take_along_axis(scales, perm[:, k:], axis=1)
            ok &= ~np.isnan(ratio).any(axis=1)
            best = ratio.argmax(axis=1)
            pivot_row = k + best
            ok &= ~(magnitude[every, best]
                    < floor * scales[every, perm[every, pivot_row]])
            order = np.tile(np.arange(n), (batch, 1))
            order[every, pivot_row] = k
            order[:, k] = pivot_row
            a = a[every[:, None], order]
            col = col[every[:, None], order]
            perm = np.take_along_axis(perm, order, axis=1)
            pivot = a[:, k, k]
            # a float pivot of zero, which would raise, gives a non-finite x
            small = np.abs(pivot[:, 0]) < div_floor
            ok &= ~small
            divisors.append(divisor(np.where(small[:, None], one, pivot)))
            if k + 1 == n:
                break
            # factor = a[r][k] / pivot, then a[r][c] -= factor * a[k][c]
            # and col[r] -= factor * col[k], for every r > k at once
            factor = divide(a[:, k + 1:, k], divisors[k][:, None])
            for r in range(k + 1, n):  # by rows, to keep temporaries small
                a[:, r, k + 1:] -= mul(factor[:, r - k - 1, None],
                                       a[:, k, k + 1:])
            col[:, k + 1:] -= mul(factor, col[:, None, k])
        x = np.empty_like(col)
        for i in range(n - 1, -1, -1):
            acc = col[:, i]
            if i + 1 < n:
                terms = mul(a[:, i, i + 1:], x[:, i + 1:])
                for term in np.moveaxis(terms, 1, 0):
                    acc = acc - term
            x[:, i] = divide(acc, divisors[i])
        ok &= np.isfinite(x).all(axis=(1, 2))
    return (x[..., 0] if ctx is None else x), ok


def invert(matrix, floor=PIVOT_FLOOR):
    """Inverse as a list of rows; elements may be floats or jets."""
    n = len(matrix)
    identity_cols = [[1.0 if r == c else 0.0 for r in range(n)]
                     for c in range(n)]
    cols = solve(matrix, identity_cols, floor=floor)
    return [[cols[c][r] for c in range(n)] for r in range(n)]


def det(matrix):
    """Determinant by elimination; float entries only."""
    n = len(matrix)
    a = [[float(e) for e in row] for row in matrix]
    sign = 1.0
    result = 1.0
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda r: abs(a[r][k]))
        if a[pivot_row][k] == 0.0:
            return 0.0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        result *= pivot
        for r in range(k + 1, n):
            factor = a[r][k] / pivot
            for c in range(k + 1, n):
                a[r][c] -= factor * a[k][c]
    return sign * result


def is_positive_definite(matrix, floor=PIVOT_FLOOR):
    """Sylvester test on a symmetric float matrix, with a relative floor."""
    n = len(matrix)
    scale = max(abs(matrix[i][j]) for i in range(n) for j in range(n))
    if scale == 0.0:
        return False
    for k in range(1, n + 1):
        minor = [[matrix[i][j] for j in range(k)] for i in range(k)]
        if det(minor) <= (floor * scale) ** k:
            return False
    return True


def _det_rows(a):
    """:func:`det` of each matrix of the (B, k, k) float array ``a``, all
    rows at once, with ``det``'s pivots, zero test, divides and products.

    Where a NaN meets the pivot search, ``argmax`` takes it as the pivot
    while ``max`` passes it over; the determinant is then NaN, as it is
    wherever the product itself is NaN, and such a row is ``det``'s own.
    """
    a = a.copy()
    batch, k = a.shape[:2]
    every = np.arange(batch)
    sign = np.ones(batch)
    result = np.ones(batch)
    zero = np.zeros(batch, dtype=bool)
    for j in range(k):
        pivot_row = j + np.abs(a[:, j:, j]).argmax(axis=1)
        order = np.tile(np.arange(k), (batch, 1))
        order[every, pivot_row] = j
        order[:, j] = pivot_row
        a = a[every[:, None], order]
        sign = np.where(pivot_row != j, -sign, sign)
        pivot = a[:, j, j]
        zero |= pivot == 0.0  # det returns 0.0 here
        result = result * pivot
        factor = a[:, j + 1:, j] / pivot[:, None]
        a[:, j + 1:, j + 1:] -= factor[:, :, None] * a[:, None, j, j + 1:]
    return np.where(zero, 0.0, sign * result)


def positive_definite_rows(matrices, floor=PIVOT_FLOOR):
    """:func:`is_positive_definite` of each matrix of the (B, n, n) float
    array ``matrices``, as a bool array of its verdicts.

    Each leading minor's determinant is ``det``'s own elimination, run on
    every minor of every row at once (``_det_rows``), and it is compared
    with the limit ``(floor * scale) ** k`` from ``np.float_power``, whose
    float64 loop calls the C library's pow, the function behind the
    one-point test's ``**`` (``np.power`` may go through SIMD routines
    that round differently).  The minor of order k is padded to n by n
    with the identity: its zero entries keep the padded rows out of the
    pivot search, and their pivots of 1.0 leave the product unchanged, so
    the padded determinant has the minor's bits.  A row with a value that
    is not finite, with an infinite limit (where the one-point ``**``
    raises ``OverflowError``), or with a determinant of NaN is tested by
    ``is_positive_definite`` itself.
    """
    m = np.array(matrices, dtype=float)
    batch, n = m.shape[:2]
    with np.errstate(all="ignore"):
        scale = np.abs(m).max(axis=(1, 2))
        apart = ~np.isfinite(m).all(axis=(1, 2))
        limits = np.float_power((floor * scale)[:, None],
                                np.arange(1.0, n + 1))
        apart |= np.isinf(limits).any(axis=1)
        minors = np.tile(np.eye(n), (batch, n, 1, 1))
        for k in range(1, n + 1):
            minors[:, k - 1, :k, :k] = m[:, :k, :k]
        d = _det_rows(minors.reshape(-1, n, n)).reshape(batch, n)
        apart |= np.isnan(d).any(axis=1)
        positive = (scale != 0.0) & ~(d <= limits).any(axis=1)
    for b in np.flatnonzero(apart):
        positive[b] = is_positive_definite(m[b].tolist(), floor)
    return positive
