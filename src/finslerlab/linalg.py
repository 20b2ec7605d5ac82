"""Partial-pivot elimination for the tiny dense systems this package needs.

One generic implementation serves two element types: plain floats and jets
(anything supporting + - * / and neg).  Pivots are compared by a magnitude
functional -- abs for floats, abs of the value coefficient for jets -- and a
pivot falling below ``floor`` times its row scale raises SingularMetric.
``solve_rows`` runs the jet case for a batch of systems at once, on raw
coefficient arrays, each row with the bits of ``solve``.
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
    """:func:`solve` of jet systems, one per batch row, on raw coefficients.

    ``matrix`` is a (B, n, n, ncoef) and ``rhs`` a (B, n, ncoef) array of
    coefficient vectors of ``ctx``.  Returns ``(x, ok)``: x[b] holds the
    coefficients of ``solve(A_b, [rhs_b])[0]`` with its bits wherever
    ok[b] is true.  ok[b] is false where that solve would raise (a zero
    row, a pivot below ``floor`` times its row scale, or a pivot value
    below the context's division floor) and where a value is not finite;
    x[b] is then meaningless.  Every step runs the kernels of the jet
    operators on the same operands, in the same order, for all rows at
    once; the pivot is chosen per row, the first largest scaled magnitude
    as ``max`` chooses it.
    """
    a = np.array(matrix, dtype=float)
    col = np.array(rhs, dtype=float)
    batch, n = a.shape[:2]
    every = np.arange(batch)
    with np.errstate(all="ignore"):
        ok = (np.isfinite(a).all(axis=(1, 2, 3))
              & np.isfinite(col).all(axis=(1, 2)))
        scales = np.abs(a[..., 0]).max(axis=2)
        ok &= scales.min(axis=1) != 0.0
        perm = np.tile(np.arange(n), (batch, 1))
        one = _one(ctx)
        inverses = []
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
            small = np.abs(pivot[:, 0]) < ctx.div_floor
            ok &= ~small
            inverses.append(_recip(ctx, np.where(small[:, None], one, pivot)))
            if k + 1 == n:
                break
            # factor = a[r][k] / pivot, then a[r][c] -= factor * a[k][c]
            # and col[r] -= factor * col[k], for every r > k at once
            factor = _cauchy(ctx, a[:, k + 1:, k], inverses[k][:, None])
            for r in range(k + 1, n):  # by rows, to keep temporaries small
                a[:, r, k + 1:] -= _cauchy(ctx, factor[:, r - k - 1, None],
                                           a[:, k, k + 1:])
            col[:, k + 1:] -= _cauchy(ctx, factor, col[:, None, k])
        x = np.empty_like(col)
        for i in range(n - 1, -1, -1):
            acc = col[:, i]
            if i + 1 < n:
                terms = _cauchy(ctx, a[:, i, i + 1:], x[:, i + 1:])
                for term in np.moveaxis(terms, 1, 0):
                    acc = acc - term
            x[:, i] = _cauchy(ctx, acc, inverses[i])
        ok &= np.isfinite(x).all(axis=(1, 2))
    return x, ok


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
