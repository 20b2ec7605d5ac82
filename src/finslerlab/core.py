"""Generic Finsler curvature engine.

Everything here works from a single callable that evaluates F(x, y) in jet
arithmetic over the 2n variables (x^1..x^n, y^1..y^n).  The fundamental
tensor, spray, Riemann operator, Ricci and Einstein scalars are obtained by
extracting the required partials from one order-4 jet of F^2:

    g_ij  = (1/2) d^2 F^2 / dy^i dy^j
    G^i   = (1/4) g^il { [F^2]_{x^k y^l} y^k - [F^2]_{x^l} }
    R^i_k = 2 dG^i/dx^k - y^j d^2G^i/dx^j dy^k
            + 2 G^j d^2G^i/dy^j dy^k - dG^i/dy^j dG^j/dy^k

with Ric the trace of R and the Einstein scalar Ric / ((n-1) F^2).

Only F and F^2 need order 4.  The curvature tail -- g_ij and the spray
right-hand side as jets, the n-by-n jet solve for G^i and the Riemann read
-- is valid to degree 2 only, so it runs in the order-2 context: g and the
F^2 partials are gathered out of the order-4 jet of F^2 into order-2
coefficients (``_TailTable``), with the same bits as differentiating the
order-4 jet.

``evaluate`` is the one curvature pass over a batch of samples, many
directions y at one point x, or one point x per row: per row it returns F,
g_ij, R^i_k, Ric and the Einstein scalar, each with the bits of
``metric.value``, ``fundamental_tensor``, ``riemann_curvature``, ``ricci``
and ``einstein_scalar``, and ok where the row holds them all.  The jets of
F and F^2 come from one pass over the batch, through the jet kernels'
leading batch axis; the order-4 F is built in chunks of at most
``CHUNK_PAIRS`` rows times product pairs (16 rows in 2-D, 4 in 3-D, one at
a time from 4-D on, where a batched order-4 product is no faster and costs
memory), and at one x it shares the memoised x-coefficient jets of x.
The tails then run once for all rows, on whole arrays: the domain test
(``FinslerMetric.in_domain_rows``), F (``FinslerMetric.value_rows``), the
positivity test of g (``linalg.positive_definite_rows``), the jet solve
with its pivot chosen per row (``linalg.solve_rows``), the Riemann read
and the trace.  A row that fails one of them, or meets a pivot or
division floor, is left to the one-point function, which raises its own
error.  Its readers:

- ``riccis``, ``einstein_scalars`` and ``einstein_rows`` (without the
  fallback) read Ric and lambda;
- ``EinsteinTable`` keeps every row it evaluates under exact bits, for
  the runner's sample rows and checks and for the Randers and square
  relations of ``constructions``: lambda over a point's directions,
  (F, Ric) along a list of directions and (F, g, R) at one sample, the
  flag curvature's inputs (``flag_formula``);
- the flat-parallel-family scenario reads Ric and lambda of y and -y.

``sprays`` is the order-2 batch of ``spray`` (the float tail, with the
float solve).  ``spray``, ``ricci``, ``einstein_scalar`` and
``flag_curvature`` stay the one-point entries: a batch of one row costs
several times their float tail.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import NamedTuple

import numpy as np

from .errors import (
    BatchFailed,
    DegeneratePlane,
    DomainError,
    FinslerError,
    SingularMetric,
    _raised,
    coords,
)
from .jets import (
    Jet,
    _cauchy,
    _shift_product,
    get_context,
    lift_variable,
    partial_table,
    read_partials,
)
from .linalg import (
    invert,
    is_positive_definite,
    positive_definite_rows,
    solve,
    solve_rows,
)

DENOMINATOR_FLOOR = 1e-12


def exact_key(*vectors):
    """The exact bits of float vectors as bytes, for use as a dictionary key.

    Unlike rounded or tuple keys, 0.0 and -0.0 differ and no two distinct
    points share a key.
    """
    return b"".join(struct.pack(f"{len(v)}d", *v) for v in vectors)


class FinslerMetric:
    """A Finsler metric given by a jet evaluator and a domain predicate.

    ``jet_builder(x_jets, y_jets)`` receives coordinate jets (shared
    context) and returns the jet of F.  ``scalar_fn(x, y)`` is the plain
    float evaluation used by oracles and homogeneity checks.
    ``domain_fn(x, y)`` must be true wherever F is admissible.  The
    optional ``batch_builder(ctx, x, y)`` is F over a batch: y is a
    coordinate-major (n, B) array, x is one too or one point shared by
    every sample, and it returns the (B, ncoef) coefficients of F in
    ``ctx``, row b with the bits of the jet builder at sample b, or
    raises where a sample would raise.  A metric with a batch builder
    takes such x and y in ``scalar_fn`` too, and returns F at each
    sample.  The optional ``batch_domain(x, y)`` is ``domain_fn`` at each
    column of the (n, B) array y, with x one point or coordinate-major as
    well, as a bool array.
    """

    def __init__(self, dim, jet_builder, scalar_fn, domain_fn=None, name="",
                 batch_builder=None, batch_domain=None):
        self.dim = dim
        self._jet_builder = jet_builder
        self._scalar_fn = scalar_fn
        self._domain_fn = domain_fn
        self._batch_builder = batch_builder
        self._batch_domain = batch_domain
        self.name = name

    def value(self, x, y):
        return self._scalar_fn(x, y)

    def in_domain(self, x, y):
        if not any(v != 0.0 for v in y):
            return False
        if self._domain_fn is not None and not self._domain_fn(x, y):
            return False
        return True

    def in_domain_rows(self, x, ys):
        """``in_domain(x, y)`` for each row y of the (B, n) array ``ys``,
        as a bool array; x is one point, or a (B, n) array with the
        point of each row."""
        ys = np.asarray(ys, dtype=float).reshape(-1, self.dim)
        if self._batch_domain is None:
            return np.array([self.in_domain(_point(x, b), y)
                             for b, y in enumerate(ys.tolist())], dtype=bool)
        return (ys != 0.0).any(axis=1) & self._batch_domain(_major(x), ys.T)

    def value_rows(self, x, ys):
        """F at (x, y) for each row y of the (B, n) array ``ys``, x as
        for ``in_domain_rows``: ``(f, ok)``, f[b] with the bits of
        ``value`` wherever ok[b] is true, and ok[b] false where that call
        raises.  A metric with a batched F takes every row in one call."""
        ys = np.asarray(ys, dtype=float).reshape(-1, self.dim)
        if self._batch_builder is not None:
            try:
                f = self._scalar_fn(_major(x), ys.T)
                return np.asarray(f, dtype=float), np.ones(len(ys), bool)
            except (FinslerError, ArithmeticError):
                pass
        f = np.zeros(len(ys))
        ok = np.zeros(len(ys), dtype=bool)
        for b, y in enumerate(ys.tolist()):
            try:
                f[b] = self.value(_point(x, b), y)
            except (FinslerError, ArithmeticError):
                continue
            ok[b] = True
        return f, ok

    def require_domain(self, x, y):
        if not self.in_domain(x, y):
            raise DomainError(
                f"sample x={coords(x)!r}, y={coords(y)!r} outside the metric "
                "domain")

    def jet(self, x, y, order):
        """Jet of F in the 2n-variable context (x first, then y)."""
        n = self.dim
        ctx = get_context(2 * n, order)
        x_jets = [lift_variable(ctx, i, x[i]) for i in range(n)]
        y_jets = [lift_variable(ctx, n + i, y[i]) for i in range(n)]
        return self._jet_builder(x_jets, y_jets)

    def batch_jet(self, x, y, order):
        """Coefficients of the jets of F at a batch of samples, one row
        each, in the 2n-variable context; y is a coordinate-major (n, B)
        array and x one too, or one point for every sample.  Raises
        BatchFailed for a metric without a batched F."""
        if self._batch_builder is None:
            raise BatchFailed
        return self._batch_builder(get_context(2 * self.dim, order), x, y)


def _take(x, rows):
    """The points of ``rows``: x itself where it is one point shared by
    every row, else those rows of the (B, n) array x."""
    return x if np.ndim(x) == 1 else x[rows]


def _point(x, b):
    """The point of row b: x itself where it is one point, else the
    list of row b of the (B, n) array x."""
    return x if np.ndim(x) == 1 else list(x[b])


def _major(x):
    """x as the batched F and domain take it: one point as it is, a
    (B, n) array of points coordinate-major."""
    return x if np.ndim(x) == 1 else np.asarray(x, dtype=float).T


def _rows_of(x):
    """x as the batched entries take it: one point as it is, a nested
    list of points as a (B, n) float array."""
    return x if np.ndim(x) == 1 else np.asarray(x, dtype=float)


class _PartialTable:
    """The partials core reads in one 2n-variable context: the unit and
    pair indices of ``jets.partial_table`` split over x^1..x^n and
    y^1..y^n.

    ``x[k]`` and ``y[j]`` index unit monomials, ``xy[k][l]`` the pair
    x^k y^l and ``yy[i][j]`` the pair y^i y^j; ``read_partials`` turns
    one of them into raw partials with a single gather.
    """

    def __init__(self, ctx):
        n = ctx.num_vars // 2
        table = partial_table(ctx)
        self.x, self.y = table.unit[:n], table.unit[n:]
        self.xy, self.yy = table.pair[:n, n:], table.pair[n:, n:]


@functools.cache
def _partial_table(ctx):
    """The context's :class:`_PartialTable`, built on first use."""
    return _PartialTable(ctx)


class _TailTable:
    """Where the curvature tail's inputs sit in an order-4 jet of F^2.

    ``low`` is the order-2 context on the same 2n variables.  Each tensor
    is a pair (index array, factor array) whose last axis runs over the
    monomials m of ``low``: the partial d/dz^a ... of F^2 has order-2
    coefficient ``c[idx] * factor`` at m, where idx indexes m + e_a + ...
    and factor = (m + e_a + ...)! / m!.  That equals differentiating the
    order-4 jet one variable at a time, bit for bit: with |m| <= 2 each
    factor is a product of at most two of 1, 2, 3, 4 with at most one 3,
    so one rounded multiply gives what multiplying by each in turn gives.

    ``g[i][j]`` reads d^2/dy^i dy^j, ``xy[l][k]`` d^2/dy^l dx^k and
    ``x[l]`` d/dx^l.
    """

    def __init__(self, ctx):
        n = ctx.num_vars // 2
        self.low = low = get_context(ctx.num_vars, 2)
        monomials = np.array(low.monomials)

        def lowered(*variables):
            raised = monomials.copy()
            for v in variables:
                raised[:, v] += 1
            return [ctx.index[tuple(m)] for m in raised.tolist()]

        def tensor(rows):
            idx = np.array(rows, dtype=np.intp)
            return idx, ctx.factorial[idx] / low.factorial

        self.g = tensor([[lowered(n + i, n + j) for j in range(n)]
                         for i in range(n)])
        self.xy = tensor([[lowered(n + l, k) for k in range(n)]
                          for l in range(n)])
        self.x = tensor([lowered(l) for l in range(n)])


@functools.cache
def _tail_table(ctx):
    """The order-4 context's :class:`_TailTable`, built on first use."""
    return _TailTable(ctx)


def _gather(coeffs, tensor):
    """Order-2 coefficients of one ``_TailTable`` tensor of F^2, for one
    coefficient vector or each row of a batch."""
    idx, factor = tensor
    return coeffs.take(idx, axis=-1) * factor


def _g_values(metric, f2, x, y):
    table = _partial_table(f2.ctx)
    g = (0.5 * read_partials(f2.c, table.yy, f2.ctx)).tolist()
    if not is_positive_definite(g):
        raise SingularMetric(
            f"fundamental tensor not positive definite at x={coords(x)!r}, "
            f"y={coords(y)!r}")
    return g


def fundamental_tensor(metric, x, y):
    """(g, g_inv) as float matrices; raises SingularMetric when degenerate."""
    metric.require_domain(x, y)
    f = metric.jet(x, y, 2)
    f2 = f * f
    g = _g_values(metric, f2, x, y)
    return np.array(g), np.array(invert(g))


def spray(metric, x, y):
    """Geodesic coefficients G^i as a float vector (2-homogeneous in y)."""
    metric.require_domain(x, y)
    f = metric.jet(x, y, 2)
    f2 = f * f
    g = _g_values(metric, f2, x, y)
    table = _partial_table(f2.ctx)
    return _spray_tail(g, read_partials(f2.c, table.xy, f2.ctx).tolist(),
                       read_partials(f2.c, table.x, f2.ctx).tolist(), y)


def _spray_tail(g, f2_xy, f2_x, y):
    """G^i from g and the F^2 partials [F^2]_{x^k y^l} and [F^2]_{x^l}."""
    n = len(g)
    rhs = [sum(f2_xy[k][l] * y[k] for k in range(n)) - f2_x[l]
           for l in range(n)]
    cols = solve(g, [rhs])
    return np.array([0.25 * v for v in cols[0]])


def sprays(metric, points):
    """G^i at every row (x, y) of the (B, 2n) array ``points``, as a (B, n)
    array; row b has the bits of ``spray(metric, row[:n], row[n:])``.

    The order-2 jets of F and F^2 are built for the whole batch in one
    pass (``metric.batch_jet`` and the batched kernels), and the float
    tail runs on whole arrays: the domain test, the positivity test of g
    (``linalg.positive_definite_rows``) and the solve
    (``linalg.solve_rows``).  A row that fails one of them, every row of
    a metric without a batched F, and every row of a batch whose F
    raises, is evaluated by ``spray``, in row order, so the first
    failing row raises its own error.
    """
    n = metric.dim
    points = np.asarray(points, dtype=float).reshape(-1, 2 * n)
    if not len(points):
        return np.zeros((0, n))
    try:
        out, ok = _spray_rows(metric, points)
    except (BatchFailed, FinslerError, ArithmeticError):
        out, ok = np.zeros((len(points), n)), np.zeros(len(points), bool)
    for b in np.flatnonzero(~ok):
        row = points[b].tolist()
        out[b] = spray(metric, row[:n], row[n:])
    return out


def _spray_rows(metric, points):
    """G^i at each row of ``points`` without fallback: ``(out, ok)``, row
    b of out with the bits of ``spray`` wherever ok[b] is true."""
    n = metric.dim
    ctx = get_context(2 * n, 2)
    x, y = points[:, :n], points[:, n:]
    f = metric.batch_jet(x.T, y.T, 2)
    ok = metric.in_domain_rows(x, y)
    table = _partial_table(ctx)
    with np.errstate(all="ignore"):
        f2 = _cauchy(ctx, f, f)
        g = 0.5 * read_partials(f2, table.yy, ctx)
        ok &= positive_definite_rows(g)
        # rhs[l] = sum_k [F^2]_{x^k y^l} y^k - [F^2]_{x^l}, summed from 0
        # as ``sum`` sums
        f2_xy = read_partials(f2, table.xy, ctx)
        rhs = np.zeros((len(points), n))
        for k in range(n):
            rhs = rhs + f2_xy[:, k] * y[:, k, None]
        rhs = rhs - read_partials(f2, table.x, ctx)
        sol, solved = solve_rows(None, g, rhs)
        return 0.25 * sol, ok & solved


def _spray_jets(metric, x, y):
    """G^i as jets of the order-2 context, for the curvature extraction.

    Also returns the order-4 jet of F.
    """
    n = metric.dim
    f = metric.jet(x, y, 4)
    f2 = f * f
    table = _tail_table(f2.ctx)
    low = table.low
    g = 0.5 * _gather(f2.c, table.g)
    if not is_positive_definite(g[:, :, 0].tolist()):
        raise SingularMetric(
            f"fundamental tensor not positive definite at x={coords(x)!r}, "
            f"y={coords(y)!r}")
    g_jets = [[Jet(low, g[i, j]) for j in range(n)] for i in range(n)]
    f2_xy = _gather(f2.c, table.xy)
    f2_x = _gather(f2.c, table.x)
    y_jets = [lift_variable(low, n + k, y[k]) for k in range(n)]
    rhs = []
    for l in range(n):
        acc = Jet(low, -f2_x[l])
        for k in range(n):
            acc = acc + Jet(low, f2_xy[l, k]) * y_jets[k]
        rhs.append(acc)
    cols = solve(g_jets, [rhs])
    return [0.25 * gi for gi in cols[0]], f


def riemann_curvature(metric, x, y):
    """R^i_k as an n-by-n float matrix (the trace is the Ricci curvature)."""
    metric.require_domain(x, y)
    g_jets, _ = _spray_jets(metric, x, y)
    coeffs = np.stack([gj.c for gj in g_jets])
    return _riemann_read(coeffs[None], np.array([y], dtype=float),
                         g_jets[0].ctx)[0]


def _riemann_read(coeffs, y, ctx):
    """R^i_k at each row of a batch, from the (B, n, ncoef) coefficients
    of the spray jets G^i in ``ctx`` and the (B, n) directions y:

        R^i_k = 2 dG^i/dx^k - sum_j (y^j d2G^i/dx^j dy^k
                - 2 G^j d2G^i/dy^j dy^k + dG^i/dy^j dG^j/dy^k),

    the terms added in this order, j by j, for every row and entry.
    """
    table = _partial_table(ctx)
    g_val = coeffs[..., 0]
    # gx[b, i, k] = dG^i/dx^k, gy[b, i, j] = dG^i/dy^j,
    # gxy[b, i, j, k] = d2G^i/dx^j dy^k, gyy[b, i, j, k] = d2G^i/dy^j dy^k
    gx, gy, gxy, gyy = (read_partials(coeffs, idx, ctx)
                        for idx in (table.x, table.y, table.xy, table.yy))
    r = 2.0 * gx
    for j in range(coeffs.shape[1]):
        r = r - y[:, j, None, None] * gxy[:, :, j]
        r = r + (2.0 * g_val[:, j])[:, None, None] * gyy[:, :, j]
        r = r - gy[:, :, j, None] * gy[:, None, j]
    return r


def ricci(metric, x, y):
    """Ricci curvature: the trace of the Riemann operator."""
    return float(np.trace(riemann_curvature(metric, x, y)))


def einstein_scalar(metric, x, y):
    """Einstein scalar: Ric / ((n-1) F^2); 0-homogeneous in y."""
    f = metric.value(x, y)
    if not f > 0.0:
        raise DomainError(f"F = {f!r} is not positive at this sample")
    return ricci(metric, x, y) / ((metric.dim - 1) * f * f)


# rows times order-4 product pairs per Cauchy product of a batched F^2:
# 16 rows in 2-D (495 pairs), 4 in 3-D (1,820) and one from 4-D (4,845) on
CHUNK_PAIRS = 8192


def _f2_rows(metric, x, ys):
    """Order-4 coefficients of F^2 at (x, y) for each row y of ``ys``, x
    one point or the (B, n) array of each row's point.

    Returns ``(f2, ok)``; ok[b] is false where building F raised.  Rows go
    through the metric's batched F in chunks of ``CHUNK_PAIRS`` over the
    context's product pairs; one point x shares its memoised
    x-coefficient jets over the chunk.  Where a chunk holds one row, or
    the batch raises, F is built row by row with ``metric.jet``.
    """
    ctx = get_context(2 * metric.dim, 4)
    chunk = max(1, CHUNK_PAIRS // len(ctx._mul_i))
    f2 = np.zeros((len(ys), ctx.ncoef))
    ok = np.ones(len(ys), dtype=bool)
    for start in range(0, len(ys), chunk):
        part = slice(start, start + chunk)
        y = ys[part]
        if len(y) > 1:
            try:
                f = metric.batch_jet(_major(_take(x, part)), y.T, 4)
                f2[part] = _cauchy(ctx, f, f)
                continue
            except (BatchFailed, FinslerError):
                pass
        for b, y_row in enumerate(y.tolist(), start):
            try:
                f = metric.jet(_point(x, b), y_row, 4)
            except FinslerError:
                ok[b] = False
                continue
            f2[b] = (f * f).c
    return f2, ok


def _spray_jet_rows(metric, x, ys):
    """The spray jets G^i in the order-2 context at (x, y) for each row y
    of the (B, n) array ``ys``, all in the domain; x is one point or the
    (B, n) array of each row's point.

    Returns ``(coeffs, ok)``: coeffs[b] is the (n, ncoef) array of the
    coefficients of G^1..G^n, with the bits of ``_spray_jets`` at row b
    wherever ok[b] is true.  ok[b] is false where that call would raise --
    F not built, g not positive definite, a pivot or division floor in
    the jet solve -- and where a value is not finite.  The tail runs once
    for every row.
    """
    # rows that overflow are left to the one-point call, which warns
    with np.errstate(all="ignore"):
        f2, ok = _f2_rows(metric, x, ys)
    coeffs, _, solved = _spray_tail_rows(f2, ys)
    return coeffs, ok & solved


def _spray_tail_rows(f2, ys):
    """The spray jets and g from the order-4 coefficients ``f2`` of F^2
    at the rows of ``ys``: ``(coeffs, g, ok)``, g[b] the float fundamental
    tensor with the bits of ``fundamental_tensor``, and ok[b] false where
    g is not positive definite or the jet solve meets a floor."""
    n = ys.shape[1]
    table = _tail_table(get_context(2 * n, 4))
    low = table.low
    with np.errstate(all="ignore"):
        g = 0.5 * _gather(f2, table.g)
        ok = positive_definite_rows(g[..., 0])
        # rhs[l] = -[F^2]_{x^l} + sum_k [F^2]_{x^k y^l} y^k, k in order
        f2_xy = _gather(f2, table.xy)
        rhs = -_gather(f2, table.x)
        for k in range(n):
            rhs = rhs + _shift_product(low, f2_xy[:, :, k], n + k,
                                       ys[:, k:k + 1])
        sol, solved = solve_rows(low, g, rhs)
        return 0.25 * sol, g[..., 0].copy(), ok & solved


class Samples(NamedTuple):
    """Per-row results of ``evaluate``: F, g, R^i_k, Ric, the Einstein
    scalar, and ok, true where the row holds all of them."""

    f: np.ndarray
    g: np.ndarray
    r: np.ndarray
    ric: np.ndarray
    lam: np.ndarray
    ok: np.ndarray


def evaluate(metric, x, ys):
    """The curvature pass at (x, y) for each direction y of the (B, n)
    array ``ys``; x is one point, or a (B, n) array with the point of each
    row.  No row falls back: the :class:`Samples` row b holds F, g, R,
    Ric and lambda with the bits of ``metric.value``,
    ``fundamental_tensor(...)[0]``, ``riemann_curvature``, ``ricci`` and
    ``einstein_scalar`` wherever ok[b] is true.

    ok[b] is false outside the domain, where F does not evaluate or is
    not positive, where g is not positive definite, where the jet solve
    meets a floor, where Ric is not finite or lambda divides by zero, and
    at every row of a batch of one, which is faster through the one-point
    functions.  Such rows are the caller's, whose one-point call raises
    their own errors.
    """
    n = metric.dim
    ys = np.asarray(ys, dtype=float).reshape(-1, n)
    x = _rows_of(x)
    out = Samples(np.zeros(len(ys)), np.zeros((len(ys), n, n)),
                  np.zeros((len(ys), n, n)), np.zeros(len(ys)),
                  np.zeros(len(ys)), np.zeros(len(ys), dtype=bool))
    if len(ys) < 2:
        return out
    try:
        rows = np.flatnonzero(metric.in_domain_rows(x, ys))
        f, valued = metric.value_rows(_take(x, rows), ys[rows])
        valued &= f > 0.0
        rows, f = rows[valued], f[valued]
        x, ys = _take(x, rows), ys[rows]
        # rows that overflow are left to the one-point call, which warns
        with np.errstate(all="ignore"):
            f2, took = _f2_rows(metric, x, ys)
            coeffs, g, solved = _spray_tail_rows(f2, ys)
            r = _riemann_read(coeffs, ys, get_context(2 * n, 2))
            # np.trace adds the diagonal in order
            ric = r[:, 0, 0]
            for i in range(1, n):
                ric = ric + r[:, i, i]
            den = (n - 1) * f * f
            lam = ric / den
    except (FinslerError, ArithmeticError):  # leave every row
        return out
    out.f[rows], out.g[rows], out.r[rows] = f, g, r
    out.ric[rows], out.lam[rows] = ric, lam
    out.ok[rows] = took & solved & np.isfinite(ric) & (den != 0.0)
    return out


def _one_by_one(values, ok, fn, metric, x, ys):
    """``values`` with each row b that is not ok set to
    ``fn(metric, x_b, ys[b])``, in row order, so the first failing row
    raises its own error."""
    for b in np.flatnonzero(~ok):
        values[b] = fn(metric, _point(x, b), list(ys[b]))
    return values


def riccis(metric, x, ys):
    """Ricci curvature at (x, y) for each direction y of the (B, n) array
    ``ys``, row b with the bits of ``ricci(metric, x, ys[b])``; x is one
    point, or a (B, n) array with the point of each row.  A row
    ``evaluate`` leaves is evaluated by ``ricci``, in row order, so the
    first failing row raises its own error."""
    ys = np.asarray(ys, dtype=float).reshape(-1, metric.dim)
    x = _rows_of(x)
    rows = evaluate(metric, x, ys)
    return _one_by_one(rows.ric, rows.ok, ricci, metric, x, ys)


def einstein_rows(metric, x, ys):
    """Einstein scalars at (x, y) for each direction y of the (B, n) array
    ``ys``, x as for ``riccis``, without fallback: ``(lam, ok)`` of
    ``evaluate``; the rows with ok[b] false are the caller's to evaluate
    with ``einstein_scalar``, which raises their own errors."""
    rows = evaluate(metric, x, ys)
    return rows.lam, rows.ok


def einstein_scalars(metric, x, ys):
    """Einstein scalar at (x, y) for each direction y of the (B, n) array
    ``ys``, x as for ``riccis``, row b with the bits of
    ``einstein_scalar(metric, x, ys[b])``.  A row ``evaluate`` leaves is
    evaluated by ``einstein_scalar``, in row order, so the first failing
    row raises its own error."""
    ys = np.asarray(ys, dtype=float).reshape(-1, metric.dim)
    x = _rows_of(x)
    rows = evaluate(metric, x, ys)
    return _one_by_one(rows.lam, rows.ok, einstein_scalar, metric, x, ys)


def flag_curvature(metric, x, y, u):
    """Curvature of the flag spanned by y and the transverse direction u."""
    metric.require_domain(x, y)
    g, _ = fundamental_tensor(metric, x, y)
    r = riemann_curvature(metric, x, y)
    return flag_formula(metric.value(x, y), g, r, y, u)


def flag_formula(f, g, r, y, u):
    """The flag curvature of (y, u) from F, the float g_ij and R^i_k at
    one sample; raises DegeneratePlane where u is parallel to y."""
    u = np.asarray(u, dtype=float)
    yv = np.asarray(y, dtype=float)
    gu = g @ u
    num = float(u @ (g @ (r @ u)))
    den = f * f * float(u @ gu) - float(yv @ gu) ** 2
    scale = f * f * float(u @ gu)  # den == scale when u is g-orthogonal to y
    if abs(den) < DENOMINATOR_FLOOR * max(1.0, abs(scale)):
        raise DegeneratePlane("flag direction is parallel to y")
    return num / den


def circle_directions(count):
    """Evenly spaced unit directions on the circle."""
    angles = 2.0 * math.pi * np.arange(count) / count
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _halton(index, base):
    result = 0.0
    f = 1.0
    i = index
    while i > 0:
        f /= base
        result += f * (i % base)
        i //= base
    return result


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def sphere_directions(dim, count):
    """Deterministic low-discrepancy unit directions in any dimension.

    Halton points mapped through Box-Muller pairs and normalized; for
    dim == 2 evenly spaced angles are used instead.
    """
    if dim == 2:
        return circle_directions(count)
    pairs = (dim + 1) // 2
    dirs = np.zeros((count, dim))
    for k in range(count):
        gauss = []
        for p in range(pairs):
            u1 = _halton(k + 1, _PRIMES[2 * p])
            u2 = _halton(k + 1, _PRIMES[2 * p + 1])
            u1 = min(max(u1, 1e-12), 1.0 - 1e-12)
            radius = math.sqrt(-2.0 * math.log(u1))
            gauss.append(radius * math.cos(2.0 * math.pi * u2))
            gauss.append(radius * math.sin(2.0 * math.pi * u2))
        v = np.array(gauss[:dim])
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            v = np.zeros(dim)
            v[k % dim] = 1.0
            norm = 1.0
        dirs[k] = v / norm
    return dirs


def worst(values):
    """The largest of the residuals ``values``, folded from 0.0 -- or inf
    where any of them is NaN, so a NaN fails a check wherever it sits,
    and inf where there is none, so a check that evaluated nothing
    cannot pass."""
    values = list(values)
    if not values or any(v != v for v in values):
        return math.inf
    return max(0.0, *values)


def spread(values):
    """max - min of a nonempty list of values, or inf where any of them is
    NaN, as for ``worst``."""
    if any(v != v for v in values):
        return math.inf
    return max(values) - min(values)


class EinsteinTable:
    """The curvature samples of one metric: at each (x, y), the Einstein
    scalar or the FinslerError its evaluation raised, and, for the rows a
    batch evaluated, F, g, R^i_k and Ric as well, each evaluated once and
    stored under exact bits (``exact_key``), so that the sample rows and
    every check of a run read the same numbers, and the same skip text.

    ``directions(x)`` lists the admissible ones of the directions
    ``dirs`` at x and ``reversible(x)`` those whose reverse is admissible
    too, each worked out once per point.  The first call of either
    evaluates its rows (the directions, or their reverses) in one batch,
    ``evaluate``; a lookup that no batch filled, and a row a batch
    leaves, goes through the one-point functions.  The reads:

    - the scalars: ``values`` (the scalars at x in direction order, the
      first of them lambda at x wherever one value is needed),
      ``spreads`` (their max - min at each point) and ``reversal``
      (|lambda(x, y) - lambda(x, -y)|), the package's one sweep of lambda
      over directions;
    - ``ricci_rows(x, ys)``: (F, Ric) along a list of directions, for the
      Randers and square-metric relations;
    - ``curvature(x, y)``: (F, g, R) at one sample, for the flag
      curvature.
    """

    def __init__(self, metric, dirs):
        self.metric = metric
        self.dirs = dirs
        self._results = {}
        self._rows = {}
        self._sweeps = {}

    def __call__(self, x, y):
        key = exact_key(x, y)
        result = self._results.get(key)
        if result is None:
            try:
                result = einstein_scalar(self.metric, x, list(y))
            except FinslerError as exc:
                result = exc.with_traceback(None)  # keep no frames alive
            self._results[key] = result
        return _raised(result)

    def values(self, x):
        """The Einstein scalars over ``directions(x)``: the directions
        that have one, their values, and a skip text for each direction
        whose evaluation raised, all in order."""
        ys, values, skipped = [], [], []
        for y in self.directions(x):
            try:
                values.append(self(x, y))
            except FinslerError as exc:
                skipped.append(f"x={x}: {exc}")
                continue
            ys.append(y)
        return ys, values, skipped

    def spreads(self, points):
        """The spread of lambda over ``values(x)`` at each point x that has
        two values or more, and the skip texts: each direction whose
        evaluation raised, and each point with fewer than two values."""
        spreads, skipped = [], []
        for x in points:
            _, values, missed = self.values(x)
            skipped += missed
            if len(values) >= 2:
                spreads.append(float(spread(values)))
            else:
                skipped.append(f"x={x}: fewer than two admissible directions")
        return spreads, skipped

    def reversal(self, x, y):
        """|lambda(x, y) - lambda(x, -y)|; both rays must be admissible."""
        return abs(self(x, y) - self(x, [-v for v in y]))

    def ricci_rows(self, x, ys):
        """(F, Ric) at (x, y) for each direction y of ``ys`` with (x, y)
        admissible, in order.  The directions not yet in the table are
        evaluated in one batch first; a row no batch holds is evaluated
        by ``ricci`` and then ``metric.value``, which raise their own
        errors."""
        taken = self.metric.in_domain_rows(x, ys).tolist()
        ys = [y for y, ok in zip(ys, taken) if ok]
        self._fill(x, ys)
        out = []
        for y in ys:
            row = self._rows.get(exact_key(x, y))
            if row is None:
                ric = ricci(self.metric, x, list(y))
                out.append((float(self.metric.value(x, y)), ric))
            else:
                out.append((row[0], row[3]))
        return out

    def curvature(self, x, y):
        """(F, g, R) at (x, y): the row a batch evaluated, else by
        ``fundamental_tensor``, ``riemann_curvature`` and ``metric.value``,
        which raise their own errors."""
        row = self._rows.get(exact_key(x, y))
        if row is not None:
            return row[:3]
        g, _ = fundamental_tensor(self.metric, x, y)
        r = riemann_curvature(self.metric, x, y)
        return self.metric.value(x, y), g, r

    def directions(self, x):
        """The run's directions y with (x, y) admissible, in order."""
        return self._sweep(x, reverse=False)

    def reversible(self, x):
        """The admissible directions at x whose reverse is admissible."""
        return self._sweep(x, reverse=True)

    def _sweep(self, x, reverse):
        key = (exact_key(x), reverse)
        ys = self._sweeps.get(key)
        if ys is None:
            ys = self.directions(x) if reverse else list(self.dirs)
            rows = [-y for y in ys] if reverse else ys
            if rows:
                taken = self.metric.in_domain_rows(x, rows).tolist()
                rows = [y for y, ok in zip(rows, taken) if ok]
                ys = [y for y, ok in zip(ys, taken) if ok]
            self._sweeps[key] = ys
            self._fill(x, rows)
        return ys

    def _fill(self, x, ys):
        """Evaluate the directions ``ys`` at x not yet in the table, in
        one batch."""
        rows = {}
        for y in ys:
            rows.setdefault(exact_key(x, y), y)
        for key in self._results.keys() & rows.keys():
            del rows[key]
        if not rows:
            return
        keys = list(rows)
        got = evaluate(self.metric, x, list(rows.values()))
        for b in np.flatnonzero(got.ok).tolist():
            self._results[keys[b]] = float(got.lam[b])
            self._rows[keys[b]] = (float(got.f[b]), got.g[b], got.r[b],
                                   float(got.ric[b]))
