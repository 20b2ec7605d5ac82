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

``sprays`` evaluates the spray at a batch of samples: the jets of F and
F^2 come from one pass over the batch, through the jet kernels' leading
batch axis, and only the float tail runs sample by sample.

``riccis`` and ``einstein_scalars`` (``einstein_rows`` without the
fallback) evaluate many directions y at one point x, each row with the
bits of ``ricci`` and ``einstein_scalar``.  The order-4 F shares the
memoised x-coefficient jets of x and is built in chunks of at most
``CHUNK_PAIRS`` rows times product pairs: 16 rows in 2-D, 4 in 3-D, one
at a time from 4-D on, where a batched order-4 product is no faster and
costs memory.  The order-2 tail -- the gathers, the right-hand side, the
jet solve with its pivot chosen per row (``linalg.solve_rows``), the
Riemann read and the trace -- then runs once for all rows.  The domain
test, F > 0 and the positivity test of g stay per row; a row that fails
one, or that meets a pivot or division floor, is left to the one-point
function, which raises its own error.  ``einstein_scalar`` and
``riemann_curvature`` stay the one-point entries: a batch of one row is
slower.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BatchFailed,
    DegeneratePlane,
    DomainError,
    FinslerError,
    SingularMetric,
)
from .jets import Jet, _cauchy, _shift_product, get_context, lift_variable
from .linalg import invert, is_positive_definite, solve, solve_rows

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
    raises where a sample would raise.  The optional
    ``batch_domain(x, y)`` is ``domain_fn`` at one point x for each
    column of the (n, B) array y, as a bool array.
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
        as a bool array."""
        ys = np.asarray(ys, dtype=float).reshape(-1, self.dim)
        if self._batch_domain is None:
            return np.array([self.in_domain(x, y) for y in ys.tolist()],
                            dtype=bool)
        return (ys != 0.0).any(axis=1) & self._batch_domain(x, ys.T)

    def require_domain(self, x, y):
        if not self.in_domain(x, y):
            raise DomainError(
                f"sample x={list(x)!r}, y={list(y)!r} outside the metric domain")

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


class _PartialTable:
    """Where the partials core reads sit in one 2n-variable jet context.

    Each attribute is an index array into the coefficient vector: unit
    monomials ``x[k]`` and ``y[j]``, and second-order pairs ``xy[k][l]``
    (x^k y^l) and ``yy[i][j]`` (y^i y^j).  :func:`_read` turns one of them
    into raw partials with a single gather.
    """

    def __init__(self, ctx):
        n = ctx.num_vars // 2
        units = np.array(ctx.unit, dtype=np.intp)

        def pair(a, b):
            mono = [0] * ctx.num_vars
            mono[a] += 1
            mono[b] += 1
            return ctx.index[tuple(mono)]

        self.x = units[:n]
        self.y = units[n:]
        self.xy = np.array([[pair(k, n + l) for l in range(n)]
                            for k in range(n)], dtype=np.intp)
        self.yy = np.array([[pair(n + i, n + j) for j in range(n)]
                            for i in range(n)], dtype=np.intp)


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


def _read(coeffs, idx, ctx):
    """Raw partials at monomial indices ``idx`` of the last axis of ``coeffs``.

    Entry by entry this is ``extract_partial``: coefficient times factorial.
    """
    return coeffs.take(idx, axis=-1) * ctx.factorial[idx]


def _g_values(metric, f2, x, y):
    g = (0.5 * _read(f2.c, _partial_table(f2.ctx).yy, f2.ctx)).tolist()
    if not is_positive_definite(g):
        raise SingularMetric(
            f"fundamental tensor not positive definite at x={list(x)!r}, "
            f"y={list(y)!r}")
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
    return _spray_tail(g, _read(f2.c, table.xy, f2.ctx).tolist(),
                       _read(f2.c, table.x, f2.ctx).tolist(), y)


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
    pass (``metric.batch_jet`` and the batched kernels); the domain check,
    the positive-definiteness test of g and the solve then run on each
    row as in ``spray``.  A metric without a batched F, or a batch in
    which some row fails, is evaluated row by row with ``spray``, so the
    first failing row raises its own error.
    """
    n = metric.dim
    points = np.asarray(points, dtype=float)
    rows = points.tolist()
    try:
        return _batch_sprays(metric, points.T, rows)
    except (BatchFailed, FinslerError):
        return np.array([spray(metric, row[:n], row[n:]) for row in rows])


def _batch_sprays(metric, z, rows):
    n = metric.dim
    ctx = get_context(2 * n, 2)
    f = metric.batch_jet(z[:n], z[n:], 2)
    f2 = _cauchy(ctx, f, f)
    table = _partial_table(ctx)
    g = (0.5 * _read(f2, table.yy, ctx)).tolist()
    f2_xy = _read(f2, table.xy, ctx).tolist()
    f2_x = _read(f2, table.x, ctx).tolist()
    out = []
    for row, g_row, xy_row, x_row in zip(rows, g, f2_xy, f2_x):
        x, y = row[:n], row[n:]
        if not (metric.in_domain(x, y) and is_positive_definite(g_row)):
            raise BatchFailed
        out.append(_spray_tail(g_row, xy_row, x_row, y))
    return np.array(out)


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
            f"fundamental tensor not positive definite at x={list(x)!r}, "
            f"y={list(y)!r}")
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
    gx, gy, gxy, gyy = (_read(coeffs, idx, ctx)
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
    """Order-4 coefficients of F^2 at (x, y) for each row y of ``ys``.

    Returns ``(f2, ok)``; ok[b] is false where building F raised.  Rows go
    through the metric's batched F in chunks of ``CHUNK_PAIRS`` over the
    context's product pairs, which shares the x-coefficient jets of the
    one point x; where a chunk holds one row, or the batch raises, F is
    built row by row with ``metric.jet``.
    """
    ctx = get_context(2 * metric.dim, 4)
    chunk = max(1, CHUNK_PAIRS // len(ctx._mul_i))
    f2 = np.zeros((len(ys), ctx.ncoef))
    ok = np.ones(len(ys), dtype=bool)
    for start in range(0, len(ys), chunk):
        part = ys[start:start + chunk]
        if len(part) > 1:
            try:
                f = metric.batch_jet(x, part.T, 4)
                f2[start:start + len(part)] = _cauchy(ctx, f, f)
                continue
            except (BatchFailed, FinslerError):
                pass
        for b, y in enumerate(part.tolist(), start):
            try:
                f = metric.jet(x, y, 4)
            except FinslerError:
                ok[b] = False
                continue
            f2[b] = (f * f).c
    return f2, ok


def _ricci_rows(metric, x, ys):
    """Ricci curvatures at (x, y) for each row y of the (B, n) array ``ys``.

    Returns ``(ric, ok)``: ric[b] has the bits of ``ricci(metric, x, y)``
    wherever ok[b] is true.  ok[b] is false where that call would raise --
    outside the domain, F not built, g not positive definite, a pivot or
    division floor in the jet solve -- and where a value is not finite;
    such rows are left to ``ricci``.  The domain test and the positivity
    test of g run per row; the tail runs once for every row.
    """
    n = metric.dim
    ric = np.zeros(len(ys))
    ok = metric.in_domain_rows(x, ys)
    rows = np.flatnonzero(ok)
    if not len(rows):
        return ric, ok
    y = ys[rows]
    table = _tail_table(get_context(2 * n, 4))
    low = table.low
    # rows that overflow are left to ``ricci``, which warns for them
    with np.errstate(all="ignore"):
        f2, built = _f2_rows(metric, x, y)
        g = 0.5 * _gather(f2, table.g)
        built &= [bool(b) and is_positive_definite(m)
                  for b, m in zip(built, g[..., 0].tolist())]
        # rhs[l] = -[F^2]_{x^l} + sum_k [F^2]_{x^k y^l} y^k, k in order
        f2_xy = _gather(f2, table.xy)
        rhs = -_gather(f2, table.x)
        for k in range(n):
            rhs = rhs + _shift_product(low, f2_xy[:, :, k], n + k, y[:, k:k + 1])
        sol, solved = solve_rows(low, g, rhs)
        built &= solved
        r = _riemann_read(0.25 * sol, y, low)
        # np.trace adds the diagonal in order
        trace = r[:, 0, 0]
        for i in range(1, n):
            trace = trace + r[:, i, i]
        built &= np.isfinite(trace)
    ric[rows] = trace
    ok[rows] = built
    return ric, ok


def riccis(metric, x, ys):
    """Ricci curvature at x in each direction y of the (B, n) array ``ys``,
    row b with the bits of ``ricci(metric, x, ys[b])``.

    A row the batch does not take is evaluated by ``ricci``, in row
    order, so the first failing row raises its own error.
    """
    ys = np.asarray(ys, dtype=float).reshape(-1, metric.dim)
    ric, ok = np.zeros(len(ys)), np.zeros(len(ys), dtype=bool)
    if len(ys) > 1:  # one row is faster through the one-point path
        try:
            ric, ok = _ricci_rows(metric, x, ys)
        except FinslerError:  # from a domain test: take the rows one by one
            pass
    for b in np.flatnonzero(~ok):
        ric[b] = ricci(metric, x, list(ys[b]))
    return ric


def einstein_rows(metric, x, ys):
    """Einstein scalars at x in each direction y of the (B, n) array
    ``ys``, without fallback: ``(lam, ok)``, lam[b] with the bits of
    ``einstein_scalar(metric, x, ys[b])`` wherever ok[b] is true.  Rows
    with ok[b] false -- F not positive, or any row ``_ricci_rows`` does
    not take -- are the caller's to evaluate with ``einstein_scalar``,
    which raises their own errors.
    """
    ys = np.asarray(ys, dtype=float).reshape(-1, metric.dim)
    lam = np.zeros(len(ys))
    ok = np.zeros(len(ys), dtype=bool)
    if len(ys) < 2:  # one row is faster through the one-point path
        return lam, ok
    f = np.zeros(len(ys))
    for b, y in enumerate(ys.tolist()):
        try:
            f[b] = metric.value(x, y)
        except (FinslerError, ArithmeticError):
            continue
        ok[b] = f[b] > 0.0
    rows = np.flatnonzero(ok)
    try:
        ric, took = _ricci_rows(metric, x, ys[rows])
    except FinslerError:  # from a domain test: leave every row
        ok[:] = False
        return lam, ok
    with np.errstate(all="ignore"):
        den = (metric.dim - 1) * f[rows] * f[rows]
        lam[rows] = ric / den
    ok[rows] = took & (den != 0.0)
    return lam, ok


def einstein_scalars(metric, x, ys):
    """Einstein scalar at x in each direction y of the (B, n) array
    ``ys``, row b with the bits of ``einstein_scalar(metric, x, ys[b])``.

    A row the batch does not take is evaluated by ``einstein_scalar``, in
    row order, so the first failing row raises its own error.
    """
    ys = np.asarray(ys, dtype=float).reshape(-1, metric.dim)
    lam, ok = einstein_rows(metric, x, ys)
    for b in np.flatnonzero(~ok):
        lam[b] = einstein_scalar(metric, x, list(ys[b]))
    return lam


def reversibility_residual(metric, x, y):
    """|Einstein scalar at y minus at -y|; both rays must be admissible."""
    y_rev = [-v for v in y]
    metric.require_domain(x, y)
    metric.require_domain(x, y_rev)
    return abs(einstein_scalar(metric, x, y) - einstein_scalar(metric, x, y_rev))


def flag_curvature(metric, x, y, u):
    """Curvature of the flag spanned by y and the transverse direction u."""
    metric.require_domain(x, y)
    g, _ = fundamental_tensor(metric, x, y)
    r = riemann_curvature(metric, x, y)
    u = np.asarray(u, dtype=float)
    yv = np.asarray(y, dtype=float)
    f = metric.value(x, y)
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


@dataclass
class EinsteinCheckResult:
    verdict: bool
    spreads: list = field(default_factory=list)
    max_spread: float = 0.0
    skipped: list = field(default_factory=list)


def einstein_check(metric, points, directions_per_point=32, tolerance=1e-7):
    """Spread of the Einstein scalar over directions, point by point.

    The verdict is true iff every per-point spread (max - min over the
    admissible sampled directions) is below ``tolerance``.
    """
    dirs = sphere_directions(metric.dim, directions_per_point)
    spreads = []
    skipped = []
    for x in points:
        values = einstein_scalars(
            metric, x, [d for d in dirs if metric.in_domain(x, d)]).tolist()
        if len(values) < 2:
            skipped.append(tuple(x))
            continue
        spreads.append(max(values) - min(values))
    verdict = bool(spreads) and all(s < tolerance for s in spreads)
    max_spread = max(spreads) if spreads else math.inf
    return EinsteinCheckResult(verdict, spreads, max_spread, skipped)
