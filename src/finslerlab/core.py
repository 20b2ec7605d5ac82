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
order-4 jet (the reference is ``derivative`` in ``tests/walks.py``).

R^i_k reads only the x, y, xy and yy partials of G, so the curvature
(``riemann_curvature`` and ``evaluate``) builds F and F^2 with x-degree
<= 2 (``CURVATURE_X_DEGREE``) and runs the tail with x-degree <= 1: in
4-D, 360 of F^2's 495 coefficients and 35 of G's 45.  A capped context's
tables are the full context's filtered in their order (``jets.JetContext``),
so every coefficient it keeps has the bits of the full context's.  The
derivative-soundness oracle reads every partial and takes the full
contexts (``_f2_rows`` takes the cap as an argument).

The curvature is coded once, in the batch entries: ``evaluate`` (F, g, R,
Ric and lambda at many directions at one x, or at one x per row) and
``sprays`` run every row through the batched kernels (the jet kernels'
leading batch axis, the order-4 F in chunks of ``CHUNK_ROWS``, the float
tails on whole arrays), and keep at each row its value or its first
error, in the order of the steps: the domain, F, g not finite or not
positive definite, the solve, then G^i, R, Ric or lambda not finite.  A
lone row takes the one-point form inside the batch entries it meets
(``FinslerMetric.in_domain_rows`` and ``value_rows``, ``_squares``, and
``linalg``'s ``solve_rows`` and ``positive_definite_rows``), which costs
less for one row, so no caller chooses a path by batch size.  The
one-point functions ``spray``, ``riemann_curvature``, ``ricci`` and
``einstein_scalar`` read the row of a batch of one and raise its error;
``fundamental_tensor`` and ``flag_curvature`` compose the one-point jet
of F.  Their readers only read: ``riccis``, ``einstein_scalars`` and
``sprays`` raise the first error in row order, and ``EinsteinTable``
keeps every row, errors included.  The one-point code the batch entries
replaced is the reference in ``tests/walks.py``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    BatchFailed,
    DegeneratePlane,
    DomainError,
    FinslerError,
    NonFinite,
    SingularMetric,
    _checked,
    _raised,
    coords,
)
from .jets import (
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
    solve_row,
    solve_rows,
)

DENOMINATOR_FLOOR = 1e-12


def exact_key(*vectors):
    """The exact bits of float vectors as bytes, for use as a dictionary key.

    Unlike rounded or tuple keys, 0.0 and -0.0 differ and no two distinct
    points share a key.  Each vector gives the native float64 bytes of
    its entries, the bytes ``struct.pack`` gives them.
    """
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in vectors)


class FinslerMetric:
    """A Finsler metric: F and its domain predicate, each over one sample
    and over a batch, with every hook required.

    ``jet_builder(x_jets, y_jets)`` receives coordinate jets (shared
    context) and returns the jet of F.  ``scalar_fn(x, y)`` is the plain
    float F at one sample, used by oracles and homogeneity checks.
    ``domain_fn(x, y)`` must be true wherever F is admissible.  The batch
    hooks take y as a coordinate-major (n, B) array of B directions and x
    as one too, or as one point shared by every sample:
    ``batch_builder(ctx, x, y)`` returns the (B, ncoef) coefficients of F
    in ``ctx``, row b with the bits of the jet builder at sample b, or
    raises where a sample would raise; ``scalar_fn`` takes such arrays
    as well and returns F at each sample, with the bits of the one-point
    calls, or raises ``BatchFailed`` where a sample would raise; and
    ``batch_domain(x, y)`` is ``domain_fn`` at each sample, as a bool
    array.  ``value_rows``, ``in_domain_rows`` and ``batch_jet`` are the
    batch entries; ``value_rows`` falls back to the samples one by one,
    and a lone row goes through the one-point ``value`` and ``in_domain``.
    """

    def __init__(self, dim, jet_builder, scalar_fn, domain_fn, batch_builder,
                 batch_domain):
        self.dim = dim
        self._jet_builder = jet_builder
        self._scalar_fn = scalar_fn
        self._domain_fn = domain_fn
        self._batch_builder = batch_builder
        self._batch_domain = batch_domain

    def value(self, x, y):
        return self._scalar_fn(x, y)

    def in_domain(self, x, y):
        return any(v != 0.0 for v in y) and bool(self._domain_fn(x, y))

    def in_domain_rows(self, x, ys):
        """``in_domain(x, y)`` for each row y of the (B, n) array ``ys``,
        as a bool array; x is one point, or a (B, n) array with the
        point of each row.  The batched domain test takes two rows or
        more, ``in_domain`` a lone row."""
        ys = np.asarray(ys, dtype=float).reshape(-1, self.dim)
        if len(ys) == 1:
            return np.array([self.in_domain(_point(x, 0), ys[0].tolist())])
        return (ys != 0.0).any(axis=1) & self._batch_domain(_major(x), ys.T)

    def value_rows(self, x, ys):
        """F at (x, y) for each row y of the (B, n) array ``ys``, x as
        for ``in_domain_rows``: ``(f, ok)``, f[b] with the bits of
        ``value`` wherever ok[b] is true, and ok[b] false where that call
        raises.  Two rows or more go through one call of the batched F;
        a lone row, and each row where the batch raises, through
        ``value``."""
        ys = np.asarray(ys, dtype=float).reshape(-1, self.dim)
        if len(ys) > 1:
            try:
                f = self._scalar_fn(_major(x), ys.T)
                return np.asarray(f, dtype=float), np.ones(len(ys), bool)
            except (BatchFailed, FinslerError, ArithmeticError):
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
            raise _outside(x, y)

    def jet(self, x, y, order, x_degree=None):
        """Jet of F in the 2n-variable context (x first, then y) of
        ``order``, with the x-degree cap ``x_degree``."""
        n = self.dim
        ctx = get_context(2 * n, order, x_degree)
        x_jets = [lift_variable(ctx, i, x[i]) for i in range(n)]
        y_jets = [lift_variable(ctx, n + i, y[i]) for i in range(n)]
        return self._jet_builder(x_jets, y_jets)

    def batch_jet(self, x, y, order, x_degree=None):
        """Coefficients of the jets of F at a batch of samples, one row
        each, in the 2n-variable context of ``jet``; y is a
        coordinate-major (n, B) array and x one too, or one point for
        every sample."""
        return self._batch_builder(get_context(2 * self.dim, order, x_degree),
                                   x, y)


def _per_row(x):
    """Whether x is a (B, n) array with the point of each row, not one
    point shared by every row."""
    return isinstance(x, np.ndarray) and x.ndim == 2


def _take(x, rows):
    """The points of ``rows``: x itself where it is one point shared by
    every row, else those rows of the (B, n) array x."""
    return x[rows] if _per_row(x) else x


def _point(x, b):
    """The point of row b: x itself where it is one point, else the
    list of row b of the (B, n) array x."""
    return x[b].tolist() if _per_row(x) else x


def _major(x):
    """x as the batched F and domain take it: one point as it is, a
    (B, n) array of points coordinate-major."""
    return np.asarray(x, dtype=float).T if _per_row(x) else x


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

    ``low`` is the order-2 context on the same 2n variables, with an
    x-degree cap one below the order-4 context's where that has one: a
    partial of F^2 with one x-derivative needs one x-degree more than the
    coefficient it gives.  Each tensor is a pair (index array, factor
    array) whose last axis runs over the monomials m of ``low``: the
    partial d/dz^a ... of F^2 has order-2 coefficient ``c[idx] * factor``
    at m, where idx indexes m + e_a + ... and factor = (m + e_a + ...)! /
    m!.  That equals differentiating the order-4 jet one variable at a
    time (``derivative`` in ``tests/walks.py``, the reference), bit for
    bit: with |m| <= 2 each factor is a product of at most two of 1, 2,
    3, 4 with at most one 3, so one rounded multiply gives what
    multiplying by each in turn gives.

    ``g[i][j]`` reads d^2/dy^i dy^j, ``xy[l][k]`` d^2/dy^l dx^k and
    ``x[l]`` d/dx^l.
    """

    def __init__(self, ctx):
        n = ctx.num_vars // 2
        cap = None if ctx.x_degree is None else ctx.x_degree - 1
        self.low = low = get_context(ctx.num_vars, 2, cap)
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


def _non_finite(name, x, y):
    return NonFinite(f"{name} is not finite at x={coords(x)!r}, "
                     f"y={coords(y)!r}")


def _not_positive_definite(x, y):
    return SingularMetric(
        f"fundamental tensor not positive definite at x={coords(x)!r}, "
        f"y={coords(y)!r}")


def _outside(x, y):
    return DomainError(f"sample x={coords(x)!r}, y={coords(y)!r} outside "
                       "the metric domain")


def _require_metric(g, x, y):
    """``g`` as a list of rows; raises NonFinite where the float matrix g
    is not finite, and SingularMetric where it is not positive definite
    (a NaN g passes the Sylvester test)."""
    if not np.isfinite(g).all():
        raise _non_finite("fundamental tensor", x, y)
    g = g.tolist()
    if not is_positive_definite(g):
        raise _not_positive_definite(x, y)
    return g


def fundamental_tensor(metric, x, y):
    """(g, g_inv) as float matrices; raises SingularMetric when degenerate
    and NonFinite where g is not finite."""
    metric.require_domain(x, y)
    f = metric.jet(x, y, 2)
    f2 = f * f
    table = _partial_table(f2.ctx)
    g = _require_metric(0.5 * read_partials(f2.c, table.yy, f2.ctx), x, y)
    return np.array(g), np.array(invert(g))


def spray(metric, x, y):
    """Geodesic coefficients G^i as a float vector (2-homogeneous in y);
    raises NonFinite where g or G^i is not finite.  The row of a batch of
    one of ``sprays``."""
    out, errors = _spray_rows(metric, [[*x, *y]])
    _raised(errors[0])
    return out[0]


def sprays(metric, points):
    """G^i at every row (x, y) of the (B, 2n) array ``points``, as a (B, n)
    array, row b with the bits of ``spray(metric, row[:n], row[n:])``;
    the first row whose ``spray`` raises raises its error."""
    out, errors = _spray_rows(metric, points)
    _checked(errors)
    return out


def _spray_rows(metric, points):
    """``(out, errors)``: G^i at every row of ``points``, or errors[b], the
    first error at row b: outside the domain, F, g, the solve, G^i not
    finite.  The order-2 jets of F and F^2 and the float tail run on all
    rows at once."""
    n = metric.dim
    points = np.asarray(points, dtype=float).reshape(-1, 2 * n)
    x, y = points[:, :n], points[:, n:]
    ctx = get_context(2 * n, 2)
    table = _partial_table(ctx)
    with np.errstate(all="ignore"):
        # an order-2 row is small: every row goes in one chunk
        f2, errors = _domain_f2(metric, x, y, lambda x, y: _squares(
            metric, x, y, ctx, max(len(y), 1)))
        g = 0.5 * read_partials(f2, table.yy, ctx)
        # rhs[l] = sum_k [F^2]_{x^k y^l} y^k - [F^2]_{x^l}, summed
        # from 0 as ``sum`` sums
        terms = read_partials(f2, table.xy, ctx) * y[:, :, None]
        rhs = np.zeros((len(y), n))
        for k in range(n):
            rhs = rhs + terms[:, k]
        rhs = rhs - read_partials(f2, table.x, ctx)
        out = 0.25 * _solved(None, g, rhs, x, y, errors)
    _fail(errors, np.isfinite(out).all(axis=1),
          lambda b: _non_finite("spray", x[b], y[b]))
    return out, errors


def _domain_f2(metric, x, ys, build):
    """F^2 at the rows (x, y) of ``ys``: ``(f2, errors)``, errors[b] the
    DomainError of a row outside the domain, which holds zeros, and
    ``build(x, ys)`` (``_squares``) at the rows in it."""
    inside = metric.in_domain_rows(x, ys)
    if all(inside.tolist()):
        return build(x, ys)
    rows = np.flatnonzero(inside)
    held, held_errors = build(_take(x, rows), ys[rows])
    f2 = np.zeros((len(ys), held.shape[1]))
    f2[rows] = held
    errors = [None] * len(ys)
    _fail(errors, inside, lambda b: _outside(_point(x, b), ys[b]))
    for b, error in zip(rows.tolist(), held_errors):
        errors[b] = error
    return f2, errors


def _failing(ok):
    """The rows where the bool array ``ok`` is false, as a list."""
    return [b for b, good in enumerate(ok.tolist()) if not good]


def _fail(errors, ok, error):
    """errors[b] = ``error(b)`` where ``ok`` is false and errors[b] is
    None: each row keeps its first error."""
    for b in _failing(ok):
        if errors[b] is None:
            errors[b] = error(b)


def _solved(ctx, g, rhs, x, ys, errors):
    """The solution of g G = rhs at the rows (x, y) of ``ys`` (float rows
    with ``ctx`` None, else jet rows of ``ctx``), and at a row with no
    error yet, the first error of ``_require_metric`` on the float g and
    then of the solve: a row the batched solve leaves is solved alone
    (``linalg.solve_row``), which raises its error or gives its solution,
    then not finite."""
    value = g if ctx is None else g[..., 0]
    finite = np.isfinite(value).all(axis=(1, 2))
    positive = positive_definite_rows(value)
    sol, solved = solve_rows(ctx, g, rhs)
    for b in _failing(finite & positive & solved):
        if errors[b] is not None:
            continue
        if not finite[b]:
            errors[b] = _non_finite("fundamental tensor", _point(x, b), ys[b])
        elif not positive[b]:
            errors[b] = _not_positive_definite(_point(x, b), ys[b])
        else:
            try:
                sol[b] = solve_row(ctx, g[b], rhs[b])
            except FinslerError as exc:
                errors[b] = exc.with_traceback(None)
    return sol


def riemann_curvature(metric, x, y):
    """R^i_k as an n-by-n float matrix (the trace is the Ricci curvature);
    raises NonFinite where it is not finite.  The R of a batch of one of
    ``evaluate``."""
    with np.errstate(all="ignore"):
        _, r, errors = _curvature_rows(metric, x, np.array([y], dtype=float))
    _raised(errors[0])
    return r[0]


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
    """Ricci curvature: the trace of the Riemann operator; raises
    NonFinite where it is not finite.  The row of a batch of one of
    ``evaluate``."""
    return _raised(_samples(metric, x, [y]).ric[0])


def einstein_scalar(metric, x, y):
    """Einstein scalar: Ric / ((n-1) F^2); 0-homogeneous in y.  Raises
    DomainError where F is not positive, and NonFinite where R, Ric or the
    scalar is not finite, and where (n-1) F^2 is zero or not finite.  The
    row of a batch of one of ``evaluate``."""
    return _raised(_samples(metric, x, [y]).lam[0])


def _outcome(fn, *args):
    """``fn(*args)``, or the FinslerError it raises, without its frames."""
    try:
        return fn(*args)
    except FinslerError as exc:
        return exc.with_traceback(None)


# The curvature pass builds F and F^2 with x-degree <= 2: R^i_k reads the
# x, y, xy and yy partials of G only, and the tail takes them from F^2
# partials of one x-degree more (``_TailTable``).
CURVATURE_X_DEGREE = 2

# rows of F per batch of ``_f2_rows``
CHUNK_ROWS = 16


def _f2_rows(metric, x, ys, x_degree=CURVATURE_X_DEGREE):
    """Order-4 coefficients of F^2 at (x, y) for each row y of ``ys``,
    with the x-degree cap ``x_degree`` (None for a caller that reads
    every partial): ``_squares`` in chunks of ``CHUNK_ROWS``."""
    ctx = get_context(2 * metric.dim, 4, x_degree)
    return _squares(metric, x, ys, ctx, CHUNK_ROWS)


def _squares(metric, x, ys, ctx, chunk):
    """The coefficients of F^2 in the 2n-variable ``ctx`` at (x, y) for
    each row y of ``ys``, x one point or the (B, n) array of each row's
    point: ``(f2, errors)``, errors[b] the FinslerError that building F
    raised at row b, else None.  Rows go through the batched F in chunks
    of ``chunk``, which share the memoised x-coefficient jets of one
    point x; a chunk of one row, or one the batch does not take, row by
    row through ``metric.jet``.
    """
    f2 = np.zeros((len(ys), ctx.ncoef))
    errors = [None] * len(ys)
    for start in range(0, len(ys), chunk):
        part = range(start, min(start + chunk, len(ys)))
        if len(part) > 1:
            rows = slice(start, part.stop)
            try:
                f = metric.batch_jet(_major(_take(x, rows)), ys[rows].T,
                                     ctx.order, ctx.x_degree)
                f2[rows] = _cauchy(ctx, f, f)
                continue
            except (BatchFailed, FinslerError):
                pass
        for b in part:
            try:
                f = metric.jet(_point(x, b), ys[b].tolist(), ctx.order,
                               ctx.x_degree)
            except FinslerError as exc:
                errors[b] = exc.with_traceback(None)  # keep no frames alive
                continue
            f2[b] = (f * f).c
    return f2, errors


def _spray_jet_rows(metric, x, ys):
    """The spray jets G^i in the order-2 context at (x, y) for each row y
    of the (B, n) array ``ys``, all in the domain, x one point or the
    (B, n) array of each row's point, from F with every partial:
    ``(coeffs, errors)``, coeffs[b] the (n, ncoef) coefficients of
    G^1..G^n, or errors[b] the error of F, g or the jet solve at row b."""
    with np.errstate(all="ignore"):
        f2, errors = _f2_rows(metric, x, ys, x_degree=None)
        coeffs, _ = _spray_tail_rows(get_context(2 * metric.dim, 4), f2, x,
                                     ys, errors)
    return coeffs, errors


def _spray_tail_rows(ctx, f2, x, ys, errors):
    """The spray jets and g from the coefficients ``f2`` of F^2 in the
    order-4 ``ctx`` at the rows (x, y) of ``ys``: ``(coeffs, g)``, coeffs
    in the context ``_tail_table(ctx).low`` and g[b] the float fundamental
    tensor with the bits of ``fundamental_tensor``; a row whose g or jet
    solve fails gets its error in ``errors`` (``_solved``)."""
    n = ys.shape[1]
    table = _tail_table(ctx)
    low = table.low
    g = 0.5 * _gather(f2, table.g)
    # rhs[l] = -[F^2]_{x^l} + sum_k [F^2]_{x^k y^l} y^k, k in order
    f2_xy = _gather(f2, table.xy)
    rhs = -_gather(f2, table.x)
    for k in range(n):
        rhs = rhs + _shift_product(low, f2_xy[:, :, k], n + k,
                                   ys[:, k:k + 1])
    return 0.25 * _solved(low, g, rhs, x, ys, errors), g[..., 0].copy()


class Samples(NamedTuple):
    """Per-row results of ``evaluate``: at each row, F, g_ij, R^i_k, Ric
    and the Einstein scalar, each a value or the FinslerError computing it
    raised, and ok, true where the row holds all five values."""

    f: list
    g: list
    r: list
    ric: list
    lam: list
    ok: np.ndarray


def evaluate(metric, x, ys):
    """The curvature pass at (x, y) for each direction y of the (B, n)
    array ``ys``; x is one point, or a (B, n) array with the point of each
    row.  Row b of the :class:`Samples` holds F, g, R, Ric and lambda with
    the bits of ``metric.value``, ``fundamental_tensor(...)[0]``,
    ``riemann_curvature``, ``ricci`` and ``einstein_scalar``, or in place
    of each the error that function raises there; g, from R's jet solve,
    holds R's error wherever R has one."""
    x = x if np.ndim(x) == 1 else np.asarray(x, dtype=float)
    return _samples(metric, x, ys)


def _samples(metric, x, ys):
    """``evaluate``, whose batch of one the one-point functions read.
    Each column holds a row's value or its first error: F's
    (``metric.value``); R's (``_curvature_rows``), then Ric not finite;
    for lambda, F's, F not positive, Ric's, then lambda not finite."""
    n = metric.dim
    ys = np.asarray(ys, dtype=float).reshape(-1, n)
    f, valued = metric.value_rows(x, ys)
    with np.errstate(all="ignore"):
        g, r, errors = _curvature_rows(metric, x, ys)
        # np.trace adds the diagonal in order
        ric = r[:, 0, 0]
        for i in range(1, n):
            ric = ric + r[:, i, i]
        den = (n - 1) * f * f
        lam = ric / den
    f_list, lam_list = f.tolist(), lam.tolist()
    # a finite lambda over a finite den has a finite Ric and den != 0
    ok = [e is None and v and fb > 0.0 and math.isfinite(d)
          and math.isfinite(lb) for e, v, fb, d, lb in
          zip(errors, valued.tolist(), f_list, den.tolist(), lam_list)]
    out = Samples(f_list, list(g), list(r), ric.tolist(), lam_list,
                  np.array(ok, dtype=bool))
    for b in _failing(out.ok):
        at = f"at x={coords(_point(x, b))!r}, y={coords(ys[b])!r}"
        if errors[b] is not None:
            out.g[b] = out.r[b] = out.ric[b] = errors[b]
        elif not math.isfinite(out.ric[b]):
            out.ric[b] = NonFinite(f"Ric = {out.ric[b]!r} is not finite {at}")
        if not valued[b]:
            out.f[b] = out.lam[b] = _outcome(metric.value, _point(x, b),
                                             ys[b].tolist())
        elif not out.f[b] > 0.0:
            out.lam[b] = DomainError(
                f"F = {out.f[b]!r} is not positive at this sample")
        elif isinstance(out.ric[b], FinslerError):
            out.lam[b] = out.ric[b]
        else:
            out.lam[b] = NonFinite(f"lambda = {out.ric[b]!r} / "
                                   f"{float(den[b])!r} is not finite {at}")
    return out


def _curvature_rows(metric, x, ys):
    """g and R^i_k at the rows (x, y) of ``ys``: ``(g, r, errors)``, g[b]
    and r[b] with the bits of ``fundamental_tensor(...)[0]`` and
    ``riemann_curvature``, or errors[b] the first error at row b: outside
    the domain, F, g, the jet solve, R not finite.  F is built with
    x-degree <= 2 (``_f2_rows``); the tail runs on all rows at once."""
    ctx = get_context(2 * metric.dim, 4, CURVATURE_X_DEGREE)
    f2, errors = _domain_f2(metric, x, ys,
                            lambda x, ys: _f2_rows(metric, x, ys))
    coeffs, g = _spray_tail_rows(ctx, f2, x, ys, errors)
    r = _riemann_read(coeffs, ys, _tail_table(ctx).low)
    _fail(errors, np.isfinite(r).all(axis=(1, 2)),
          lambda b: _non_finite("R^i_k", _point(x, b), ys[b]))
    return g, r, errors


def riccis(metric, x, ys):
    """Ricci curvature at (x, y) for each direction y of the (B, n) array
    ``ys``, row b with the bits of ``ricci(metric, x, ys[b])``; x is one
    point, or a (B, n) array with the point of each row.  The first row
    whose ``ricci`` raises raises its error."""
    return np.array(_checked(evaluate(metric, x, ys).ric), dtype=float)


def einstein_scalars(metric, x, ys):
    """Einstein scalar at (x, y) for each direction y of the (B, n) array
    ``ys``, x as for ``riccis``, row b with the bits of
    ``einstein_scalar(metric, x, ys[b])``; the first row whose
    ``einstein_scalar`` raises raises its error."""
    return np.array(_checked(evaluate(metric, x, ys).lam), dtype=float)


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
    batch evaluated, F, g, R^i_k and Ric as well, each a value or its
    error, each evaluated once and stored under exact bits
    (``exact_key``), so that the sample rows and every check of a run
    read the same numbers, and the same skip text.

    ``directions(x)`` lists the admissible ones of the directions
    ``dirs`` at x and ``reversible(x)`` those whose reverse is admissible
    too, each worked out once per point.  The first call of either
    evaluates its rows (the directions, or their reverses) in one batch,
    ``evaluate``, which keeps every row, errors included; a lookup that
    no batch filled goes through ``einstein_scalar``.  The reads:

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
            result = self._results[key] = _outcome(einstein_scalar,
                                                   self.metric, x, list(y))
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
        admissible, in order.  The directions without a row in the table
        are evaluated in one batch first; the first row whose ``ricci``,
        or else whose ``metric.value``, raised raises that error."""
        taken = self.metric.in_domain_rows(x, ys).tolist()
        ys = [y for y, ok in zip(ys, taken) if ok]
        self._fill(x, ys, self._rows)
        rows = [self._rows[exact_key(x, y)] for y in ys]
        for f, _, _, ric in rows:
            _checked((ric, f))
        return [(f, ric) for f, _, _, ric in rows]

    def curvature(self, x, y):
        """(F, g, R) at (x, y), from the table's row, which a batch of its
        own evaluates where no batch has; the first of g, R and F that
        raised, in that order, raises its error."""
        self._fill(x, [y], self._rows)
        f, g, r, _ = self._rows[exact_key(x, y)]
        g, r = _raised(g), _raised(r)
        return _raised(f), g, r

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
            self._fill(x, rows, self._results)
        return ys

    def _fill(self, x, ys, known):
        """Evaluate and store, errors included, the directions ``ys`` at x
        whose key is not in ``known`` (``_results`` or ``_rows``), in one
        batch."""
        rows = {}
        for y in ys:
            rows.setdefault(exact_key(x, y), y)
        for key in known.keys() & rows.keys():
            del rows[key]
        if not rows:
            return
        got = evaluate(self.metric, x, list(rows.values()))
        for key, f, g, r, ric, lam in zip(rows, *got[:5]):
            self._results[key] = lam
            self._rows[key] = (f, g, r, ric)
