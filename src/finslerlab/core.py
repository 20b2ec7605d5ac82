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
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePlane, DomainError, SingularMetric
from .jets import Jet, get_context, lift_variable
from .linalg import invert, is_positive_definite, solve

DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class TangentSample:
    """A base point x and a nonzero tangent direction y."""

    x: tuple
    y: tuple

    @staticmethod
    def of(x, y):
        return TangentSample(tuple(float(v) for v in x),
                             tuple(float(v) for v in y))


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
    ``domain_fn(x, y)`` must be true wherever F is admissible.
    """

    def __init__(self, dim, jet_builder, scalar_fn, domain_fn=None, name=""):
        self.dim = dim
        self._jet_builder = jet_builder
        self._scalar_fn = scalar_fn
        self._domain_fn = domain_fn
        self.name = name

    def value(self, x, y):
        return self._scalar_fn(x, y)

    def in_domain(self, x, y):
        if not any(v != 0.0 for v in y):
            return False
        if self._domain_fn is not None and not self._domain_fn(x, y):
            return False
        return True

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
    """Order-2 coefficients of one ``_TailTable`` tensor of F^2."""
    idx, factor = tensor
    return coeffs[idx] * factor


def _read(coeffs, idx, ctx):
    """Raw partials at monomial indices ``idx`` of the last axis of ``coeffs``.

    Entry by entry this is ``extract_partial``: coefficient times factorial.
    """
    return coeffs[..., idx] * ctx.factorial[idx]


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
    n = metric.dim
    f = metric.jet(x, y, 2)
    f2 = f * f
    g = _g_values(metric, f2, x, y)
    table = _partial_table(f2.ctx)
    f2_xy = _read(f2.c, table.xy, f2.ctx).tolist()
    f2_x = _read(f2.c, table.x, f2.ctx).tolist()
    rhs = [sum(f2_xy[k][l] * y[k] for k in range(n)) - f2_x[l]
           for l in range(n)]
    cols = solve(g, [rhs])
    return np.array([0.25 * v for v in cols[0]])


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
    n = metric.dim
    g_jets, _ = _spray_jets(metric, x, y)
    ctx = g_jets[0].ctx
    table = _partial_table(ctx)
    coeffs = np.stack([gj.c for gj in g_jets])
    g_val = coeffs[:, 0].tolist()
    # gx[i][k] = dG^i/dx^k, gy[i][j] = dG^i/dy^j,
    # gxy[i][j][k] = d2G^i/dx^j dy^k, gyy[i][j][k] = d2G^i/dy^j dy^k
    gx, gy, gxy, gyy = (_read(coeffs, idx, ctx).tolist()
                        for idx in (table.x, table.y, table.xy, table.yy))
    r = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            acc = 2.0 * gx[i][k]
            for j in range(n):
                acc -= y[j] * gxy[i][j][k]
                acc += 2.0 * g_val[j] * gyy[i][j][k]
                acc -= gy[i][j] * gy[j][k]
            r[i, k] = acc
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
        values = []
        for d in dirs:
            if not metric.in_domain(x, d):
                continue
            values.append(einstein_scalar(metric, x, d))
        if len(values) < 2:
            skipped.append(tuple(x))
            continue
        spreads.append(max(values) - min(values))
    verdict = bool(spreads) and all(s < tolerance for s in spreads)
    max_spread = max(spreads) if spreads else math.inf
    return EinsteinCheckResult(verdict, spreads, max_spread, skipped)


@dataclass
class CurvaturePoint:
    """All engine quantities at one tangent sample."""

    sample: TangentSample
    g: np.ndarray
    g_inv: np.ndarray
    spray: np.ndarray
    riemann: np.ndarray
    ricci: float
    einstein_scalar: float


def curvature_point(metric, x, y):
    g, g_inv = fundamental_tensor(metric, x, y)
    gvec = spray(metric, x, y)
    r = riemann_curvature(metric, x, y)
    ric = float(np.trace(r))
    f = metric.value(x, y)
    lam = ric / ((metric.dim - 1) * f * f)
    return CurvaturePoint(TangentSample.of(x, y), g, g_inv, gvec, r, ric, lam)
