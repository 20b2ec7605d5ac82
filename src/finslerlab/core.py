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
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePlane, DomainError, SingularMetric
from .jets import get_context, lift_variable
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


def _unit(n2, i):
    e = [0] * n2
    e[i] = 1
    return tuple(e)


def _pair(n2, i, j):
    e = [0] * n2
    e[i] += 1
    e[j] += 1
    return tuple(e)


def _g_values(metric, f2, x, y):
    n = metric.dim
    n2 = 2 * n
    g = [[0.5 * f2.partial(_pair(n2, n + i, n + j)) for j in range(n)]
         for i in range(n)]
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
    n2 = 2 * n
    f = metric.jet(x, y, 2)
    f2 = f * f
    g = _g_values(metric, f2, x, y)
    rhs = [sum(f2.partial(_pair(n2, k, n + l)) * y[k] for k in range(n))
           - f2.partial(_unit(n2, l)) for l in range(n)]
    cols = solve(g, [rhs])
    return np.array([0.25 * v for v in cols[0]])


def _spray_jets(metric, x, y):
    """G^i as jets valid to order 2, for the curvature extraction."""
    n = metric.dim
    ctx = get_context(2 * n, 4)
    x_jets = [lift_variable(ctx, i, x[i]) for i in range(n)]
    y_jets = [lift_variable(ctx, n + i, y[i]) for i in range(n)]
    f = metric._jet_builder(x_jets, y_jets)
    f2 = f * f
    g_jets = [[0.5 * f2.derivative(n + i).derivative(n + j) for j in range(n)]
              for i in range(n)]
    if not is_positive_definite([[g_jets[i][j].value for j in range(n)]
                                 for i in range(n)]):
        raise SingularMetric(
            f"fundamental tensor not positive definite at x={list(x)!r}, "
            f"y={list(y)!r}")
    rhs = []
    for l in range(n):
        df_l = f2.derivative(n + l)
        acc = -f2.derivative(l)
        for k in range(n):
            acc = acc + df_l.derivative(k) * y_jets[k]
        rhs.append(acc)
    cols = solve(g_jets, [rhs])
    return [0.25 * gi for gi in cols[0]], f


def riemann_curvature(metric, x, y):
    """R^i_k as an n-by-n float matrix (the trace is the Ricci curvature)."""
    metric.require_domain(x, y)
    n = metric.dim
    n2 = 2 * n
    g_jets, _ = _spray_jets(metric, x, y)
    g_val = [gj.value for gj in g_jets]
    gx = [[g_jets[i].partial(_unit(n2, k)) for k in range(n)] for i in range(n)]
    gy = [[g_jets[i].partial(_unit(n2, n + j)) for j in range(n)]
          for i in range(n)]
    gxy = [[[g_jets[i].partial(_pair(n2, j, n + k)) for k in range(n)]
            for j in range(n)] for i in range(n)]
    gyy = [[[g_jets[i].partial(_pair(n2, n + j, n + k)) for k in range(n)]
            for j in range(n)] for i in range(n)]
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
