"""Metric builders and Einstein-condition residual checkers.

Builders: the p-power family F = alpha (1 + beta/alpha)^p from expression
specs, and the rotationally-structured two-dimensional square-root family
generated by a scalar triple (u, v, B).  Checkers: positivity of the
fundamental tensor (closed form and inequality sampling), the structure
equations that characterize Einstein instances of the Randers, square and
2D square-root cases, the Killing rescaling of the 1-form, and the
Ricci-flat-parallel test.  All but positivity read the tensor data
``(rd, ab)`` of one point; the multi-point wrappers fold them with
``fold_points`` over rows of ``alphabeta.ab_tensor_rows``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .alphabeta import (
    AbTensors,
    _raised,
    ab_tensor_rows,
    ab_tensors_from_jets,
)
from .core import (
    FinslerMetric,
    circle_directions,
    EinsteinTable,
    exact_key,
    sphere_directions,
    worst,
)
from .errors import (
    DegenerateValue,
    DomainError,
    FinslerError,
    NonFinite,
    NotEinstein,
    coords,
)
from .exprlang import (
    BatchFailed,
    Binary,
    Number,
    kept_by_identity,
    parse,
    shared_tape,
)
from .jets import (
    Jet,
    _cauchy,
    _one,
    _power,
    _recip,
    _shift_product,
    _sqrt,
    get_context,
    jet_pow,
    partial_table,
)
from .linalg import invert

V_FLOOR = 1e-9


def _ast(expr):
    return parse(expr) if isinstance(expr, str) else expr


def parse_matrix(exprs):
    return [[_ast(e) for e in row] for row in exprs]


def parse_covector(exprs):
    return [_ast(e) for e in exprs]


@dataclass(frozen=True)
class PPowerSpec:
    """Symbolic definition of F = alpha (1 + beta/alpha)^p."""

    alpha: list
    beta: list
    p: float

    def __post_init__(self):
        if self.p == 0.0:
            raise ValueError("the exponent p must be nonzero")
        object.__setattr__(self, "alpha", parse_matrix(self.alpha))
        object.__setattr__(self, "beta", parse_covector(self.beta))

    @property
    def dim(self):
        return len(self.alpha)


def zero_covector(n):
    return [Number(0.0) for _ in range(n)]


# base points whose coefficients a p-power metric keeps; a point at which
# the engine evaluates floats and jets of order 2 and 4 fills six keys
COEFFICIENT_MEMO_KEYS = 24


class CoefficientMemo:
    """The x-only part of a p-power metric, kept for recent base points.

    a_ij(x) (for i <= j) and b_i(x) do not depend on the direction, yet
    every sample (x, y) needs them: as floats in ``scalar`` and ``domain``
    and as jets in the jet builder.  Each list is compiled on first use
    into one ``exprlang.Tape``, shared with every metric over the same
    trees, and replayed once per key ``(what, context key, x)``, with the
    context key (``JetContext.key``) None for floats; the
    ``COEFFICIENT_MEMO_KEYS`` most recently used keys are kept.  x enters
    the key as its exact bits, so no rounding can serve a neighbouring
    point.  An evaluation that raises stores nothing, so a DomainError is
    raised in the same order as without the memo.  ``values`` and ``jets``
    also take a coordinate-major (n, B) array of B points, which they
    replay in one batch without a key; that replay raises
    ``BatchFailed`` where some point would raise.
    """

    def __init__(self, a_ast, b_ast):
        n = len(a_ast)
        self.pairs = [(i, j) for i in range(n) for j in range(i, n)]
        self._exprs = {"a": [a_ast[i][j] for i, j in self.pairs],
                       "b": list(b_ast)}
        self._tapes = {}
        self._entries = OrderedDict()

    def __len__(self):
        return len(self._entries)

    def tape(self, what):
        """The tape of the ``what`` ("a" or "b") list, shared with every
        metric over the same trees (``exprlang.shared_tape``)."""
        tape = self._tapes.get(what)
        if tape is None:
            tape = self._tapes[what] = shared_tape(self._exprs[what])
        return tape

    def _recall(self, key, evaluate):
        entries = self._entries
        value = entries.get(key)
        if value is None:
            value = entries[key] = evaluate()
            if len(entries) > COEFFICIENT_MEMO_KEYS:
                entries.popitem(last=False)
        else:
            entries.move_to_end(key)
        return value

    def values(self, what, x):
        """Float values of the ``what`` coefficients at x, or arrays of
        them over the points of a coordinate-major x (see ``Tape.batch``)."""
        if getattr(x, "ndim", 1) == 2:
            return self.tape(what).batch(x)
        return self._recall((what, None, exact_key(x)),
                            lambda: self.tape(what).floats(x))

    def jets(self, what, ctx, xvals):
        """Jet coefficient vectors of the ``what`` coefficients in ``ctx``
        at ``xvals``, or (B, ncoef) arrays at the points of a
        coordinate-major array (see ``Tape.jets``)."""
        if getattr(xvals, "ndim", 1) == 2:
            return self.tape(what).jets(ctx, xvals)
        return self._recall((what, ctx.key, exact_key(xvals)),
                            lambda: self.tape(what).jets(ctx, xvals))


def ppower_metric(spec):
    """The FinslerMetric of a p-power spec, with its batch hooks and its
    admissibility predicate; every metric the package builds is one.

    The domain predicate tests alpha > 0 and 1 + s > 0 with
    s = beta/alpha, nothing more.  The third convexity condition, which
    fails beyond the positivity bound (``positivity_check``), is not
    tested there: the engine raises ``SingularMetric`` when the
    fundamental tensor stops being positive definite, and
    ``alphabeta.structural_spray`` guards its own denominator
    1 + (1-p) s.  The coefficients are read through a
    ``CoefficientMemo``, exposed as the metric's ``coefficients``.

    F is assembled from alpha^2 = a_ij y^i y^j, beta = b_i y^i and
    alpha (1 + beta/alpha)^p on raw jet coefficient vectors or floats,
    with the kernels and the operation order of the Jet operators.  The
    jet builder and the metric's batched F (``FinslerMetric.batch_jet``)
    share one assembly, over one point or, row by row, over a batch; a
    batch of directions at one point x shares the memoised coefficient
    jets of x.  The
    scalar function also takes y as a coordinate-major (n, B) array of B
    directions, with x one point or coordinate-major as well, and then
    returns F at each sample, with the bits of the one-point calls, or
    raises ``BatchFailed`` where a sample would raise (or the error of
    the one point x's coefficients); ``FinslerMetric.value_rows`` then
    takes the samples one by one.  The batched domain test takes the same
    arrays.
    """
    n = spec.dim
    b_ast, p = spec.beta, spec.p
    beta_zero = all(isinstance(b, Number) and b.value == 0.0 for b in b_ast)
    memo = CoefficientMemo(spec.alpha, b_ast)
    pairs = memo.pairs

    def f_coefficients(ctx, xvals, ys):
        """F's coefficients in ``ctx`` at ``xvals``, where ys[i] = (var,
        value) is the coordinate y^i: a product by it is a shift product.
        xvals and each value are floats, or arrays over a batch; with
        floats xvals and arrays of values, the batch is of directions at
        one point."""
        alpha2 = None
        for (i, j), coef in zip(pairs, memo.jets("a", ctx, xvals)):
            term = _shift_product(
                ctx, _shift_product(ctx, coef, *ys[i]), *ys[j])
            if i != j:
                term = term * 2.0
            alpha2 = term if alpha2 is None else alpha2 + term
        alpha = _sqrt(ctx, alpha2)
        if beta_zero:
            return alpha
        beta = None
        for i, coef in enumerate(memo.jets("b", ctx, xvals)):
            term = _shift_product(ctx, coef, *ys[i])
            beta = term if beta is None else beta + term
        base = _cauchy(ctx, beta, _recip(ctx, alpha)) + _one(ctx)
        return _cauchy(ctx, alpha, _power(ctx, base, p))

    def builder(x_jets, y_jets):
        ctx = x_jets[0].ctx
        return Jet(ctx, f_coefficients(ctx, [j.value for j in x_jets],
                                       [(j.var, j.c[0]) for j in y_jets]))

    def batch_builder(ctx, x, y):
        return f_coefficients(ctx, x, [(n + i, y[i]) for i in range(n)])

    def alpha2_value(a, y):
        alpha2 = 0.0
        for (i, j), coef in zip(pairs, a):
            alpha2 += coef * y[i] * y[j] * (2.0 if i != j else 1.0)
        return alpha2

    def beta_value(b, y):
        beta = 0.0
        for i in range(n):
            beta += b[i] * y[i]
        return beta

    def scalar(x, y):
        if getattr(y, "ndim", 1) == 2:
            return batch_scalar(x, y)
        alpha2 = alpha2_value(memo.values("a", x), y)
        if alpha2 <= 0.0:
            raise DomainError("alpha^2 is not positive")
        alpha = math.sqrt(alpha2)
        if beta_zero:
            return alpha
        s = beta_value(memo.values("b", x), y) / alpha
        if 1.0 + s <= 0.0:
            raise DomainError("1 + beta/alpha is not positive")
        # a Python float power, which overflows with an error whether y
        # is a list or a numpy row
        try:
            return alpha * float(1.0 + s) ** p
        except OverflowError:
            raise NonFinite(f"F overflows at x={coords(x)!r}, "
                            f"y={coords(y)!r}") from None

    def batch_scalar(x, y):
        alpha2 = alpha2_value(memo.values("a", x), y)
        if np.any(alpha2 <= 0.0):
            raise BatchFailed
        alpha = np.sqrt(alpha2)
        if beta_zero:
            return alpha
        base = 1.0 + beta_value(memo.values("b", x), y) / alpha
        if np.any(base <= 0.0):
            raise BatchFailed
        # the bits of Python's float ** (see jets._power_derivatives),
        # which the samples taken one by one use; a value that is not
        # finite is left to them, so an overflow raises there
        with np.errstate(over="ignore"):
            f = alpha * np.float_power(base, p)
        if not np.isfinite(f).all():
            raise BatchFailed
        return f

    def domain(x, y):
        # alpha > 0 and 1 + beta/alpha > 0; convexity failures beyond the
        # positivity bound are detected downstream as SingularMetric
        try:
            alpha2 = alpha2_value(memo.values("a", x), y)
            if alpha2 <= 0.0:
                return False
            if beta_zero:
                return True
            alpha = math.sqrt(alpha2)
            return 1.0 + beta_value(memo.values("b", x), y) / alpha > 1e-12
        except DomainError:
            return False

    def batch_domain(x, y):
        """``domain`` for each column of the (n, B) array y, at the point
        x or at the same column of a coordinate-major x, with the same
        float operations on whole rows; point by point where the
        coefficients of a batch of points raise."""
        try:
            alpha2 = alpha2_value(memo.values("a", x), y)
            positive = alpha2 > 0.0
            if beta_zero or not positive.any():
                return positive
            b = memo.values("b", x)
        except DomainError:
            return np.zeros(y.shape[1], dtype=bool)
        except BatchFailed:
            return np.array([domain(xk, yk) for xk, yk
                             in zip(x.T.tolist(), y.T.tolist())], dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = beta_value(b, y) / np.sqrt(alpha2)
        return positive & (1.0 + slope > 1e-12)

    metric = FinslerMetric(n, builder, scalar, domain, batch_builder,
                           batch_domain)
    metric.coefficients = memo
    return metric


def riemann_metric(alpha_exprs):
    """Purely Riemannian metric F = alpha: the p-power metric with p = 1
    and beta = 0."""
    return ppower_metric(PPowerSpec(alpha_exprs,
                                    zero_covector(len(alpha_exprs)), 1.0))


def positivity_check(p, b_sq):
    """Closed-form positivity criterion of the p-power family.

    Case split on the exponent: for p > 2 or p < 0 the bound is
    b^2 < 1/(p-1)^2; for 1/2 <= p <= 2 it is b^2 < 1; for 0 < p < 1/2 it
    is b^2 < (4-5p) / (4 (1-p) (1-p^2)).

    The last case is where the third convexity quantity binds.  Divided by
    (1+s)^(p-2) it is Q(s) = (1-p^2) s^2 + (2-p) s + 1 + p(p-1) b^2 on
    s in (-b, b).  With the vertex s* = -(2-p)/(2(1-p^2)) outside the
    interval (b^2 <= (2-p)^2/(4(1-p^2)^2)), the minimum is
    Q(-b) = (1-b)(1-(1-p)b) > 0; with it inside, Q(s*) > 0 is the bound
    above, which is never smaller than the vertex-outside one and is below
    1 on (0, 1/2), so it is the whole region.
    """
    bound = positivity_bound(p)
    if b_sq < 0.0:
        raise ValueError("b_sq must be nonnegative")
    return b_sq < bound


def positivity_bound(p):
    """Supremum of b^2 over which ``positivity_check(p, b^2)`` holds."""
    if p == 0.0:
        raise ValueError("the exponent p must be nonzero")
    if p > 2.0 or p < 0.0:
        return 1.0 / (p - 1.0) ** 2
    if p >= 0.5:
        return 1.0
    return (4.0 - 5.0 * p) / (4.0 * (1.0 - p) * (1.0 - p * p))


def positivity_margins(p, s, b_sq):
    """The three convexity quantities at one slope s = beta/alpha."""
    base = 1.0 + s
    if base <= 0.0:
        return (base, base, base)
    phi = base ** p
    m2 = base ** (p - 1.0) * (1.0 + (1.0 - p) * s)
    m3 = m2 + (b_sq - s * s) * p * (p - 1.0) * base ** (p - 2.0)
    return (phi, m2, m3)


def positivity_sample(p, b_sq, s_grid=101):
    """Grid evaluation of the three convexity inequalities.

    ``s_grid`` is either a count of evenly spaced slopes on the closed
    interval [-b, b], both endpoints included (for p <= 0 and p >= 1/2 the
    binding inequality sits at s = -b), or one or more explicit slopes in
    that interval.  Returns (all_positive, worst_margin).
    """
    if p == 0.0:
        raise ValueError("the exponent p must be nonzero")
    b = math.sqrt(b_sq)
    if isinstance(s_grid, int):
        count = s_grid
        if count < 2:
            raise ValueError("a slope grid needs both endpoints of [-b, b]")
        grid = [-b + 2.0 * b * i / (count - 1) for i in range(count)]
    else:
        grid = [float(s) for s in s_grid]
        if not grid:
            raise ValueError("a slope grid needs at least one slope")
        if any(abs(s) > b for s in grid):
            raise ValueError("s grid must lie inside [-b, b]")
    worst = math.inf
    for s in grid:
        worst = min(worst, *positivity_margins(p, s, b_sq))
    return worst > 0.0, worst


@dataclass(frozen=True)
class Sqrt2dFamilySpec:
    """Scalar triple (u, v, B) generating a 2D square-root metric."""

    u: object
    v: object
    B: object

    def __post_init__(self):
        object.__setattr__(self, "u", _ast(self.u))
        object.__setattr__(self, "v", _ast(self.v))
        object.__setattr__(self, "B", _ast(self.B))


@dataclass
class Sqrt2dFamily:
    """The induced (alpha, beta) pair and its constraint residuals."""

    spec: Sqrt2dFamilySpec
    alpha: list
    beta: list

    def pde_residuals(self, x):
        """Residuals of u_1 - v_2, u_2 + v_1, u B_1 + v B_2 at x."""
        ctx = get_context(2, 2)
        uj, vj, bj = (Jet(ctx, c) for c in shared_tape(
            (self.spec.u, self.spec.v, self.spec.B)).jets(ctx, x))
        u1, u2 = uj.partial((1, 0)), uj.partial((0, 1))
        v1, v2 = vj.partial((1, 0)), vj.partial((0, 1))
        b1, b2 = bj.partial((1, 0)), bj.partial((0, 1))
        return {
            "cauchy_riemann_1": u1 - v2,
            "cauchy_riemann_2": u2 + v1,
            "transport": uj.value * b1 + vj.value * b2,
        }

    def b_squared(self, x):
        value = shared_tape((self.spec.B,)).floats(x)[0]
        if not 0.0 < value < 1.0:
            raise DomainError(f"B = {value!r} outside (0, 1) at x={coords(x)!r}")
        return value

    def metric(self):
        return ppower_metric(PPowerSpec(self.alpha, self.beta, 0.5))


# square-root families whose alpha and beta trees are kept
SQRT2D_TREES_KEPT = 64
_SQRT2D_TREES = OrderedDict()


def sqrt2d_family(spec):
    """Induced alpha and beta of the 2D square-root family.

    alpha^2 = B / ((1-B)^{3/2} (u^2+v^2)) |y|^2 and
    beta    = B / ((1-B)^{3/4} (u^2+v^2)) (u y^1 + v y^2),
    so the norm of beta with respect to alpha equals sqrt(B).

    The alpha and beta trees are built once per (u, v, B), told apart by
    the identity of their trees (``exprlang.kept_by_identity``), so the
    metrics of one triple share their coefficient tapes.
    """
    if not isinstance(spec, Sqrt2dFamilySpec):
        spec = Sqrt2dFamilySpec(*spec)
    triple = (spec.u, spec.v, spec.B)
    alpha, beta = kept_by_identity(_SQRT2D_TREES, triple,
                                   lambda: _sqrt2d_trees(*triple),
                                   SQRT2D_TREES_KEPT)
    return Sqrt2dFamily(spec, [list(row) for row in alpha], list(beta))


def _sqrt2d_trees(u, v, B):
    """The alpha matrix and beta covector trees of the triple (u, v, B)."""

    def mul(a, b):
        return Binary("mul", a, b)

    def power(a, r):
        return Binary("pow", a, Number(r))

    uu_vv = Binary("add", power(u, 2.0), power(v, 2.0))
    one_minus_b = Binary("sub", Number(1.0), B)
    conformal = Binary("div", B, mul(power(one_minus_b, 1.5), uu_vv))
    alpha = [[conformal, Number(0.0)], [Number(0.0), conformal]]
    form_coef = Binary("div", B, mul(power(one_minus_b, 0.75), uu_vv))
    return alpha, [mul(form_coef, u), mul(form_coef, v)]


def _triple_at(spec, x, formula):
    """u, v, B, B_1 and B_11 + B_22 of the triple at x.  Raises DomainError
    outside 0 < B < 1, and DegenerateValue where |v| is below the floor,
    since the ``formula`` divides by v."""
    if not isinstance(spec, Sqrt2dFamilySpec):
        spec = Sqrt2dFamilySpec(*spec)
    u, v = shared_tape((spec.u, spec.v)).floats(x)
    ctx = get_context(2, 2)
    bj = Jet(ctx, shared_tape((spec.B,)).jets(ctx, x)[0])
    b_val = bj.value
    if not 0.0 < b_val < 1.0:
        raise DomainError(f"B = {b_val!r} outside (0, 1) at x={coords(x)!r}")
    if abs(v) < V_FLOOR:
        raise DegenerateValue(f"the {formula} formula divides by v")
    return (u, v, b_val, bj.partial((1, 0)),
            bj.partial((2, 0)) + bj.partial((0, 2)))


def sqrt2d_flag_curvature(spec, x):
    """Curvature of the family from second derivatives of B.

    K = -((u^2+v^2) sqrt(1-B) / (2 B^2)) (B_11 + B_22)
        - ((u^2+v^2)^2 (3B-2) / (4 B^3 sqrt(1-B))) (B_1 / v)^2

    The formula divides by v; |v| below the floor raises DegenerateValue
    (fall back to the generic engine there).
    """
    u, v, b_val, b1, lap = _triple_at(spec, x, "curvature")
    uv = u * u + v * v
    root = math.sqrt(1.0 - b_val)
    return (-(uv * root / (2.0 * b_val ** 2)) * lap
            - (uv ** 2 * (3.0 * b_val - 2.0) / (4.0 * b_val ** 3 * root))
            * (b1 / v) ** 2)


def sqrt2d_base_curvature(spec, x):
    """Sectional curvature of the family's base metric from the triple:

    lambda = -(u^2+v^2)/(4 B^2) { (B+2) sqrt(1-B) (B_11 + B_22)
             + (u^2+v^2)(B^2 + 4B - 2) B_1^2 / (B v^2 sqrt(1-B)) }

    Valid where the triple satisfies its constraints; divides by v.
    """
    u, v, b_val, b1, lap = _triple_at(spec, x, "base-curvature")
    uv = u * u + v * v
    root = math.sqrt(1.0 - b_val)
    return (-uv / (4.0 * b_val ** 2)
            * ((b_val + 2.0) * root * lap
               + uv * (b_val ** 2 + 4.0 * b_val - 2.0) * b1 ** 2
               / (b_val * v * v * root)))


def fold_points(points, tensors, at, keys):
    """Fold the residual dicts ``at(x, rd, ab)`` over the points and their
    ``tensors`` rows (``alphabeta.ab_tensor_rows``); a row holding a
    FinslerError, or an ``at`` raising one, is skipped as ``x={x}: {exc}``.
    A dict may hold entries besides ``keys``, a list of ``"notes"``, and
    may leave out a key it could not evaluate, with the reason under
    ``"skipped"``.  Returns ``(lists, notes, skipped)``, the shape of a
    registered check's body (``runner._check``): each key's values in the
    dicts holding it, and the notes and skip texts as ``x={x}: ...`` in
    point order."""
    rows, notes, skipped = [], [], []
    for x, tensor_row in zip(points, tensors):
        try:
            row = at(x, *_raised(tensor_row))
        except FinslerError as exc:
            skipped.append(f"x={x}: {exc}")
            continue
        rows.append(row)
        notes += [f"x={x}: {note}" for note in row.get("notes", ())]
        if "skipped" in row:
            skipped.append(f"x={x}: {row['skipped']}")
    lists = {k: [row[k] for row in rows if k in row] for k in keys}
    return lists, notes, skipped


def _equation_residual(sides):
    """max |lhs - rhs| over the (lhs, rhs) pairs of an equation, relative to
    max(1, |lhs|, |rhs|); inf where a difference is NaN."""
    return (worst([abs(lhs - rhs) for lhs, rhs in sides])
            / max(1.0, *(abs(v) for pair in sides for v in pair)))


def sqrt2d_einstein_residual(rd, ab):
    """Residual of the square-root structure equation r_00 = 6 beta s_0 /
    (b^2-4) from the tensor data ``(rd, ab)`` of one point: the maximum over
    16 evenly spaced unit directions, normalized by the scale of the
    sides."""
    if rd.dim != 2:
        raise ValueError("this structure equation is two-dimensional")
    if abs(ab.b2 - 4.0) < 1e-9:
        raise DegenerateValue("b^2 = 4 degenerates the structure equation")
    return _equation_residual([
        (ab.r00(y), 6.0 * ab.beta(y) * ab.s0(y) / (ab.b2 - 4.0))
        for y in circle_directions(16)])


SQRT2D_KEYS = ("r00_equation", "t00_equation", "s0_squared_equation",
               "divergence_equation", "covariant_s_equation")


def sqrt2d_structure_report(rd, ab, tolerance=1e-6):
    """Residuals of the full 2D square-root Einstein structure system.

    Beyond the closedness-type equation r_00 = 6 beta s_0 / (b^2 - 4), an
    Einstein instance satisfies four more identities tying t_00, s_0^2,
    s^k_{0|k} and s_{0|0} to the scalars theta(x) (recovered from
    s_m s^m = 4 theta b^2 (b^2-4)) and lambda(x), the sectional curvature
    of the base metric.  All five are reported as normalized residuals
    (``SQRT2D_KEYS``), the maximum over 16 evenly spaced unit directions,
    from the tensor data ``(rd, ab)`` of one point.
    """
    if rd.dim != 2:
        raise ValueError("these structure equations are two-dimensional")
    b2 = ab.b2
    if b2 < 1e-9 or abs(b2 - 4.0) < 1e-9:
        raise DegenerateValue("structure equations need b^2 away from 0 and 4")
    lam = rd.sectional_curvature()
    smsm = ab.s_m_s_up_m()
    theta = smsm / (4.0 * b2 * (b2 - 4.0))
    sk_form = ab.sk_form()
    sides = []  # per direction, the (lhs, rhs) of each equation
    for y in circle_directions(16):
        alpha2 = rd.alpha(y) ** 2
        beta = ab.beta(y)
        s0 = ab.s0(y)
        sides.append((
            (ab.r00(y), 6.0 * beta * s0 / (b2 - 4.0)),
            (ab.t00(y), 4.0 * theta * (4.0 * alpha2 - beta * beta)
             - s0 * s0 / (b2 - 4.0)),
            (s0 * s0, 4.0 * (b2 - 4.0) * theta * (b2 * alpha2 - beta * beta)),
            (float(sk_form @ y),
             -(32.0 * (b2 * b2 + 7.0 * b2 - 26.0) * theta
               + (b2 - 4.0) ** 2 * lam)
             / (2.0 * (2.0 + b2) * (b2 - 4.0)) * beta
             + ab.bk_s0k(y) / (b2 - 4.0)),
            (ab.s00_cov(y),
             2.0 * ((5.0 * b2 ** 3 + 12.0 * b2 * b2 - 60.0 * b2 + 16.0)
                    * alpha2
                    - 6.0 * (b2 * b2 + 2.0 * b2 - 12.0) * beta * beta)
             * smsm / (b2 * (2.0 + b2) * (b2 - 4.0) ** 2)
             + lam * (b2 - 4.0) * (b2 * alpha2 - beta * beta)
             / (2.0 * (2.0 + b2)))))
    return EinsteinConditionReport(
        "sqrt2d_structure", {"theta": theta, "lambda": lam},
        {k: _equation_residual(column)
         for k, column in zip(SQRT2D_KEYS, zip(*sides))}, tolerance)


def sqrt2d_K_from_lambda(rd, ab, precheck_tol=1e-6):
    """Curvature of an Einstein 2D square-root instance from alpha data.

    K = (2 / (2 + b^2)) (lambda - 8 s_m s^m / (b^2 (b^2 - 4)))

    with lambda the sectional curvature of alpha, from the tensor data
    ``(rd, ab)`` of one point.  Raises NotEinstein when the
    structure-equation residual exceeds ``precheck_tol``.
    """
    residual = sqrt2d_einstein_residual(rd, ab)
    if residual > precheck_tol:
        raise NotEinstein(
            f"structure-equation residual {residual:.3e} exceeds {precheck_tol}")
    b2 = ab.b2
    if b2 < 1e-9 or abs(b2 - 4.0) < 1e-9:
        raise DegenerateValue("formula needs b^2 away from 0 and 4")
    lam = rd.sectional_curvature()
    return 2.0 / (2.0 + b2) * (lam - 8.0 * ab.s_m_s_up_m() / (b2 * (b2 - 4.0)))


@dataclass
class KillingDeformationResult:
    x: tuple
    r_residual: float          # max |r~_ij| of the rescaled form
    btilde_norm_sq: float      # squared alpha-norm of the rescaled form
    expected_norm_sq: float    # b^2 / (1 - b^2)^{3/2}
    ab_tilde: AbTensors


def _order2_coeffs(ctx, value, d, dd):
    """The coefficients in the order-2 ``ctx`` of the jets with values
    ``value[...]``, first raw partials ``d[v, ...]`` and second
    ``dd[v, w, ...]``, on a last axis: the inverse of ``read_partials``,
    exact since each factorial is 1 or 2."""
    table = partial_table(ctx)
    coeffs = np.zeros(value.shape + (ctx.ncoef,))
    coeffs[..., 0] = value
    coeffs[..., table.unit] = np.moveaxis(d, 0, -1)
    coeffs[..., table.pair] = (np.moveaxis(dd, (0, 1), (-2, -1))
                               / ctx.factorial[table.pair])
    return coeffs


def killing_deformation(rd, ab):
    """Rescale beta by (1-b^2)^{-3/4} and measure how Killing the result is,
    from the tensor data ``(rd, ab)`` of one point.

    For instances satisfying the square-root structure equation the
    rescaled form has r~_ij = 0 and squared norm b^2 / (1-b^2)^{3/2}.
    The rescaled tensor data needs partials of a_ij and b_i up to order 2
    only, so their order-2 jets are rebuilt from those ``(rd, ab)`` holds.
    """
    ctx = get_context(rd.dim, 2)
    a_jets = [[Jet(ctx, c) for c in row]
              for row in _order2_coeffs(ctx, rd.a, rd.da, rd.dda)]
    b_jets = [Jet(ctx, c) for c in _order2_coeffs(ctx, ab.b, ab.db, ab.ddb)]
    a_inv_jets = invert(a_jets)
    n = len(b_jets)
    b2_jet = None
    for i in range(n):
        for j in range(n):
            term = a_inv_jets[i][j] * b_jets[i] * b_jets[j]
            b2_jet = term if b2_jet is None else b2_jet + term
    b2 = b2_jet.value
    if b2 >= 1.0:
        raise DomainError(f"b^2 = {b2!r} >= 1 at x={coords(rd.x)!r}")
    scale = jet_pow(1.0 - b2_jet, -0.75)
    ab_t = ab_tensors_from_jets(rd, [scale * bj for bj in b_jets])
    return KillingDeformationResult(
        rd.x, float(np.abs(ab_t.r).max()), ab_t.b2,
        b2 / (1.0 - b2) ** 1.5, ab_t)


@dataclass
class EinsteinConditionReport:
    """Residuals of one family of Einstein structure equations."""

    condition_id: str
    scalars: dict
    residuals: dict
    tolerance: float = 1e-6
    skipped: list = field(default_factory=list)

    @property
    def verdict(self):
        return all(v < self.tolerance for v in self.residuals.values())


def _condition_report(condition_id, alpha_spec, beta_spec, points, at, keys,
                      scalars=(), tolerance=1e-6):
    """The report of ``at`` folded over the points (``fold_points``): the
    per-point values of its entries ``scalars``, and each of its ``keys``
    folded by ``core.worst`` (inf for a NaN, and for a key no point
    evaluated)."""
    lists, _, skipped = fold_points(
        points, ab_tensor_rows(alpha_spec, beta_spec, points), at,
        keys + scalars)
    return EinsteinConditionReport(
        condition_id, {k: lists[k] for k in scalars},
        {k: worst(lists[k]) for k in keys}, tolerance, skipped)


def _tensor_residual(delta, *scales):
    return float(np.abs(delta).max() / max(1.0, *(abs(s) for s in scales)))


def _randers_scalars(rd, ab):
    n = rd.dim
    denom = 2.0 * (n - ab.b2)
    c = ab.tr_r / denom
    # d_j [tr_r / (2(n - b2))] = (d_j tr_r)/(2(n-b2)) + tr_r (d_j b2)/(2(n-b2)^2)
    dc = ab.rkk_grad() / denom + ab.tr_r * ab.db2() / (2.0 * (n - ab.b2) ** 2)
    sigma = ((2.0 * float(ab.b_up @ ab.sk_form()) / (n - 1)
              - 2.0 * float(ab.b_up @ ab.tvec)
              - float(ab.b_up @ dc)) / (2.0 * ab.b2))
    return c, dc, sigma


RANDERS_KEYS = ("closedness", "divergence", "ricci_alpha", "einstein_relation")


def randers_residuals(rd, ab, table):
    """Residuals of the Randers structure equations (``RANDERS_KEYS``) from
    the tensor data ``(rd, ab)`` of one point, with the scalars c and sigma.

    c(x) is recovered from the trace of the closedness equation (using
    b^j s_j = 0) and sigma(x) from the b-contraction of the divergence
    equation; the residuals are those of each equation and of the final
    Einstein relation Ric = (n-1)(sigma - c^2) F^2, with Ric and F read
    from ``table``, the ``core.EinsteinTable`` of the Randers metric
    alpha + beta, along the admissible ones of 8 sphere directions.
    Raises DegenerateValue where b^2 ~ 0.
    """
    n = rd.dim
    if ab.b2 < 1e-9:
        raise DegenerateValue("b^2 ~ 0")
    c, dc, sigma = _randers_scalars(rd, ab)
    row = {"c": c, "sigma": sigma}

    bs = np.outer(ab.b, ab.svec)
    closed = ab.r + bs + bs.T - 2.0 * c * (rd.a - np.outer(ab.b, ab.b))
    row["closedness"] = _tensor_residual(
        closed, np.abs(ab.r).max(), abs(2 * c) * np.abs(rd.a).max())

    div = (ab.sk_form()
           - 0.5 * (n - 1) * (2.0 * sigma * ab.b + 2.0 * ab.tvec
                              + 4.0 * c * ab.svec + dc))
    row["divergence"] = _tensor_residual(
        div, np.abs(ab.sk_form()).max(), abs(sigma), np.abs(dc).max())

    sym_cov_s = 0.5 * (ab.cov_svec + ab.cov_svec.T)
    dcb = 0.5 * (np.outer(dc, ab.b) + np.outer(ab.b, dc))
    ric_rhs = (2.0 * ab.t + ab.tr_t * rd.a
               + (n - 1) * (sigma * (rd.a + np.outer(ab.b, ab.b))
                            - 4.0 * c * c * rd.a - sym_cov_s
                            - np.outer(ab.svec, ab.svec) - dcb))
    row["ricci_alpha"] = _tensor_residual(
        rd.ricci_alpha - ric_rhs, np.abs(rd.ricci_alpha).max(),
        np.abs(ric_rhs).max())

    relation = []
    for f, ric_f in table.ricci_rows(rd.x, sphere_directions(n, 8)):
        want = (n - 1) * (sigma - c * c) * f * f
        relation.append(abs(ric_f - want) / max(1.0, abs(ric_f), abs(want)))
    row["einstein_relation"] = worst(relation)
    return row


def randers_einstein_residuals(alpha_spec, beta_spec, points):
    """``randers_residuals`` folded over the points (``fold_points``), with
    c and sigma at each evaluated point as the report's scalars."""
    table = EinsteinTable(
        ppower_metric(PPowerSpec(alpha_spec, beta_spec, 1.0)), ())
    return _condition_report(
        "randers", alpha_spec, beta_spec, points,
        lambda x, rd, ab: randers_residuals(rd, ab, table), RANDERS_KEYS,
        ("c", "sigma"))


SQUARE_KEYS = ("covariant_derivative", "ricci_alpha", "c_gradient",
               "ricci_flat")


def square_residuals(rd, ab, table):
    """Residuals of the square-metric structure equations (``SQUARE_KEYS``)
    from the tensor data ``(rd, ab)`` of one point, with the scalar c.

    c(x) comes from the trace of the covariant-derivative equation
    b_{i|j} = c [(1+2b^2) a_ij - 3 b_i b_j]; the residuals are those of
    that equation, of the curvature equation, of the gradient equation
    c_i = -2 c^2 b_i, and the Ricci curvature of the square metric itself
    (instances that satisfy all equations are Ricci-flat), read from
    ``table``, its ``core.EinsteinTable``, along the admissible ones of 8
    sphere directions.
    """
    n = rd.dim
    denom = n * (1.0 + 2.0 * ab.b2) - 3.0 * ab.b2
    c = ab.tr_r / denom
    dc = (ab.rkk_grad() / denom
          - ab.tr_r * (2.0 * n - 3.0) * ab.db2() / denom ** 2)
    row = {"c": c}

    want_cov = c * ((1.0 + 2.0 * ab.b2) * rd.a - 3.0 * np.outer(ab.b, ab.b))
    row["covariant_derivative"] = _tensor_residual(
        ab.cov_b - want_cov, np.abs(ab.cov_b).max(), np.abs(want_cov).max())

    coef = 2.0 * (2.0 * n - 5.0) * ab.b2 + 5.0 * (n - 1.0)
    want_ric = -c * c * (coef * rd.a - 6.0 * (n - 2.0) * np.outer(ab.b, ab.b))
    row["ricci_alpha"] = _tensor_residual(
        rd.ricci_alpha - want_ric, np.abs(rd.ricci_alpha).max(),
        np.abs(want_ric).max())

    row["c_gradient"] = _tensor_residual(dc + 2.0 * c * c * ab.b,
                                         np.abs(dc).max())
    row["ricci_flat"] = worst([
        abs(ric_f) / max(1.0, f * f) for f, ric_f
        in table.ricci_rows(rd.x, sphere_directions(n, 8))])
    return row


def square_einstein_residuals(alpha_spec, beta_spec, points):
    """``square_residuals`` folded over the points (``fold_points``), with
    c at each evaluated point as the report's scalars."""
    table = EinsteinTable(
        ppower_metric(PPowerSpec(alpha_spec, beta_spec, 2.0)), ())
    return _condition_report(
        "square", alpha_spec, beta_spec, points,
        lambda x, rd, ab: square_residuals(rd, ab, table), SQUARE_KEYS,
        ("c",))


RICCI_FLAT_PARALLEL_KEYS = ("max_covariant_derivative", "max_ricci_alpha")


def ricci_flat_parallel_residuals(rd, ab):
    """max |b_{i|j}| and max |Ric_ij of alpha| at the point of the tensor
    data ``(rd, ab)`` (``RICCI_FLAT_PARALLEL_KEYS``)."""
    return {"max_covariant_derivative": float(np.abs(ab.cov_b).max()),
            "max_ricci_alpha": float(np.abs(rd.ricci_alpha).max())}


def ricci_flat_parallel_check(alpha_spec, beta_spec, points):
    """``(verdict, max_cov, max_ric)``: the verdict is true iff alpha is
    Ricci-flat and beta is parallel at every point, both maxima below
    1e-9, and some point was evaluated (``fold_points``)."""
    report = _condition_report(
        "ricci_flat_parallel", alpha_spec, beta_spec, points,
        lambda x, rd, ab: ricci_flat_parallel_residuals(rd, ab),
        RICCI_FLAT_PARALLEL_KEYS, tolerance=1e-9)
    return (report.verdict, *report.residuals.values())
