"""The recursive tree walks and the one-point curvature code: the reference
the expression tapes and the batched curvature engine are checked against.

``eval_scalar`` and ``eval_jet`` evaluate one tree node by node, with the
float operations and domain rules of ``exprlang`` and the ``Jet``
operators, so every value, every error and its text are the ones a
compiled ``exprlang.Tape`` must give bit for bit.

The one-jet functions ``jet_sqrt``, ``jet_exp``, ``jet_ln``, ``jet_sin``
and ``jet_cos`` wrap the kernels the tapes call, and ``derivative`` takes
the jet of a partial derivative, for the reference paths of the tests.

``spray``, ``riemann_curvature``, ``ricci`` and ``einstein_scalar`` work
on one sample with ``Jet`` objects and the one-point ``linalg.solve``:
the spray's float tail (``_spray_tail``) and the curvature's jet tail
(``_spray_jets``), each step raising its error where it fails.  Every
value, every error and its text are the ones the batch entries of
``finslerlab.core`` give at that row, and so the ones the package's
one-point functions, their rows of a batch of one, give.
"""

import math

import numpy as np

from finslerlab.core import (
    CURVATURE_X_DEGREE,
    _gather,
    _non_finite,
    _partial_table,
    _require_metric,
    _riemann_read,
    _tail_table,
)
from finslerlab.errors import DomainError, NonFinite, coords
from finslerlab.exprlang import (
    Binary,
    Call,
    Coord,
    Number,
    Unary,
    _SCALAR_FUNCS,
    _SCALAR_OPS,
    _constant_value,
    _is_constant,
    _scalar_const_pow,
    _scalar_pow,
)
from finslerlab.jets import (
    Jet,
    _cos,
    _exp,
    _ln,
    _sin,
    _sqrt,
    constant,
    jet_pow,
    lift_variable,
    read_partials,
)
from finslerlab.linalg import solve

__all__ = ["derivative", "einstein_scalar", "eval_jet", "eval_scalar",
           "jet_cos", "jet_exp", "jet_ln", "jet_sin", "jet_sqrt", "ricci",
           "riemann_curvature", "spray"]


def jet_sqrt(jet):
    return Jet(jet.ctx, _sqrt(jet.ctx, jet.c))


def jet_exp(jet):
    return Jet(jet.ctx, _exp(jet.ctx, jet.c))


def jet_ln(jet):
    return Jet(jet.ctx, _ln(jet.ctx, jet.c))


def jet_sin(jet):
    return Jet(jet.ctx, _sin(jet.ctx, jet.c))


def jet_cos(jet):
    return Jet(jet.ctx, _cos(jet.ctx, jet.c))


def derivative(jet, var):
    """Jet of the partial derivative of ``jet`` by variable ``var``.

    The result is exact to order (d - 1); its top-degree coefficients are
    zero because they are not determined by the input truncation.  The
    context must keep every monomial (no x-degree cap): d/dx_v reads the
    coefficient of m + e_v into m for each monomial m below the top degree.
    """
    ctx = jet.ctx
    out = np.zeros(ctx.ncoef)
    for i, m in enumerate(ctx.monomials):
        if sum(m) < ctx.order:
            bumped = m[:var] + (m[var] + 1,) + m[var + 1:]
            out[i] = jet.c[ctx.index[bumped]] * (m[var] + 1)
    return Jet(ctx, out)

_JET_FUNCS = {"sqrt": jet_sqrt, "exp": jet_exp, "ln": jet_ln,
              "sin": jet_sin, "cos": jet_cos}


def eval_jet(node, ctx, point):
    """Evaluate with each coordinate lifted as a jet variable at ``point``."""
    need = node.coordinate_count
    if need > len(point):
        raise ValueError(
            f"expression uses x{need} but the point has {len(point)} coordinates")
    if need > ctx.num_vars:
        raise ValueError(
            f"expression uses x{need} but the context has {ctx.num_vars} variables")

    def rec(n):
        if isinstance(n, Number):
            return constant(ctx, n.value)
        if isinstance(n, Coord):
            return lift_variable(ctx, n.index, point[n.index])
        if isinstance(n, Unary):
            return -rec(n.operand)
        if isinstance(n, Binary):
            if n.op == "pow":
                return _pow_jet(rec(n.left), n.right, rec)
            a = rec(n.left)
            b = rec(n.right)
            if n.op == "add":
                return a + b
            if n.op == "sub":
                return a - b
            if n.op == "mul":
                return a * b
            return a / b
        if isinstance(n, Call):
            if n.func == "pow":
                return _pow_jet(rec(n.args[0]), n.args[1], rec)
            return _JET_FUNCS[n.func](rec(n.args[0]))
        raise TypeError(f"not an expression node: {n!r}")

    return rec(node)


def _pow_jet(base, exponent_node, rec):
    if _is_constant(exponent_node):
        return jet_pow(base, _constant_value(exponent_node))
    exp_jet = rec(exponent_node)
    # general jet exponent: base must be positive
    return jet_exp(exp_jet * jet_ln(base))


def eval_scalar(node, point):
    """Plain float evaluation, mirroring the jet domain rules."""
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Coord):
        if node.index >= len(point):
            raise ValueError(
                f"expression uses x{node.index + 1} but the point has "
                f"{len(point)} coordinates")
        return float(point[node.index])
    if isinstance(node, Unary):
        return -eval_scalar(node.operand, point)
    if isinstance(node, Binary):
        if node.op == "pow":
            return _pow_scalar(eval_scalar(node.left, point), node.right, point)
        a = eval_scalar(node.left, point)
        b = eval_scalar(node.right, point)
        return _SCALAR_OPS[node.op](a, b)
    if isinstance(node, Call):
        if node.func == "pow":
            return _pow_scalar(eval_scalar(node.args[0], point),
                               node.args[1], point)
        return _SCALAR_FUNCS[node.func](eval_scalar(node.args[0], point))
    raise TypeError(f"not an expression node: {node!r}")


def _pow_scalar(base, exponent_node, point):
    if _is_constant(exponent_node):
        return _scalar_const_pow(_constant_value(exponent_node))(base)
    return _scalar_pow(base, eval_scalar(exponent_node, point))


def _require_finite(name, value, x, y):
    """Raise NonFinite where the float array ``value`` is not finite."""
    if not np.isfinite(value).all():
        raise _non_finite(name, x, y)


def spray(metric, x, y):
    """Geodesic coefficients G^i as a float vector (2-homogeneous in y);
    raises NonFinite where g or G^i is not finite."""
    metric.require_domain(x, y)
    f = metric.jet(x, y, 2)
    f2 = f * f
    table = _partial_table(f2.ctx)
    g = _require_metric(0.5 * read_partials(f2.c, table.yy, f2.ctx), x, y)
    out = _spray_tail(g, read_partials(f2.c, table.xy, f2.ctx).tolist(),
                      read_partials(f2.c, table.x, f2.ctx).tolist(), y)
    _require_finite("spray", out, x, y)
    return out


def _spray_tail(g, f2_xy, f2_x, y):
    """G^i from g and the F^2 partials [F^2]_{x^k y^l} and [F^2]_{x^l}."""
    n = len(g)
    rhs = [sum(f2_xy[k][l] * y[k] for k in range(n)) - f2_x[l]
           for l in range(n)]
    cols = solve(g, [rhs])
    return np.array([0.25 * v for v in cols[0]])


def _spray_jets(metric, x, y, x_degree=None):
    """G^i as jets of the order-2 context, for the curvature extraction,
    and the float g they solve with.  F is built with the x-degree cap
    ``x_degree``: by default none, so the spray jets hold every partial;
    the curvature passes ``CURVATURE_X_DEGREE``."""
    n = metric.dim
    f = metric.jet(x, y, 4, x_degree)
    f2 = f * f
    table = _tail_table(f2.ctx)
    low = table.low
    g = 0.5 * _gather(f2.c, table.g)
    _require_metric(g[:, :, 0], x, y)
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
    return [0.25 * gi for gi in cols[0]], g[:, :, 0].copy()


def _curvature(metric, x, y):
    """(g, R^i_k) at one sample from one jet solve; raises NonFinite where
    g or R is not finite."""
    metric.require_domain(x, y)
    g_jets, g = _spray_jets(metric, x, y, CURVATURE_X_DEGREE)
    coeffs = np.stack([gj.c for gj in g_jets])
    r = _riemann_read(coeffs[None], np.array([y], dtype=float),
                      g_jets[0].ctx)[0]
    _require_finite("R^i_k", r, x, y)
    return g, r


def riemann_curvature(metric, x, y):
    """R^i_k as an n-by-n float matrix (the trace is the Ricci curvature);
    raises NonFinite where it is not finite."""
    return _curvature(metric, x, y)[1]


def _ricci_of(r, x, y):
    """Ric, the trace of R^i_k; raises NonFinite where it is not finite."""
    ric = float(np.trace(r))
    if not math.isfinite(ric):
        raise NonFinite(f"Ric = {ric!r} is not finite at x={coords(x)!r}, "
                        f"y={coords(y)!r}")
    return ric


def _positive(f):
    """F; raises DomainError where it is not positive."""
    if not f > 0.0:
        raise DomainError(f"F = {f!r} is not positive at this sample")
    return f


def _einstein_of(dim, f, ric, x, y):
    """Ric / ((n-1) F^2); raises NonFinite where (n-1) F^2 is zero or not
    finite, and where the scalar is not finite."""
    den = (dim - 1) * f * f
    lam = ric / den if math.isfinite(den) and den != 0.0 else math.nan
    if not math.isfinite(lam):
        raise NonFinite(f"lambda = {ric!r} / {den!r} is not finite at "
                        f"x={coords(x)!r}, y={coords(y)!r}")
    return lam


def ricci(metric, x, y):
    """Ricci curvature: the trace of the Riemann operator; raises
    NonFinite where it is not finite."""
    return _ricci_of(riemann_curvature(metric, x, y), x, y)


def einstein_scalar(metric, x, y):
    """Einstein scalar: Ric / ((n-1) F^2); 0-homogeneous in y.  Raises
    DomainError where F is not positive, and NonFinite where R, Ric or the
    scalar is not finite, and where (n-1) F^2 is zero or not finite."""
    f = _positive(metric.value(x, y))
    return _einstein_of(metric.dim, f, ricci(metric, x, y), x, y)
