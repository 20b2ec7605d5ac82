"""The recursive tree walks: the reference the expression tapes are checked
against.

``eval_scalar`` and ``eval_jet`` evaluate one tree node by node, with the
float operations and domain rules of ``exprlang`` and the ``Jet``
operators, so every value, every error and its text are the ones a
compiled ``exprlang.Tape`` must give bit for bit.

The one-jet functions ``jet_sqrt``, ``jet_exp``, ``jet_ln``, ``jet_sin``
and ``jet_cos`` wrap the kernels the tapes call, and ``derivative`` takes
the jet of a partial derivative, for the reference paths of the tests.
"""

import numpy as np

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
)

__all__ = ["derivative", "eval_jet", "eval_scalar", "jet_cos", "jet_exp",
           "jet_ln", "jet_sin", "jet_sqrt"]


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
