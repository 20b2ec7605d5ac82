"""Closed-form coordinate expressions over jet arithmetic.

Grammar (highest precedence first):

    unary minus  >  ^ (right-associative)  >  * /  >  + -

so ``-x1^2`` parses as ``(-x1)^2``.  Coordinates are named ``x1`` .. ``x8``
in the surface syntax and are 0-based internally.  Supported functions:
sqrt, exp, ln, sin, cos (one argument) and pow (two arguments).  ``a^r``
with a non-integer literal exponent evaluates through the real-power jet
function and inherits its positivity requirement.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

from .errors import ArityError, DomainError, ExprSyntaxError, UnknownIdentifier
from .jets import (
    constant,
    jet_cos,
    jet_exp,
    jet_ln,
    jet_pow,
    jet_sin,
    jet_sqrt,
    lift_variable,
)

FUNCTIONS = {"sqrt": 1, "exp": 1, "ln": 1, "sin": 1, "cos": 1, "pow": 2}

MAX_COORDS = 8


class _Node:
    """Base of the expression nodes below."""

    @functools.cached_property
    def coordinate_count(self):
        """``max_coord(self) + 1``, walked once and kept on the node."""
        return max_coord(self) + 1


@dataclass(frozen=True)
class Number(_Node):
    value: float


@dataclass(frozen=True)
class Coord(_Node):
    index: int


@dataclass(frozen=True)
class Unary(_Node):
    op: str  # "neg"
    operand: object


@dataclass(frozen=True)
class Binary(_Node):
    op: str  # add | sub | mul | div | pow
    left: object
    right: object


@dataclass(frozen=True)
class Call(_Node):
    func: str
    args: tuple


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_COORD_RE = re.compile(r"^x([1-8])$")


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            offset = len(source) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", offset)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(source)))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, offset = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)

    def parse(self):
        ast = self.expr()
        kind, val, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", offset)
        return ast

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = Binary("add" if val == "+" else "sub", node, self.term())
            else:
                return node

    def term(self):
        node = self.power()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = Binary("mul" if val == "*" else "div", node, self.power())
            else:
                return node

    def power(self):
        base = self.unary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return Binary("pow", base, self.power())
        return base

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Unary("neg", self.unary())
        return self.atom()

    def atom(self):
        kind, val, offset = self.next()
        if kind == "num":
            return Number(val)
        if kind == "ident":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                return self.call(val, offset)
            m = _COORD_RE.match(val)
            if m:
                return Coord(int(m.group(1)) - 1)
            raise UnknownIdentifier(
                f"unknown identifier {val!r} (coordinates are x1..x{MAX_COORDS})")
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}", offset)

    def call(self, name, offset):
        if name not in FUNCTIONS:
            raise UnknownIdentifier(f"unknown function {name!r}")
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.next()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        if len(args) != FUNCTIONS[name]:
            raise ArityError(
                f"{name} takes {FUNCTIONS[name]} argument(s), got {len(args)}")
        return Call(name, tuple(args))


def parse(source):
    """Parse expression source text into an AST."""
    return _Parser(source).parse()


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 3}


def _prec(node):
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary):
        return 4
    return 5


def to_source(node):
    """Render an AST back to parseable source (parse . print . parse stable)."""
    if isinstance(node, Number):
        return repr(node.value)
    if isinstance(node, Coord):
        return f"x{node.index + 1}"
    if isinstance(node, Unary):
        inner = to_source(node.operand)
        if _prec(node.operand) < 4:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Binary):
        op_text = {"add": " + ", "sub": " - ", "mul": "*", "div": "/",
                   "pow": "^"}[node.op]
        p = _PREC[node.op]
        left = to_source(node.left)
        right = to_source(node.right)
        lp = _prec(node.left)
        rp = _prec(node.right)
        if lp < p or (lp == p and node.op == "pow"):
            left = f"({left})"
        if rp < p or (rp == p and node.op in ("sub", "div", "mul")):
            right = f"({right})"
        return f"{left}{op_text}{right}"
    if isinstance(node, Call):
        args = ", ".join(to_source(a) for a in node.args)
        return f"{node.func}({args})"
    raise TypeError(f"not an expression node: {node!r}")


def max_coord(node):
    """Largest coordinate index used, or -1 for a constant expression."""
    if isinstance(node, Coord):
        return node.index
    if isinstance(node, Unary):
        return max_coord(node.operand)
    if isinstance(node, Binary):
        return max(max_coord(node.left), max_coord(node.right))
    if isinstance(node, Call):
        return max((max_coord(a) for a in node.args), default=-1)
    return -1


def _is_constant(node):
    return isinstance(node, Number) or (
        isinstance(node, Unary) and _is_constant(node.operand))


def _constant_value(node):
    if isinstance(node, Number):
        return node.value
    return -_constant_value(node.operand)


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
        if node.op == "add":
            return a + b
        if node.op == "sub":
            return a - b
        if node.op == "mul":
            return a * b
        if abs(b) < 1e-300:
            raise DomainError("scalar division by zero")
        return a / b
    if isinstance(node, Call):
        if node.func == "pow":
            return _pow_scalar(eval_scalar(node.args[0], point),
                               node.args[1], point)
        a = eval_scalar(node.args[0], point)
        if node.func == "sqrt":
            if a <= 0.0:
                raise DomainError(f"sqrt of nonpositive value {a!r}")
            return math.sqrt(a)
        if node.func == "exp":
            return math.exp(a)
        if node.func == "ln":
            if a <= 0.0:
                raise DomainError(f"ln of nonpositive value {a!r}")
            return math.log(a)
        if node.func == "sin":
            return math.sin(a)
        return math.cos(a)
    raise TypeError(f"not an expression node: {node!r}")


def _pow_scalar(base, exponent_node, point):
    if _is_constant(exponent_node):
        r = _constant_value(exponent_node)
        if abs(r - round(r)) < 1e-12:
            k = int(round(r))
            if k < 0 and abs(base) < 1e-300:
                raise DomainError("negative power of zero")
            return base ** k
        if base <= 0.0:
            raise DomainError(f"non-integer power of nonpositive value {base!r}")
        return base ** r
    e = eval_scalar(exponent_node, point)
    if base <= 0.0:
        raise DomainError(f"non-constant power of nonpositive value {base!r}")
    return base ** e
