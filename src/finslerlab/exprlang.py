"""Closed-form coordinate expressions over jet arithmetic.

Grammar (highest precedence first):

    unary minus  >  ^ (right-associative)  >  * /  >  + -

so ``-x1^2`` parses as ``(-x1)^2``.  Coordinates are named ``x1`` .. ``x8``
in the surface syntax and are 0-based internally.  Supported functions:
sqrt, exp, ln, sin, cos (one argument) and pow (two arguments).  ``a^r``
with a non-integer literal exponent evaluates through the real-power jet
function and inherits its positivity requirement.

Expressions are evaluated by one engine, the :class:`Tape`: a list of
expressions (the a_ij and b_i of a metric, or one tree) is compiled once
into a flat list of instructions, one per distinct subtree (hash-consing,
Griewank and Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008,
ch. 6), in the order in which a node-by-node evaluation first reaches
them.  The tape replays over floats, over a batch of points (one array per
coordinate) and over raw jet coefficient vectors, of one point or of a
batch of points (one row each), with the float operations below and the
kernels of the ``Jet`` operators, so every value, every error and its text
come out as evaluating the tree node by node with those operations gives
them.  A subtree without coordinates is a literal, folded once per replay
mode by replaying its own compilation; a literal times a jet is then a
scalar multiply plus 0.0, which has the bits of the Cauchy product by a
constant jet.  ``eval_scalar`` and ``eval_jet`` evaluate one tree through
its shared tape.  Sources are parsed once (:func:`parse` keeps recent
trees), so a source evaluated repeatedly is one tree.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import struct
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityError,
    BatchFailed,
    DomainError,
    ExprSyntaxError,
    FinslerError,
    UnknownIdentifier,
)
# jet_pow is not called here; it stays importable as exprlang.jet_pow, the
# name the traced benchmark run wraps (perfbench/layers.py)
from .jets import (  # noqa: F401
    Jet,
    _cauchy,
    _cos,
    _exp,
    _ln,
    _power,
    _recip,
    _shift_product,
    _sin,
    _sqrt,
    _value,
    constant,
    jet_pow,
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
            # a negative literal is one number, with the bits of its jet:
            # negating the jet of 2.0 gives -0.0 derivative coefficients
            if self.peek()[0] == "num":
                return Number(-self.next()[1])
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


# sources kept parsed; the trees are immutable, so callers can share them
PARSE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse(source):
    """Parse expression source text into an AST.

    The most recently used sources are kept parsed, so a source that is
    evaluated again and again is parsed once and yields the same tree.
    """
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
        # -2.0 would parse back as the literal Number(-2.0)
        if _prec(node.operand) < 4 or isinstance(node.operand, Number):
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
        # equal precedence groups to the left, but for ^ to the right
        if rp < p or (rp == p and node.op != "pow"):
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


# The float operations with their domain rules: the float replay of a tape.

def _scalar_div(a, b):
    if abs(b) < 1e-300:
        raise DomainError("scalar division by zero")
    return a / b


def _scalar_const_pow(r):
    """The function base -> base ** r for a constant exponent r."""
    if abs(r - round(r)) < 1e-12:
        k = int(round(r))

        def integer(base, unused=None):
            if k < 0 and abs(base) < 1e-300:
                raise DomainError("negative power of zero")
            return base ** k
        return integer

    def real(base, unused=None):
        if base <= 0.0:
            raise DomainError(
                f"non-integer power of nonpositive value {base!r}")
        return base ** r
    return real


def _scalar_pow(base, e):
    if base <= 0.0:
        raise DomainError(f"non-constant power of nonpositive value {base!r}")
    return base ** e


def _scalar_sqrt(a):
    if a <= 0.0:
        raise DomainError(f"sqrt of nonpositive value {a!r}")
    return math.sqrt(a)


def _scalar_ln(a):
    if a <= 0.0:
        raise DomainError(f"ln of nonpositive value {a!r}")
    return math.log(a)


_SCALAR_OPS = {"add": operator.add, "sub": operator.sub,
               "mul": operator.mul, "div": _scalar_div}
_SCALAR_FUNCS = {"sqrt": _scalar_sqrt, "exp": math.exp, "ln": _scalar_ln,
                 "sin": math.sin, "cos": math.cos}


# -- tapes --------------------------------------------------------------

class Tape:
    """A list of expressions compiled into one straight-line program.

    ``Tape(exprs)`` compiles the expressions; the replays below evaluate
    them.

    Every distinct subtree is one instruction (hash-consing), so a subtree
    shared by several entries, or repeated inside one, is computed once.
    Instructions are kept in the order in which evaluating the entries one
    after another, each tree node by node from the left, first reaches
    their nodes, so the first error a replay raises is the one that
    evaluation raises first.  A subtree without coordinates is a literal:
    it is compiled on its own, with its numbers as its only literals, and
    folded by replaying that once per replay mode, with the mode's own
    operations; an error the fold raises is raised again at the literal's
    first use.  A point with fewer coordinates than the entries use raises
    ValueError before anything is evaluated.

    The same tape replays over floats (:meth:`floats`), over a batch of
    points (:meth:`batch`) and over jet coefficient vectors
    (:meth:`jets`), at one point or, with a leading batch axis, at a
    batch of points, each batch row with the bits of its point.  Jets come
    as raw coefficient vectors; treat them as read-only, since a literal
    entry is shared by every replay.
    """

    def __init__(self, exprs):
        self.exprs = tuple(exprs)
        self.need = max((e.coordinate_count for e in self.exprs), default=0)
        self.coords, self.literals, self.code, self.outputs = _compile(
            self.exprs)
        self.batches_jets = not any(entry[0] in _UNBATCHED
                                    for entry in self.code)
        self._modes = {}

    def __len__(self):
        """The number of instructions."""
        return sum(1 for entry in self.code if entry[0] != "literal")

    def _program(self, mode, lower):
        program = self._modes.get(mode)
        if program is None:
            program = self._modes[mode] = lower(self)
        return program

    def _too_few(self, point, ctx=None):
        """Raise the ValueError of a ``point``, or ``ctx``, with fewer
        coordinates than the expressions use."""
        if self.need > len(point):
            raise ValueError(f"expression uses x{self.need} but the point "
                             f"has {len(point)} coordinates")
        raise ValueError(f"expression uses x{self.need} but the context "
                         f"has {ctx.num_vars} variables")

    def floats(self, point):
        """Float values of the expressions at ``point``."""
        if self.need > len(point):
            self._too_few(point)
        program, literals = self._program("floats", _lower_floats)
        vals = [float(point[i]) for i in self.coords] + literals
        _run(program, vals)
        return [vals[o] for o in self.outputs]

    def batch(self, point):
        """Float values at a batch of points, each with the bits of
        :meth:`floats`.

        ``point[i]`` is the array of coordinate i over the batch; literal
        entries come as floats.  Raises :class:`BatchFailed` where some
        point would raise.
        """
        if self.need > len(point):
            raise BatchFailed
        program, literals = self._program("batch", _lower_batch)
        vals = [np.asarray(point[i], dtype=float) for i in self.coords]
        vals += literals
        try:
            _run(program, vals)
        except (FinslerError, ArithmeticError, ValueError):
            raise BatchFailed from None
        return [vals[o] for o in self.outputs]

    def jets(self, ctx, point):
        """Jet coefficient vectors of the expressions in ``ctx`` at
        ``point``, each coordinate lifted as a jet variable.

        A coordinate-major batch of points (a 2-D array, as for
        :meth:`batch`) gives one (B, ncoef) array per expression, row b
        with the bits at point b; literal entries are broadcast views.  A
        batch raises :class:`BatchFailed` where some point would raise, and
        for a tape with an operation the kernels do not batch (``exp``,
        ``ln``, ``sin``, ``cos`` and powers with an evaluated exponent).
        """
        batched = getattr(point, "ndim", 1) == 2
        if self.need > len(point) or self.need > ctx.num_vars:
            if batched:
                raise BatchFailed
            self._too_few(point, ctx)
        program, literals = self._program(ctx, functools.partial(
            _lower_jets, ctx))
        if not batched:
            vals = [lift_variable(ctx, i, point[i]).c for i in self.coords]
            vals += literals
            _run(program, vals)
            return [vals[o] for o in self.outputs]
        if not self.batches_jets:
            raise BatchFailed
        vals = [_coordinates(ctx, i, point[i]) for i in self.coords]
        vals += literals
        try:
            _run(program, vals)
        except (FinslerError, ArithmeticError, ValueError):
            raise BatchFailed from None
        shape = (point.shape[1], ctx.ncoef)
        return [np.broadcast_to(vals[o], shape) for o in self.outputs]


# compiled tapes kept, most recently used last
TAPE_CACHE_SIZE = 64
_TAPES = OrderedDict()


def shared_tape(exprs):
    """The :class:`Tape` of ``exprs``, compiled once for every caller that
    passes the same tree objects.

    Trees are told apart by identity, not by value (``Number(0.0) ==
    Number(-0.0)``, yet the two fold to different bits).  :func:`parse`
    shares the tree of a source, so metrics built from the same source
    lists share one tape and its lowered programs.  The
    ``TAPE_CACHE_SIZE`` most recently used tapes are kept
    (:func:`kept_by_identity`).
    """
    exprs = tuple(exprs)
    return kept_by_identity(_TAPES, exprs, lambda: Tape(exprs),
                            TAPE_CACHE_SIZE)


def eval_jet(node, ctx, point):
    """The Jet of ``node`` in ``ctx``, each coordinate lifted as a jet
    variable at ``point``, through the tree's shared tape."""
    return Jet(ctx, shared_tape((node,)).jets(ctx, point)[0])


def eval_scalar(node, point):
    """The float value of ``node`` at ``point``, with the jet domain rules,
    through the tree's shared tape."""
    return shared_tape((node,)).floats(point)[0]


def kept_by_identity(cache, trees, build, size):
    """``build()``, kept in the OrderedDict ``cache`` under the identity
    of the objects ``trees``.

    Each entry holds its trees, so no id is reused while the entry lives;
    the ``size`` most recently used entries are kept.
    """
    key = tuple(map(id, trees))
    entry = cache.get(key)
    if entry is None:
        entry = cache[key] = (tuple(trees), build())
        if len(cache) > size:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return entry[1]


def _literal_key(node):
    """Structural key of a subtree without coordinates; numbers by bits."""
    if isinstance(node, Number):
        return (type(node.value), struct.pack("<d", node.value))
    if isinstance(node, Unary):
        return ("neg", _literal_key(node.operand))
    if isinstance(node, Binary):
        return (node.op, _literal_key(node.left), _literal_key(node.right))
    if isinstance(node, Call):
        return (node.func,) + tuple(_literal_key(a) for a in node.args)
    raise TypeError(f"not an expression node: {node!r}")


def _compile(exprs, fold=False):
    """Hash-consed instructions of ``exprs`` in first-evaluation order.

    Returns (coordinate index per coordinate slot, literal per literal
    slot, code, output slot per expression).  Slots number the coordinates
    first, then the literals, then one result per instruction.  ``code``
    holds ``(op, a, b)`` instructions and a ``("literal", slot, None)``
    marker at the first use of each literal; ``b`` is the exponent of ``powc``
    and unused by one-operand instructions.

    A literal is a subtree without coordinates, given as its own
    compilation with ``fold`` set (see :func:`_fold`).  With ``fold``, the
    literals are the values of the Number leaves, and code has no markers.
    """
    ids = {}
    coords, literals, code = [], [], []

    def intern(key, make):
        uid = ids.get(key)
        if uid is None:
            uid = ids[key] = len(ids)
            make(uid)
        return uid

    def visit(node):
        if isinstance(node, Number) if fold else node.coordinate_count == 0:
            def literal(uid):
                if fold:
                    literals.append((uid, node.value))
                else:
                    literals.append((uid, _compile((node,), fold=True)))
                    code.append(("literal", uid))
            return intern(("literal", _literal_key(node)), literal)
        if isinstance(node, Coord):
            return intern(("x", node.index),
                          lambda uid: coords.append((uid, node.index)))
        if isinstance(node, Unary):
            return emit("neg", visit(node.operand))
        if isinstance(node, Binary):
            if node.op == "pow":
                return power(node.left, node.right)
            a = visit(node.left)
            return emit(node.op, a, visit(node.right))
        if isinstance(node, Call):
            if node.func == "pow":
                return power(*node.args)
            return emit(node.func, visit(node.args[0]))
        raise TypeError(f"not an expression node: {node!r}")

    def power(base, exponent):
        a = visit(base)
        if _is_constant(exponent):
            r = _constant_value(exponent)
            return emit("powc", a, r, struct.pack("<d", r))
        return emit("powe", a, visit(exponent))

    def emit(op, a, b=None, b_key=None):
        key = (op, a, b if b_key is None else b_key)
        return intern(key, lambda uid: code.append((op, uid, a, b)))

    outputs = [visit(e) for e in exprs]
    slot = {uid: k for k, (uid, _) in enumerate(coords + literals)}
    for entry in code:
        if entry[0] != "literal":
            slot[entry[1]] = len(slot)
    renumbered = []
    for entry in code:
        if entry[0] == "literal":
            renumbered.append(("literal", slot[entry[1]], None))
        else:
            op, _, a, b = entry
            if op != "powc" and b is not None:
                b = slot[b]
            renumbered.append((op, slot[a], b))
    return ([index for _, index in coords], [lit for _, lit in literals],
             renumbered, [slot[uid] for uid in outputs])


def _run(program, vals):
    """Replay ``(fn, a, b)`` instructions, appending one value each."""
    append = vals.append
    for fn, a, b in program:
        append(fn(vals[a], vals[b]))


# errors that folding a literal may raise; they are raised again at the
# literal's first use
_FOLD_ERRORS = (FinslerError, ArithmeticError, ValueError)

# the static kind of a slot that holds an instruction's result
_RESULT = ("", None)


def _lower(tape, fold, instruction):
    """The replay program of one mode: ``(program, literal values)``.

    ``fold(literal)`` folds one literal of the tape and
    ``instruction(op, a, b, kinds)`` is the function of one instruction,
    given the static kind of each slot: ``("x", index)`` for a coordinate,
    ``("literal", value)`` for a literal (value None where folding raised)
    and ``_RESULT`` for a result.  Where folding raised, the literal's
    first use folds it again, which raises the same error.
    """
    kinds = [("x", i) for i in tape.coords]
    values = []
    for literal in tape.literals:
        try:
            value = fold(literal)
        except _FOLD_ERRORS:
            value = None
        values.append(value)
        kinds.append(("literal", value))
    program = []
    for op, a, b in tape.code:
        if op == "literal":
            k = a - len(tape.coords)
            if values[k] is None:
                program.append((lambda p, q, lit=tape.literals[k]: fold(lit),
                                a, a))
            continue
        program.append(_step(op, a, b, kinds, instruction))
        kinds.append(_RESULT)
    return program, values


def _step(op, a, b, kinds, instruction):
    """The program entry ``(fn, a, b)`` of one instruction; a ``b`` that
    names no slot is replaced by ``a``."""
    return (instruction(op, a, b, kinds), a,
            a if b is None or op == "powc" else b)


def _fold(literal, leaf, instruction):
    """The value of a literal: its compilation (``_compile`` with
    ``fold``) replayed once with the mode's ``instruction``, each number
    as ``leaf(value)`` and every slot of the kind of a result, so that
    each operation is the one of the mode's plain arithmetic (the full
    Cauchy product of the ``Jet`` operators, for jets)."""
    _, numbers, code, (output,) = literal
    vals = [leaf(v) for v in numbers]
    kinds = [_RESULT] * (len(vals) + len(code))
    _run([_step(op, a, b, kinds, instruction) for op, a, b in code], vals)
    return vals[output]


def _neg(p, q):
    return -p


def _unary(fn):
    return lambda p, q: fn(p)


def _float_instruction(op, a, b, kinds):
    if op == "neg":
        return _neg
    if op == "powc":
        return _scalar_const_pow(b)
    if op == "powe":
        return _scalar_pow
    if op in _SCALAR_OPS:
        return _SCALAR_OPS[op]
    return _unary(_SCALAR_FUNCS[op])


def _fold_floats(literal):
    return _fold(literal, lambda v: v, _float_instruction)


def _lower_floats(tape):
    return _lower(tape, _fold_floats, _float_instruction)


def each(fn, *columns):
    """``fn`` applied point by point to Python floats, so every result has
    the bits of the scalar call; a column may be a float.  The batched
    replay takes exp, ln, sin and cos this way, since numpy's
    transcendental functions may round differently from ``math``'s."""
    args = [c.tolist() if isinstance(c, np.ndarray) else itertools.repeat(c)
            for c in columns]
    return np.array(list(map(fn, *args)), dtype=float)


def _check(fails):
    if np.any(fails):
        raise BatchFailed


def _batch_div(p, q):
    _check(np.abs(q) < 1e-300)
    return p / q


def _batch_sqrt(p, q):
    _check(p <= 0.0)
    return np.sqrt(p)


def _batch_power(p, q):
    """p ** q over arrays with the bits of Python's ``**``.

    ``np.float_power``'s float64 loop calls the C library's pow, the
    function behind Python's float power, and has no SIMD dispatch;
    ``np.power`` may go through SIMD routines (SVML) that round
    differently.  Where Python raises ``OverflowError``, an infinite
    result from a finite base and exponent, this fails.
    """
    out = np.float_power(p, q)
    _check(np.isinf(out) & np.isfinite(p) & np.isfinite(q))
    return out


def _batch_const_pow(r):
    """The batch form of ``_scalar_const_pow(r)``, with its domain rules."""
    if abs(r - round(r)) < 1e-12:
        k = float(round(r))

        def integer(p, q):
            if k < 0:
                _check(np.abs(p) < 1e-300)
            return _batch_power(p, k)
        return integer

    return lambda p, q: _batch_pow(p, r)


def _batch_pow(p, q):
    _check(p <= 0.0)
    return _batch_power(p, q)


def _lower_batch(tape):
    """Float instructions over whole arrays, each with the bits of the
    float replay: the IEEE operations (neg, +, -, *, / and sqrt, whose
    numpy results are the correctly rounded ones) and the powers
    (:func:`_batch_power`) with numpy, exp, ln, sin and cos point by
    point (:func:`each`)."""
    def instruction(op, a, b, kinds):
        if op == "div":
            return _batch_div
        if op == "sqrt":
            return _batch_sqrt
        if op == "powc":
            return _batch_const_pow(b)
        if op == "powe":
            return _batch_pow
        fn = _float_instruction(op, a, b, kinds)
        if op in ("neg", "add", "sub", "mul"):
            return fn
        return lambda p, q: each(fn, p, q)

    return _lower(tape, _fold_floats, instruction)


def _jet_product(ctx, left, right):
    """The kernel of ``Jet.__mul__`` for operands of the given static kinds.

    A literal jet (value v, zero elsewhere) times a jet c has the bits
    of the scalar multiply c * v plus 0.0: the Cauchy product sums the one
    term c[m] * v with signed zeros, from +0.0.
    """
    kind, value = left
    if kind == "literal":
        v = None if value is None else value[0]
        return lambda p, q: q * v + 0.0
    if right[0] == "literal":
        v = None if right[1] is None else right[1][0]
        return lambda p, q: p * v + 0.0
    if right[0] == "x":
        j = right[1]
        return lambda p, q: _shift_product(ctx, p, j, _value(q))
    if kind == "x":
        return lambda p, q: _shift_product(ctx, q, value, _value(p))
    return functools.partial(_cauchy, ctx)


_JET_FUNCS = {"sqrt": _sqrt, "exp": _exp, "ln": _ln, "sin": _sin,
                  "cos": _cos}

# instructions whose kernels take one coefficient vector only
_UNBATCHED = frozenset({"exp", "ln", "sin", "cos", "powe"})


def _coordinates(ctx, var, values):
    """Coefficients of the coordinate jet of ``var`` at each of ``values``,
    one row per value."""
    c = np.zeros((len(values), ctx.ncoef))
    c[:, 0] = values
    c[:, ctx.unit[var]] = 1.0
    return c


def _lower_jets(ctx, tape):
    def fold(literal):
        return _fold(literal, lambda v: constant(ctx, v).c, instruction)

    def instruction(op, a, b, kinds):
        if op == "neg":
            return _neg
        if op == "add":
            return operator.add
        if op == "sub":
            return operator.sub
        if op == "mul":
            return _jet_product(ctx, kinds[a], kinds[b])
        if op == "div":
            if kinds[b][0] == "literal" and kinds[b][1] is not None:
                try:
                    inverse = _recip(ctx, kinds[b][1])
                except FinslerError:
                    return lambda p, q: _recip(ctx, q)
                times = _jet_product(ctx, kinds[a], ("literal", inverse))
                return lambda p, q: times(p, inverse)
            times = _jet_product(ctx, kinds[a], _RESULT)
            return lambda p, q: times(p, _recip(ctx, q))
        if op == "powc":
            var = kinds[a][1] if kinds[a][0] == "x" else None
            return lambda p, q: _power(ctx, p, b, var)
        if op == "powe":
            times = _jet_product(ctx, kinds[b], _RESULT)
            return lambda p, q: _exp(ctx, times(q, _ln(ctx, p)))
        fn = _JET_FUNCS[op]
        return lambda p, q: fn(ctx, p)

    return _lower(tape, fold, instruction)
