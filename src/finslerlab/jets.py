"""Truncated multivariate Taylor (jet) arithmetic.

A jet stores the value and all partial derivatives of a function at a point,
up to a fixed total order d <= 4, over m variables.  Coefficients are kept
Taylor-normalized (raw partial divided by the factorial of its multi-index),
which keeps products free of binomial factors: multiplication is then the
plain Cauchy product truncated at degree d.

Degrees are filtered: the degree-k coefficients of any arithmetic result
depend only on degree <= k coefficients of the inputs, so differentiating a
jet (which loses one order of validity) never corrupts the surviving orders.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateValue, DomainError

MAX_ORDER = 4
MAX_VARS = 16  # enough for base + fiber variables of an 8-dimensional chart


def _monomials(num_vars, order):
    """All exponent tuples with total degree <= order, graded lexicographic."""
    by_degree = [[(0,) * num_vars]]
    for _ in range(order):
        level = []
        seen = set()
        for mono in by_degree[-1]:
            for v in range(num_vars):
                bumped = mono[:v] + (mono[v] + 1,) + mono[v + 1:]
                if bumped not in seen:
                    seen.add(bumped)
                    level.append(bumped)
        by_degree.append(sorted(level))
    out = []
    for level in by_degree:
        out.extend(level)
    return out


class JetContext:
    """Shared immutable workspace: monomial order and multiplication table.

    All jets taking part in one computation must share a context with the
    same (num_vars, order).  Use :func:`get_context` to reuse cached tables.
    """

    def __init__(self, num_vars, order, div_floor=1e-14):
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
        if not 1 <= num_vars <= MAX_VARS:
            raise ValueError(f"num_vars must be in 1..{MAX_VARS}, got {num_vars}")
        self.num_vars = num_vars
        self.order = order
        self.div_floor = div_floor
        self.monomials = _monomials(num_vars, order)
        self.ncoef = len(self.monomials)
        self.index = {mono: i for i, mono in enumerate(self.monomials)}
        # index of the unit monomial of each variable
        self.unit = [self.index[tuple(int(v == u) for v in range(num_vars))]
                     for u in range(num_vars)]
        self.degree = np.array([sum(m) for m in self.monomials])
        self.factorial = np.array(
            [math.prod(math.factorial(e) for e in m) for m in self.monomials],
            dtype=float,
        )
        mi, mj, mk = [], [], []
        for i, a in enumerate(self.monomials):
            da = sum(a)
            for j, b in enumerate(self.monomials):
                if da + sum(b) > order:
                    continue
                mi.append(i)
                mj.append(j)
                mk.append(self.index[tuple(x + y for x, y in zip(a, b))])
        self._mul_i = np.array(mi, dtype=np.intp)
        self._mul_j = np.array(mj, dtype=np.intp)
        self._mul_k = np.array(mk, dtype=np.intp)
        # per-variable tables for d/dx_v: dst gets (exp_v+1) * src
        self._deriv = []
        for v in range(num_vars):
            dst, src, fac = [], [], []
            for i, m in enumerate(self.monomials):
                if sum(m) >= order:
                    continue
                bumped = m[:v] + (m[v] + 1,) + m[v + 1:]
                dst.append(i)
                src.append(self.index[bumped])
                fac.append(m[v] + 1)
            self._deriv.append(
                (np.array(dst, dtype=np.intp),
                 np.array(src, dtype=np.intp),
                 np.array(fac, dtype=float))
            )

    def compatible(self, other):
        return (self is other
                or (self.num_vars == other.num_vars and self.order == other.order))

    def __repr__(self):
        return f"JetContext(num_vars={self.num_vars}, order={self.order})"


_CONTEXT_CACHE: dict[tuple[int, int], JetContext] = {}


def get_context(num_vars, order):
    """Cached JetContext for (num_vars, order)."""
    key = (num_vars, order)
    ctx = _CONTEXT_CACHE.get(key)
    if ctx is None:
        ctx = _CONTEXT_CACHE[key] = JetContext(num_vars, order)
    return ctx


def _cauchy(ctx, a, b):
    """Truncated Cauchy product of two coefficient vectors of ``ctx``."""
    prod = a[ctx._mul_i] * b[ctx._mul_j]
    return np.bincount(ctx._mul_k, weights=prod, minlength=ctx.ncoef)


class Jet:
    """A truncated Taylor expansion; treat instances as immutable."""

    __slots__ = ("ctx", "c")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.c = coeffs

    @property
    def value(self):
        return self.c[0]

    def _coerce(self, other):
        if isinstance(other, Jet):
            if not self.ctx.compatible(other.ctx):
                raise ValueError("jet context mismatch")
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return constant(self.ctx, float(other))
        return None

    def __add__(self, other):
        if type(other) is Jet and other.ctx is self.ctx:
            return Jet(self.ctx, self.c + other.c)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.ctx, self.c + o.c)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Jet and other.ctx is self.ctx:
            return Jet(self.ctx, self.c - other.c)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.ctx, self.c - o.c)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.ctx, o.c - self.c)

    def __neg__(self):
        return Jet(self.ctx, -self.c)

    def __mul__(self, other):
        ctx = self.ctx
        if type(other) is Jet and other.ctx is ctx:  # same-context fast path
            return Jet(ctx, _cauchy(ctx, self.c, other.c))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not isinstance(other, Jet):  # scalar fast path
            return Jet(ctx, self.c * float(other))
        return Jet(ctx, _cauchy(ctx, self.c, o.c))

    def __rmul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.ctx, self.c * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if type(other) is Jet and other.ctx is self.ctx:
            return self * other._reciprocal()
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not isinstance(other, Jet):
            d = float(other)
            if abs(d) < self.ctx.div_floor:
                raise DegenerateValue("division by a scalar below the floor")
            return Jet(self.ctx, self.c / d)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._reciprocal()

    def _reciprocal(self):
        ctx = self.ctx
        b0 = self.c[0]
        if abs(b0) < ctx.div_floor:
            raise DegenerateValue(
                f"division by a jet with value {b0!r} below the floor")
        u = Jet(ctx, self.c / b0)
        u.c[0] = 0.0
        # 1/b = (1 - u + u^2 - ...) / b0, truncated; u has no constant term
        inv = constant(ctx, 1.0)
        for _ in range(ctx.order):
            inv = 1.0 - u * inv
        return Jet(ctx, inv.c / b0)

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)):
            return _int_pow(self, int(exponent))
        if isinstance(exponent, (float, np.floating)):
            return jet_pow(self, float(exponent))
        return NotImplemented

    def derivative(self, var):
        """Jet of the partial derivative with respect to variable ``var``.

        The result is exact to order (d - 1); its top-degree coefficients are
        zero because they are not determined by the input truncation.
        """
        ctx = self.ctx
        dst, src, fac = ctx._deriv[var]
        out = np.zeros(ctx.ncoef)
        out[dst] = self.c[src] * fac
        return Jet(ctx, out)

    def partial(self, multi_index):
        return extract_partial(self, multi_index)

    def __repr__(self):
        return f"Jet(value={self.c[0]!r}, ctx={self.ctx!r})"


def constant(ctx, value):
    c = np.zeros(ctx.ncoef)
    c[0] = float(value)
    return Jet(ctx, c)


def lift_variable(ctx, index, value):
    """Coordinate jet: value plus unit first derivative in variable ``index``."""
    if not 0 <= index < ctx.num_vars:
        raise IndexError(
            f"variable index {index} out of range for {ctx.num_vars} variables")
    c = np.zeros(ctx.ncoef)
    c[0] = float(value)
    c[ctx.unit[index]] = 1.0
    return Jet(ctx, c)


def extract_partial(jet, multi_index):
    """Raw partial derivative (Taylor coefficient times multi-index factorial)."""
    mono = tuple(int(e) for e in multi_index)
    if len(mono) != jet.ctx.num_vars or any(e < 0 for e in mono):
        raise ValueError(f"bad multi-index {multi_index!r}")
    if sum(mono) > jet.ctx.order:
        raise ValueError(
            f"multi-index degree {sum(mono)} exceeds jet order {jet.ctx.order}")
    i = jet.ctx.index[mono]
    return jet.c[i] * jet.ctx.factorial[i]


def _int_pow(jet, k):
    if k < 0:
        return constant(jet.ctx, 1.0) / _int_pow(jet, -k)
    result = constant(jet.ctx, 1.0)
    base = jet
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def _compose(jet, derivs):
    """Sum f^(k)(v)/k! * h^k for h = jet - value, given derivs[k] = f^(k)(v)."""
    ctx = jet.ctx
    h = Jet(ctx, jet.c.copy())
    h.c[0] = 0.0
    out = constant(ctx, derivs[0])
    hpow = None
    fact = 1.0
    for k in range(1, ctx.order + 1):
        hpow = h if hpow is None else hpow * h
        fact *= k
        if derivs[k] != 0.0:
            out = out + (derivs[k] / fact) * hpow
    return out


def jet_sqrt(jet):
    if jet.value <= 0.0:
        raise DomainError(f"sqrt of nonpositive value {jet.value!r}")
    return jet_pow(jet, 0.5)


def jet_exp(jet):
    e = math.exp(jet.value)
    return _compose(jet, [e] * (jet.ctx.order + 1))

def jet_ln(jet):
    v = jet.value
    if v <= 0.0:
        raise DomainError(f"ln of nonpositive value {v!r}")
    derivs = [math.log(v)]
    for k in range(1, jet.ctx.order + 1):
        derivs.append((-1.0) ** (k - 1) * math.factorial(k - 1) / v ** k)
    return _compose(jet, derivs)


def jet_sin(jet):
    v = jet.value
    cycle = [math.sin(v), math.cos(v), -math.sin(v), -math.cos(v)]
    return _compose(jet, [cycle[k % 4] for k in range(jet.ctx.order + 1)])


def jet_cos(jet):
    v = jet.value
    cycle = [math.cos(v), -math.sin(v), -math.cos(v), math.sin(v)]
    return _compose(jet, [cycle[k % 4] for k in range(jet.ctx.order + 1)])


def jet_pow(jet, r):
    """jet ** r for real r; non-integer r requires a strictly positive value."""
    if abs(r - round(r)) < 1e-12:
        return _int_pow(jet, int(round(r)))
    v = jet.value
    if v <= 0.0:
        raise DomainError(
            f"non-integer power {r!r} of nonpositive value {v!r}")
    derivs = [v ** r]
    coef = 1.0
    for k in range(1, jet.ctx.order + 1):
        coef *= r - (k - 1)
        derivs.append(coef * v ** (r - k))
    return _compose(jet, derivs)


_FUNCS = {
    "sqrt": jet_sqrt,
    "exp": jet_exp,
    "ln": jet_ln,
    "sin": jet_sin,
    "cos": jet_cos,
}

_ARITH = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "neg": lambda a, b: -a,
}


def jet_func(name, jet, r=None):
    """Dispatch by name: sqrt, exp, ln, sin, cos, or pow_real (with r)."""
    if name == "pow_real":
        if r is None:
            raise ValueError("pow_real needs an exponent")
        return jet_pow(jet, r)
    try:
        f = _FUNCS[name]
    except KeyError:
        raise ValueError(f"unknown jet function {name!r}") from None
    return f(jet)


def jet_arith(op, a, b=None):
    """Dispatch by name: add, sub, mul, div (binary) or neg (unary)."""
    try:
        f = _ARITH[op]
    except KeyError:
        raise ValueError(f"unknown jet operation {op!r}") from None
    if op != "neg" and b is None:
        raise ValueError(f"{op} needs two operands")
    return f(a, b)
