"""Truncated multivariate Taylor (jet) arithmetic.

A jet stores the value and all partial derivatives of a function at a point,
up to a fixed total order d <= 4, over m variables.  Coefficients are kept
Taylor-normalized (raw partial divided by the factorial of its multi-index),
which keeps products free of binomial factors: multiplication is then the
plain Cauchy product truncated at degree d.

Degrees are filtered: the degree-k coefficients of any arithmetic result
depend only on degree <= k coefficients of the inputs.  The monomials of
an order-d context open the list of every higher-order context with the
same variables, so a computation whose inputs are valid only to degree d
can run in the order-d context and give the same bits.  The degree in the
first half of the variables (x of the engine's (x, y) contexts) is
filtered the same way, so a context may also cap it (``x_degree``): its
product and shift tables are the full context's, filtered in their order,
so each coefficient it keeps sums the same terms in the same order and has
the same bits as in the full context (Griewank and Walther 2008, ch. 13,
on truncated polynomial arithmetic).

A coordinate jet (from :func:`lift_variable`) has two nonzero coefficients,
so a product with it sums two terms per output instead of every pair of the
Cauchy product.

Each operation is one kernel over raw coefficient vectors (``_cauchy``,
``_shift_product``, ``_recip``, ``_int_power``, ``_power``, ``_compose``
and the functions).  The Jet operators and ``jet_pow`` wrap them, and
compiled expression tapes (``exprlang.Tape``) and the p-power builder
call them directly, without a Jet per operation.  A jet keeps its
reciprocal once computed, so a jet solve divides by each pivot once.

The arithmetic kernels (``_cauchy``, ``_shift_product``, ``_recip``,
``_int_power``, ``_power``, ``_compose``, ``_sqrt``) also take a batch: a
(B, ncoef) array with one coefficient vector per row (Taylor mode over a
leading batch axis; Bettencourt, Johnson and Duvenaud 2019); one factor
of a Cauchy product may stay one vector and is then broadcast.  Row b of
a result has the bits of the kernel applied to row b alone.  A kernel
that would raise for some row raises the error of the first such row.
One vector keeps the plain indexing of the one-point path.  A batch
gathers its terms, multiplies them and builds its bincount index in
scratch arrays that the context keeps for each thread
(``JetContext._buffer``), so a batch costs no fresh allocation per
product; results are fresh arrays.  The reciprocal and the composition
skip the product pairs of a factor known to be zero
(``JetContext._pairs``).
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .errors import DegenerateValue, DomainError

MAX_ORDER = 4
MAX_VARS = 16  # enough for base + fiber variables of an 8-dimensional chart
# the largest scratch array a context keeps, in elements (1 MiB of
# floats); a batch whose temporaries are larger allocates them afresh
SCRATCH_LIMIT = 1 << 17
# a division by a jet or scalar whose value is below this raises
DIV_FLOOR = 1e-14


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
    """Shared workspace: monomial order, multiplication tables (immutable)
    and the batched kernels' scratch (``_buffer``), one set per thread, so
    threads may share a context.

    All jets taking part in one computation must share a context with the
    same (num_vars, order, x_degree).  Use :func:`get_context` to reuse
    cached tables.

    ``x_degree`` caps the total degree in the first ``num_vars // 2``
    variables, the base point x of the engine's (x, y) contexts; None keeps
    every monomial of total degree <= order.  A capped context keeps the
    monomials of the full one whose x-degree is within the cap, in their
    order, and its product and shift tables are the full context's
    filtered in their order.
    """

    def __init__(self, num_vars, order, x_degree=None):
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
        if not 1 <= num_vars <= MAX_VARS:
            raise ValueError(f"num_vars must be in 1..{MAX_VARS}, got {num_vars}")
        if x_degree is not None and x_degree < 1:
            raise ValueError(f"x_degree must be at least 1, got {x_degree}")
        if x_degree is not None and x_degree >= order:
            x_degree = None  # the cap drops nothing
        self.num_vars = num_vars
        self.order = order
        self.x_degree = x_degree
        self.key = (num_vars, order, x_degree)
        self._pair_tables = {}
        self._local = threading.local()
        if x_degree is None:
            self._set_monomials(_monomials(num_vars, order))
            self._build_tables()
        else:
            self._filter(get_context(num_vars, order), x_degree)

    def _set_monomials(self, monomials):
        self.monomials = monomials
        self.ncoef = len(monomials)
        self.index = {mono: i for i, mono in enumerate(monomials)}
        # index of the unit monomial of each variable
        num_vars = self.num_vars
        self.unit = [self.index[tuple(int(v == u) for v in range(num_vars))]
                     for u in range(num_vars)]
        self.degree = np.array([sum(m) for m in monomials])
        self.factorial = np.array(
            [math.prod(math.factorial(e) for e in m) for m in monomials],
            dtype=float,
        )

    def _build_tables(self):
        num_vars, order = self.num_vars, self.order
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
        # a product by the coordinate x_v (``_shift_product``) sums the
        # terms a[source] into ``target``: the first ``shifted`` are a[m]
        # into m + e_v for each monomial m below the top degree, the rest
        # a[m] (times the value) into m
        self._shift = []
        every = np.arange(self.ncoef, dtype=np.intp)
        for v in range(num_vars):
            lower, upper = [], []
            for i, m in enumerate(self.monomials):
                if sum(m) >= order:
                    continue
                lower.append(i)
                upper.append(self.index[m[:v] + (m[v] + 1,) + m[v + 1:]])
            lower = np.array(lower, dtype=np.intp)
            upper = np.array(upper, dtype=np.intp)
            self._shift.append((np.concatenate((lower, every)),
                                np.concatenate((upper, every)), len(lower)))

    def _filter(self, full, x_degree):
        """The product and shift tables of ``full`` kept where every
        monomial they index has x-degree <= x_degree, in their order and
        renumbered.

        The dropped monomials are closed under multiplication by any
        monomial, so an entry whose target (product, m + e_v) is kept
        reads kept monomials only: each kept coefficient sums the terms
        it sums in ``full``, in the same order, and keeps its bits.
        """
        n = self.num_vars // 2
        keep = np.array([sum(m[:n]) <= x_degree for m in full.monomials])
        new = np.cumsum(keep) - 1
        self._set_monomials([m for m, k in zip(full.monomials, keep) if k])
        taken = keep[full._mul_k]
        self._mul_i, self._mul_j, self._mul_k = (
            new[t[taken]] for t in (full._mul_i, full._mul_j, full._mul_k))
        self._shift = []
        for source, target, shifted in full._shift:
            taken = keep[target]
            self._shift.append((new[source[taken]], new[target[taken]],
                                int(taken[:shifted].sum())))

    def _pairs(self, low_a, low_b):
        """The (i, j, k) pairs of the Cauchy product whose first factor
        has degree >= low_a and second degree >= low_b, in table order.

        Where the coefficients of a below degree low_a and of b below
        degree low_b are zeros, the pairs left out add only zeros: on
        finite coefficients the product over these pairs has the bits of
        the full product, -0.0 included, as for ``_shift_product``.
        """
        table = self._pair_tables.get((low_a, low_b))
        if table is None:
            taken = ((self.degree[self._mul_i] >= low_a)
                     & (self.degree[self._mul_j] >= low_b))
            table = self._pair_tables[low_a, low_b] = (
                self._mul_i[taken], self._mul_j[taken], self._mul_k[taken])
        return table

    def _buffer(self, role, shape, dtype=float):
        """An uninitialised array of ``shape`` over the scratch of ``role``.

        The batched kernels gather their terms and build their bincount
        index in scratch kept on the context and grown to the largest
        batch seen, up to ``SCRATCH_LIMIT`` elements, so a batch costs no
        fresh allocation of its (rows x pairs) temporaries.  Their results
        are always fresh arrays, never views of scratch.  Each thread has
        its own scratch (``_scratch``).
        """
        size = math.prod(shape)
        if size > SCRATCH_LIMIT:
            return np.empty(shape, dtype)
        scratch = self._scratch
        buf = scratch.get(role)
        if buf is None or buf.size < size:
            buf = scratch[role] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    @property
    def _scratch(self):
        """The calling thread's scratch arrays, by role."""
        return self._local.__dict__

    def compatible(self, other):
        return self is other or self.key == other.key

    def __repr__(self):
        cap = "" if self.x_degree is None else f", x_degree={self.x_degree}"
        return f"JetContext(num_vars={self.num_vars}, order={self.order}{cap})"


_CONTEXT_CACHE: dict[tuple[int, int, int | None], JetContext] = {}


def get_context(num_vars, order, x_degree=None):
    """Cached JetContext for (num_vars, order) with the x-degree cap
    ``x_degree`` (None for none)."""
    if x_degree is not None and x_degree >= order:
        x_degree = None
    key = (num_vars, order, x_degree)
    ctx = _CONTEXT_CACHE.get(key)
    if ctx is None:
        ctx = _CONTEXT_CACHE[key] = JetContext(num_vars, order,
                                               x_degree=x_degree)
    return ctx


def _gather_into(ctx, role, a, idx):
    """``a.take(idx, axis=-1)`` into the context's scratch of ``role``."""
    out = ctx._buffer(role, a.shape[:-1] + (len(idx),))
    return np.take(a, idx, axis=-1, out=out, mode="clip")


def _rows_bincount(ctx, index, terms):
    """``np.bincount(index, row, ncoef)`` for every row of ``terms``, whose
    leading axes may be any batch shape.

    One bincount over the flattened batch, with each row's bins offset by
    ``ncoef``: every bin sums the same terms, in the same order, from the
    same +0.0, as the bincount of its own row.  ``terms`` is contiguous;
    the flat index is built in the context's scratch.
    """
    ncoef = ctx.ncoef
    lead = terms.shape[:-1]
    rows = math.prod(lead)
    if not rows:  # np.bincount of nothing would be an integer array
        return np.zeros(lead + (ncoef,))
    flat = ctx._buffer("index", (rows, len(index)), np.intp)
    np.add(index, (ncoef * np.arange(rows))[:, None], out=flat)
    return np.bincount(flat.reshape(-1), terms.reshape(-1),
                       rows * ncoef).reshape(*lead, ncoef)


def _value(c):
    """The value coefficient of a coefficient vector, or of each row."""
    return c[0] if c.ndim == 1 else c[:, 0]


def _raise_first(kernel, ctx, c, bad, *args):
    """Where ``bad`` holds for some row of the batch ``c``, run the
    one-point ``kernel`` on the first such row, which raises its error."""
    if bad.any():
        kernel(ctx, c[bad.argmax()], *args)


def _cauchy(ctx, a, b):
    """Truncated Cauchy product of two coefficient vectors of ``ctx``."""
    return _pair_product(ctx, a, b, (ctx._mul_i, ctx._mul_j, ctx._mul_k))


def _pair_product(ctx, a, b, pairs):
    """The sum of a[i] * b[j] into k over the (i, j, k) ``pairs``, each
    output from +0.0 in pair order; a batch is gathered and multiplied in
    scratch."""
    mul_i, mul_j, mul_k = pairs
    if a.ndim == 1 == b.ndim:
        prod = a[mul_i] * b[mul_j]
        return np.bincount(mul_k, weights=prod, minlength=ctx.ncoef)
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    left = _gather_into(ctx, "left", a, mul_i)
    right = _gather_into(ctx, "right", b, mul_j)
    if right.shape[:-1] == lead:
        prod = right
    elif left.shape[:-1] == lead:
        prod = left
    else:
        prod = ctx._buffer("product", lead + (len(mul_k),))
    np.multiply(left, right, out=prod)
    return _rows_bincount(ctx, mul_k, prod)


def _shift_product(ctx, a, var, value):
    """Coefficient vector ``a`` times the coordinate x_var = value + unit.

    The Cauchy product restricted to the two nonzero coefficients of the
    coordinate: output m sums a[m - e_var] (times 1) and then
    a[m] * value, from +0.0, as the full product does.  On finite
    coefficients the pairs left out add only zeros, so the bits are the
    Cauchy product's, -0.0 included.  ``value`` may be an array of the
    coordinate's values, one per row of a batch ``a`` (shaped like its
    leading axes); with one vector ``a`` it makes a batch, row b the
    product by the coordinate at value[b].
    """
    source, target, shifted = ctx._shift[var]
    batched = isinstance(value, np.ndarray)
    if a.ndim == 1 and not batched:
        terms = a[source]
        terms[shifted:] *= value
        return np.bincount(target, terms, len(a))
    if not batched:
        terms = _gather_into(ctx, "terms", a, source)
        terms[..., shifted:] *= value
    elif a.ndim == 1:  # the one vector a at each of the values
        terms = ctx._buffer("terms", value.shape + (len(source),))
        terms[...] = a[source]
        terms[..., shifted:] *= value[..., None]
    else:
        terms = _gather_into(ctx, "terms", a, source)
        terms[..., shifted:] *= value[..., None]
    return _rows_bincount(ctx, target, terms)


def _product(a, b):
    """Coefficients of the truncated product of jets ``a`` and ``b``."""
    if type(b) is CoordinateJet:
        return _shift_product(a.ctx, a.c, b.var, b.c[0])
    if type(a) is CoordinateJet:
        return _shift_product(a.ctx, b.c, a.var, a.c[0])
    return _cauchy(a.ctx, a.c, b.c)


def _one(ctx):
    c = np.zeros(ctx.ncoef)
    c[0] = 1.0
    return c


def _recip(ctx, c):
    """Coefficients of 1 / c."""
    if c.ndim == 1:
        b0 = c[0]
        if abs(b0) < DIV_FLOOR:
            raise DegenerateValue(
                f"division by a jet with value {float(b0)!r} below the floor")
        u = c / b0
        u[0] = 0.0
    else:
        b0 = c[:, :1]
        _raise_first(_recip, ctx, c, np.abs(b0[:, 0]) < DIV_FLOOR)
        u = c / b0
        u[:, 0] = 0.0
    # 1/b = (1 - u + u^2 - ...) / b0, truncated; u has no constant term,
    # so its products skip the pairs of u's zero (``JetContext._pairs``).
    # Step s fixes the degree-s coefficients, so ``order`` steps are
    # enough; the first, 1 - u * 1, needs no product.
    one = _one(ctx)
    inv = one - u
    for _ in range(ctx.order - 1):
        inv = one - _pair_product(ctx, u, inv, ctx._pairs(1, 0))
    return inv / b0


def _int_power(ctx, c, k, var=None):
    """c ** k by squaring, low bit first; ``var`` marks a coordinate c.

    Where a product by the constant 1 would stand (the first factor, and
    1 / c ** -k) the other factor is copied with ``+ 0.0``, which gives
    the bits that product gives; the square after the top bit is skipped.
    The first square of a coordinate is a shift product.
    """
    if k < 0:
        return _recip(ctx, _int_power(ctx, c, -k, var)) + 0.0
    if k == 0:
        return np.broadcast_to(_one(ctx), c.shape).copy()
    result = None
    base = c
    while True:
        if k & 1:
            result = base + 0.0 if result is None else _cauchy(ctx, result, base)
        k >>= 1
        if not k:
            return result
        if var is None:
            base = _cauchy(ctx, base, base)
        else:
            base = _shift_product(ctx, base, var, _value(base))
            var = None


def _compose(ctx, c, derivs):
    """Sum f^(k)(v)/k! * h^k for h = c - value, given derivs[k] = f^(k)(v).

    For a batch, each derivs[k] is the array of the rows' derivatives; a
    row whose derivative is zero skips its term, as one vector does.
    h has no constant term and h^k no term below degree k, so h^k = h^(k-1)
    * h skips the pairs of those zeros (``JetContext._pairs``).
    """
    batched = c.ndim > 1
    h = c.copy()
    out = np.zeros(c.shape)
    if batched:
        h[:, 0] = 0.0
        out[:, 0] = derivs[0]
    else:
        h[0] = 0.0
        out[0] = float(derivs[0])
    hpow = None
    fact = 1.0
    for k in range(1, ctx.order + 1):
        hpow = h if hpow is None else _pair_product(ctx, hpow, h,
                                                    ctx._pairs(k - 1, 1))
        fact *= k
        if batched:
            nonzero = derivs[k] != 0.0
            term = out + hpow * (derivs[k] / fact)[:, None]
            out = term if nonzero.all() else np.where(nonzero[:, None],
                                                      term, out)
        elif derivs[k] != 0.0:
            out = out + hpow * float(derivs[k] / fact)
    return out


def _power_derivatives(v, r, order):
    """The derivatives of t ** r at t = v, orders 0..order: a list for a
    value v, and an (order + 1, B) array for an array of B values.

    A value's powers are its own ``**``; an array's are one
    ``np.float_power`` call, whose float64 loop calls the C library's pow,
    as a numpy scalar's ``**`` does, so each entry has the bits of its
    value's.  ``np.power`` may go through SIMD routines (SVML) that round
    differently.
    """
    if isinstance(v, np.ndarray):
        exponents, factors = _power_factors(r, order)
        return np.float_power(v, exponents) * factors
    derivs = [v ** r]
    coef = 1.0
    for k in range(1, order + 1):
        coef *= r - (k - 1)
        derivs.append(coef * v ** (r - k))
    return derivs


@functools.lru_cache(maxsize=64)
def _power_factors(r, order):
    """The columns of exponents r - k and of factors r (r - 1) ... (r - k
    + 1), k = 0..order, rounded as in :func:`_power_derivatives`'s loop
    (the factor 1.0 of k = 0 changes no bit)."""
    factors = [1.0]
    for k in range(1, order + 1):
        factors.append(factors[-1] * (r - (k - 1)))
    return (r - np.arange(order + 1.0))[:, None], np.array(factors)[:, None]


def _power(ctx, c, r, var=None):
    """c ** r for real r; non-integer r requires a strictly positive value.

    A batch takes the derivatives of all its values at once
    (:func:`_power_derivatives`).
    """
    if abs(r - round(r)) < 1e-12:
        return _int_power(ctx, c, int(round(r)), var)
    if c.ndim > 1:
        _raise_first(_power, ctx, c, c[:, 0] <= 0.0, r)
        return _compose(ctx, c, _power_derivatives(c[:, 0], r, ctx.order))
    v = c[0]
    if v <= 0.0:
        raise DomainError(f"non-integer power {float(r)!r} of nonpositive "
                          f"value {float(v)!r}")
    return _compose(ctx, c, _power_derivatives(v, r, ctx.order))


def _sqrt(ctx, c):
    if c.ndim > 1:
        _raise_first(_sqrt, ctx, c, c[:, 0] <= 0.0)
    elif c[0] <= 0.0:
        raise DomainError(f"sqrt of nonpositive value {float(c[0])!r}")
    return _power(ctx, c, 0.5)


def _exp(ctx, c):
    e = math.exp(c[0])
    return _compose(ctx, c, [e] * (ctx.order + 1))


def _ln(ctx, c):
    v = c[0]
    if v <= 0.0:
        raise DomainError(f"ln of nonpositive value {float(v)!r}")
    derivs = [math.log(v)]
    for k in range(1, ctx.order + 1):
        derivs.append((-1.0) ** (k - 1) * math.factorial(k - 1) / v ** k)
    return _compose(ctx, c, derivs)


def _sin(ctx, c):
    v = c[0]
    cycle = [math.sin(v), math.cos(v), -math.sin(v), -math.cos(v)]
    return _compose(ctx, c, [cycle[k % 4] for k in range(ctx.order + 1)])


def _cos(ctx, c):
    v = c[0]
    cycle = [math.cos(v), -math.sin(v), -math.cos(v), math.sin(v)]
    return _compose(ctx, c, [cycle[k % 4] for k in range(ctx.order + 1)])


class Jet:
    """A truncated Taylor expansion; treat instances as immutable."""

    __slots__ = ("ctx", "c", "_inv")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.c = coeffs
        self._inv = None

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
        kind = type(other)
        if kind is Jet and other.ctx is ctx:  # same-context fast paths
            if type(self) is Jet:
                return Jet(ctx, _cauchy(ctx, self.c, other.c))
            return Jet(ctx, _shift_product(ctx, other.c, self.var, self.c[0]))
        if kind is CoordinateJet and other.ctx is ctx:
            return Jet(ctx, _shift_product(ctx, self.c, other.var, other.c[0]))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not isinstance(other, Jet):  # scalar fast path
            return Jet(ctx, self.c * float(other))
        return Jet(ctx, _product(self, o))

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
            if abs(d) < DIV_FLOOR:
                raise DegenerateValue("division by a scalar below the floor")
            return Jet(self.ctx, self.c / d)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._reciprocal()

    def _reciprocal(self):
        """The jet of 1 / self, computed once and kept on the jet."""
        inv = self._inv
        if inv is None:
            inv = self._inv = Jet(self.ctx, _recip(self.ctx, self.c))
        return inv

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)):
            return _int_pow(self, int(exponent))
        if isinstance(exponent, (float, np.floating)):
            return jet_pow(self, float(exponent))
        return NotImplemented

    def partial(self, multi_index):
        return extract_partial(self, multi_index)

    def __repr__(self):
        return f"Jet(value={self.c[0]!r}, ctx={self.ctx!r})"


class CoordinateJet(Jet):
    """The jet of coordinate ``var``: a value plus a unit first derivative.

    ``Jet.__mul__`` multiplies by it with :func:`_shift_product`; it
    defines no operator of its own.  Anything computed from it is a plain
    Jet.
    """

    __slots__ = ("var",)

    def __init__(self, ctx, coeffs, var):
        self.ctx = ctx
        self.c = coeffs
        self._inv = None
        self.var = var


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
    return CoordinateJet(ctx, c, index)


def extract_partial(jet, multi_index):
    """Raw partial derivative (Taylor coefficient times multi-index factorial)."""
    mono = tuple(int(e) for e in multi_index)
    if len(mono) != jet.ctx.num_vars or any(e < 0 for e in mono):
        raise ValueError(f"bad multi-index {multi_index!r}")
    if sum(mono) > jet.ctx.order:
        raise ValueError(
            f"multi-index degree {sum(mono)} exceeds jet order {jet.ctx.order}")
    i = jet.ctx.index.get(mono)
    if i is None:
        raise ValueError(f"multi-index {mono!r} exceeds the context's "
                         f"x-degree cap {jet.ctx.x_degree}")
    return jet.c[i] * jet.ctx.factorial[i]


class PartialTable:
    """Where the first and second partials sit in one jet context.

    ``unit[v]`` indexes the monomial of z^v and ``pair[v][w]`` that of
    z^v z^w (order 2 and up), as index arrays into a coefficient vector;
    :func:`read_partials` turns one of them into raw partials with a
    single gather.  Where an x-degree cap drops z^v z^w, ``pair[v][w]``
    is ``ncoef``, out of range, so a gather of it raises IndexError.
    """

    def __init__(self, ctx):
        m = ctx.num_vars
        self.unit = np.array(ctx.unit, dtype=np.intp)

        def pair(v, w):
            mono = [0] * m
            mono[v] += 1
            mono[w] += 1
            return ctx.index.get(tuple(mono), ctx.ncoef)

        self.pair = np.array([[pair(v, w) for w in range(m)]
                              for v in range(m)], dtype=np.intp)


@functools.cache
def partial_table(ctx):
    """The context's :class:`PartialTable`, built on first use."""
    return PartialTable(ctx)


def read_partials(coeffs, idx, ctx):
    """Raw partials at monomial indices ``idx`` of the last axis of ``coeffs``.

    Entry by entry this is ``extract_partial``: coefficient times factorial.
    """
    return coeffs.take(idx, axis=-1) * ctx.factorial[idx]


def _int_pow(jet, k):
    """jet ** k for an integer k (see :func:`_int_power`)."""
    var = jet.var if type(jet) is CoordinateJet else None
    return Jet(jet.ctx, _int_power(jet.ctx, jet.c, k, var))


def jet_pow(jet, r):
    """jet ** r for real r; non-integer r requires a strictly positive value."""
    var = jet.var if type(jet) is CoordinateJet else None
    return Jet(jet.ctx, _power(jet.ctx, jet.c, r, var))
