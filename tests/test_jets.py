import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import DegenerateValue, DomainError, FinslerError, jets
from finslerlab.jets import (
    CoordinateJet,
    Jet,
    JetContext,
    _cauchy,
    _compose,
    _int_power,
    _power,
    _power_derivatives,
    _recip,
    _shift_product,
    _sqrt,
    constant,
    extract_partial,
    get_context,
    jet_cos,
    jet_exp,
    jet_ln,
    jet_pow,
    jet_sin,
    jet_sqrt,
    lift_variable,
    partial_table,
    read_partials,
)
from fdtools import fd_partial, rel_err


def test_lift_variable_basic():
    ctx = get_context(2, 2)
    j = lift_variable(ctx, 0, 3.0)
    assert extract_partial(j, (0, 0)) == 3.0
    assert extract_partial(j, (1, 0)) == 1.0
    assert extract_partial(j, (0, 1)) == 0.0
    assert extract_partial(j, (2, 0)) == 0.0
    assert extract_partial(j, (1, 1)) == 0.0


def test_lift_then_square():
    ctx = get_context(2, 2)
    x0 = lift_variable(ctx, 0, 3.0)
    sq = x0 * x0
    assert extract_partial(sq, (0, 0)) == 9.0
    assert extract_partial(sq, (1, 0)) == 6.0
    assert extract_partial(sq, (2, 0)) == 2.0


def test_lift_order_one():
    ctx = get_context(1, 1)
    j = lift_variable(ctx, 0, 0.0)
    assert j.value == 0.0
    assert extract_partial(j, (1,)) == 1.0


def test_lift_index_out_of_range():
    ctx = get_context(2, 2)
    with pytest.raises(IndexError):
        lift_variable(ctx, 2, 1.0)


def test_polynomial_partials():
    ctx = get_context(2, 3)
    x0 = lift_variable(ctx, 0, 3.0)
    x1 = lift_variable(ctx, 1, 2.0)
    p = x0 * x0 * x1
    # d2/dx0^2 (x0^2 x1) = 2 x1 = 4 at x1=2
    assert extract_partial(p, (2, 0)) == pytest.approx(4.0)
    assert extract_partial(p, (2, 1)) == pytest.approx(2.0)
    assert extract_partial(p, (0, 0)) == pytest.approx(18.0)


def test_reciprocal_series():
    ctx = get_context(1, 2)
    x = lift_variable(ctx, 0, 0.0)
    inv = 1.0 / (1.0 + x)
    assert extract_partial(inv, (0,)) == pytest.approx(1.0)
    assert extract_partial(inv, (1,)) == pytest.approx(-1.0)
    assert extract_partial(inv, (2,)) == pytest.approx(2.0)


def test_division_by_zero_value():
    ctx = get_context(1, 2)
    x = lift_variable(ctx, 0, 0.0)
    with pytest.raises(DegenerateValue):
        (1.0 + x) / x


def test_context_mismatch():
    a = lift_variable(get_context(1, 2), 0, 1.0)
    b = lift_variable(get_context(2, 2), 0, 1.0)
    with pytest.raises(ValueError):
        a + b


def test_sqrt_derivatives():
    ctx = get_context(1, 2)
    x = lift_variable(ctx, 0, 4.0)
    r = jet_sqrt(x)
    assert extract_partial(r, (0,)) == pytest.approx(2.0)
    assert extract_partial(r, (1,)) == pytest.approx(0.25)
    assert extract_partial(r, (2,)) == pytest.approx(-1.0 / 32.0)


def test_pow_real_matches_repeated_multiplication():
    ctx = get_context(2, 4)
    x0 = lift_variable(ctx, 0, 0.3)
    x1 = lift_variable(ctx, 1, -0.1)
    s = 0.5 * x0 + 0.25 * x1 * x0
    base = 1.0 + s
    via_pow = jet_pow(base, 2.0)
    via_mul = base * base
    np.testing.assert_allclose(via_pow.c, via_mul.c, atol=1e-14)


def test_ln_domain_error():
    ctx = get_context(1, 2)
    x = lift_variable(ctx, 0, 0.0)
    with pytest.raises(DomainError):
        jet_ln(x)
    with pytest.raises(DomainError):
        jet_sqrt(constant(ctx, -1.0))
    with pytest.raises(DomainError):
        jet_pow(constant(ctx, -0.5), 0.5)


def test_extract_errors():
    ctx = get_context(2, 4)
    j = lift_variable(ctx, 0, 1.0)
    with pytest.raises(ValueError):
        extract_partial(j, (5, 0))
    with pytest.raises(ValueError):
        extract_partial(j, (1,))


def test_integer_power_negative_base():
    ctx = get_context(1, 3)
    x = lift_variable(ctx, 0, -2.0)
    cube = x ** 3
    assert extract_partial(cube, (0,)) == pytest.approx(-8.0)
    assert extract_partial(cube, (1,)) == pytest.approx(12.0)
    assert extract_partial(cube, (2,)) == pytest.approx(-12.0)
    inv2 = x ** (-2)
    assert extract_partial(inv2, (0,)) == pytest.approx(0.25)
    assert extract_partial(inv2, (1,)) == pytest.approx(0.25)


def _sample_expression(xs):
    """A composed scalar expression exercising every supported function."""
    x, y, z = xs
    return (math.sqrt(2.0 + x * x + y) * math.exp(0.3 * z - 0.1 * x * y)
            + math.sin(x + 2.0 * y) * math.cos(z)
            + (1.4 + x) ** 1.7
            + math.log(2.5 + y + 0.2 * z * z) / (3.0 + x + y * z))


def _sample_expression_jet(ctx, point):
    x = lift_variable(ctx, 0, point[0])
    y = lift_variable(ctx, 1, point[1])
    z = lift_variable(ctx, 2, point[2])
    return (jet_sqrt(2.0 + x * x + y) * jet_exp(0.3 * z - 0.1 * x * y)
            + jet_sin(x + 2.0 * y) * jet_cos(z)
            + jet_pow(1.4 + x, 1.7)
            + jet_ln(2.5 + y + 0.2 * z * z) / (3.0 + x + y * z))


def test_partials_match_finite_differences():
    ctx = get_context(3, 4)
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        point = rng.uniform(-0.4, 0.4, size=3)
        jet = _sample_expression_jet(ctx, point)
        for mono in ctx.monomials:
            order = sum(mono)
            if order <= 2:
                want = fd_partial(_sample_expression, point, mono, step=1e-4)
                tol = 1e-5
            else:
                want = fd_partial(_sample_expression, point, mono)
                tol = 1e-5
            got = extract_partial(jet, mono)
            assert rel_err(got, want) < tol, (mono, got, want)


def test_mul_commutative_associative():
    ctx = get_context(2, 4)
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = ctx_random(ctx, rng)
        b = ctx_random(ctx, rng)
        c = ctx_random(ctx, rng)
        np.testing.assert_allclose((a * b).c, (b * a).c, atol=1e-13)
        np.testing.assert_allclose(((a * b) * c).c, (a * (b * c)).c, atol=1e-13)


def ctx_random(ctx, rng):
    from finslerlab.jets import Jet
    return Jet(ctx, rng.uniform(-1.0, 1.0, size=ctx.ncoef))


def test_chain_rule_analytic():
    ctx = get_context(1, 4)
    x = lift_variable(ctx, 0, 0.7)
    np.testing.assert_allclose(jet_exp(jet_ln(1.0 + x)).c, (1.0 + x).c,
                               atol=1e-13)
    s2c2 = jet_sin(x) * jet_sin(x) + jet_cos(x) * jet_cos(x)
    np.testing.assert_allclose(s2c2.c, constant(ctx, 1.0).c, atol=1e-13)
    np.testing.assert_allclose(jet_sqrt(x * x).c, x.c, atol=1e-13)


def test_context_validation():
    with pytest.raises(ValueError):
        JetContext(0, 2)
    with pytest.raises(ValueError):
        JetContext(2, 5)
    with pytest.raises(ValueError):
        JetContext(17, 2)


def test_coefficient_count():
    ctx = JetContext(3, 4)
    assert ctx.ncoef == math.comb(3 + 4, 4)
    ctx2 = JetContext(2, 2)
    assert ctx2.ncoef == 6


def test_same_context_fast_path_matches_coerced_path():
    """Jets of a distinct but compatible context take the coerced path;
    its results equal the same-context fast path bit for bit."""
    from finslerlab.jets import Jet
    shared = get_context(3, 4)
    other = JetContext(3, 4)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = Jet(shared, rng.uniform(-1.0, 1.0, size=shared.ncoef))
        b = Jet(shared, rng.uniform(-1.0, 1.0, size=shared.ncoef) + 3.0)
        b_other = Jet(other, b.c.copy())
        for op, fast, coerced in (("add", a + b, a + b_other),
                                  ("sub", a - b, a - b_other),
                                  ("mul", a * b, a * b_other),
                                  ("div", a / b, a / b_other)):
            assert fast.c.tobytes() == coerced.c.tobytes(), op


def test_lift_variable_unit_table():
    ctx = get_context(4, 3)
    for index in range(4):
        j = lift_variable(ctx, index, 0.5)
        unit = tuple(int(v == index) for v in range(4))
        assert np.flatnonzero(j.c).tolist() == [0, ctx.index[unit]]
        assert extract_partial(j, unit) == 1.0
    with pytest.raises(IndexError):
        lift_variable(ctx, 4, 0.0)


# -- products that skip work give the bits of the products they replace --

# zeros of both signs are drawn often, so the sign of every zero is checked
COEFFICIENTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                         st.floats(-50.0, 50.0, allow_nan=False))


def _same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _coefficients(data, ctx, elements=COEFFICIENTS):
    return np.array(data.draw(
        st.lists(elements, min_size=ctx.ncoef, max_size=ctx.ncoef)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       shape=st.sampled_from([(4, 2), (4, 4), (8, 4)]),
       value=st.one_of(st.sampled_from([0.0, -0.0]), COEFFICIENTS))
def test_shift_product_equals_cauchy_product(data, shape, value):
    ctx = get_context(*shape)
    a = Jet(ctx, _coefficients(data, ctx))
    var = data.draw(st.integers(0, ctx.num_vars - 1))
    x = lift_variable(ctx, var, value)
    assert type(x) is CoordinateJet
    _same_bits((a * x).c, _cauchy(ctx, a.c, x.c))
    _same_bits((x * a).c, _cauchy(ctx, x.c, a.c))
    other = lift_variable(ctx, data.draw(st.integers(0, ctx.num_vars - 1)),
                          data.draw(COEFFICIENTS))
    _same_bits((x * other).c, _cauchy(ctx, x.c, other.c))
    assert type(a * x) is Jet and type(x * 2.0) is Jet


def _one(ctx):
    return constant(ctx, 1.0).c


def _loop_reciprocal(ctx, c):
    """The reciprocal as a loop of full products, starting from 1."""
    b0 = c[0]
    u = c / b0
    u[0] = 0.0
    inv = _one(ctx)
    for _ in range(ctx.order):
        inv = _one(ctx) - _cauchy(ctx, u, inv)
    return inv / b0


def _loop_int_pow(ctx, c, k):
    """Square-and-multiply from 1, squaring after every bit."""
    if k < 0:
        return _cauchy(ctx, _one(ctx),
                       _loop_reciprocal(ctx, _loop_int_pow(ctx, c, -k)))
    result = _one(ctx)
    base = c
    while k:
        if k & 1:
            result = _cauchy(ctx, result, base)
        base = _cauchy(ctx, base, base)
        k >>= 1
    return result


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       shape=st.sampled_from([(1, 4), (2, 2), (3, 3), (4, 4)]),
       k=st.integers(-5, 6),
       head=st.floats(0.2, 2.0),
       negative=st.booleans())
def test_int_pow_and_reciprocal_match_the_loops(data, shape, k, head,
                                                 negative):
    ctx = get_context(*shape)
    small = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.5, 0.5))
    c = _coefficients(data, ctx, small)
    c[0] = -head if negative else head
    jet = Jet(ctx, c.copy())
    _same_bits(jet._reciprocal().c, _loop_reciprocal(ctx, c))
    _same_bits((jet ** k).c, _loop_int_pow(ctx, c, k))
    x = lift_variable(ctx, 0, c[0])
    _same_bits((x ** k).c, _loop_int_pow(ctx, x.c, k))
    assert jet.c.tobytes() == c.tobytes()  # the operand is left as it was


# -- a leading batch axis gives each row the bits of its own call --

def _rows(ctx, batch, one_point):
    """Each row of the batched result equals the one-point kernel's."""
    assert batch.shape == (len(batch), ctx.ncoef)
    for k, row in enumerate(batch):
        _same_bits(row, one_point(k))


def _coordinate_rows(ctx, var, values):
    c = np.zeros((len(values), ctx.ncoef))
    c[:, 0] = values
    c[:, ctx.unit[var]] = 1.0
    return c


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       shape=st.sampled_from([(4, 2), (4, 4), (8, 4)]),
       rows=st.integers(1, 4),
       k=st.integers(-3, 5),
       r=st.sampled_from([0.5, 1.5, -0.5, -1.25, 2.0]))
def test_batched_kernels_match_the_one_point_kernels(data, shape, rows, k, r):
    ctx = get_context(*shape)
    small = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.5, 0.5))
    heads = data.draw(st.lists(st.floats(0.2, 2.0), min_size=rows,
                               max_size=rows))
    signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=rows,
                               max_size=rows))
    # a: values away from every floor, b: any coefficients
    a = np.array([_coefficients(data, ctx, small) for _ in range(rows)])
    a[:, 0] = heads
    signed = a * np.array(signs)[:, None]
    b = np.array([_coefficients(data, ctx) for _ in range(rows)])
    one = _coefficients(data, ctx)  # one vector against the batch
    var = data.draw(st.integers(0, ctx.num_vars - 1))
    values = np.array(data.draw(st.lists(COEFFICIENTS, min_size=rows,
                                         max_size=rows)))
    coords = _coordinate_rows(ctx, var, np.array(heads) * signs)
    operands = [a, signed, b, one, values, coords]
    before = [x.tobytes() for x in operands]

    _rows(ctx, _cauchy(ctx, a, b), lambda i: _cauchy(ctx, a[i], b[i]))
    _rows(ctx, _cauchy(ctx, one, b), lambda i: _cauchy(ctx, one, b[i]))
    _rows(ctx, _cauchy(ctx, b, one), lambda i: _cauchy(ctx, b[i], one))
    _rows(ctx, _shift_product(ctx, b, var, values),
          lambda i: _shift_product(ctx, b[i], var, values[i]))
    _rows(ctx, _shift_product(ctx, b, var, values[0]),
          lambda i: _shift_product(ctx, b[i], var, values[0]))
    # one vector times the coordinate at each of the values: a batch
    _rows(ctx, _shift_product(ctx, one, var, values),
          lambda i: _shift_product(ctx, one, var, values[i]))
    # any leading batch shape: here (rows, 2), one value per row
    pairs = np.stack([b, a], axis=1)
    for j, got in enumerate(np.moveaxis(_cauchy(ctx, pairs, one), 1, 0)):
        _rows(ctx, got, lambda i: _cauchy(ctx, pairs[i, j], one))
    shifted = _shift_product(ctx, pairs, var, values[:, None])
    for j, got in enumerate(np.moveaxis(shifted, 1, 0)):
        _rows(ctx, got, lambda i: _shift_product(ctx, pairs[i, j], var,
                                                 values[i]))
    _rows(ctx, _recip(ctx, signed), lambda i: _recip(ctx, signed[i]))
    _rows(ctx, _int_power(ctx, signed, k),
          lambda i: _int_power(ctx, signed[i], k))
    _rows(ctx, _int_power(ctx, coords, k, var),
          lambda i: _int_power(ctx, coords[i], k, var))
    _rows(ctx, _power(ctx, a, r), lambda i: _power(ctx, a[i], r))
    _rows(ctx, _sqrt(ctx, a), lambda i: _sqrt(ctx, a[i]))
    assert [x.tobytes() for x in operands] == before  # left as they were


def test_batched_kernels_raise_the_first_failing_row():
    ctx = get_context(4, 2)
    c = np.zeros((5, ctx.ncoef))
    c[:, 0] = [1.0, -0.25, -0.5, 1e-20, 0.0]
    c[:, 1] = 0.3
    for kernel, args, bad in ((_sqrt, (), 1), (_power, (1.5,), 1),
                              (_recip, (), 3)):
        with pytest.raises(FinslerError) as one_point:
            kernel(ctx, c[bad], *args)
        with pytest.raises(type(one_point.value),
                           match=re.escape(str(one_point.value))):
            kernel(ctx, c, *args)
    # a row whose derivative underflows to a zero skips its term, as one
    # vector does: here inf * 0.0 would make it NaN
    c = np.zeros((2, ctx.ncoef))
    c[:, 0] = [1.0, 1e300]
    c[:, 1] = [2.0, 1e200]
    with np.errstate(over="ignore", invalid="ignore"):
        _rows(ctx, _power(ctx, c, 0.5), lambda i: _power(ctx, c[i], 0.5))


# -- the kernels keep the identities of the truncated power series --

# the relative tolerance of these identities, fixed before they were first
# run; they hold exactly but for rounding
IDENTITY_TOL = 1e-10
SERIES_SHAPES = [(2, 4), (4, 2), (4, 4), (8, 4)]
# one vector (None), or a batch of that many rows
ROWS = st.sampled_from([None, 1, 4])


def _series(data, ctx, rows):
    """Coefficients with the value in [0.5, 2] and the rest in
    [-0.5, 0.5]: one vector, or a (rows, ncoef) batch."""
    def one():
        c = _coefficients(data, ctx, st.floats(-0.5, 0.5))
        c[0] = data.draw(st.floats(0.5, 2.0))
        return c
    return one() if rows is None else np.array([one() for _ in range(rows)])


def _close(got, want, scale):
    """|got - want| <= IDENTITY_TOL * max(1, |scale|) in the max norm of
    each vector (each row of a batch)."""
    err = np.abs(got - want).max(axis=-1)
    bound = IDENTITY_TOL * np.maximum(1.0, np.abs(scale).max(axis=-1))
    assert (err <= bound).all(), (err, bound)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), shape=st.sampled_from(SERIES_SHAPES), rows=ROWS)
def test_products_distribute_over_sums(data, shape, rows):
    ctx = get_context(*shape)
    a, b, c = (_series(data, ctx, rows) for _ in range(3))
    _close(_cauchy(ctx, a, b + c), _cauchy(ctx, a, b) + _cauchy(ctx, a, c),
           _cauchy(ctx, np.abs(a), np.abs(b) + np.abs(c)))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), shape=st.sampled_from(SERIES_SHAPES), rows=ROWS,
       negative=st.booleans())
def test_a_series_times_its_reciprocal_is_one(data, shape, rows, negative):
    ctx = get_context(*shape)
    c = _series(data, ctx, rows) * (-1.0 if negative else 1.0)
    inv = _recip(ctx, c)
    _close(_cauchy(ctx, c, inv), np.broadcast_to(_one(ctx), c.shape),
           _cauchy(ctx, np.abs(c), np.abs(inv)))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), shape=st.sampled_from(SERIES_SHAPES), rows=ROWS,
       r=st.sampled_from([0.5, -0.5, 1.5, -1.25, 2.0, 3.0]),
       s=st.sampled_from([0.5, -0.5, 1.5, -1.25, 2.0, 3.0]))
def test_composition_agrees_with_nesting(data, shape, rows, r, s):
    """(c^r)^s against c^(rs), and exp(ln c) against c; exp and ln have
    no batched kernel, so a batch takes them row by row."""
    ctx = get_context(*shape)
    c = _series(data, ctx, rows)
    nested = _power(ctx, _power(ctx, c, r), s)
    want = _power(ctx, c, r * s)
    _close(nested, want, np.maximum(np.abs(nested), np.abs(want)))
    for row in [c] if rows is None else c:
        _close(jet_exp(jet_ln(Jet(ctx, row))).c, row, row)


# -- an x-degree cap keeps the bits of every coefficient it keeps --

def _kept(capped):
    """Where each monomial of ``capped`` sits in its full context."""
    full = get_context(capped.num_vars, capped.order)
    return np.array([full.index[m] for m in capped.monomials])


@pytest.mark.parametrize("num_vars,order,x_degree,ncoef", [
    (4, 4, 2, 53), (6, 4, 2, 155), (8, 4, 2, 360), (8, 2, 1, 35),
    (4, 3, 1, 22)])
def test_capped_context_is_the_full_context_filtered(num_vars, order,
                                                     x_degree, ncoef):
    capped = get_context(num_vars, order, x_degree)
    full = get_context(num_vars, order)
    half = num_vars // 2
    assert capped.monomials == [m for m in full.monomials
                                if sum(m[:half]) <= x_degree]
    assert capped.ncoef == ncoef
    pairs = sum(1 for a in capped.monomials for b in capped.monomials
                if sum(a) + sum(b) <= order
                and sum(a[:half]) + sum(b[:half]) <= x_degree)
    assert len(capped._mul_i) == pairs
    if (num_vars, order) == (8, 4):
        assert (full.ncoef, len(full._mul_i), pairs) == (495, 4845, 3435)
    assert capped.key == (num_vars, order, x_degree)
    assert not capped.compatible(full)
    kept = _kept(capped)
    position = {k: i for i, k in enumerate(kept.tolist())}
    # the product table: the full one's pairs into kept monomials, in order
    taken = [(position[i], position[j], position[k]) for i, j, k in zip(
        full._mul_i.tolist(), full._mul_j.tolist(), full._mul_k.tolist())
        if k in position]
    assert taken == list(zip(capped._mul_i.tolist(), capped._mul_j.tolist(),
                             capped._mul_k.tolist()))
    np.testing.assert_array_equal(capped.factorial, full.factorial[kept])
    # a cap at or above the order drops nothing
    assert get_context(num_vars, order, order) is full
    dropped = next(m for m in full.monomials if m not in capped.index)
    with pytest.raises(ValueError, match="x-degree cap"):
        extract_partial(Jet(capped, np.zeros(capped.ncoef)), dropped)
    # d/dx_v would read dropped monomials: a capped context has none
    with pytest.raises(ValueError, match="x-degree capped"):
        Jet(capped, np.zeros(capped.ncoef)).derivative(0)
    pair = partial_table(capped).pair
    if (pair == capped.ncoef).any():  # a dropped pair cannot be read
        with pytest.raises(IndexError):
            read_partials(np.zeros(capped.ncoef), pair, capped)


def test_zero_skipping_tables_leave_the_pairs_of_zeros():
    """In 4-D (8 variables, order 4) the reciprocal and the composition
    skip the pairs that hold a known zero factor."""
    full = get_context(8, 4)
    assert len(full._mul_i) == 4845
    assert [len(full._pairs(k, 1)[0]) for k in (1, 2, 3)] == [3856, 2544,
                                                              960]
    assert len(full._pairs(1, 0)[0]) == 4845 - 495


def _all_pairs_reciprocal(ctx, c):
    """``_recip`` with every product over all pairs of the Cauchy product."""
    b0 = c[..., :1]
    u = c / b0
    u[..., 0] = 0.0
    one = constant(ctx, 1.0).c
    inv = one - u
    for _ in range(ctx.order - 1):
        inv = one - _cauchy(ctx, u, inv)
    return inv / b0


def _all_pairs_compose(ctx, c, derivs):
    """``_compose`` of one vector with every power of h over all pairs."""
    h = c.copy()
    h[0] = 0.0
    out = np.zeros(c.shape)
    out[0] = float(derivs[0])
    hpow = None
    fact = 1.0
    for k in range(1, ctx.order + 1):
        hpow = h if hpow is None else _cauchy(ctx, hpow, h)
        fact *= k
        if derivs[k] != 0.0:
            out = out + hpow * float(derivs[k] / fact)
    return out


CAPPED_SHAPES = [(4, 4, None), (4, 4, 2), (6, 4, 2), (8, 4, 2), (8, 2, 1),
                 (3, 3, None)]


@settings(max_examples=25, deadline=None)
@given(data=st.data(), shape=st.sampled_from(CAPPED_SHAPES),
       rows=st.integers(1, 3),
       r=st.sampled_from([0.5, -0.5, 1.5, -1.25, 3.0]),
       k=st.integers(-3, 4))
def test_capped_kernels_keep_the_bits_of_the_full_kernels(data, shape, rows,
                                                          r, k):
    """Every kernel in a capped context gives, at each kept monomial, the
    bits the full context gives there, -0.0 included; the zero-skipping
    reciprocal and composition give the bits of their all-pairs forms."""
    capped = get_context(*shape)
    full = get_context(*shape[:2])
    kept = _kept(capped)
    small = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.5, 0.5))
    a = np.array([_coefficients(data, full, small) for _ in range(rows)])
    a[:, 0] = data.draw(st.lists(st.floats(0.2, 2.0), min_size=rows,
                                 max_size=rows))
    b = np.array([_coefficients(data, full) for _ in range(rows)])
    var = data.draw(st.integers(0, full.num_vars - 1))
    value = data.draw(COEFFICIENTS)
    kernels = [
        lambda ctx, a, b: _cauchy(ctx, a, b),
        lambda ctx, a, b: _shift_product(ctx, b, var, value),
        lambda ctx, a, b: _recip(ctx, a),
        lambda ctx, a, b: _int_power(ctx, a, k),
        lambda ctx, a, b: _power(ctx, a, r),
        lambda ctx, a, b: _sqrt(ctx, a),
    ]
    for kernel in kernels:
        want = kernel(full, a, b)
        _same_bits(kernel(capped, a[:, kept], b[:, kept]), want[:, kept])
        _same_bits(kernel(capped, a[0, kept], b[0, kept]), want[0, kept])
    for ctx, c in ((full, a), (capped, a[:, kept])):
        _same_bits(_recip(ctx, c), _all_pairs_reciprocal(ctx, c))
        for row in c:
            _same_bits(_recip(ctx, row), _all_pairs_reciprocal(ctx, row))
            derivs = _power_derivatives(row[0], r, ctx.order)
            _same_bits(_compose(ctx, row, derivs),
                       _all_pairs_compose(ctx, row, derivs))


# -- the batched kernels gather into reused scratch arrays --

def test_batched_results_never_alias_the_scratch():
    """A second batched call reuses the scratch arrays; the first call's
    results are fresh arrays and stay as they were."""
    ctx = get_context(8, 4, 2)
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, size=(6, ctx.ncoef))
    b = rng.uniform(-1.0, 1.0, size=(6, ctx.ncoef))
    a[:, 0] += 3.0
    values = rng.uniform(-1.0, 1.0, size=6)
    firsts = [_cauchy(ctx, a, b), _shift_product(ctx, b, 2, values),
              _shift_product(ctx, b[0], 5, values), _recip(ctx, a),
              _power(ctx, a, 0.5)]
    kept = [f.copy() for f in firsts]
    _cauchy(ctx, b[::-1] * 3.0, a)
    _shift_product(ctx, a, 6, values[::-1])
    _recip(ctx, a[::-1])
    _power(ctx, a[::-1], -1.5)
    assert ctx._scratch
    for first, want in zip(firsts, kept):
        _same_bits(first, want)
        for buf in ctx._scratch.values():
            assert not np.shares_memory(first, buf)
    # a batch past the limit keeps the bits and leaves the scratch as it was
    rows = jets.SCRATCH_LIMIT // len(ctx._mul_i) + 1
    big = rng.uniform(-1.0, 1.0, size=(rows, ctx.ncoef))
    sizes = {role: buf.size for role, buf in ctx._scratch.items()}
    _rows(ctx, _cauchy(ctx, big, big[::-1]),
          lambda i: _cauchy(ctx, big[i], big[rows - 1 - i]))
    assert {role: buf.size for role, buf in ctx._scratch.items()} == sizes
    assert max(sizes.values()) <= jets.SCRATCH_LIMIT


def test_each_thread_has_its_own_scratch():
    """Threads sharing a context gather into scratch of their own: a
    thread's batch neither reads nor writes the other thread's arrays."""
    ctx = get_context(4, 4, 2)
    rng = np.random.default_rng(9)
    a = rng.uniform(-1.0, 1.0, size=(5, ctx.ncoef))
    b = rng.uniform(-1.0, 1.0, size=(5, ctx.ncoef))
    want = _cauchy(ctx, a, b)
    mine = dict(ctx._scratch)
    seen = {}

    def other():
        seen["product"] = _cauchy(ctx, b, a)
        seen["scratch"] = dict(ctx._scratch)

    thread = threading.Thread(target=other)
    thread.start()
    thread.join()
    assert {"left", "right", "index"} <= seen["scratch"].keys() & mine.keys()
    for role, buf in seen["scratch"].items():
        assert role not in mine or not np.shares_memory(buf, mine[role])
    assert all(ctx._scratch[role] is buf for role, buf in mine.items())
    _rows(ctx, seen["product"], lambda i: _cauchy(ctx, b[i], a[i]))
    _same_bits(_cauchy(ctx, a, b), want)


@pytest.mark.parametrize("shape", [(4, 4, 2), (8, 4, 2)])
def test_batches_of_any_size_and_layout_give_the_one_vector_bits(shape):
    """Batches of 1 to 33 rows, with broadcast or non-contiguous operands,
    give each row the bits of the one-vector kernel."""
    ctx = get_context(*shape)
    rng = np.random.default_rng(len(shape) + ctx.ncoef)
    for rows in range(1, 34):
        wide = rng.uniform(-1.0, 1.0, size=(rows, 2 * ctx.ncoef))
        wide[:, rng.random(wide.shape[1]) < 0.2] = -0.0
        a = wide[:, ::2]  # every other column: not contiguous
        a[:, 0] = rng.uniform(0.5, 2.0, size=rows)
        b = np.asfortranarray(rng.uniform(-1.0, 1.0, size=(rows, ctx.ncoef)))
        one = rng.uniform(-1.0, 1.0, size=ctx.ncoef)
        spread = np.broadcast_to(one, (rows, ctx.ncoef))
        values = rng.uniform(-1.0, 1.0, size=rows)
        pairs = np.stack([a, b], axis=-1).swapaxes(1, 2)  # (rows, 2, ncoef)
        _rows(ctx, _cauchy(ctx, a, b), lambda i: _cauchy(ctx, a[i], b[i]))
        _rows(ctx, _cauchy(ctx, spread, a),
              lambda i: _cauchy(ctx, one, a[i]))
        _rows(ctx, _cauchy(ctx, b, one), lambda i: _cauchy(ctx, b[i], one))
        crossed = _cauchy(ctx, pairs, spread[:, None])
        for j, got in enumerate(np.moveaxis(crossed, 1, 0)):
            _rows(ctx, got, lambda i: _cauchy(ctx, pairs[i, j], one))
        _rows(ctx, _shift_product(ctx, a, 1, values),
              lambda i: _shift_product(ctx, a[i], 1, values[i]))
        _rows(ctx, _shift_product(ctx, spread, 0, values),
              lambda i: _shift_product(ctx, one, 0, values[i]))
        _rows(ctx, _shift_product(ctx, one, 3, values),
              lambda i: _shift_product(ctx, one, 3, values[i]))
        _rows(ctx, _shift_product(ctx, b, 2, 0.75),
              lambda i: _shift_product(ctx, b[i], 2, 0.75))
        _rows(ctx, _recip(ctx, a), lambda i: _recip(ctx, a[i]))
        _rows(ctx, _power(ctx, a, -0.5), lambda i: _power(ctx, a[i], -0.5))


# -- np.float_power has the bits of Python's and numpy-scalar ** --

SUBNORMALS = [5e-324, -5e-324, 2.2250738585072014e-308 / 3.0]
INTEGER_EXPONENTS = st.integers(-4, 4)
REAL_EXPONENTS = st.builds(lambda r, k: r - k,
                           st.sampled_from([0.5, -0.5, 1.5, -1.5, 3.0]),
                           st.integers(0, 4))


def _bits(v):
    return np.float64(v).tobytes()


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from([0.0, -0.0] + SUBNORMALS),
                                 st.floats(-1e300, 1e300)),
                       min_size=1, max_size=20),
       r=st.one_of(INTEGER_EXPONENTS, REAL_EXPONENTS))
def test_float_power_has_the_bits_of_scalar_power(values, r):
    """The batched powers (``jets._power_derivatives``, the batched tape,
    the p-power F, ``positive_definite_rows``) take ``np.float_power`` on
    whole arrays for the bits of ``**`` on one value; a numpy build that
    routed it through SIMD routines would fail here."""
    if r != int(r):
        values = [abs(v) for v in values]  # else the power is complex
    with np.errstate(over="ignore", divide="ignore"):
        got = np.float_power(np.array(values), r)
        scalar = [np.float64(v) ** r for v in values]
    for v, g, s in zip(values, got, scalar):
        assert _bits(g) == _bits(s)
        try:
            want = v ** r
        except OverflowError:
            assert math.isinf(g)
            continue
        except ZeroDivisionError:
            assert v == 0.0 and r < 0  # the domain rules stop this case
            continue
        assert _bits(g) == _bits(want)
