import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import DegenerateValue, DomainError, FinslerError
from finslerlab.jets import (
    CoordinateJet,
    Jet,
    JetContext,
    _cauchy,
    _int_power,
    _power,
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
