import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslerlab import (
    DegeneratePlane,
    DegenerateValue,
    DomainError,
    FinslerError,
    NonFinite,
    PPowerSpec,
    SingularMetric,
    einstein_scalar,
    einstein_scalars,
    flag_curvature,
    fundamental_tensor,
    ppower_metric,
    ricci,
    riccis,
    riemann_curvature,
    riemann_data,
    riemann_metric,
    spray,
    sprays,
    sqrt2d_family,
)
from finslerlab import core, runner
from finslerlab.core import sphere_directions
from finslerlab.fdcheck import fd_partials
from finslerlab.jets import get_context
from fdtools import funk_spec
import walks
from walks import _spray_jets, derivative

IDENTITY = [["1", "0"], ["0", "1"]]
SPHERE = [["4/(1+x1^2+x2^2)^2", "0"], ["0", "4/(1+x1^2+x2^2)^2"]]
CURVED = [
    ["1 + 0.3*x1^2 + 0.1*x2^2", "0.12*x1*x2"],
    ["0.12*x1*x2", "1 + 0.2*x2^2 + 0.15*x1^2"],
]
CURVED_BETA = ["0.2*x2 + 0.05*x1^2", "0.1*x1 - 0.04*x2^2"]


@pytest.fixture(scope="module")
def example_family():
    return sqrt2d_family(("-x2", "x1", "x1^2+x2^2"))


def randers_g_oracle(b, y):
    """Closed-form Randers fundamental tensor for a flat base metric:
    g_ij = (F/a)(d_ij - y_i y_j / a^2) + (b_i + y_i/a)(b_j + y_j/a)."""
    b = np.asarray(b)
    y = np.asarray(y, dtype=float)
    a = np.linalg.norm(y)
    f = a + float(b @ y)
    ell = b + y / a
    return (f / a) * (np.eye(2) - np.outer(y, y) / a**2) + np.outer(ell, ell)


def flat_randers(b1, b2):
    return ppower_metric(PPowerSpec(IDENTITY, [str(b1), str(b2)], 1.0))


def test_euclidean_fundamental_tensor():
    metric = riemann_metric(IDENTITY)
    g, g_inv = fundamental_tensor(metric, [0.3, -0.2], [0.7, 0.4])
    np.testing.assert_allclose(g, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(g_inv, np.eye(2), atol=1e-12)


def test_flat_randers_fundamental_tensor():
    metric = flat_randers(0.5, 0.0)
    g, _ = fundamental_tensor(metric, [0.0, 0.0], [1.0, 0.0])
    np.testing.assert_allclose(g, np.diag([2.25, 1.5]), atol=1e-12)
    y = [1.0, 0.0]
    f = metric.value([0.0, 0.0], y)
    assert float(np.array(y) @ g @ np.array(y)) == pytest.approx(f * f)


def test_randers_fundamental_tensor_oracle_random():
    rng = np.random.default_rng(12)
    metric = flat_randers(0.4, -0.2)
    for _ in range(20):
        y = rng.uniform(-1, 1, size=2)
        if not metric.in_domain([0.0, 0.0], y.tolist()):
            continue
        g, _ = fundamental_tensor(metric, [0.0, 0.0], y.tolist())
        want = randers_g_oracle([0.4, -0.2], y)
        np.testing.assert_allclose(g, want, atol=1e-10)


def test_positivity_violation_raises_singular():
    # exponent 3 admits b^2 < 1/4 only; 0.3 fails along the form direction
    metric = ppower_metric(
        PPowerSpec(IDENTITY, [str(math.sqrt(0.3)), "0"], 3.0))
    with pytest.raises(SingularMetric):
        fundamental_tensor(metric, [0.0, 0.0], [1.0, 0.02])


def test_spray_x_independent_is_zero():
    metric = flat_randers(0.3, 0.1)
    g = spray(metric, [0.2, -0.4], [0.8, 0.5])
    np.testing.assert_allclose(g, np.zeros(2), atol=1e-12)


def test_spray_hand_christoffel():
    metric = riemann_metric([["1", "0"], ["0", "x1^2"]])
    g = spray(metric, [2.0, 0.3], [1.0, 1.0])
    np.testing.assert_allclose(g, [-1.0, 0.5], atol=1e-10)


def test_spray_homogeneity():
    metric = ppower_metric(PPowerSpec(CURVED, CURVED_BETA, 0.5))
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5, size=2).tolist()
        y = rng.uniform(-1, 1, size=2).tolist()
        if not metric.in_domain(x, y):
            continue
        base = spray(metric, x, y)
        for t in (0.5, 2.0, 3.0):
            scaled = spray(metric, x, [t * v for v in y])
            np.testing.assert_allclose(scaled, t * t * base, rtol=1e-9,
                                       atol=1e-12)


def test_riemann_flat_is_zero():
    metric = flat_randers(0.3, 0.0)
    r = riemann_curvature(metric, [0.1, 0.2], [1.0, 0.4])
    np.testing.assert_allclose(r, np.zeros((2, 2)), atol=1e-11)


def test_conformal_sphere_riemann():
    metric = riemann_metric(SPHERE)
    r = riemann_curvature(metric, [0.0, 0.0], [1.0, 0.0])
    np.testing.assert_allclose(r, np.diag([0.0, 4.0]), atol=1e-9)
    assert ricci(metric, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(4.0)
    assert einstein_scalar(metric, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    # curvature 1 everywhere, any direction
    assert einstein_scalar(metric, [0.3, -0.2], [0.4, 1.1]) == pytest.approx(1.0)


def test_riemann_operator_annihilates_y():
    metric = ppower_metric(PPowerSpec(CURVED, CURVED_BETA, 2.0))
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = rng.uniform(-0.5, 0.5, size=2).tolist()
        y = rng.uniform(-1, 1, size=2)
        if not metric.in_domain(x, y.tolist()):
            continue
        r = riemann_curvature(metric, x, y.tolist())
        scale = max(1.0, float(np.abs(r).max()))
        assert float(np.abs(r @ y).max()) / scale < 1e-9


def test_riemann_operator_self_adjoint():
    metric = ppower_metric(PPowerSpec(CURVED, CURVED_BETA, 1.0))
    rng = np.random.default_rng(9)
    for _ in range(25):
        x = rng.uniform(-0.5, 0.5, size=2).tolist()
        y = rng.uniform(-1, 1, size=2).tolist()
        if not metric.in_domain(x, y):
            continue
        g, _ = fundamental_tensor(metric, x, y)
        r = riemann_curvature(metric, x, y)
        gr = g @ r
        scale = max(1.0, float(np.abs(gr).max()))
        assert float(np.abs(gr - gr.T).max()) / scale < 1e-8


def test_metric_squared_reproduced_by_g():
    metric = ppower_metric(PPowerSpec(CURVED, CURVED_BETA, 0.5))
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = rng.uniform(-0.5, 0.5, size=2).tolist()
        y = rng.uniform(-1, 1, size=2)
        if not metric.in_domain(x, y.tolist()):
            continue
        g, _ = fundamental_tensor(metric, x, y.tolist())
        f = metric.value(x, y.tolist())
        assert float(y @ g @ y) == pytest.approx(f * f, rel=1e-10)


def test_metric_value_homogeneity():
    metric = ppower_metric(PPowerSpec(CURVED, CURVED_BETA, -1.0))
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5, size=2).tolist()
        y = rng.uniform(-1, 1, size=2).tolist()
        if not metric.in_domain(x, y):
            continue
        f = metric.value(x, y)
        for t in (0.5, 2.0, 3.0):
            assert metric.value(x, [t * v for v in y]) == pytest.approx(
                t * f, rel=1e-12)


def test_ricci_and_einstein_scalar_homogeneity():
    metric = ppower_metric(PPowerSpec(CURVED, CURVED_BETA, 2.0))
    x = [0.25, -0.3]
    y = [0.8, 0.55]
    base = ricci(metric, x, y)
    lam = einstein_scalar(metric, x, y)
    for t in (0.5, 2.0, 3.0):
        ty = [t * v for v in y]
        assert ricci(metric, x, ty) == pytest.approx(t * t * base, rel=1e-9)
        assert einstein_scalar(metric, x, ty) == pytest.approx(lam, rel=1e-9)


def test_riemann_operator_homogeneity():
    metric = ppower_metric(PPowerSpec(CURVED, CURVED_BETA, 0.5))
    x = [0.2, -0.35]
    y = [0.9, 0.45]
    base = riemann_curvature(metric, x, y)
    for t in (0.5, 2.0, 3.0):
        scaled = riemann_curvature(metric, x, [t * v for v in y])
        np.testing.assert_allclose(scaled, t * t * base, rtol=1e-9,
                                   atol=1e-12)


def test_flat_parallel_is_ricci_flat():
    for p in (1.0, 2.0, -1.0, 0.5, 3.0):
        metric = ppower_metric(PPowerSpec(IDENTITY, ["0.28", "-0.12"], p))
        assert abs(ricci(metric, [0.3, 0.4], [1.0, 0.2])) < 1e-10


def test_example_family_einstein_scalar(example_family):
    metric = example_family.metric()
    for y in ([1.0, 0.0], [0.3, 0.9], [-0.5, 0.2]):
        assert einstein_scalar(metric, [0.6, 0.0], y) == pytest.approx(
            -1.25, abs=1e-9)


def reversal(metric, x, y):
    """|lambda(x, y) - lambda(x, -y)| as the runner reads it."""
    return runner.EinsteinTable(metric, ()).reversal(x, y)


def test_reversibility_einstein_instances(example_family):
    metric = example_family.metric()
    assert reversal(metric, [0.5, 0.2], [1.0, 0.3]) < 1e-8
    flat = flat_randers(0.28, -0.12)
    assert reversal(flat, [0.1, 0.2], [1.0, 0.3]) < 1e-12


def test_reversibility_negative_control():
    metric = ppower_metric(PPowerSpec(IDENTITY, ["0.3*x2", "0"], 1.0))
    assert reversal(metric, [0.0, 1.0], [1.0, 0.5]) > 1e-3


def test_reversibility_reversible_metric():
    metric = riemann_metric(SPHERE)
    assert reversal(metric, [0.2, 0.1], [0.7, -0.4]) < 1e-12


def test_reversibility_domain_error():
    # norm above 1: the reversed ray leaves the cone 1 + s > 0
    metric = flat_randers(1.2, 0.0)
    with pytest.raises(DomainError):
        reversal(metric, [0.0, 0.0], [1.0, 0.1])


def test_flag_curvature_two_dimensional(example_family):
    metric = example_family.metric()
    x = [0.5, 0.2]
    y = [1.0, 0.4]
    lam = einstein_scalar(metric, x, y)
    for u in ([0.0, 1.0], [1.0, -1.0], [-0.3, 0.8]):
        assert flag_curvature(metric, x, y, u) == pytest.approx(lam, rel=1e-8)
    # invariance under changing the transverse direction inside the plane
    k1 = flag_curvature(metric, x, y, [0.0, 1.0])
    k2 = flag_curvature(metric, x, y, [2.0 * y[0], 1.0 + 2.0 * y[1]])
    assert k1 == pytest.approx(k2, rel=1e-10)


def test_flag_curvature_conformal_sphere():
    metric = riemann_metric(SPHERE)
    assert flag_curvature(metric, [0.1, 0.3], [1.0, 0.2], [0.0, 1.0]) == \
        pytest.approx(1.0, rel=1e-9)


def test_flag_curvature_degenerate_plane():
    metric = riemann_metric(IDENTITY)
    with pytest.raises(DegeneratePlane):
        flag_curvature(metric, [0.0, 0.0], [1.0, 0.5], [2.0, 1.0])


def max_spread(metric, points, count):
    """The largest spread of lambda over ``count`` directions at the
    points, each of which must have one."""
    spreads, skipped = runner.EinsteinTable(
        metric, sphere_directions(metric.dim, count)).spreads(points)
    assert not skipped and len(spreads) == len(points)
    return core.worst(spreads)


def test_einstein_check_verdicts(example_family):
    metric = example_family.metric()
    assert max_spread(metric, [[0.5, 0.2], [0.3, -0.4]], 32) < 1e-9
    bad_metric = ppower_metric(PPowerSpec(IDENTITY, ["0.3*x2", "0"], 1.0))
    assert not max_spread(bad_metric, [[0.0, 1.0]], 16) < 1e-7
    assert max_spread(riemann_metric(SPHERE), [[0.1, 0.2]], 16) < 1e-7


def test_riemannian_spray_matches_christoffel_path():
    metric = riemann_metric(CURVED)
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, size=2).tolist()
        y = rng.uniform(-1, 1, size=2).tolist()
        rd = riemann_data(CURVED, x)
        np.testing.assert_allclose(spray(metric, x, y), rd.spray(y),
                                   rtol=1e-10, atol=1e-12)


def test_sphere_directions_are_unit():
    for dim in (2, 3, 4):
        dirs = sphere_directions(dim, 16)
        assert dirs.shape == (16, dim)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1),
                                   np.ones(16), atol=1e-12)
    # deterministic
    np.testing.assert_array_equal(sphere_directions(3, 8),
                                  sphere_directions(3, 8))


def test_three_dimensional_engine():
    alpha = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    beta = ["0.1*x2", "0", "0.05*x1"]
    metric = ppower_metric(PPowerSpec(alpha, beta, 1.0))
    x = [0.2, 0.4, -0.1]
    y = [1.0, 0.3, -0.5]
    g, g_inv = fundamental_tensor(metric, x, y)
    np.testing.assert_allclose(g @ g_inv, np.eye(3), atol=1e-10)
    r = riemann_curvature(metric, x, y)
    assert float(np.abs(r @ np.array(y)).max()) < 1e-9 * max(
        1.0, float(np.abs(r).max()))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("order", [2, 4])
def test_partial_table_reads_equal_extract_partial(n, order):
    """Each index-table gather equals extract_partial bit for bit."""
    from finslerlab.core import _partial_table
    from finslerlab.jets import (
        Jet,
        extract_partial,
        get_context,
        partial_table,
        read_partials,
    )

    ctx = get_context(2 * n, order)
    table = _partial_table(ctx)
    rng = np.random.default_rng(n * 10 + order)
    jets = [Jet(ctx, rng.uniform(-3.0, 3.0, size=ctx.ncoef))
            for _ in range(n)]
    stacked = np.stack([j.c for j in jets])

    def mono(*variables):
        e = [0] * (2 * n)
        for v in variables:
            e[v] += 1
        return tuple(e)

    wants = {
        "x": lambda j, k: extract_partial(j, mono(k)),
        "y": lambda j, k: extract_partial(j, mono(n + k)),
        "xy": lambda j, k, l: extract_partial(j, mono(k, n + l)),
        "yy": lambda j, k, l: extract_partial(j, mono(n + k, n + l)),
        "unit": lambda j, v: extract_partial(j, mono(v)),
        "pair": lambda j, v, w: extract_partial(j, mono(v, w)),
    }
    for name, want in wants.items():
        idx = getattr(partial_table(ctx) if name in ("unit", "pair")
                      else table, name)
        per_jet = read_partials(stacked, idx, ctx)
        for i, jet in enumerate(jets):
            got = read_partials(jet.c, idx, ctx)
            assert got.tobytes() == per_jet[i].tobytes()
            for pos in np.ndindex(idx.shape):
                assert got[pos].tobytes() == np.float64(
                    want(jet, *pos)).tobytes(), (name, pos)
    assert _partial_table(ctx) is table
    # core's table is a view of the one jets table of the context
    assert table.yy.base is partial_table(ctx).pair


def _soundness_stencils(metric, count, seed):
    """The stencil batches the derivative-soundness spray oracle passes
    to ``sprays`` at ``count`` samples drawn as that scenario draws them."""
    rng = np.random.default_rng(seed)
    n = metric.dim
    monomials = [m for m in get_context(2 * n, 2).monomials
                 if 1 <= sum(m) <= 2]
    batches = []

    def record(rows):
        batches.append(rows)
        return np.zeros((len(rows), n))

    while len(batches) < count:
        x = rng.uniform(-0.35, 0.35, size=n).tolist()
        y = rng.uniform(0.45, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        if metric.in_domain(x, y.tolist()):
            fd_partials(record, [x + y.tolist()], monomials)
    return batches


def _spray_rows(metric, rows):
    """The one-point loop that ``sprays`` replaces, through the reference
    ``walks.spray``."""
    n = metric.dim
    return np.array([walks.spray(metric, r[:n], r[n:])
                     for r in rows.tolist()])


def _one_point_calls(monkeypatch):
    calls = []
    original = core.spray

    def counting(metric, x, y):
        calls.append(1)
        return original(metric, x, y)

    monkeypatch.setattr(core, "spray", counting)
    return calls


def _same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, -1.0, 3.0])
def test_sprays_match_spray_on_soundness_stencils(p, monkeypatch):
    metrics = [ppower_metric(PPowerSpec(CURVED, CURVED_BETA, p))]
    if p == 0.5:
        metrics += [sqrt2d_family(("-x2", "x1", "x1^2+x2^2")).metric(),
                    riemann_metric(SPHERE)]
    for k, metric in enumerate(metrics):
        for rows in _soundness_stencils(metric, 3, int(10 * p) + 20 + 7 * k):
            want = _spray_rows(metric, rows)
            calls = _one_point_calls(monkeypatch)
            got = sprays(metric, rows)
            monkeypatch.undo()
            assert not calls  # one batched pass, no one-point spray
            _same_bits(got, want)


def test_sprays_build_f_row_by_row_without_a_batched_f(monkeypatch):
    """Where the batched F raises, each row's F is built alone with
    ``metric.jet``, and the tail still runs on the whole batch: no
    one-point ``spray``, and the bits of the one-point loop."""
    # a coefficient the jet kernels do not batch, so the batched F raises
    metric = ppower_metric(PPowerSpec(
        [["exp(0.1*x1)", "0"], ["0", "1"]], CURVED_BETA, 2.0))
    rows = _soundness_stencils(metric, 1, 3)[0]
    want = _spray_rows(metric, rows)
    built = []
    jet = metric.jet

    def counting_jet(x, y, order, *cap):
        built.append(order)
        return jet(x, y, order, *cap)

    calls = _one_point_calls(monkeypatch)
    monkeypatch.setattr(metric, "jet", counting_jet)
    got = sprays(metric, rows)
    monkeypatch.undo()
    assert not calls and built == [2] * len(rows)
    _same_bits(got, want)


def test_sprays_raise_the_first_error_of_the_one_point_loop():
    # with b = (0.8, 0) and p = 3, y = (1, 0) is in the domain but g is not
    # positive definite there; y = 0 is outside the domain
    metric = ppower_metric(PPowerSpec(IDENTITY, ["0.8", "0"], 3.0))
    good = [[0.0, 0.1, 0.0, 1.0], [0.2, 0.0, -0.3, 1.0]]
    singular = [0.0, 0.0, 1.0, 0.0]
    outside = [0.1, 0.0, 0.0, 0.0]
    for rows in ([*good, singular, outside], [good[0], outside, singular],
                 [singular, *good]):
        rows = np.array(rows)
        with pytest.raises(FinslerError) as loop:
            _spray_rows(metric, rows)
        with pytest.raises(type(loop.value),
                           match=re.escape(str(loop.value))):
            sprays(metric, rows)
    _same_bits(sprays(metric, np.array(good)),
               _spray_rows(metric, np.array(good)))


def test_empty_batches_give_empty_arrays():
    """No rows give no rows: (0, n) sprays, as riccis and einstein_scalars
    give (0,) arrays."""
    metric = ppower_metric(PPowerSpec(CURVED, CURVED_BETA, 0.5))
    for rows in (np.zeros((0, 4)), []):
        got = sprays(metric, rows)
        assert got.shape == (0, 2) and got.dtype == float
    x = [0.1, 0.2]
    assert riccis(metric, x, np.zeros((0, 2))).shape == (0,)
    assert einstein_scalars(metric, x, []).shape == (0,)


def test_domain_beyond_positivity_bound_surfaces_as_singular_metric():
    """The p-power domain tests alpha > 0 and 1 + s > 0 only; with
    1 + (1-p) s = -0.6 the sample is in the domain and the engine reports
    the lost convexity as SingularMetric."""
    metric = ppower_metric(PPowerSpec(IDENTITY, ["0.8", "0"], 3.0))
    assert metric.in_domain([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(SingularMetric):
        spray(metric, [0.0, 0.0], [1.0, 0.0])


TAIL_CASES = [
    (PPowerSpec(CURVED, CURVED_BETA, 0.5), [0.2, -0.1],
     [[1.0, 0.3], [-0.4, 0.9], [0.0, 1.0]]),
    (PPowerSpec([["1 + 0.2*x1^2", "0.05*x1*x2", "0"],
                 ["0.05*x1*x2", "1 + 0.1*x3^2", "0.03*x2"],
                 ["0", "0.03*x2", "1 + 0.15*x2^2"]],
                ["0.1*x2", "0.05*x1^2", "-0.08*x3"], 2.0),
     [0.1, -0.2, 0.3], [[1.0, 0.2, -0.5], [0.0, 0.0, 1.0]]),
    (funk_spec(4), [0.1, -0.2, 0.15, 0.05],
     [[1.0, 0.3, -0.2, 0.5], [0.0, 1.0, 0.0, 0.0]]),
]


def _order4_spray_jets(metric, x, y):
    """The spray jets by differentiating the order-4 jet of F^2 and running
    the whole tail in the order-4 context, with full products."""
    from finslerlab.jets import Jet, get_context, lift_variable
    from finslerlab.linalg import solve

    n = metric.dim
    ctx = get_context(2 * n, 4)
    f = metric.jet(x, y, 4)
    f2 = f * f
    g_jets = [[0.5 * derivative(derivative(f2, n + i), n + j)
               for j in range(n)] for i in range(n)]
    # plain jets with coordinate coefficients take the Cauchy product
    y_jets = [Jet(ctx, lift_variable(ctx, n + k, y[k]).c) for k in range(n)]
    rhs = []
    for l in range(n):
        df_l = derivative(f2, n + l)
        acc = -derivative(f2, l)
        for k in range(n):
            acc = acc + derivative(df_l, k) * y_jets[k]
        rhs.append(acc)
    cols = solve(g_jets, [rhs])
    return [0.25 * gi for gi in cols[0]]


def _riemann_from(g_jets, y):
    """R^i_k read partial by partial with extract_partial."""
    from finslerlab.jets import extract_partial

    n = len(g_jets)

    def d(i, *variables):
        mono = [0] * (2 * n)
        for v in variables:
            mono[v] += 1
        return float(extract_partial(g_jets[i], mono))

    r = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            acc = 2.0 * d(i, k)
            for j in range(n):
                acc -= y[j] * d(i, j, n + k)
                acc += 2.0 * float(g_jets[j].value) * d(i, n + j, n + k)
                acc -= d(i, n + j) * d(j, n + k)
            r[i, k] = acc
    return r


@pytest.mark.parametrize("spec,x,directions", TAIL_CASES,
                         ids=["2d", "3d", "4d-funk"])
def test_order2_tail_matches_the_order4_path(spec, x, directions):
    """G and R from the order-2 tail equal the order-4 derivative path bit
    for bit, signs of zeros included."""
    metric = ppower_metric(spec)
    for y in directions:
        got, g = _spray_jets(metric, x, y)
        want = _order4_spray_jets(metric, x, y)
        _same_bits(g, fundamental_tensor(metric, x, y)[0])
        ncoef = got[0].ctx.ncoef
        assert got[0].ctx.order == 2 and ncoef < want[0].ctx.ncoef
        for g_low, g_high in zip(got, want):
            assert np.array_equal(g_low.c, g_high.c[:ncoef])
            assert np.array_equal(np.signbit(g_low.c),
                                  np.signbit(g_high.c[:ncoef]))
        r = riemann_curvature(metric, x, y)
        assert r.tobytes() == _riemann_from(want, y).tobytes()


# -- Ricci curvatures and Einstein scalars of many directions at one x --

@functools.cache
def _direction_metric(n, p):
    """A curved p-power metric: CURVED in 2-D, the Funk-ball data from
    3-D on (Einstein at p = 1 only)."""
    if n == 2:
        return ppower_metric(PPowerSpec(CURVED, CURVED_BETA, p))
    funk = funk_spec(n)
    return ppower_metric(PPowerSpec(funk.alpha, funk.beta, p))


def _one_point(fn, metric, x, ys):
    """The loop the batched call replaces: values, or the first error."""
    try:
        return np.array([fn(metric, x, list(y)) for y in ys])
    except FinslerError as exc:
        return exc


def _same_outcome(batched, want):
    if isinstance(want, FinslerError):
        with pytest.raises(type(want), match=re.escape(str(want))):
            batched()
    else:
        assert batched().tobytes() == want.tobytes()  # NaN and -0.0 too


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FinslerError as exc:
        return exc


def _same_outcome_row(got, want):
    """The bits of a value, sign bits included, or an error's type and
    text."""
    if isinstance(want, FinslerError):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert not isinstance(got, FinslerError), got
        assert np.asarray(got, dtype=float).tobytes() == \
            np.asarray(want, dtype=float).tobytes()


def _rows_kept(metric, x, ys):
    """evaluate keeps every row: its lambda has the bits of the one-point
    call, or is the error that call raises, with its text; ok marks the
    rows that hold a value."""
    samples = core.evaluate(metric, x, ys)
    for b, y in enumerate(ys):
        want = _outcome(einstein_scalar, metric, x, list(y))
        assert samples.ok[b] == (not isinstance(want, FinslerError)), (b, y)
        _same_outcome_row(samples.lam[b], want)


# zeros of both signs, and directions on the axes, are drawn often
DIRECTION_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1.0, 1.0).filter(lambda v: abs(v) >= 1e-3))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.sampled_from([2, 3, 4]),
       p=st.sampled_from([0.5, 1.0, 2.0, -1.0, 3.0]))
def test_batched_curvature_matches_the_one_point_calls(data, n, p):
    """Row b of a batch has the bits of the one-point call at ys[b]; a
    batch with a failing row raises what the one-point loop raises first
    (directions of zero length, and for p = 3 and -1 directions where g
    is not positive definite, fail)."""
    metric = _direction_metric(n, p)
    x = data.draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n))
    rows = data.draw(st.integers(2, 5 if n == 4 else 12))
    ys = np.array(data.draw(st.lists(
        st.lists(DIRECTION_ENTRY, min_size=n, max_size=n),
        min_size=rows, max_size=rows)))
    assert metric.in_domain_rows(x, ys).tolist() == [
        metric.in_domain(x, list(y)) for y in ys]
    _same_outcome(lambda: einstein_scalars(metric, x, ys),
                  _one_point(einstein_scalar, metric, x, ys))
    _same_outcome(lambda: riccis(metric, x, ys),
                  _one_point(ricci, metric, x, ys))
    _rows_kept(metric, x, ys)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), n=st.sampled_from([2, 3, 4]),
       p=st.sampled_from([1.0, 2.0, 0.5, -1.0, 3.0]))
def test_the_curvature_ring_keeps_the_bits_of_the_full_ring(data, n, p):
    """The curvature pass builds F^2 with x-degree <= 2 (360 of 495
    coefficients in 4-D): its rows equal the full order-4 rows at every
    kept monomial, bit for bit, signs of zeros included, and the R^i_k of
    ``evaluate`` equals R read from the one-point spray jets of the full
    ring."""
    metric = _direction_metric(n, p)
    x = data.draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n))
    rows = data.draw(st.integers(2, 5 if n == 4 else 8))
    ys = np.array(data.draw(st.lists(
        st.lists(DIRECTION_ENTRY, min_size=n, max_size=n),
        min_size=rows, max_size=rows)))
    capped = get_context(2 * n, 4, core.CURVATURE_X_DEGREE)
    full = get_context(2 * n, 4)
    assert capped.x_degree == 2 and capped.ncoef < full.ncoef
    kept = [full.index[m] for m in capped.monomials]
    with np.errstate(all="ignore"):
        got, errors = core._f2_rows(metric, x, ys)
        want, errors_full = core._f2_rows(metric, x, ys, x_degree=None)
    ok = np.array([e is None for e in errors])
    assert ok.tolist() == [e is None for e in errors_full]
    _same_bits(got[ok], want[ok][:, kept])
    samples = core.evaluate(metric, x, ys)
    low = get_context(2 * n, 2)
    for b in np.flatnonzero(samples.ok):
        g_jets, _ = _spray_jets(metric, x, list(ys[b]))
        assert g_jets[0].ctx is low
        r = core._riemann_read(np.stack([g.c for g in g_jets])[None],
                               ys[b:b + 1], low)[0]
        _same_bits(samples.r[b], r)
        _same_bits(samples.r[b], riemann_curvature(metric, x, list(ys[b])))


# directions along which the jets of the curved p = 1/2 metric overflow
NON_FINITE_DIRECTIONS = [[0.0, 1e-60], [0.0, 5e-103], [0.0, 1e103]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows
def test_a_non_finite_curvature_is_a_typed_skip():
    """Where Ric is not finite, ``ricci`` and ``einstein_scalar`` raise
    NonFinite instead of returning NaN; ``evaluate`` keeps that error in
    each such row and marks it not ok, and the Einstein table records
    each as a skip."""
    metric = _direction_metric(2, 0.5)
    x = [0.0, 0.0]
    dirs = [[0.0, 1.0]] + NON_FINITE_DIRECTIONS
    for y in NON_FINITE_DIRECTIONS:
        for fn in (ricci, einstein_scalar):
            with pytest.raises(NonFinite, match="is not finite"):
                fn(metric, x, y)
    assert core.evaluate(metric, x, dirs).ok.tolist() == [True, False,
                                                          False, False]
    with pytest.raises(NonFinite):
        einstein_scalars(metric, x, dirs)
    table = core.EinsteinTable(metric, dirs)
    ys, values, skipped = table.values(x)
    assert ys == [[0.0, 1.0]]
    assert values == [einstein_scalar(metric, x, [0.0, 1.0])]
    assert len(skipped) == 3
    assert all("is not finite" in text for text in skipped)
    for y in NON_FINITE_DIRECTIONS:
        with pytest.raises(NonFinite):
            table(x, y)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows
@pytest.mark.parametrize("y", NON_FINITE_DIRECTIONS + [[0.0, 1e-160]])
def test_a_non_finite_g_or_r_raises_non_finite(y):
    """Where the jets of F overflow, riemann_curvature raises NonFinite
    instead of returning NaN; at y = (0, 1e-160) a NaN g passes the
    Sylvester test, and spray and fundamental_tensor raise NonFinite
    there.  evaluate keeps each such error in its row."""
    metric = _direction_metric(2, 0.5)
    x = [0.0, 0.0]
    calls = [riemann_curvature]
    if y == [0.0, 1e-160]:
        calls += [spray, fundamental_tensor]
    for fn in calls:
        with pytest.raises(NonFinite, match="is not finite"):
            fn(metric, x, y)
    for ys in ([y], [[0.0, 1.0], y]):
        samples = core.evaluate(metric, x, ys)
        with pytest.raises(NonFinite) as want:
            riemann_curvature(metric, x, y)
        assert str(samples.r[-1]) == str(want.value)
        assert samples.ok.tolist() == [True] * (len(ys) - 1) + [False]


# directions of extreme scale at x = 0 on the curved p = 1/2 metric: the
# error of spray, fundamental_tensor and flag_curvature, with the order-2
# jets, and of riemann_curvature, ricci and einstein_scalar, with the
# order-4 jets (None: a value)
DEGENERATE_ERRORS = [
    ([0.0, 1e-20], "division by a jet with value 1e-20 below the floor",
     "division by a jet with value 1e-20 below the floor"),
    ([0.0, 1e-60], "division by a jet with value 1e-60 below the floor",
     "fundamental tensor is not finite at x=[0.0, 0.0], y=[0.0, 1e-60]"),
    ([0.0, 5e-103], "division by a jet with value 5e-103 below the floor",
     "fundamental tensor is not finite at x=[0.0, 0.0], y=[0.0, 5e-103]"),
    ([0.0, 1e103], None,
     "R^i_k is not finite at x=[0.0, 0.0], y=[0.0, 1e+103]"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows
@pytest.mark.parametrize("y,order2,order4", DEGENERATE_ERRORS,
                         ids=["1e-20", "1e-60", "5e-103", "1e103"])
def test_degenerate_directions_keep_their_errors(y, order2, order4):
    """Along these directions the one-point entries raise DegenerateValue
    where the text names the jet floor and NonFinite otherwise, with these
    texts; flag_curvature raises the error of the order-2 entries where
    they have one, else R's.  In a batch with good rows, the direction's
    row of ``evaluate`` and of ``_spray_rows`` holds the same error."""
    metric = _direction_metric(2, 0.5)
    x = [0.0, 0.0]

    def kind(text):
        return DegenerateValue if "floor" in text else NonFinite

    got = {fn: _outcome(fn, metric, x, y)
           for fn in (spray, fundamental_tensor, riemann_curvature, ricci,
                      einstein_scalar)}
    got[flag_curvature] = _outcome(flag_curvature, metric, x, y, [1.0, 0.0])
    for fn, text in ((spray, order2), (fundamental_tensor, order2),
                     (riemann_curvature, order4), (ricci, order4),
                     (einstein_scalar, order4),
                     (flag_curvature, order2 or order4)):
        if text is None:
            assert not isinstance(got[fn], FinslerError), fn
        else:
            assert type(got[fn]) is kind(text), fn
            assert str(got[fn]) == text, fn
    ys = [[0.0, 1.0], y, [0.3, -1.0]]
    samples = core.evaluate(metric, x, ys)
    assert samples.ok.tolist() == [True, False, True]
    for column, fn in ((samples.g, riemann_curvature),
                       (samples.r, riemann_curvature), (samples.ric, ricci),
                       (samples.lam, einstein_scalar)):
        _same_outcome_row(column[1], got[fn])
    out, errors = core._spray_rows(metric, np.array([x + v for v in ys]))
    assert errors[0] is None and errors[2] is None
    _same_outcome_row(out[1] if errors[1] is None else errors[1], got[spray])


# rows of the mixed batches: with b = (0.8, 0) and p = 3, g is not
# positive definite at y = (1, 0); y = 0 is outside the domain; the jets
# overflow at y = (0, 5e-103); y = (t, +-1) with |t| <= 0.5 is good
MIXED_ROWS = st.one_of(
    st.sampled_from([[1.0, 0.0], [0.0, 0.0], [0.0, 5e-103]]),
    st.builds(lambda t, s: [t, s], st.floats(-0.5, 0.5),
              st.sampled_from([1.0, -1.0])))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows
@settings(max_examples=30, deadline=None)
@given(data=st.data(), per_row=st.booleans())
def test_every_row_of_a_batch_equals_the_one_point_call(data, per_row):
    """A batch of 1 to 6 rows, good, singular, outside the domain and
    overflowing rows mixed, at one x or one x per row: each row of
    evaluate holds F, R, Ric and lambda with the bits of metric.value,
    riemann_curvature, ricci and einstein_scalar, or the error each
    raises, and g with the bits of fundamental_tensor or R's error;
    riccis, einstein_scalars and sprays give the one-point rows or raise
    the first row's error, and _spray_rows keeps every row's spray or
    error."""
    from walks import einstein_scalar, ricci, riemann_curvature, spray

    metric = ppower_metric(PPowerSpec(IDENTITY, ["0.8", "0"], 3.0))
    count = data.draw(st.integers(1, 6))
    ys = [data.draw(MIXED_ROWS) for _ in range(count)]
    point = st.lists(st.floats(-0.3, 0.3), min_size=2, max_size=2)
    if per_row:
        x = np.array([data.draw(point) for _ in range(count)])
        xs = [list(v) for v in x]
    else:
        x = data.draw(point)
        xs = [x] * count
    samples = core.evaluate(metric, x, ys)
    for b, (xb, y) in enumerate(zip(xs, ys)):
        r = _outcome(riemann_curvature, metric, xb, y)
        _same_outcome_row(samples.f[b], _outcome(metric.value, xb, y))
        _same_outcome_row(samples.r[b], r)
        _same_outcome_row(samples.g[b], r if isinstance(r, FinslerError)
                          else fundamental_tensor(metric, xb, y)[0])
        _same_outcome_row(samples.ric[b], _outcome(ricci, metric, xb, y))
        lam = _outcome(einstein_scalar, metric, xb, y)
        _same_outcome_row(samples.lam[b], lam)
        assert samples.ok[b] == (not isinstance(lam, FinslerError))
    for fn, batched in ((ricci, riccis), (einstein_scalar, einstein_scalars)):
        _same_outcome(lambda: batched(metric, x, ys),
                      _one_point_rows(fn, metric, xs, ys))
    rows = np.array([list(xb) + y for xb, y in zip(xs, ys)])
    want = _one_point_rows(spray, metric, xs, ys)
    _same_outcome(lambda: sprays(metric, rows), want)
    got, errors = core._spray_rows(metric, rows)
    for b, (xb, y) in enumerate(zip(xs, ys)):
        one = _outcome(spray, metric, xb, y)
        _same_outcome_row(got[b] if errors[b] is None else errors[b], one)


def test_batched_curvature_keeps_signed_zeros():
    """A flat Randers metric has zero spray and zero curvature; the batch
    gives each row the zeros, and their signs, of the one-point call."""
    metric = flat_randers(0.3, -0.2)
    ys = np.concatenate([sphere_directions(2, 16), -sphere_directions(2, 16)])
    for fn, batched in ((ricci, riccis), (einstein_scalar, einstein_scalars)):
        want = _one_point(fn, metric, [0.1, 0.2], ys)
        assert not want.any()
        _same_bits(batched(metric, [0.1, 0.2], ys), want)
    rows = np.array([[0.1, 0.2, *y] for y in ys])
    want = _spray_rows(metric, rows)
    assert not want.any()
    _same_bits(sprays(metric, rows), want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the tiny row
def test_batched_curvature_leaves_failing_rows_to_the_one_point_call():
    # with b = (0.8, 0) and p = 3, y = (1, 0) is in the domain but g is not
    # positive definite there; y = 0 is outside the domain
    metric = ppower_metric(PPowerSpec(IDENTITY, ["0.8", "0"], 3.0))
    x = [0.1, 0.0]
    good = [[0.1, 1.0], [-0.3, 1.0], [0.2, -1.0]]
    singular = [1.0, 0.0]
    outside = [0.0, 0.0]
    tiny = [0.0, 5e-103]  # the jets overflow: the one-point call raises
    for ys in ([*good, singular, outside], [good[0], outside, singular],
               [singular, *good], [*good, tiny]):
        ys = np.array(ys)
        for fn, batched in ((ricci, riccis),
                            (einstein_scalar, einstein_scalars)):
            want = _one_point(fn, metric, x, ys)
            assert isinstance(want, FinslerError) or not np.isfinite(want[-1])
            _same_outcome(lambda: batched(metric, x, ys), want)
        _rows_kept(metric, x, ys)
    _same_bits(einstein_scalars(metric, x, good),
               _one_point(einstein_scalar, metric, x, good))


@pytest.mark.parametrize("n,rows,chunks", [(2, 40, [16, 16, 8]),
                                           (3, 10, [10]),
                                           (4, 6, [6]),
                                           (4, 17, [16, 1])])
def test_batched_f_is_built_in_bounded_chunks(n, rows, chunks, monkeypatch):
    """The order-4 F of a direction batch is built in chunks of at most
    CHUNK_ROWS rows, in every dimension, 4-D included; a last chunk of one
    row is built with ``metric.jet``."""
    metric = _direction_metric(n, 1.0)
    x = [0.1, -0.2, 0.15, 0.05][:n]
    ys = sphere_directions(n, rows)
    want = _one_point(einstein_scalar, metric, x, ys)
    built = []
    one_point = []
    batch_jet, jet = metric.batch_jet, metric.jet

    def counting_batch(x, y, order, *cap):
        built.append(y.shape[1])
        return batch_jet(x, y, order, *cap)

    def counting_jet(x, y, order, *cap):
        one_point.append(order)
        return jet(x, y, order, *cap)

    monkeypatch.setattr(metric, "batch_jet", counting_batch)
    monkeypatch.setattr(metric, "jet", counting_jet)
    samples = core.evaluate(metric, x, ys)
    assert samples.ok.all()
    _same_bits(np.array(samples.lam), want)
    assert chunks == [min(core.CHUNK_ROWS, rows - start)
                      for start in range(0, rows, core.CHUNK_ROWS)]
    assert built == [c for c in chunks if c > 1]
    assert one_point == [4] * chunks.count(1)
    assert max(built) <= core.CHUNK_ROWS
    assert max(built) > 1  # 4-D is batched too


def test_einstein_check_takes_each_point_in_one_batch(monkeypatch):
    metric = _direction_metric(2, 0.5)
    points = [[0.2, -0.1], [-0.3, 0.25]]
    want = [_one_point(einstein_scalar, metric, x,
                       [d for d in sphere_directions(2, 12)
                        if metric.in_domain(x, d)]) for x in points]
    calls = []
    monkeypatch.setattr(core, "einstein_scalar",
                        lambda *args: calls.append(args))
    spreads, skipped = runner.EinsteinTable(
        metric, sphere_directions(2, 12)).spreads(points)
    assert not calls and not skipped
    assert spreads == [float(w.max() - w.min()) for w in want]


# -- the batched entries with one point x per row --

def _one_point_rows(fn, metric, xs, ys):
    """The loop over (x, y) rows that a batch with one x per row replaces:
    values, or the first error."""
    try:
        return np.array([fn(metric, list(x), list(y)) for x, y in zip(xs, ys)])
    except FinslerError as exc:
        return exc


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_curvature_takes_one_point_per_row(n):
    """With a (B, n) array x, row b of riccis and einstein_scalars has the
    bits of the one-point call at (x[b], y[b]), signs of zeros included;
    a nested list of points gives the same rows."""
    rng = np.random.default_rng(40 + n)
    rows = 6 if n == 4 else 20
    xs = rng.uniform(-0.3, 0.3, size=(rows, n))
    ys = sphere_directions(n, rows)
    ys[0] = 0.0
    ys[0, -1] = -1.0  # an axis direction, with zeros of both signs
    ys[1] = -ys[0]
    cases = [(_direction_metric(n, p), xs) for p in (0.5, 1.0, 2.0)]
    if n == 2:  # zero curvature: the zero of each row keeps its sign
        cases.append((flat_randers(0.3, -0.2), xs))
    for metric, points in cases:
        for fn, batched in ((ricci, riccis),
                            (einstein_scalar, einstein_scalars)):
            want = _one_point_rows(fn, metric, points, ys)
            _same_bits(batched(metric, points, ys), want)
            _same_bits(batched(metric, points.tolist(), ys.tolist()), want)
        samples = core.evaluate(metric, points, ys)
        assert samples.ok.all()
        _same_bits(np.array(samples.lam),
                   _one_point_rows(einstein_scalar, metric, points, ys))


def test_batched_curvature_with_a_point_per_row_raises_the_first_error():
    # with b = (0.8, 0) and p = 3, y = (1, 0) is in the domain but g is not
    # positive definite there; y = 0 is outside the domain
    metric = ppower_metric(PPowerSpec(IDENTITY, ["0.8", "0"], 3.0))
    good = [([0.1, 0.0], [0.1, 1.0]), ([-0.2, 0.3], [-0.3, 1.0]),
            ([0.0, -0.4], [0.2, -1.0])]
    singular = ([0.3, 0.1], [1.0, 0.0])
    outside = ([-0.1, 0.2], [0.0, 0.0])
    for samples in ([*good, singular, outside], [good[0], outside, singular],
                    [singular, *good]):
        xs = np.array([x for x, _ in samples])
        ys = np.array([y for _, y in samples])
        for fn, batched in ((ricci, riccis),
                            (einstein_scalar, einstein_scalars)):
            want = _one_point_rows(fn, metric, xs, ys)
            assert isinstance(want, FinslerError)
            with pytest.raises(type(want), match=re.escape(str(want))):
                batched(metric, xs, ys)
        assert core.evaluate(metric, xs, ys).ok.tolist() == [
            (x, y) in good for x, y in samples]


def test_domain_rows_take_one_point_per_row():
    """in_domain_rows with one point per row is in_domain row by row, also
    where a coefficient cannot be evaluated at some point (sqrt(x1) at
    x1 < 0), so the batch of points falls back to one point at a time."""
    metric = ppower_metric(PPowerSpec([["1 + sqrt(x1)", "0"], ["0", "1"]],
                                      ["0.3*x2", "0"], 2.0))
    rng = np.random.default_rng(5)
    for xs in (rng.uniform(0.1, 0.5, size=(6, 2)),
               rng.uniform(-0.5, 0.5, size=(6, 2))):
        ys = rng.uniform(-1.0, 1.0, size=(6, 2))
        ys[0] = 0.0
        want = [metric.in_domain(list(x), list(y)) for x, y in zip(xs, ys)]
        assert metric.in_domain_rows(xs, ys).tolist() == want
        assert want[1:].count(True) >= 1


def test_sprays_keep_the_float_tail_off_the_one_point_entries(monkeypatch):
    """On derivative-soundness stencils the positivity test of g and the
    solve for G^i run on whole arrays: neither one-point entry is
    reached, and every row keeps the bits of ``spray``."""
    from finslerlab import linalg

    metric = _direction_metric(2, 0.5)
    stencils = _soundness_stencils(metric, 3, 17)
    wants = [_spray_rows(metric, rows) for rows in stencils]
    calls = []
    for module, name in ((core, "is_positive_definite"), (linalg, "solve"),
                         (linalg, "is_positive_definite")):
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    for rows, want in zip(stencils, wants):
        _same_bits(sprays(metric, rows), want)
    assert not calls


@functools.lru_cache(maxsize=None)
def _curved_metric(p):
    return ppower_metric(PPowerSpec(CURVED, CURVED_BETA, p))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([0.5, 1.0, 2.0, -1.0, 3.0]),
       k=st.integers(-40, 40),
       x=st.lists(st.floats(-0.4, 0.4), min_size=2, max_size=2),
       size=st.lists(st.floats(0.1, 1.0), min_size=2, max_size=2),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=2))
@example(p=0.5, k=-5, x=[0.1596666840924873, -0.11646717599415407],
         size=[0.38166199714679894, 0.99999], signs=[-1.0, 1.0])
def test_sprays_and_einstein_scalars_are_homogeneous(p, k, x, size, signs):
    """Scaling y by 2^k scales G^i by 4^k and keeps the Einstein scalar,
    to one or two units in the last place, and the batched entries keep
    the bits of the one-point entries at both scales.

    Exact bits are not kept in general: the jet of a power takes
    v ** (r - j) from the C library's pow, which is not exactly
    scale-invariant; at p = 0.5, x = (0.1596666840924873,
    -0.11646717599415407), y = (-0.38166199714679894, 0.99999) and
    k = -5 the spray differs from 4^k times its value at y in the last
    bit."""
    metric = _curved_metric(p)
    y = [s * v for s, v in zip(signs, size)]
    scaled = [2.0 ** k * v for v in y]
    try:
        g = spray(metric, x, y)
        lam = einstein_scalar(metric, x, y)
    except FinslerError:
        return  # outside the domain, or g not positive definite
    g_scaled = spray(metric, x, scaled)
    lam_scaled = einstein_scalar(metric, x, scaled)
    assert np.abs(g_scaled / 4.0 ** k - g).max() <= 1e-14 * np.abs(g).max()
    assert abs(lam_scaled - lam) <= 1e-14 * max(1.0, abs(lam))
    _same_bits(sprays(metric, [x + y, x + scaled]), np.array([g, g_scaled]))
    samples = core.evaluate(metric, x, np.array([y, scaled]))
    assert samples.ok.all()
    _same_bits(np.array(samples.lam), np.array([lam, lam_scaled]))


@pytest.mark.parametrize("n", [2, 3])
def test_spray_jet_rows_equal_the_one_point_spray_jets(n):
    """The batched spray jets, with one point x per row, have the bits of
    ``_spray_jets`` row by row; ``evaluate`` runs the same tail
    (``_spray_tail_rows``)."""
    metric = _direction_metric(n, 0.5 if n == 2 else 1.0)
    rng = np.random.default_rng(40 + n)
    xs = rng.uniform(-0.3, 0.3, size=(12, n))
    ys = rng.uniform(0.4, 1.0, size=(12, n)) * rng.choice([-1.0, 1.0],
                                                          size=(12, n))
    got, errors = core._spray_jet_rows(metric, xs, ys)
    assert errors == [None] * len(xs)
    for b in range(len(xs)):
        g_jets, _ = _spray_jets(metric, xs[b].tolist(), ys[b].tolist())
        _same_bits(got[b], np.stack([g.c for g in g_jets]))
