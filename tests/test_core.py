import math

import numpy as np
import pytest

from finslerlab import (
    DegeneratePlane,
    DomainError,
    PPowerSpec,
    SingularMetric,
    TangentSample,
    curvature_point,
    einstein_check,
    einstein_scalar,
    flag_curvature,
    fundamental_tensor,
    ppower_metric,
    reversibility_residual,
    ricci,
    riemann_curvature,
    riemann_data,
    riemann_metric,
    spray,
    sqrt2d_family,
)
from finslerlab.core import sphere_directions

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


def test_reversibility_einstein_instances(example_family):
    metric = example_family.metric()
    assert reversibility_residual(metric, [0.5, 0.2], [1.0, 0.3]) < 1e-8
    flat = flat_randers(0.28, -0.12)
    assert reversibility_residual(flat, [0.1, 0.2], [1.0, 0.3]) < 1e-12


def test_reversibility_negative_control():
    metric = ppower_metric(PPowerSpec(IDENTITY, ["0.3*x2", "0"], 1.0))
    assert reversibility_residual(metric, [0.0, 1.0], [1.0, 0.5]) > 1e-3


def test_reversibility_reversible_metric():
    metric = riemann_metric(SPHERE)
    assert reversibility_residual(metric, [0.2, 0.1], [0.7, -0.4]) < 1e-12


def test_reversibility_domain_error():
    # norm above 1: the reversed ray leaves the cone 1 + s > 0
    metric = flat_randers(1.2, 0.0)
    with pytest.raises(DomainError):
        reversibility_residual(metric, [0.0, 0.0], [1.0, 0.1])


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


def test_einstein_check_verdicts(example_family):
    metric = example_family.metric()
    good = einstein_check(metric, [[0.5, 0.2], [0.3, -0.4]], 32, 1e-7)
    assert good.verdict and good.max_spread < 1e-9
    bad_metric = ppower_metric(PPowerSpec(IDENTITY, ["0.3*x2", "0"], 1.0))
    bad = einstein_check(bad_metric, [[0.0, 1.0]], 16, 1e-7)
    assert not bad.verdict
    const = einstein_check(riemann_metric(SPHERE), [[0.1, 0.2]], 16, 1e-7)
    assert const.verdict


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


def test_curvature_point_assembly(example_family):
    metric = example_family.metric()
    cp = curvature_point(metric, [0.6, 0.0], [1.0, 0.2])
    assert isinstance(cp.sample, TangentSample)
    assert cp.einstein_scalar == pytest.approx(-1.25, abs=1e-9)
    assert cp.ricci == pytest.approx(np.trace(cp.riemann))
    np.testing.assert_allclose(cp.g @ cp.g_inv, np.eye(2), atol=1e-10)


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
    from finslerlab.core import _partial_table, _read
    from finslerlab.jets import Jet, extract_partial, get_context

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
    }
    for name, want in wants.items():
        idx = getattr(table, name)
        per_jet = _read(stacked, idx, ctx)
        for i, jet in enumerate(jets):
            got = _read(jet.c, idx, ctx)
            assert got.tobytes() == per_jet[i].tobytes()
            for pos in np.ndindex(idx.shape):
                assert got[pos].tobytes() == np.float64(
                    want(jet, *pos)).tobytes(), (name, pos)
    assert _partial_table(ctx) is table


def test_domain_beyond_positivity_bound_surfaces_as_singular_metric():
    """The p-power domain tests alpha > 0 and 1 + s > 0 only; with
    1 + (1-p) s = -0.6 the sample is in the domain and the engine reports
    the lost convexity as SingularMetric."""
    metric = ppower_metric(PPowerSpec(IDENTITY, ["0.8", "0"], 3.0))
    assert metric.in_domain([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(SingularMetric):
        spray(metric, [0.0, 0.0], [1.0, 0.0])
