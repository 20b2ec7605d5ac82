import math

import numpy as np
import pytest

from finslerlab import (
    NotPositiveDefinite,
    PPowerSpec,
    curvature_term_sign,
    ppower_metric,
    randers_ricci,
    ricci,
    ricci_identity_residuals,
    riemann_data,
    spray,
)
from finslerlab.alphabeta import (
    ab_tensors,
    ab_tensors_from_jets,
    covector_jets,
    matrix_jets,
    riemann_data_from_jets,
    structural_spray,
)
from finslerlab.exprlang import eval_jet, parse
from finslerlab.jets import get_context

IDENTITY = [["1", "0"], ["0", "1"]]
SPHERE = [["4/(1+x1^2+x2^2)^2", "0"], ["0", "4/(1+x1^2+x2^2)^2"]]
CURVED = [
    ["1 + 0.3*x1^2 + 0.1*x2^2", "0.12*x1*x2"],
    ["0.12*x1*x2", "1 + 0.2*x2^2 + 0.15*x1^2"],
]
CURVED_BETA = ["0.2*x2 + 0.05*x1^2", "0.1*x1 - 0.04*x2^2"]

FUNK_ALPHA = [
    ["(1-x2^2)/(1-x1^2-x2^2)^2", "x1*x2/(1-x1^2-x2^2)^2"],
    ["x1*x2/(1-x1^2-x2^2)^2", "(1-x1^2)/(1-x1^2-x2^2)^2"],
]
FUNK_BETA = ["x1/(1-x1^2-x2^2)", "x2/(1-x1^2-x2^2)"]


def tensors(alpha, beta, x):
    rd = riemann_data_from_jets(matrix_jets(alpha, x), x)
    return rd, ab_tensors_from_jets(rd, covector_jets(beta, x))


def test_euclidean_riemann_data():
    rd = riemann_data(IDENTITY, [0.4, -0.2])
    assert np.abs(rd.gamma).max() == 0.0
    assert np.abs(rd.riemann4).max() == 0.0
    assert np.abs(rd.ricci_alpha).max() == 0.0


def test_hand_christoffel_flat_chart():
    rd = riemann_data([["1", "0"], ["0", "x1^2"]], [2.0, 0.5])
    assert rd.gamma[0, 1, 1] == pytest.approx(-2.0)
    assert rd.gamma[1, 0, 1] == pytest.approx(0.5)
    assert rd.gamma[1, 1, 0] == pytest.approx(0.5)
    assert np.abs(rd.riemann4).max() < 1e-12
    np.testing.assert_allclose(rd.spray([1.0, 1.0]), [-1.0, 0.5], atol=1e-12)


def test_not_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        riemann_data([["1", "2"], ["2", "1"]], [0.0, 0.0])


def test_conformal_sphere_sectional_curvature():
    for x in ([0.0, 0.0], [0.3, -0.2], [0.5, 0.1]):
        rd = riemann_data(SPHERE, x)
        assert rd.sectional_curvature() == pytest.approx(1.0, abs=1e-12)


def test_sectional_curvature_conformal_factor_formula():
    # lambda = -e^(-2 sigma) (sigma_11 + sigma_22) for a = e^(2 sigma) I
    sigma_ast = parse("ln(2/(1+x1^2+x2^2))")
    ctx = get_context(2, 2)
    for x in ([0.0, 0.0], [0.25, -0.4], [0.6, 0.1]):
        jet = eval_jet(sigma_ast, ctx, x)
        lap = jet.partial((2, 0)) + jet.partial((0, 2))
        lam_formula = -math.exp(-2.0 * jet.value) * lap
        rd = riemann_data(SPHERE, x)
        assert rd.sectional_curvature() == pytest.approx(lam_formula,
                                                         rel=1e-12)


def test_constant_curvature_tensor_form():
    rd = riemann_data(SPHERE, [0.3, -0.2])
    want = (np.einsum("ik,jl->ijkl", rd.a, rd.a)
            - np.einsum("il,jk->ijkl", rd.a, rd.a))
    np.testing.assert_allclose(rd.riemann_low, want, atol=1e-12)


def test_first_bianchi_identity():
    rd = riemann_data(CURVED, [0.3, -0.4])
    cyc = (rd.riemann_low
           + np.transpose(rd.riemann_low, (0, 2, 3, 1))
           + np.transpose(rd.riemann_low, (0, 3, 1, 2)))
    assert np.abs(cyc).max() < 1e-9


def test_ab_tensors_hand_example():
    _, ab = ab_tensors(IDENTITY, ["0.3*x2", "0"], [0.0, 1.0])
    assert ab.r[0, 1] == pytest.approx(0.15)
    assert ab.s[0, 1] == pytest.approx(0.15)
    np.testing.assert_allclose(ab.svec, [0.0, 0.045], atol=1e-15)
    assert ab.t[0, 0] == pytest.approx(-0.0225)
    assert ab.b2 == pytest.approx(0.09)


def test_parallel_form_vanishing_tensors():
    _, ab = ab_tensors(IDENTITY, ["0.28", "-0.12"], [0.2, 0.3])
    for field in (ab.r, ab.s, ab.q, ab.t, ab.cov_b):
        assert np.abs(field).max() == 0.0


def test_split_and_symmetries():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, size=2).tolist()
        rd, ab = tensors(CURVED, CURVED_BETA, x)
        np.testing.assert_allclose(ab.r + ab.s, ab.cov_b, atol=1e-14)
        np.testing.assert_allclose(ab.r, ab.r.T, atol=1e-14)
        np.testing.assert_allclose(ab.s, -ab.s.T, atol=1e-14)
        assert abs(float(ab.b_up @ ab.svec)) < 1e-13


def test_two_dimensional_form_identity():
    # in dimension 2: s_ij = (b_i s_j - b_j s_i) / b^2
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, size=2).tolist()
        rd, ab = tensors(CURVED, CURVED_BETA, x)
        if ab.b2 < 1e-6:
            continue
        want = (np.outer(ab.b, ab.svec) - np.outer(ab.svec, ab.b)) / ab.b2
        np.testing.assert_allclose(ab.s, want, atol=1e-10)


def test_structural_spray_matches_generic():
    rng = np.random.default_rng(6)
    for p in (1.0, 2.0, -1.0, 0.5, 3.0):
        metric = ppower_metric(PPowerSpec(CURVED, CURVED_BETA, p))
        done = 0
        while done < 20:
            x = rng.uniform(-0.5, 0.5, size=2).tolist()
            y = rng.uniform(-1, 1, size=2).tolist()
            if not metric.in_domain(x, y):
                continue
            rd, ab = tensors(CURVED, CURVED_BETA, x)
            got = structural_spray(rd, ab, p, y)
            want = spray(metric, x, y)
            scale = max(1.0, float(np.abs(want).max()))
            assert float(np.abs(got - want).max()) / scale < 1e-9
            done += 1


def test_structural_spray_randers_closed_form():
    # for exponent 1 the structural formula collapses to
    # G = G_alpha + alpha s^i_0 + (r_00 - 2 alpha s_0) y^i / (2 F)
    rng = np.random.default_rng(14)
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, size=2).tolist()
        y = rng.uniform(-1, 1, size=2)
        rd, ab = tensors(CURVED, CURVED_BETA, x)
        alpha = rd.alpha(y)
        f = alpha + ab.beta(y)
        want = (rd.spray(y) + alpha * ab.s_i0(y)
                + (ab.r00(y) - 2.0 * alpha * ab.s0(y)) / (2.0 * f) * y)
        got = structural_spray(rd, ab, 1.0, y)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_parallel_form_spray_reduces_to_riemannian():
    # constant coefficients are parallel only over a flat chart
    rd, ab = tensors(IDENTITY, ["0.2", "-0.1"], [0.3, 0.1])
    y = [0.7, -0.4]
    assert np.abs(ab.cov_b).max() == 0.0
    np.testing.assert_allclose(structural_spray(rd, ab, 2.0, y), rd.spray(y),
                               atol=1e-13)


def test_randers_ricci_flat_parallel_zero():
    rd, ab = tensors(IDENTITY, ["0.3", "0.1"], [0.2, 0.5])
    assert randers_ricci(rd, ab, [1.0, 0.4]) == pytest.approx(0.0, abs=1e-14)


def test_randers_ricci_matches_engine_flat():
    beta = ["0.2*x2 + 0.1*x1*x2", "0.15*x1 - 0.05*x1^2"]
    metric = ppower_metric(PPowerSpec(IDENTITY, beta, 1.0))
    rng = np.random.default_rng(15)
    done = 0
    while done < 20:
        x = rng.uniform(-0.6, 0.6, size=2).tolist()
        y = rng.uniform(-1, 1, size=2).tolist()
        if not metric.in_domain(x, y):
            continue
        rd, ab = tensors(IDENTITY, beta, x)
        closed = randers_ricci(rd, ab, y)
        generic = ricci(metric, x, y)
        assert abs(closed - generic) / max(1.0, abs(generic)) < 1e-7
        done += 1


def test_funk_metric_constant_curvature():
    # classical unit-ball instance: Ric = -F^2/4
    metric = ppower_metric(PPowerSpec(FUNK_ALPHA, FUNK_BETA, 1.0))
    for x, y in ([[0.2, 0.3], [1.0, -0.4]], [[0.0, 0.5], [0.3, 1.0]],
                 [[-0.3, 0.1], [1.0, 1.0]]):
        rd, ab = tensors(FUNK_ALPHA, FUNK_BETA, x)
        f = metric.value(x, y)
        closed = randers_ricci(rd, ab, y)
        assert closed == pytest.approx(-f * f / 4.0, rel=1e-9)
        assert ricci(metric, x, y) == pytest.approx(-f * f / 4.0, rel=1e-9)


def test_identity_residuals_flat_parallel():
    rd, ab = tensors(IDENTITY, ["0.3", "0.1"], [0.2, 0.5])
    res, sign = ricci_identity_residuals(rd, ab)
    assert max(res) == 0.0
    assert sign in (-1, 1)


def test_identity_residuals_random_instances():
    rng = np.random.default_rng(16)
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, size=2).tolist()
        rd, ab = tensors(CURVED, CURVED_BETA, x)
        res, sign = ricci_identity_residuals(rd, ab)
        assert max(res) < 1e-7
        flipped, _ = ricci_identity_residuals(rd, ab, -sign)
        assert max(flipped) > 1e-5


def test_identity_residuals_killing_form_on_sphere():
    # rotational Killing form of the conformal round metric
    kb = ["-4*x2/(1+x1^2+x2^2)^2", "4*x1/(1+x1^2+x2^2)^2"]
    for x in ([0.3, 0.1], [-0.2, 0.4]):
        rd, ab = tensors(SPHERE, kb, x)
        assert np.abs(ab.r).max() < 1e-12  # Killing: symmetric part vanishes
        res, _ = ricci_identity_residuals(rd, ab)
        assert max(res) < 1e-7


def test_calibration_deterministic():
    assert curvature_term_sign() == curvature_term_sign()
    assert curvature_term_sign() in (-1, 1)


def test_family_form_contraction_closed_form():
    # for the induced square-root family, s_m s^m equals
    # (B-4)^2 (u B_2 - v B_1)^2 / (64 B sqrt(1 - B))
    from finslerlab import sqrt2d_family
    from finslerlab.jets import get_context

    fam = sqrt2d_family(("-x2", "x1", "x1^2+x2^2"))
    ctx = get_context(2, 2)
    for x in ([0.6, 0.0], [0.5, 0.2], [0.3, -0.4], [-0.45, 0.3]):
        _, ab = tensors(fam.alpha, fam.beta, x)
        u = eval_jet(fam.spec.u, ctx, x)
        v = eval_jet(fam.spec.v, ctx, x)
        bj = eval_jet(fam.spec.B, ctx, x)
        b_val = bj.value
        b1, b2 = bj.partial((1, 0)), bj.partial((0, 1))
        cross = u.value * b2 - v.value * b1
        want = ((b_val - 4.0) ** 2 * cross ** 2
                / (64.0 * b_val * math.sqrt(1.0 - b_val)))
        assert ab.s_m_s_up_m() == pytest.approx(want, abs=1e-8)


def test_three_dimensional_tensors():
    alpha = [["1 + 0.1*x3^2", "0", "0.05*x1*x2"],
             ["0", "1 + 0.2*x1^2", "0"],
             ["0.05*x1*x2", "0", "1"]]
    beta = ["0.1*x2", "0.05*x3", "0.08*x1"]
    x = [0.3, -0.2, 0.4]
    rd, ab = tensors(alpha, beta, x)
    np.testing.assert_allclose(ab.r + ab.s, ab.cov_b, atol=1e-13)
    res, _ = ricci_identity_residuals(rd, ab)
    assert max(res) < 1e-7


def test_three_dimensional_structural_spray_matches_generic():
    alpha = [["1 + 0.1*x3^2", "0", "0.05*x1*x2"],
             ["0", "1 + 0.2*x1^2", "0"],
             ["0.05*x1*x2", "0", "1"]]
    beta = ["0.1*x2", "0.05*x3", "0.08*x1"]
    rng = np.random.default_rng(23)
    for p in (1.0, 2.0, 0.5):
        metric = ppower_metric(PPowerSpec(alpha, beta, p))
        done = 0
        while done < 10:
            x = rng.uniform(-0.4, 0.4, size=3).tolist()
            y = rng.uniform(-1, 1, size=3).tolist()
            if not metric.in_domain(x, y):
                continue
            rd, ab = tensors(alpha, beta, x)
            got = structural_spray(rd, ab, p, y)
            want = spray(metric, x, y)
            scale = max(1.0, float(np.abs(want).max()))
            assert float(np.abs(got - want).max()) / scale < 1e-9
            done += 1


def test_three_dimensional_randers_ricci_matches_engine():
    alpha = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    beta = ["0.1*x2", "0.05*x3 - 0.04*x1*x3", "0.08*x1"]
    metric = ppower_metric(PPowerSpec(alpha, beta, 1.0))
    rng = np.random.default_rng(24)
    done = 0
    while done < 10:
        x = rng.uniform(-0.5, 0.5, size=3).tolist()
        y = rng.uniform(-1, 1, size=3).tolist()
        if not metric.in_domain(x, y):
            continue
        rd, ab = tensors(alpha, beta, x)
        closed = randers_ricci(rd, ab, y)
        generic = ricci(metric, x, y)
        assert abs(closed - generic) / max(1.0, abs(generic)) < 1e-7
        done += 1


@pytest.mark.parametrize("n", [2, 3])
def test_tensor_reads_equal_the_entry_by_entry_partials(n):
    """The gathered values, first and second partials of a_ij and b_i are
    the arrays that reading each entry with Jet.partial gives, bit for bit
    and in the same memory layout."""
    from finslerlab.jets import Jet

    ctx = get_context(n, 3)
    rng = np.random.default_rng(n)
    sym = rng.uniform(-0.1, 0.1, size=(n, n, ctx.ncoef))
    sym = sym + sym.transpose(1, 0, 2)
    sym[:, :, 0] += 2.0 * np.eye(n)  # positive definite a_ij
    a_jets = [[Jet(ctx, sym[i, j]) for j in range(n)] for i in range(n)]
    b_jets = [Jet(ctx, c) for c in rng.uniform(-0.3, 0.3, size=(n, ctx.ncoef))]

    def mono(*variables):
        e = [0] * n
        for v in variables:
            e[v] += 1
        return tuple(e)

    rd = riemann_data_from_jets(a_jets, [0.0] * n)
    ab = ab_tensors_from_jets(rd, b_jets)
    idx = range(n)
    wants = [
        (rd.a, [[a_jets[i][j].value for j in idx] for i in idx]),
        (rd.da, [[[a_jets[i][j].partial(mono(k)) for j in idx] for i in idx]
                 for k in idx]),
        (rd.dda, [[[[a_jets[i][j].partial(mono(l, k)) for j in idx]
                    for i in idx] for k in idx] for l in idx]),
        (ab.b, [bj.value for bj in b_jets]),
        (ab.db, [[b_jets[i].partial(mono(j)) for i in idx] for j in idx]),
        (ab.ddb, [[[b_jets[i].partial(mono(k, j)) for i in idx] for j in idx]
                  for k in idx]),
    ]
    for got, want in wants:
        want = np.array(want)
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
