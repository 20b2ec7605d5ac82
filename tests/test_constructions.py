import math

import numpy as np
import pytest

from finslerlab import (
    DegenerateValue,
    DomainError,
    NotEinstein,
    PPowerSpec,
    SingularMetric,
    Sqrt2dFamilySpec,
    einstein_scalar,
    fundamental_tensor,
    killing_deformation,
    positivity_check,
    positivity_sample,
    ppower_metric,
    randers_einstein_residuals,
    ricci_flat_parallel_check,
    riemann_metric,
    sqrt2d_K_from_lambda,
    sqrt2d_einstein_residual,
    sqrt2d_family,
    sqrt2d_flag_curvature,
    square_einstein_residuals,
)
from finslerlab.core import circle_directions

IDENTITY = [["1", "0"], ["0", "1"]]
SPHERE = [["4/(1+x1^2+x2^2)^2", "0"], ["0", "4/(1+x1^2+x2^2)^2"]]

FUNK_ALPHA = [
    ["(1-x2^2)/(1-x1^2-x2^2)^2", "x1*x2/(1-x1^2-x2^2)^2"],
    ["x1*x2/(1-x1^2-x2^2)^2", "(1-x1^2)/(1-x1^2-x2^2)^2"],
]
FUNK_BETA = ["x1/(1-x1^2-x2^2)", "x2/(1-x1^2-x2^2)"]

EXAMPLE_TRIPLE = Sqrt2dFamilySpec("-x2", "x1", "x1^2+x2^2")


@pytest.fixture(scope="module")
def example_family():
    return sqrt2d_family(EXAMPLE_TRIPLE)


def test_ppower_values():
    for p, want in ((1.0, 1.5), (2.0, 2.25), (0.5, math.sqrt(1.5))):
        metric = ppower_metric(PPowerSpec(IDENTITY, ["0.5", "0"], p))
        assert metric.value([0.0, 0.0], [1.0, 0.0]) == pytest.approx(want)


def test_ppower_rejects_zero_exponent():
    with pytest.raises(ValueError):
        PPowerSpec(IDENTITY, ["0.5", "0"], 0.0)


def test_riemann_metric_is_alpha():
    metric = riemann_metric(SPHERE)
    assert metric.value([0.0, 0.0], [1.0, 0.0]) == pytest.approx(2.0)
    assert metric.value([0.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0)


def test_positivity_check_cases():
    assert positivity_check(3.0, 0.2)
    assert not positivity_check(3.0, 0.3)
    assert positivity_check(2.0, 0.99)
    assert positivity_check(0.4, 0.8)
    assert positivity_check(0.4, 0.95)  # exact bound 2/2.016
    assert not positivity_check(0.4, 0.993)
    assert positivity_check(1.0, 0.999)
    assert not positivity_check(1.0, 1.0)
    assert positivity_check(-1.0, 0.24)
    assert not positivity_check(-1.0, 0.26)
    with pytest.raises(ValueError):
        positivity_check(0.0, 0.5)
    with pytest.raises(ValueError):
        positivity_check(1.0, -0.1)


def test_positivity_sample_agreement_outer_cases():
    # one pair on each side of the bound in each of the three cases
    edge = (4.0 - 5.0 * 0.2) / (4.0 * (1.0 - 0.2) * (1.0 - 0.04))
    for p, b_sq in ((3.0, 0.2), (3.0, 0.3), (2.0, 0.99), (2.0, 1.05),
                    (1.0, 0.5), (1.0, 1.1), (-1.0, 0.2), (-1.0, 0.3),
                    (0.5, 0.9), (0.5, 1.02), (4.0, 0.1), (4.0, 0.12),
                    (0.4, 0.95), (0.2, edge * 1.01)):
        sampled, _ = positivity_sample(p, b_sq, 201)
        assert sampled == positivity_check(p, b_sq), (p, b_sq)


def test_positivity_sample_matches_actual_convexity_small_exponent():
    """For 0 < p < 1/2 the positive region reaches past the stated bound
    (2-p)^2/(4(1-p^2)^2), about 0.90703 at p = 0.4, to the exact bound
    (4-5p)/(4(1-p)(1-p^2)), about 0.99206: at (0.4, 0.95) the fundamental
    tensor is positive definite and both routes accept it."""
    sampled, margin = positivity_sample(0.4, 0.95, 501)
    assert sampled and margin > 0.0
    assert positivity_check(0.4, 0.95)
    b = math.sqrt(0.95)
    metric = ppower_metric(PPowerSpec(IDENTITY, [f"{b:.15f}", "0"], 0.4))
    for y in circle_directions(720):
        g, _ = fundamental_tensor(metric, [0.0, 0.0], y.tolist())
        assert np.linalg.eigvalsh(g).min() > 0.0
    # beyond the true inequality boundary both routes reject
    hull = (4.0 - 5.0 * 0.4) / (4.0 * (1.0 - 0.4) * (1.0 - 0.16))
    sampled_beyond, _ = positivity_sample(0.4, hull * 1.05, 501)
    assert not sampled_beyond
    assert not positivity_check(0.4, hull * 1.05)


@pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4])
def test_positivity_check_edge_small_exponent(p):
    """1% inside the exact bound g is positive definite in every direction;
    1% outside it is singular in some direction, and the check flips."""
    edge = (4.0 - 5.0 * p) / (4.0 * (1.0 - p) * (1.0 - p * p))
    assert positivity_check(p, 0.99 * edge)
    assert not positivity_check(p, 1.01 * edge)
    for factor, want_singular in ((0.99, False), (1.01, True)):
        b = math.sqrt(factor * edge)
        metric = ppower_metric(PPowerSpec(IDENTITY, [f"{b:.15f}", "0"], p))
        singular = 0
        for y in circle_directions(360):
            try:
                g, _ = fundamental_tensor(metric, [0.0, 0.0], y.tolist())
            except SingularMetric:
                singular += 1
                continue
            except DomainError:  # 1 + beta/alpha <= 0 needs b > 1
                assert b > 1.0
                continue
            assert np.linalg.eigvalsh(g).min() > 0.0
        assert (singular > 0) == want_singular, (factor, singular)


def test_positivity_sample_explicit_grid():
    ok, margin = positivity_sample(1.0, 0.49, [-0.3, 0.0, 0.4])
    assert ok and margin > 0
    # the endpoints +-b belong to the slope interval
    ok, _ = positivity_sample(1.0, 0.25, [-0.5, 0.5])
    assert ok
    with pytest.raises(ValueError):
        positivity_sample(1.0, 0.25, [0.6])
    with pytest.raises(ValueError):
        positivity_sample(1.0, 0.25, 1)


@pytest.mark.parametrize("p", [-1.0, 0.75, 1.0, 3.0])
def test_positivity_sample_includes_slope_endpoints(p):
    """For p <= 0 and p >= 1/2 the binding inequality sits at s = -b, so
    only a grid that contains it agrees with the closed form just past the
    bound."""
    bound = 1.0 / (p - 1.0) ** 2 if p > 2.0 or p < 0.0 else 1.0
    for factor in (0.99, 1.005, 1.01):
        b_sq = factor * bound
        for count in (101, 201):
            sampled, _ = positivity_sample(p, b_sq, count)
            assert sampled == positivity_check(p, b_sq) == (factor < 1.0), (
                factor, count)


def test_family_values(example_family):
    from finslerlab.exprlang import eval_scalar
    x = [0.6, 0.0]
    assert math.sqrt(eval_scalar(example_family.alpha[0][0], x)) == \
        pytest.approx(1.397542, abs=1e-6)
    assert eval_scalar(example_family.beta[1], x) == pytest.approx(
        0.838525, abs=1e-6)
    assert example_family.b_squared(x) == pytest.approx(0.36)
    res = example_family.pde_residuals(x)
    assert max(abs(v) for v in res.values()) == 0.0


def test_family_norm_equals_b_field(example_family):
    from finslerlab.alphabeta import ab_tensors
    for x in ([0.5, 0.2], [-0.3, 0.4]):
        ab = ab_tensors(example_family.alpha, example_family.beta, x)
        assert ab.b2 == pytest.approx(example_family.b_squared(x), rel=1e-12)


def test_family_domain_errors(example_family):
    with pytest.raises(DomainError):
        example_family.b_squared([1.2, 0.0])  # B > 1
    with pytest.raises(DomainError):
        sqrt2d_flag_curvature(EXAMPLE_TRIPLE, [1.2, 0.0])
    with pytest.raises(DegenerateValue):
        sqrt2d_flag_curvature(EXAMPLE_TRIPLE, [0.0, 0.6])  # v = x1 = 0


def test_constant_triple():
    fam = sqrt2d_family(Sqrt2dFamilySpec("1", "0", "0.5"))
    res = fam.pde_residuals([0.3, 0.4])
    assert max(abs(v) for v in res.values()) == 0.0
    from finslerlab.alphabeta import ab_tensors
    ab = ab_tensors(fam.alpha, fam.beta, [0.3, 0.4])
    assert np.abs(ab.s).max() < 1e-14  # constant B: the form is closed


def test_flag_curvature_formula(example_family):
    assert sqrt2d_flag_curvature(EXAMPLE_TRIPLE, [0.6, 0.0]) == \
        pytest.approx(-1.25, abs=1e-12)
    for x in ([0.5, 0.2], [0.3, -0.4], [-0.45, 0.3]):
        b = example_family.b_squared(x)
        assert sqrt2d_flag_curvature(EXAMPLE_TRIPLE, x) == pytest.approx(
            -1.0 / math.sqrt(1.0 - b), rel=1e-10)


def test_flag_curvature_matches_engine(example_family):
    metric = example_family.metric()
    for x in ([0.5, 0.2], [0.3, -0.4]):
        k_formula = sqrt2d_flag_curvature(EXAMPLE_TRIPLE, x)
        lam = einstein_scalar(metric, x, [0.7, 0.4])
        assert k_formula == pytest.approx(lam, abs=1e-9)


def test_structure_equation_residuals(example_family):
    for x in ([0.5, 0.2], [0.3, -0.4]):
        assert sqrt2d_einstein_residual(example_family.alpha,
                                        example_family.beta, x) < 1e-8
    # parallel form: both sides vanish
    assert sqrt2d_einstein_residual(IDENTITY, ["0.3", "0"], [0.1, 0.2]) == 0.0
    # generic non-Einstein instance
    assert sqrt2d_einstein_residual(IDENTITY, ["0.3*x2", "0"],
                                    [0.0, 1.0]) > 1e-3


def test_base_curvature_formula_matches_tensor_path(example_family):
    from finslerlab import riemann_data, sqrt2d_base_curvature
    for x in ([0.6, 0.0], [0.5, 0.2], [0.3, -0.4], [-0.45, 0.3]):
        lam_formula = sqrt2d_base_curvature(EXAMPLE_TRIPLE, x)
        lam_tensor = riemann_data(example_family.alpha, x).sectional_curvature()
        assert lam_formula == pytest.approx(lam_tensor, rel=1e-10)
    assert sqrt2d_base_curvature(EXAMPLE_TRIPLE, [0.6, 0.0]) == pytest.approx(
        -3.75, abs=1e-12)
    with pytest.raises(DegenerateValue):
        sqrt2d_base_curvature(EXAMPLE_TRIPLE, [0.0, 0.6])


def test_full_structure_system_on_family(example_family):
    from finslerlab import sqrt2d_structure_report
    for x in ([0.6, 0.0], [0.5, 0.2], [0.3, -0.4], [-0.45, 0.3]):
        rep = sqrt2d_structure_report(example_family.alpha,
                                      example_family.beta, x)
        assert rep.verdict, rep.residuals
        assert max(rep.residuals.values()) < 1e-8
        b = example_family.b_squared(x)
        # the two scalars reproduce the engine curvature:
        # K = 2 (lambda - 32 theta) / (2 + b^2)
        k = 2.0 * (rep.scalars["lambda"] - 32.0 * rep.scalars["theta"]) / (2.0 + b)
        assert k == pytest.approx(-1.0 / math.sqrt(1.0 - b), rel=1e-9)


def test_full_structure_system_rejects_non_einstein():
    from finslerlab import sqrt2d_structure_report
    rep = sqrt2d_structure_report(IDENTITY, ["0.3*x2", "0"], [0.0, 1.0])
    assert not rep.verdict
    assert rep.residuals["r00_equation"] > 1e-3


def test_curvature_from_alpha_data(example_family):
    assert sqrt2d_K_from_lambda(example_family.alpha, example_family.beta,
                                [0.6, 0.0]) == pytest.approx(-1.25, abs=1e-9)
    metric = example_family.metric()
    for x in ([0.5, 0.2], [-0.3, 0.4]):
        k = sqrt2d_K_from_lambda(example_family.alpha, example_family.beta, x)
        lam = einstein_scalar(metric, x, [0.6, 0.8])
        assert k == pytest.approx(lam, abs=1e-6)


def test_curvature_from_alpha_data_flat_parallel():
    fam = sqrt2d_family(Sqrt2dFamilySpec("1", "0", "0.5"))
    assert sqrt2d_K_from_lambda(fam.alpha, fam.beta, [0.2, 0.3]) == \
        pytest.approx(0.0, abs=1e-12)


def test_curvature_from_alpha_data_rejects_non_einstein():
    with pytest.raises(NotEinstein):
        sqrt2d_K_from_lambda(IDENTITY, ["0.3*x2", "0"], [0.0, 1.0])


def test_killing_deformation_family(example_family):
    kd = killing_deformation(example_family.alpha, example_family.beta,
                             [0.6, 0.0])
    assert kd.r_residual < 1e-8
    assert kd.btilde_norm_sq == pytest.approx(0.703125, abs=1e-12)
    assert kd.expected_norm_sq == pytest.approx(0.703125, abs=1e-12)


def test_killing_deformation_parallel_exact():
    kd = killing_deformation(IDENTITY, ["0.3", "0.1"], [0.2, 0.4])
    assert kd.r_residual == 0.0
    assert kd.btilde_norm_sq == pytest.approx(kd.expected_norm_sq, abs=1e-15)


def test_killing_deformation_generic_fails():
    kd = killing_deformation(IDENTITY, ["0.3*x2", "0"], [0.0, 1.0])
    assert kd.r_residual > 1e-3


def test_killing_deformation_norm_domain():
    with pytest.raises(DomainError):
        killing_deformation(IDENTITY, ["1.1", "0"], [0.0, 0.0])


def test_randers_conditions_flat_parallel():
    rep = randers_einstein_residuals(IDENTITY, ["0.3", "0.1"],
                                     [[0.1, 0.2], [0.3, -0.1]])
    assert rep.verdict
    assert max(rep.residuals.values()) == 0.0
    assert all(abs(c) < 1e-15 for c in rep.scalars["c"])


def test_randers_conditions_funk():
    rep = randers_einstein_residuals(FUNK_ALPHA, FUNK_BETA,
                                     [[0.2, 0.3], [0.1, -0.4]])
    assert rep.verdict
    assert rep.residuals["einstein_relation"] < 1e-6
    for c, sigma in zip(rep.scalars["c"], rep.scalars["sigma"]):
        assert sigma - c * c == pytest.approx(-0.25, abs=1e-9)


def test_randers_conditions_negative_control():
    rep = randers_einstein_residuals(IDENTITY, ["0.3*x2", "0"], [[0.0, 1.0]])
    assert not rep.verdict
    assert rep.residuals["closedness"] > 1e-3


def test_square_conditions_flat_parallel():
    rep = square_einstein_residuals(IDENTITY, ["0.3", "0.1"], [[0.1, 0.2]])
    assert rep.verdict
    assert rep.residuals["ricci_flat"] < 1e-8


def test_square_conditions_negative_control():
    rep = square_einstein_residuals(IDENTITY, ["0.3*x2", "0"],
                                    [[0.0, 1.0], [0.2, 0.8]])
    assert not rep.verdict
    assert rep.residuals["covariant_derivative"] > 1e-3


def test_square_conditions_pass_implies_ricci_flat():
    reports = [
        square_einstein_residuals(IDENTITY, ["0.3", "0.1"], [[0.1, 0.2]]),
        square_einstein_residuals(IDENTITY, ["0.3*x2", "0"], [[0.0, 1.0]]),
    ]
    for rep in reports:
        if rep.verdict:
            assert rep.residuals["ricci_flat"] < 1e-8


def test_ricci_flat_parallel_check():
    ok, cov, ric = ricci_flat_parallel_check(IDENTITY, ["0.3", "0.1"],
                                             [[0.1, 0.2]])
    assert ok and cov == 0.0 and ric == 0.0
    bad, _, ric = ricci_flat_parallel_check(SPHERE, ["0", "0"], [[0.1, 0.2]])
    assert not bad and ric > 1.0
    bad2, cov2, _ = ricci_flat_parallel_check(IDENTITY, ["0.3*x2", "0"],
                                              [[0.0, 1.0]])
    assert not bad2 and cov2 > 0.1


def test_families_of_one_triple_share_their_trees_and_tapes():
    from finslerlab import constructions

    first = sqrt2d_family(("-x2", "x1", "x1^2+x2^2"))
    again = sqrt2d_family(Sqrt2dFamilySpec("-x2", "x1", "x1^2+x2^2"))
    assert again.alpha[0][0] is first.alpha[0][0]
    assert again.beta[1] is first.beta[1]
    assert again.metric().coefficients.tape("a") is \
        first.metric().coefficients.tape("a")
    other = sqrt2d_family(("1", "0", "0.5"))
    assert other.alpha[0][0] is not first.alpha[0][0]
    for k in range(constructions.SQRT2D_TREES_KEPT + 3):
        sqrt2d_family(("1", "0", f"0.{k + 1}"))
    assert len(constructions._SQRT2D_TREES) == constructions.SQRT2D_TREES_KEPT
