import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finslerlab import (
    DegenerateValue,
    DomainError,
    NotEinstein,
    PPowerSpec,
    SingularMetric,
    Sqrt2dFamilySpec,
    ab_tensors,
    einstein_scalar,
    eval_scalar,
    fundamental_tensor,
    killing_deformation,
    parse,
    positivity_check,
    positivity_sample,
    ppower_metric,
    randers_einstein_residuals,
    ricci_flat_parallel_check,
    riemann_metric,
    sqrt2d_K_from_lambda,
    sqrt2d_base_curvature,
    sqrt2d_einstein_residual,
    sqrt2d_family,
    sqrt2d_flag_curvature,
    square_einstein_residuals,
)
from finslerlab import runner
from finslerlab.alphabeta import (
    ab_tensors_from_jets,
    covector_jets,
    matrix_jets,
    riemann_data_from_jets,
)
from finslerlab.constructions import (
    KillingDeformationResult,
    parse_covector,
    parse_matrix,
)
from finslerlab.core import circle_directions, worst
from finslerlab.errors import BatchFailed, FinslerError, NonFinite, coords
from finslerlab.jets import jet_pow
from finslerlab.linalg import invert
from finslerlab.manifest import load_manifest, validate_manifest
from finslerlab.scenarios import (
    ROTATIONAL_TRIPLE,
    SECOND_TRIPLE,
    rotational_points,
    second_triple_points,
)

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


def test_positivity_sample_rejects_an_empty_grid():
    """No slope is no evidence: at p = 3, b^2 = 0.9 the metric is not
    positive definite (the 101-slope grid finds a negative margin), and
    an empty grid must not pass it."""
    ok, margin = positivity_sample(3.0, 0.9, 101)
    assert not ok and margin < -3.0
    for grid in ([], ()):
        with pytest.raises(ValueError, match="at least one slope"):
            positivity_sample(3.0, 0.9, grid)


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
    for x in ([0.5, 0.2], [-0.3, 0.4]):
        _, ab = ab_tensors(example_family.alpha, example_family.beta, x)
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
    _, ab = ab_tensors(fam.alpha, fam.beta, [0.3, 0.4])
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
        assert sqrt2d_einstein_residual(*ab_tensors(
            example_family.alpha, example_family.beta, x)) < 1e-8
    # parallel form: both sides vanish
    assert sqrt2d_einstein_residual(
        *ab_tensors(IDENTITY, ["0.3", "0"], [0.1, 0.2])) == 0.0
    # generic non-Einstein instance
    assert sqrt2d_einstein_residual(
        *ab_tensors(IDENTITY, ["0.3*x2", "0"], [0.0, 1.0])) > 1e-3


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
        rep = sqrt2d_structure_report(*ab_tensors(
            example_family.alpha, example_family.beta, x))
        assert rep.verdict, rep.residuals
        assert max(rep.residuals.values()) < 1e-8
        b = example_family.b_squared(x)
        # the two scalars reproduce the engine curvature:
        # K = 2 (lambda - 32 theta) / (2 + b^2)
        k = 2.0 * (rep.scalars["lambda"] - 32.0 * rep.scalars["theta"]) / (2.0 + b)
        assert k == pytest.approx(-1.0 / math.sqrt(1.0 - b), rel=1e-9)


def test_full_structure_system_rejects_non_einstein():
    from finslerlab import sqrt2d_structure_report
    rep = sqrt2d_structure_report(
        *ab_tensors(IDENTITY, ["0.3*x2", "0"], [0.0, 1.0]))
    assert not rep.verdict
    assert rep.residuals["r00_equation"] > 1e-3


def test_curvature_from_alpha_data(example_family):
    assert sqrt2d_K_from_lambda(*ab_tensors(
        example_family.alpha, example_family.beta, [0.6, 0.0])) == \
        pytest.approx(-1.25, abs=1e-9)
    metric = example_family.metric()
    for x in ([0.5, 0.2], [-0.3, 0.4]):
        k = sqrt2d_K_from_lambda(
            *ab_tensors(example_family.alpha, example_family.beta, x))
        lam = einstein_scalar(metric, x, [0.6, 0.8])
        assert k == pytest.approx(lam, abs=1e-6)


def test_curvature_from_alpha_data_flat_parallel():
    fam = sqrt2d_family(Sqrt2dFamilySpec("1", "0", "0.5"))
    assert sqrt2d_K_from_lambda(*ab_tensors(fam.alpha, fam.beta,
                                            [0.2, 0.3])) == \
        pytest.approx(0.0, abs=1e-12)


def test_curvature_from_alpha_data_rejects_non_einstein():
    with pytest.raises(NotEinstein):
        sqrt2d_K_from_lambda(
            *ab_tensors(IDENTITY, ["0.3*x2", "0"], [0.0, 1.0]))


def _reference_killing_deformation(alpha_spec, beta_spec, x):
    """The Killing rescaling from the specs, as it was built before it read
    the tensor data of its point: alpha's and beta's order-3 jets and
    alpha's Levi-Civita data rebuilt at x."""
    a_jets = matrix_jets(parse_matrix(alpha_spec), x)
    b_jets = covector_jets(parse_covector(beta_spec), x)
    a_inv_jets = invert(a_jets)
    n = len(b_jets)
    b2_jet = None
    for i in range(n):
        for j in range(n):
            term = a_inv_jets[i][j] * b_jets[i] * b_jets[j]
            b2_jet = term if b2_jet is None else b2_jet + term
    b2 = b2_jet.value
    if b2 >= 1.0:
        raise DomainError(f"b^2 = {b2!r} >= 1 at x={coords(x)!r}")
    scale = jet_pow(1.0 - b2_jet, -0.75)
    rd = riemann_data_from_jets(a_jets, x)
    ab_t = ab_tensors_from_jets(rd, [scale * bj for bj in b_jets])
    return KillingDeformationResult(
        tuple(float(v) for v in x), float(np.abs(ab_t.r).max()), ab_t.b2,
        b2 / (1.0 - b2) ** 1.5, ab_t)


def _bits(value):
    """A value with the bytes of each float in it, sign bits included."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits(getattr(value, f.name)))
                     for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    if isinstance(value, float):
        return type(value), struct.pack("d", value)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _killing_cases():
    """(alpha, beta, x): the rotational and second triples at their
    scenario points, the rotational manifest's points, and a parallel, a
    generic and a b^2 >= 1 instance."""
    cases = []
    for spec, points in ((ROTATIONAL_TRIPLE, rotational_points(10)),
                         (SECOND_TRIPLE, second_triple_points(8))):
        fam = sqrt2d_family(spec)
        cases += [(fam.alpha, fam.beta, x) for x in points]
    manifest = load_manifest("manifests/rotational_family.json")
    cases += [(manifest.alpha_spec, manifest.beta_spec, x)
              for x in runner.collect_points(manifest)]
    cases += [(IDENTITY, ["0.3", "0.1"], [0.2, 0.4]),
              (IDENTITY, ["0.3*x2", "0"], [0.0, 1.0]),
              (IDENTITY, ["1.1", "0"], [0.0, 0.0])]
    return cases


def test_killing_deformation_has_the_bits_of_the_spec_rebuild():
    """The rescaling over a point's tensor data, whose order-2 jets it
    rebuilds from the partials (rd, ab) holds, has the bits of rebuilding
    alpha's order-3 jets and Levi-Civita data from the specs, in every
    field; where the rebuild raises, it raises the same error."""
    cases = _killing_cases()
    assert len(cases) == 31
    raised = []
    for alpha, beta, x in cases:
        try:
            want = _reference_killing_deformation(alpha, beta, x)
        except FinslerError as exc:
            with pytest.raises(type(exc)) as info:
                killing_deformation(*ab_tensors(alpha, beta, x))
            assert str(info.value) == str(exc)
            raised.append(type(exc))
            continue
        got = killing_deformation(*ab_tensors(alpha, beta, x))
        assert _bits(got) == _bits(want), x
    assert raised == [DomainError]


def test_killing_deformation_family(example_family):
    kd = killing_deformation(*ab_tensors(example_family.alpha,
                                         example_family.beta, [0.6, 0.0]))
    assert kd.r_residual < 1e-8
    assert kd.btilde_norm_sq == pytest.approx(0.703125, abs=1e-12)
    assert kd.expected_norm_sq == pytest.approx(0.703125, abs=1e-12)


def test_killing_deformation_parallel_exact():
    kd = killing_deformation(*ab_tensors(IDENTITY, ["0.3", "0.1"], [0.2, 0.4]))
    assert kd.r_residual == 0.0
    assert kd.btilde_norm_sq == pytest.approx(kd.expected_norm_sq, abs=1e-15)


def test_killing_deformation_generic_fails():
    kd = killing_deformation(*ab_tensors(IDENTITY, ["0.3*x2", "0"],
                                         [0.0, 1.0]))
    assert kd.r_residual > 1e-3


def test_killing_deformation_norm_domain():
    with pytest.raises(DomainError):
        killing_deformation(*ab_tensors(IDENTITY, ["1.1", "0"], [0.0, 0.0]))


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


def test_batched_value_overflows_as_the_samples_one_by_one():
    """The batched F takes (1 + beta/alpha) ** p on whole arrays with the
    bits of the per-sample F at the rows of y, whose Python float power
    raises OverflowError where it overflows (at p = 2000, along (1, 0)),
    for a numpy row as for a list; the batch then raises BatchFailed,
    and ``value_rows`` marks that sample not ok."""
    metric = ppower_metric(PPowerSpec([["1", "0"], ["0", "1"]],
                                      ["0.5", "0"], 2000.0))
    x = [0.1, 0.2]
    ys = np.array([[-1.0, 0.0], [0.0, 1.0], [-0.6, 0.8], [1.0, 0.0]])
    want = [np.float64(metric.value(x, y)).tobytes() for y in ys[:3]]
    for y in (ys[3], ys[3].tolist()):
        with pytest.raises(OverflowError):
            metric.value(x, y)
    with pytest.raises(BatchFailed):
        metric.value(x, ys.T)
    got = metric.value(x, ys[:3].T)
    assert [np.float64(v).tobytes() for v in got] == want
    f, ok = metric.value_rows(x, ys)
    assert ok.tolist() == [True, True, True, False]
    assert [np.float64(v).tobytes() for v in f[:3]] == want


def test_an_overflowing_f_is_a_skipped_sample():
    """A run skips a direction whose F overflows, with the error's text,
    and counts it nowhere: NonFinite is a FinslerError as well as the
    OverflowError of the float power."""
    manifest = validate_manifest({
        "dimension": 2,
        "metric": {"kind": "ppower", "a": [["1", "0"], ["0", "1"]],
                   "b": ["0.5", "0"], "p": 2000},
        "samples": {"points": [[0.1, 0.2]], "direction_count": 8},
        "checks": ["einstein", "flag_curvature"]})
    with np.errstate(all="ignore"):  # the jets of F overflow one by one
        report = runner.run(manifest)
    text = "x=[0.1, 0.2]: F overflows at x=[0.1, 0.2], y=[1.0, 0.0]"
    einstein, flag = report["checks"]
    assert text in einstein["skipped"]
    assert issubclass(NonFinite, OverflowError)
    row, = report["samples"]
    assert row["directions_used"] == 2
    assert all(math.isfinite(v) for v in (row["lambda_mean"],
                                          row["lambda_spread"]))
    assert math.isfinite(flag["residuals"]["max_residual"])


# f = u + iv = c z^k, and B = a0 + a1 h with h = Im(int dz / z^k) up to a
# factor, which is constant along f: every such triple is an Einstein member
SQRT2D_GENERATORS = {
    2: ("{c}*(x1^2 - x2^2)", "2*{c}*x1*x2", "{a0} + {a1}*x2/(x1^2 + x2^2)"),
    3: ("{c}*(x1^3 - 3*x1*x2^2)", "{c}*(3*x1^2*x2 - x2^3)",
        "{a0} + {a1}*x1*x2/(x1^2 + x2^2)^2"),
}


@st.composite
def sqrt2d_members(draw):
    """A generated triple (u, v, B) and three points at which |u| and |v|
    are both at least 0.19 |f|, with |f| = c r^k >= 0.34: B_1 / v stays
    finite, and B + 0.05 x1 moves the transport residual by 0.05 u, at
    least 3e-3 in size."""
    k = draw(st.sampled_from(sorted(SQRT2D_GENERATORS)))
    coefficients = {"c": draw(st.floats(1.0, 2.0)),
                    "a0": draw(st.floats(0.3, 0.7)),
                    "a1": draw(st.floats(-0.3, 0.3))}
    triple = [t.format(**{n: repr(v) for n, v in coefficients.items()})
              for t in SQRT2D_GENERATORS[k]]
    points = []
    for _ in range(3):
        r = draw(st.floats(0.7, 1.4))
        # k theta = m pi/2 + phase, away from the zeros of cos and sin
        m = draw(st.integers(0, 4 * k - 1))
        phase = draw(st.floats(0.2, math.pi / 2 - 0.2))
        theta = (m * math.pi / 2 + phase) / k
        points.append([r * math.cos(theta), r * math.sin(theta)])
    return triple, points


@settings(max_examples=8, deadline=None)
@given(member=sqrt2d_members())
def test_generated_sqrt2d_members_are_einstein(member):
    """Generated square-root triples satisfy their constraints, have lambda
    constant in y and equal to the closed-form flag curvature, and have the
    closed-form base curvature; B + 0.05 x1 fails both the constraints and
    the Einstein check.  The bounds were fixed before any run."""
    (u, v, b), points = member
    perturbed = f"{b} + 0.05*x1"
    for source in (b, perturbed):
        tree = parse(source)
        assume(all(0.1 < eval_scalar(tree, x) < 0.9 for x in points))
    assume(all(abs(c) > 0.1 for x in points for c in x))
    dirs = circle_directions(16)

    spec = Sqrt2dFamilySpec(u, v, b)
    fam = sqrt2d_family(spec)
    lam = runner.EinsteinTable(fam.metric(), dirs)
    spreads, skipped = lam.spreads(points)
    assert not skipped and len(spreads) == len(points)
    assert worst(spreads) < 1e-9
    for x in points:
        assert max(abs(r) for r in fam.pde_residuals(x).values()) < 1e-12
        lam0 = lam.values(x)[1][0]
        assert abs(lam0 - sqrt2d_flag_curvature(spec, x)) < \
            1e-9 * max(1.0, abs(lam0))
        k_alpha = ab_tensors(fam.alpha, fam.beta, x)[0].sectional_curvature()
        assert abs(sqrt2d_base_curvature(spec, x) - k_alpha) < \
            1e-9 * max(1.0, abs(k_alpha))

    fam = sqrt2d_family((u, v, perturbed))
    assert worst(abs(r) for x in points
                 for r in fam.pde_residuals(x).values()) > 1e-3
    spreads, skipped = runner.EinsteinTable(fam.metric(), dirs).spreads(points)
    assert not skipped and worst(spreads) > 1e-3
