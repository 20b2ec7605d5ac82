"""Bundled verification scenarios.

Each scenario reproduces one published closed-form result or cross-path
equivalence as machine-checked residuals, and returns a ScenarioResult with
per-row details.  The registry drives both the ``verify-paper`` CLI command
and the acceptance test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .alphabeta import (
    ab_tensors_from_jets,
    covector_jets,
    curvature_term_sign,
    matrix_jets,
    randers_ricci,
    ricci_identity_residuals,
    riemann_data_from_jets,
    structural_spray,
)
from .constructions import (
    PPowerSpec,
    Sqrt2dFamilySpec,
    killing_deformation,
    positivity_check,
    positivity_sample,
    ppower_metric,
    randers_einstein_residuals,
    ricci_flat_parallel_check,
    sqrt2d_K_from_lambda,
    sqrt2d_family,
    sqrt2d_flag_curvature,
    square_einstein_residuals,
)
from .core import (
    _spray_jets,
    einstein_check,
    einstein_scalar,
    reversibility_residual,
    ricci,
    spray,
)
from .errors import FinslerError
from .exprlang import eval_scalar
from .fdcheck import fd_partial, rel_err
from .jets import get_context


@dataclass
class ScenarioResult:
    anchor: str
    description: str
    passed: bool
    details: list = field(default_factory=list)
    duration: float = 0.0


IDENTITY_2D = [["1", "0"], ["0", "1"]]

CURVED_ALPHA = [
    ["1 + 0.3*x1^2 + 0.1*x2^2", "0.12*x1*x2"],
    ["0.12*x1*x2", "1 + 0.2*x2^2 + 0.15*x1^2"],
]
CURVED_BETA = ["0.2*x2 + 0.05*x1^2", "0.1*x1 - 0.04*x2^2"]

FLAT_RANDERS_BETA = ["0.2*x2 + 0.1*x1*x2", "0.15*x1 - 0.05*x1^2"]

NEGATIVE_CONTROL_BETA = ["0.3*x2", "0"]

FUNK_ALPHA = [
    ["(1-x2^2)/(1-x1^2-x2^2)^2", "x1*x2/(1-x1^2-x2^2)^2"],
    ["x1*x2/(1-x1^2-x2^2)^2", "(1-x1^2)/(1-x1^2-x2^2)^2"],
]
FUNK_BETA = ["x1/(1-x1^2-x2^2)", "x2/(1-x1^2-x2^2)"]

ROTATIONAL_TRIPLE = Sqrt2dFamilySpec("-x2", "x1", "x1^2+x2^2")

# a second admissible triple: the harmonic pair of z^2 with an invariant B
SECOND_TRIPLE = Sqrt2dFamilySpec(
    "x1^2 - x2^2", "2*x1*x2", "0.5 - 0.3*x2/(x1^2+x2^2)")


def rotational_points(count, radius_lo=0.35, radius_hi=0.9):
    """Deterministic points with B in (0,1) and v = x1 away from zero."""
    points = []
    k = 0
    while len(points) < count:
        t = k / max(count * 2 - 1, 1)
        r = radius_lo + (radius_hi - radius_lo) * t
        angle = 0.25 + 2.3 * k
        x = [r * math.cos(angle), r * math.sin(angle)]
        k += 1
        if abs(x[0]) < 0.08:
            continue
        points.append(x)
    return points


def second_triple_points(count):
    points = []
    k = 0
    while len(points) < count:
        r = 1.05 + 0.25 * (k / max(count, 1))
        angle = 0.35 + 1.1 * k
        x = [r * math.cos(angle), r * math.sin(angle)]
        k += 1
        if abs(x[0]) < 0.1 or abs(x[1]) < 0.1:
            continue
        b = eval_scalar(SECOND_TRIPLE.B, x)
        if not 0.1 < b < 0.9:
            continue
        points.append(x)
    return points


def _fail_lines(details, passed):
    return details if passed else details + ["FAILED"]


def scenario_rotational_family_curvature():
    """Engine Einstein scalar of the rotational family vs its closed form."""
    start = time.time()
    fam = sqrt2d_family(ROTATIONAL_TRIPLE)
    metric = fam.metric()
    points = rotational_points(10)
    check = einstein_check(metric, points, directions_per_point=32,
                           tolerance=1e-7)
    worst_closed = 0.0
    for x in points:
        b = fam.b_squared(x)
        lam = einstein_scalar(metric, x, [0.6, 0.8])
        worst_closed = max(worst_closed, abs(lam - (-1.0 / math.sqrt(1.0 - b))))
    elapsed = time.time() - start
    passed = (check.verdict and worst_closed < 1e-7 and elapsed < 10.0)
    details = [
        f"points: {len(points)}, directions: 32",
        f"max spread of the Einstein scalar over directions: {check.max_spread:.3e} (< 1e-7)",
        f"max |engine - closed form -1/sqrt(1-B)|: {worst_closed:.3e} (< 1e-7)",
        f"runtime: {elapsed:.2f}s (< 10s)",
    ]
    return ScenarioResult("rotational-family-curvature",
                          "closed-form curvature of the rotational family",
                          passed, details, elapsed)


def scenario_family_curvature_consistency():
    """Three independent curvature computations agree on family instances."""
    start = time.time()
    worst = 0.0
    rows = 0
    for spec, points in ((ROTATIONAL_TRIPLE, rotational_points(20)),
                         (SECOND_TRIPLE, second_triple_points(8))):
        fam = sqrt2d_family(spec)
        metric = fam.metric()
        for x in points:
            pde = fam.pde_residuals(x)
            if max(abs(v) for v in pde.values()) > 1e-10:
                return ScenarioResult(
                    "family-curvature-consistency",
                    "pairwise agreement of the three curvature formulas",
                    False, [f"triple violates its constraints at {x}"],
                    time.time() - start)
            k_formula = sqrt2d_flag_curvature(spec, x)
            k_alpha = sqrt2d_K_from_lambda(fam.alpha, fam.beta, x)
            k_engine = einstein_scalar(metric, x, [0.6, 0.8])
            worst = max(worst,
                        abs(k_formula - k_alpha),
                        abs(k_formula - k_engine),
                        abs(k_alpha - k_engine))
            rows += 1
    elapsed = time.time() - start
    passed = worst < 1e-6 and elapsed < 10.0
    details = [
        f"{rows} points across two scalar triples",
        f"max pairwise disagreement of the three curvature values: {worst:.3e} (< 1e-6)",
        f"runtime: {elapsed:.2f}s (< 10s)",
    ]
    return ScenarioResult("family-curvature-consistency",
                          "pairwise agreement of the three curvature formulas",
                          passed, details, elapsed)


def scenario_spray_cross_validation():
    """Structural spray formula vs generic spray over random samples."""
    start = time.time()
    rng = np.random.default_rng(42)
    exponents = (1.0, 2.0, -1.0, 0.5, 3.0)
    worst = {p: 0.0 for p in exponents}
    for p in exponents:
        metric = ppower_metric(PPowerSpec(CURVED_ALPHA, CURVED_BETA, p))
        done = 0
        while done < 100:
            x = rng.uniform(-0.5, 0.5, size=2).tolist()
            y = rng.uniform(-1.0, 1.0, size=2).tolist()
            if not metric.in_domain(x, y):
                continue
            rd = riemann_data_from_jets(matrix_jets(CURVED_ALPHA, x), x)
            ab = ab_tensors_from_jets(rd, covector_jets(CURVED_BETA, x))
            g_struct = structural_spray(rd, ab, p, y)
            g_generic = spray(metric, x, y)
            scale = max(1.0, float(np.abs(g_generic).max()))
            worst[p] = max(worst[p],
                           float(np.abs(g_struct - g_generic).max()) / scale)
            done += 1
    elapsed = time.time() - start
    passed = all(v < 1e-9 for v in worst.values()) and elapsed < 30.0
    details = [f"p={p}: max relative spray difference {v:.3e} (< 1e-9)"
               for p, v in worst.items()]
    details.append(f"runtime: {elapsed:.2f}s (< 30s)")
    return ScenarioResult("spray-cross-validation",
                          "structural vs generic geodesic coefficients",
                          passed, details, elapsed)


def scenario_randers_ricci_formula():
    """Closed-form Randers Ricci curvature vs the generic engine."""
    start = time.time()
    rng = np.random.default_rng(7)
    metric = ppower_metric(PPowerSpec(IDENTITY_2D, FLAT_RANDERS_BETA, 1.0))
    worst_flat = 0.0
    done = 0
    while done < 50:
        x = rng.uniform(-0.6, 0.6, size=2).tolist()
        y = rng.uniform(-1.0, 1.0, size=2).tolist()
        if not metric.in_domain(x, y):
            continue
        rd = riemann_data_from_jets(matrix_jets(IDENTITY_2D, x), x)
        ab = ab_tensors_from_jets(rd, covector_jets(FLAT_RANDERS_BETA, x))
        closed = randers_ricci(rd, ab, y)
        generic = ricci(metric, x, y)
        worst_flat = max(worst_flat,
                         abs(closed - generic) / max(1.0, abs(generic)))
        done += 1
    funk = ppower_metric(PPowerSpec(FUNK_ALPHA, FUNK_BETA, 1.0))
    worst_funk = 0.0
    worst_lambda = 0.0
    for k in range(10):
        angle = 0.7 * k
        x = [0.45 * math.cos(angle), 0.45 * math.sin(angle)]
        y = [math.cos(2.1 * k + 0.4), math.sin(2.1 * k + 0.4)]
        rd = riemann_data_from_jets(matrix_jets(FUNK_ALPHA, x), x)
        ab = ab_tensors_from_jets(rd, covector_jets(FUNK_BETA, x))
        closed = randers_ricci(rd, ab, y)
        generic = ricci(funk, x, y)
        worst_funk = max(worst_funk,
                         abs(closed - generic) / max(1.0, abs(generic)))
        worst_lambda = max(worst_lambda,
                           abs(einstein_scalar(funk, x, y) + 0.25))
    elapsed = time.time() - start
    passed = worst_flat < 1e-7 and worst_funk < 1e-7 and worst_lambda < 1e-6
    details = [
        f"50 flat-metric samples: max relative difference {worst_flat:.3e} (< 1e-7)",
        f"unit-ball instance: max relative difference {worst_funk:.3e} (< 1e-7)",
        f"unit-ball Einstein scalar vs -1/4: {worst_lambda:.3e} (< 1e-6)",
    ]
    return ScenarioResult("randers-ricci-formula",
                          "closed-form Randers Ricci vs the generic engine",
                          passed, details, elapsed)


def random_polynomial_instance(rng):
    """A curved metric and small 1-form with polynomial coefficients."""
    def quad(scale):
        c = rng.uniform(-scale, scale, size=6)
        return (f"{c[0]:.6f}*x1 + {c[1]:.6f}*x2 + {c[2]:.6f}*x1^2 + "
                f"{c[3]:.6f}*x1*x2 + {c[4]:.6f}*x2^2 + {c[5]:.6f}*x1^2*x2")
    off = quad(0.15)
    alpha = [[f"1 + {quad(0.25)}", off], [off, f"1 + {quad(0.25)}"]]
    beta = [quad(0.2), quad(0.2)]
    return alpha, beta


def scenario_covariant_identity_suite():
    """The four covariant-derivative identities, and their sign sensitivity."""
    start = time.time()
    rng = np.random.default_rng(2024)
    sign = curvature_term_sign()
    worst = 0.0
    flipped_max = 0.0
    instances = 0
    while instances < 20:
        alpha, beta = random_polynomial_instance(rng)
        x = rng.uniform(-0.4, 0.4, size=2).tolist()
        try:
            rd = riemann_data_from_jets(matrix_jets(alpha, x), x)
            ab = ab_tensors_from_jets(rd, covector_jets(beta, x))
        except FinslerError:
            continue
        res, _ = ricci_identity_residuals(rd, ab, sign)
        worst = max(worst, *res)
        res_flipped, _ = ricci_identity_residuals(rd, ab, -sign)
        flipped_max = max(flipped_max, *res_flipped)
        instances += 1
    elapsed = time.time() - start
    passed = worst < 1e-7 and flipped_max > 1e-4
    details = [
        f"calibrated curvature term sign: {sign:+d}",
        f"20 instances: max identity residual {worst:.3e} (< 1e-7)",
        f"flipped sign: max residual {flipped_max:.3e} (> 1e-4, sensitivity)",
    ]
    return ScenarioResult("covariant-identity-suite",
                          "covariant-derivative identity residuals",
                          passed, details, elapsed)


def positivity_pairs():
    """60 (p, b^2) pairs straddling the three positivity case boundaries."""
    pairs = []
    for p in (-3.0, -2.0, -1.0, -0.5, -0.25, 2.5, 3.0, 4.0, 5.0):
        bound = 1.0 / (p - 1.0) ** 2                  # bound of the outer case
        pairs += [(p, bound * 0.9), (p, bound * 1.1)]
    for p in (0.5, 0.75, 1.0, 1.5, 2.0):              # bound 1
        pairs += [(p, 0.95), (p, 1.05)]
    for p in (0.1, 0.2, 0.3, 0.4):                    # stated bound, case iii
        bound = (2.0 - p) ** 2 / (4.0 * (1.0 - p * p) ** 2)
        hull = (4.0 - 5.0 * p) / (4.0 * (1.0 - p) * (1.0 - p * p))
        pairs += [(p, bound * 0.9), (p, hull * 1.05)]
    for b_sq in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        pairs.append((1.0, b_sq))
    pairs += [(0.49, 0.9), (0.51, 0.9), (1.99, 0.9), (2.01, 0.9),
              (3.0, 0.1), (-1.0, 0.1), (0.7, 0.5), (1.2, 0.3),
              (1.5, 0.98), (2.5, 0.05)]
    pairs += [(3.0, 0.2), (3.0, 0.3), (2.0, 0.99), (0.4, 0.8), (0.4, 0.95)]
    return pairs


def scenario_positivity_criterion():
    """Closed-form positivity case split vs sampling the three inequalities.

    The case split for exponents in (0, 1/2) requires the quadratic factor's
    vertex to stay outside the slope interval; sampling the inequalities
    accepts a strictly larger region (the quadratic can keep its sign with
    the vertex inside).  The divergent pairs are reported and fail the
    agreement check by design.
    """
    start = time.time()
    pairs = positivity_pairs()
    disagreements = []
    for p, b_sq in pairs:
        closed = positivity_check(p, b_sq)
        sampled, margin = positivity_sample(p, b_sq, 201)
        if closed != sampled:
            hull = ((4.0 - 5.0 * p) / (4.0 * (1.0 - p) * (1.0 - p * p))
                    if 0.0 < p < 0.5 else None)
            disagreements.append(
                f"(p={p}, b^2={b_sq:.4f}): closed-form {closed}, "
                f"inequalities {sampled} (worst margin {margin:.3e}"
                + (f"; inequalities hold up to b^2={hull:.5f}" if hull else "")
                + ")")
    elapsed = time.time() - start
    passed = not disagreements
    details = [f"{len(pairs)} (p, b^2) pairs across the three case boundaries"]
    if disagreements:
        details.append("divergent pairs (closed-form bound is strictly "
                       "smaller than the inequality region for 0 < p < 1/2):")
        details.extend("  " + d for d in disagreements)
    else:
        details.append("closed form and inequality sampling agree everywhere")
    return ScenarioResult("positivity-criterion",
                          "closed-form positivity vs inequality sampling",
                          passed, details, elapsed)


def scenario_flat_parallel_family():
    """Flat metric with a parallel 1-form is Ricci-flat and reversible."""
    start = time.time()
    rng = np.random.default_rng(99)
    beta = ["0.28", "-0.12"]
    worst_ric = 0.0
    worst_rev = 0.0
    rfp, max_cov, max_ric_alpha = ricci_flat_parallel_check(
        IDENTITY_2D, beta, [[0.1, 0.2], [-0.3, 0.4]])
    for p in (-1.0, 3.0, 2.0, 1.0, 0.5):
        metric = ppower_metric(PPowerSpec(IDENTITY_2D, beta, p))
        done = 0
        while done < 50:
            x = rng.uniform(-0.8, 0.8, size=2).tolist()
            y = rng.uniform(-1.0, 1.0, size=2).tolist()
            if not (metric.in_domain(x, y)
                    and metric.in_domain(x, [-v for v in y])):
                continue
            worst_ric = max(worst_ric, abs(ricci(metric, x, y)))
            worst_rev = max(worst_rev, reversibility_residual(metric, x, y))
            done += 1
    elapsed = time.time() - start
    passed = rfp and worst_ric < 1e-9 and worst_rev < 1e-9
    details = [
        f"flat-parallel verdict: {rfp} (covariant derivative {max_cov:.1e}, "
        f"curvature {max_ric_alpha:.1e})",
        f"5 exponents x 50 samples: max |Ricci of F| {worst_ric:.3e} (< 1e-9)",
        f"max reversibility residual {worst_rev:.3e} (< 1e-9)",
    ]
    return ScenarioResult("flat-parallel-family",
                          "flat metric + parallel 1-form is Ricci-flat "
                          "and reversible for all exponents",
                          passed, details, elapsed)


def scenario_non_einstein_rejection():
    """A generic non-Einstein instance must fail every checker."""
    start = time.time()
    metric = ppower_metric(PPowerSpec(IDENTITY_2D, NEGATIVE_CONTROL_BETA, 1.0))
    rev = reversibility_residual(metric, [0.0, 1.0], [1.0, 0.5])
    randers = randers_einstein_residuals(IDENTITY_2D, NEGATIVE_CONTROL_BETA,
                                         [[0.0, 1.0], [0.2, 0.8]])
    square = square_einstein_residuals(IDENTITY_2D, NEGATIVE_CONTROL_BETA,
                                       [[0.0, 1.0], [0.2, 0.8]])
    closedness = randers.residuals["closedness"]
    cov_residual = square.residuals["covariant_derivative"]
    elapsed = time.time() - start
    passed = (rev > 1e-3 and not randers.verdict and not square.verdict
              and closedness > 1e-3 and cov_residual > 1e-3)
    details = [
        f"reversibility residual {rev:.4f} (> 1e-3)",
        f"Randers structure equations: verdict {randers.verdict}, "
        f"closedness residual {closedness:.4f} (> 1e-3)",
        f"square structure equations: verdict {square.verdict}, "
        f"covariant-derivative residual {cov_residual:.4f} (> 1e-3)",
    ]
    return ScenarioResult("non-einstein-rejection",
                          "checkers reject a generic non-Einstein instance",
                          passed, details, elapsed)


def scenario_killing_rescale():
    """Rescaled 1-form of the rotational family is a Killing form."""
    start = time.time()
    fam = sqrt2d_family(ROTATIONAL_TRIPLE)
    worst_r = 0.0
    worst_norm = 0.0
    for x in rotational_points(10):
        kd = killing_deformation(fam.alpha, fam.beta, x)
        worst_r = max(worst_r, kd.r_residual)
        worst_norm = max(worst_norm,
                         abs(kd.btilde_norm_sq - kd.expected_norm_sq))
    elapsed = time.time() - start
    passed = worst_r < 1e-7 and worst_norm < 1e-9
    details = [
        f"10 points: max Killing residual {worst_r:.3e} (< 1e-7)",
        f"max |norm^2 - B/(1-B)^(3/2)| {worst_norm:.3e} (< 1e-9)",
    ]
    return ScenarioResult("killing-rescale",
                          "rescaled 1-form is Killing with the stated norm",
                          passed, details, elapsed)


def scenario_derivative_soundness():
    """Jet partials of F^2 and the spray match finite differences."""
    start = time.time()
    rng = np.random.default_rng(17)
    metric = ppower_metric(PPowerSpec(CURVED_ALPHA, CURVED_BETA, 0.5))
    n = metric.dim
    ctx = get_context(2 * n, 4)
    worst_f2 = 0.0
    worst_spray = 0.0
    spray_monomials = [m for m in get_context(2 * n, 2).monomials
                       if 1 <= sum(m) <= 2]
    f2_monomials = [m for m in ctx.monomials if 1 <= sum(m) <= 4]

    def f2_scalar(z):
        return metric.value(z[:n], z[n:]) ** 2

    done = 0
    while done < 100:
        x = rng.uniform(-0.4, 0.4, size=2).tolist()
        y = rng.uniform(0.4, 1.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        y = y.tolist()
        if not metric.in_domain(x, y):
            continue
        f_jet = metric.jet(x, y, 4)
        f2_jet = f_jet * f_jet
        point = list(x) + list(y)
        for mono in f2_monomials:
            got = f2_jet.partial(mono)
            want = fd_partial(f2_scalar, point, mono)
            worst_f2 = max(worst_f2, rel_err(got, want))
        done += 1

    def spray_vector(z):
        return spray(metric, z[:n], z[n:])

    done = 0
    while done < 100:
        x = rng.uniform(-0.35, 0.35, size=2).tolist()
        y = rng.uniform(0.45, 1.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        y = y.tolist()
        if not metric.in_domain(x, y):
            continue
        g_jets, _ = _spray_jets(metric, x, y)
        point = list(x) + list(y)
        # one spray evaluation per stencil point serves every component
        wants = [fd_partial(spray_vector, point, mono)
                 for mono in spray_monomials]
        for i in range(n):
            for mono, want in zip(spray_monomials, wants):
                got = g_jets[i].partial(mono)
                worst_spray = max(worst_spray, rel_err(got, want[i]))
        done += 1
    elapsed = time.time() - start
    passed = worst_f2 < 1e-5 and worst_spray < 1e-5
    details = [
        f"100 samples, all F^2 partials to order 4: max error {worst_f2:.3e} (< 1e-5)",
        f"100 samples, all spray partials to order 2: max error {worst_spray:.3e} (< 1e-5)",
        f"runtime: {elapsed:.2f}s",
    ]
    return ScenarioResult("derivative-soundness",
                          "jet derivatives vs central finite differences",
                          passed, details, elapsed)


SCENARIOS = (
    scenario_rotational_family_curvature,
    scenario_family_curvature_consistency,
    scenario_spray_cross_validation,
    scenario_randers_ricci_formula,
    scenario_covariant_identity_suite,
    scenario_positivity_criterion,
    scenario_flat_parallel_family,
    scenario_non_einstein_rejection,
    scenario_killing_rescale,
    scenario_derivative_soundness,
)


def run_scenarios(filter_text=None):
    results = []
    for fn in SCENARIOS:
        probe = fn.__name__.replace("scenario_", "").replace("_", "-")
        if filter_text and filter_text not in probe:
            continue
        results.append(fn())
    return results
