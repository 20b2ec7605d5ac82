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
    _raised,
    ab_tensor_rows,
    ab_tensor_rows_from_jets,
    covector_jets,
    curvature_term_sign,
    matrix_jets,
    randers_ricci,
    ricci_identity_residuals,
    structural_spray,
)
from .constructions import (
    PPowerSpec,
    Sqrt2dFamilySpec,
    killing_deformation,
    positivity_bound,
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
    EinsteinTable,
    _f2_rows,
    _one_by_one,
    _spray_jet_rows,
    _spray_jets,
    einstein_scalar,
    einstein_scalars,
    evaluate,
    ricci,
    riccis,
    sphere_directions,
    sprays,
    worst,
)
from .errors import FinslerError
from .exprlang import shared_tape
from .fdcheck import fd_partials, rel_err
from .jets import get_context, read_partials


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
        b = shared_tape((SECOND_TRIPLE.B,)).floats(x)[0]
        if not 0.1 < b < 0.9:
            continue
        points.append(x)
    return points


def _fail_lines(details, passed):
    return details if passed else details + ["FAILED"]


def _tensors(alpha, beta, points):
    """The tensor data (rd, ab) at each point, from one batched build
    (``ab_tensor_rows``); the first point that fails raises its own
    error."""
    return [_raised(row) for row in ab_tensor_rows(alpha, beta, points)]


def scenario_rotational_family_curvature():
    """Engine Einstein scalar of the rotational family vs its closed form."""
    start = time.perf_counter()
    fam = sqrt2d_family(ROTATIONAL_TRIPLE)
    metric = fam.metric()
    points = rotational_points(10)
    # a skipped point or direction fails the scenario, which must not pass
    # on fewer samples than its detail line prints
    spreads, skipped = EinsteinTable(
        metric, sphere_directions(2, 32)).spreads(points)
    max_spread = worst(spreads)
    bs = [fam.b_squared(x) for x in points]
    lams = einstein_scalars(metric, points, [[0.6, 0.8]] * len(points))
    worst_closed = worst(abs(lam - (-1.0 / math.sqrt(1.0 - b)))
                         for b, lam in zip(bs, lams.tolist()))
    elapsed = time.perf_counter() - start
    passed = (not skipped and max_spread < 1e-7 and worst_closed < 1e-7
              and elapsed < 10.0)
    details = [
        f"points: {len(points)}, directions: 32",
        f"max spread of the Einstein scalar over directions: {max_spread:.3e} (< 1e-7)",
        f"max |engine - closed form -1/sqrt(1-B)|: {worst_closed:.3e} (< 1e-7)",
        f"runtime: {elapsed:.2f}s (< 10s)",
    ]
    return ScenarioResult("rotational-family-curvature",
                          "closed-form curvature of the rotational family",
                          passed, details, elapsed)


def scenario_family_curvature_consistency():
    """Three independent curvature computations agree on family instances."""
    start = time.perf_counter()
    gaps = []
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
                    time.perf_counter() - start)
        k_engines = einstein_scalars(metric, points,
                                     [[0.6, 0.8]] * len(points))
        tensors = _tensors(fam.alpha, fam.beta, points)
        for x, k_engine, (rd, ab) in zip(points, k_engines.tolist(), tensors):
            k_formula = sqrt2d_flag_curvature(spec, x)
            k_alpha = sqrt2d_K_from_lambda(rd, ab)
            gaps += [abs(k_formula - k_alpha), abs(k_formula - k_engine),
                     abs(k_alpha - k_engine)]
            rows += 1
    elapsed = time.perf_counter() - start
    disagreement = worst(gaps)
    passed = disagreement < 1e-6 and elapsed < 10.0
    details = [
        f"{rows} points across two scalar triples",
        f"max pairwise disagreement of the three curvature values: {disagreement:.3e} (< 1e-6)",
        f"runtime: {elapsed:.2f}s (< 10s)",
    ]
    return ScenarioResult("family-curvature-consistency",
                          "pairwise agreement of the three curvature formulas",
                          passed, details, elapsed)


def scenario_spray_cross_validation():
    """Structural spray formula vs generic spray over random samples."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    exponents = (1.0, 2.0, -1.0, 0.5, 3.0)
    differences = {}
    for p in exponents:
        metric = ppower_metric(PPowerSpec(CURVED_ALPHA, CURVED_BETA, p))
        samples = _draw_samples(metric, 100, lambda: (
            rng.uniform(-0.5, 0.5, size=2).tolist(),
            rng.uniform(-1.0, 1.0, size=2).tolist()))
        generic = sprays(metric, [x + y for x, y in samples])
        tensors = _tensors(CURVED_ALPHA, CURVED_BETA, [x for x, _ in samples])
        values = []
        for (_, y), g_generic, (rd, ab) in zip(samples, generic, tensors):
            g_struct = structural_spray(rd, ab, p, y)
            scale = max(1.0, float(np.abs(g_generic).max()))
            values.append(float(np.abs(g_struct - g_generic).max()) / scale)
        differences[p] = worst(values)
    elapsed = time.perf_counter() - start
    passed = all(v < 1e-9 for v in differences.values()) and elapsed < 30.0
    details = [f"p={p}: max relative spray difference {v:.3e} (< 1e-9)"
               for p, v in differences.items()]
    details.append(f"runtime: {elapsed:.2f}s (< 30s)")
    return ScenarioResult("spray-cross-validation",
                          "structural vs generic geodesic coefficients",
                          passed, details, elapsed)


def scenario_randers_ricci_formula():
    """Closed-form Randers Ricci curvature vs the generic engine."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    metric = ppower_metric(PPowerSpec(IDENTITY_2D, FLAT_RANDERS_BETA, 1.0))
    samples = _draw_samples(metric, 50, lambda: (
        rng.uniform(-0.6, 0.6, size=2).tolist(),
        rng.uniform(-1.0, 1.0, size=2).tolist()))
    worst_flat = worst(_randers_ricci_gaps(metric, IDENTITY_2D,
                                           FLAT_RANDERS_BETA, samples))
    funk = ppower_metric(PPowerSpec(FUNK_ALPHA, FUNK_BETA, 1.0))
    samples = [([0.45 * math.cos(0.7 * k), 0.45 * math.sin(0.7 * k)],
                [math.cos(2.1 * k + 0.4), math.sin(2.1 * k + 0.4)])
               for k in range(10)]
    worst_funk = worst(_randers_ricci_gaps(funk, FUNK_ALPHA, FUNK_BETA,
                                           samples))
    lams = einstein_scalars(funk, [x for x, _ in samples],
                            [y for _, y in samples])
    worst_lambda = worst(abs(lam + 0.25) for lam in lams.tolist())
    elapsed = time.perf_counter() - start
    passed = worst_flat < 1e-7 and worst_funk < 1e-7 and worst_lambda < 1e-6
    details = [
        f"50 flat-metric samples: max relative difference {worst_flat:.3e} (< 1e-7)",
        f"unit-ball instance: max relative difference {worst_funk:.3e} (< 1e-7)",
        f"unit-ball Einstein scalar vs -1/4: {worst_lambda:.3e} (< 1e-6)",
    ]
    return ScenarioResult("randers-ricci-formula",
                          "closed-form Randers Ricci vs the generic engine",
                          passed, details, elapsed)


def _randers_ricci_gaps(metric, alpha, beta, samples):
    """|closed-form Randers Ricci - engine Ricci| / max(1, |engine Ricci|)
    at each sample (x, y); the engine's values and the tensor data each
    come from one batch."""
    points = [x for x, _ in samples]
    generic = riccis(metric, points, [y for _, y in samples])
    tensors = _tensors(alpha, beta, points)
    gaps = []
    for (_, y), ric, (rd, ab) in zip(samples, generic.tolist(), tensors):
        closed = randers_ricci(rd, ab, y)
        gaps.append(abs(closed - ric) / max(1.0, abs(ric)))
    return gaps


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
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    sign = curvature_term_sign()
    residuals = []
    flipped_max = 0.0
    instances = 0
    while instances < 20:
        # draw as many instances as are missing, as drawing one at a time
        # would, and build their tensor data in one batch; an instance
        # whose a_ij fails is skipped (polynomial jets cannot raise)
        drawn = []
        for _ in range(20 - instances):
            alpha, beta = random_polynomial_instance(rng)
            drawn.append((alpha, beta, rng.uniform(-0.4, 0.4, size=2).tolist()))
        rows = ab_tensor_rows_from_jets(
            [matrix_jets(alpha, x) for alpha, _, x in drawn],
            [covector_jets(beta, x) for _, beta, x in drawn],
            [x for _, _, x in drawn])
        for row in rows:
            if isinstance(row, FinslerError):
                continue
            residuals += ricci_identity_residuals(*row, sign)[0]
            # flipped_max must exceed its bound, and worst() would read a
            # NaN as inf and pass it: it keeps the bare max
            res_flipped, _ = ricci_identity_residuals(*row, -sign)
            flipped_max = max(flipped_max, *res_flipped)
            instances += 1
    elapsed = time.perf_counter() - start
    max_residual = worst(residuals)
    passed = max_residual < 1e-7 and flipped_max > 1e-4
    details = [
        f"calibrated curvature term sign: {sign:+d}",
        f"20 instances: max identity residual {max_residual:.3e} (< 1e-7)",
        f"flipped sign: max residual {flipped_max:.3e} (> 1e-4, sensitivity)",
    ]
    return ScenarioResult("covariant-identity-suite",
                          "covariant-derivative identity residuals",
                          passed, details, elapsed)


def stated_positivity_bound(p):
    """The bound b^2 < (2-p)^2/(4(1-p^2)^2) stated for 0 < p < 1/2.

    It is only the vertex-outside sub-case of the exact criterion (see
    ``positivity_check``) and rejects metrics that are positive definite.
    """
    return (2.0 - p) ** 2 / (4.0 * (1.0 - p * p) ** 2)


def positivity_pairs():
    """60 (p, b^2) pairs straddling the three positivity case boundaries."""
    pairs = []
    for p in (-3.0, -2.0, -1.0, -0.5, -0.25, 2.5, 3.0, 4.0, 5.0):
        bound = 1.0 / (p - 1.0) ** 2                  # bound of the outer case
        pairs += [(p, bound * 0.9), (p, bound * 1.1)]
    for p in (0.5, 0.75, 1.0, 1.5, 2.0):              # bound 1
        pairs += [(p, 0.95), (p, 1.05)]
    for p in (0.1, 0.2, 0.3, 0.4):                    # stated and exact, case iii
        exact = (4.0 - 5.0 * p) / (4.0 * (1.0 - p) * (1.0 - p * p))
        pairs += [(p, stated_positivity_bound(p) * 0.9), (p, exact * 1.05)]
    for b_sq in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        pairs.append((1.0, b_sq))
    pairs += [(0.49, 0.9), (0.51, 0.9), (1.99, 0.9), (2.01, 0.9),
              (3.0, 0.1), (-1.0, 0.1), (0.7, 0.5), (1.2, 0.3),
              (1.5, 0.98), (2.5, 0.05)]
    pairs += [(3.0, 0.2), (3.0, 0.3), (2.0, 0.99), (0.4, 0.8), (0.4, 0.95)]
    return pairs


def scenario_positivity_criterion():
    """Closed-form positivity case split vs sampling the three inequalities.

    Passes iff both routes agree on every pair.  For each exponent in
    (0, 1/2) among the pairs a detail line sets the stated bound
    (``stated_positivity_bound``) beside the exact one that the case split
    uses, so the gap between them stays in sight.
    """
    start = time.perf_counter()
    pairs = positivity_pairs()
    disagreements = []
    for p, b_sq in pairs:
        closed = positivity_check(p, b_sq)
        sampled, margin = positivity_sample(p, b_sq, 201)
        if closed != sampled:
            disagreements.append(
                f"(p={p}, b^2={b_sq:.4f}): closed-form {closed}, "
                f"inequalities {sampled} (worst margin {margin:.3e})")
    elapsed = time.perf_counter() - start
    passed = not disagreements
    details = [f"{len(pairs)} (p, b^2) pairs across the three case boundaries"]
    if disagreements:
        details.append("divergent pairs:")
        details.extend("  " + d for d in disagreements)
    else:
        details.append("closed form and inequality sampling agree everywhere")
    for p in sorted({p for p, _ in pairs if 0.0 < p < 0.5}):
        details.append(f"p={p}: stated bound b^2 < "
                       f"{stated_positivity_bound(p):.5f}, exact b^2 < "
                       f"{positivity_bound(p):.5f}")
    return ScenarioResult("positivity-criterion",
                          "closed-form positivity vs inequality sampling",
                          passed, details, elapsed)


def _draw_samples(metric, count, draw, reversible=False):
    """``count`` samples (x, y) from repeated ``draw()`` calls, keeping
    those in the domain of ``metric`` -- with -y in it too where
    ``reversible`` -- in the order drawn."""
    samples = []
    while len(samples) < count:
        x, y = draw()
        if metric.in_domain(x, y) and (
                not reversible or metric.in_domain(x, [-v for v in y])):
            samples.append((x, y))
    return samples


def scenario_flat_parallel_family():
    """Flat metric with a parallel 1-form is Ricci-flat and reversible."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    beta = ["0.28", "-0.12"]
    ric_values = []
    rev_values = []
    rfp, max_cov, max_ric_alpha = ricci_flat_parallel_check(
        IDENTITY_2D, beta, [[0.1, 0.2], [-0.3, 0.4]])
    for p in (-1.0, 3.0, 2.0, 1.0, 0.5):
        metric = ppower_metric(PPowerSpec(IDENTITY_2D, beta, p))
        samples = _draw_samples(metric, 50, lambda: (
            rng.uniform(-0.8, 0.8, size=2).tolist(),
            rng.uniform(-1.0, 1.0, size=2).tolist()), reversible=True)
        xs = np.array([x for x, _ in samples])
        ys = np.array([y for _, y in samples])
        # Ric and lambda at y and at -y in one curvature pass:
        # |lambda(y) - lambda(-y)| is the reversibility residual; a row the
        # pass leaves goes to the one-point function, Ric's first
        xs2, ys2 = np.concatenate([xs, xs]), np.concatenate([ys, -ys])
        rows = evaluate(metric, xs2, ys2)
        ric = _one_by_one(rows.ric[:len(ys)], rows.ok[:len(ys)], ricci,
                          metric, xs, ys)
        ric_values += np.abs(ric).tolist()
        lams = _one_by_one(rows.lam, rows.ok, einstein_scalar, metric, xs2,
                           ys2)
        rev_values += np.abs(lams[:len(ys)] - lams[len(ys):]).tolist()
    worst_ric = worst(ric_values)
    worst_rev = worst(rev_values)
    elapsed = time.perf_counter() - start
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
    start = time.perf_counter()
    metric = ppower_metric(PPowerSpec(IDENTITY_2D, NEGATIVE_CONTROL_BETA, 1.0))
    rev = EinsteinTable(metric, ()).reversal([0.0, 1.0], [1.0, 0.5])
    randers = randers_einstein_residuals(IDENTITY_2D, NEGATIVE_CONTROL_BETA,
                                         [[0.0, 1.0], [0.2, 0.8]])
    square = square_einstein_residuals(IDENTITY_2D, NEGATIVE_CONTROL_BETA,
                                       [[0.0, 1.0], [0.2, 0.8]])
    closedness = randers.residuals["closedness"]
    cov_residual = square.residuals["covariant_derivative"]
    elapsed = time.perf_counter() - start
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
    start = time.perf_counter()
    fam = sqrt2d_family(ROTATIONAL_TRIPLE)
    r_values, norm_values = [], []
    for rd, ab in _tensors(fam.alpha, fam.beta, rotational_points(10)):
        kd = killing_deformation(rd, ab)
        r_values.append(kd.r_residual)
        norm_values.append(abs(kd.btilde_norm_sq - kd.expected_norm_sq))
    worst_r, worst_norm = worst(r_values), worst(norm_values)
    elapsed = time.perf_counter() - start
    passed = bool(worst_r < 1e-7 and worst_norm < 1e-9)
    details = [
        f"10 points: max Killing residual {worst_r:.3e} (< 1e-7)",
        f"max |norm^2 - B/(1-B)^(3/2)| {worst_norm:.3e} (< 1e-9)",
    ]
    return ScenarioResult("killing-rescale",
                          "rescaled 1-form is Killing with the stated norm",
                          passed, details, elapsed)


def scenario_derivative_soundness():
    """Jet partials of F^2 and the spray match finite differences."""
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    metric = ppower_metric(PPowerSpec(CURVED_ALPHA, CURVED_BETA, 0.5))
    n = metric.dim
    ctx = get_context(2 * n, 4)
    low = get_context(2 * n, 2)
    spray_monomials = [m for m in low.monomials if 1 <= sum(m) <= 2]
    f2_monomials = [m for m in ctx.monomials if 1 <= sum(m) <= 4]
    # where each partial sits in a coefficient vector: one gather reads
    # them all, with the bits of Jet.partial
    spray_index = np.array([low.index[m] for m in spray_monomials])
    f2_index = np.array([ctx.index[m] for m in f2_monomials])

    def f2_rows(points):
        # one batched evaluation of F for a chunk of stencil rows; each
        # square has the bits of Python's ** (np.float_power calls the C
        # library's pow), and where a finite value overflows, Python's **
        # raises its OverflowError
        z = np.ascontiguousarray(points.T)
        f = metric.value(z[:n], z[n:])
        f2 = np.float_power(f, 2.0)
        if np.isinf(f2).any():
            return [v ** 2 for v in f.tolist()]
        return f2

    def draw(x_half, y_low):
        def sample():
            x = rng.uniform(-x_half, x_half, size=2).tolist()
            y = rng.uniform(y_low, 1.0, size=2) * rng.choice([-1.0, 1.0],
                                                             size=2)
            return x, y.tolist()
        return sample

    # both sample sets are drawn first, in the order the checks use them
    f2_samples = _draw_samples(metric, 100, draw(0.4, 0.4))
    spray_samples = _draw_samples(metric, 100, draw(0.35, 0.45))

    # the jets of F^2 at every sample in one batched pass; ``_f2_rows``
    # built F of a row it marks with metric.jet, which raised there, so
    # the call here raises that sample's own error
    xs, ys = (np.array(v) for v in zip(*f2_samples))
    f2, ok = _f2_rows(metric, xs, ys)
    for b in np.flatnonzero(~ok):
        metric.jet(xs[b].tolist(), ys[b].tolist(), 4)
    wants = fd_partials(f2_rows, np.hstack([xs, ys]), f2_monomials)
    gots = read_partials(f2, f2_index, ctx)
    f2_errors = rel_err(gots, wants).ravel().tolist()

    # the spray jets likewise; the finite differences difference one
    # batched spray evaluation per chunk of stencil rows
    xs, ys = (np.array(v) for v in zip(*spray_samples))
    g, ok = _spray_jet_rows(metric, xs, ys)
    for b in np.flatnonzero(~ok):
        g_jets, _ = _spray_jets(metric, xs[b].tolist(), ys[b].tolist())
        g[b] = np.stack([gi.c for gi in g_jets])
    wants = fd_partials(lambda rows: sprays(metric, rows),
                        np.hstack([xs, ys]), spray_monomials)
    # gots[b, i, m] and wants[b, m, i]: partial m of G^i at sample b
    gots = read_partials(g, spray_index, low)
    spray_errors = rel_err(gots, wants.transpose(0, 2, 1)).ravel().tolist()
    worst_f2 = worst(f2_errors)
    worst_spray = worst(spray_errors)
    elapsed = time.perf_counter() - start
    passed = bool(worst_f2 < 1e-5 and worst_spray < 1e-5)
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
