"""Bundled verification scenarios.

Each scenario reproduces one published closed-form result or cross-path
equivalence as machine-checked residuals.  A scenario is a function
registered in ``SCENARIOS`` by the ``_scenario(description)`` decorator,
which names it by its function name (``scenario_killing_rescale`` is
``killing-rescale``), times it, and returns a ScenarioResult.  The body
returns its detail lines, each plain text or a ``(text, holds)`` row; the
verdict is that every row holds.  ``_row(label, value, "< 1e-7")`` formats
a row and tests the bound it prints, so each bound is written once; a
``>`` row holds only for a finite value, so neither a NaN nor the inf of
a fold over nothing can pass it.  The registry drives both the
``verify-paper`` CLI command and the acceptance test suite.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

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
    _spray_jet_rows,
    einstein_scalars,
    evaluate,
    riccis,
    sphere_directions,
    sprays,
    worst,
)
from .errors import FinslerError, _checked
from .exprlang import shared_tape
from .fdcheck import fd_partials, rel_err
from .jets import get_context, read_partials


@dataclass
class ScenarioResult:
    anchor: str
    description: str
    passed: bool
    details: list
    duration: float


# scenario functions in registration order, filled by ``_scenario``
SCENARIOS = []


def _anchor(fn):
    """The name a scenario reports and ``run_scenarios`` filters on."""
    return fn.__name__.replace("scenario_", "").replace("_", "-")


def _row(label, value, bound, fmt=".3e"):
    """The detail row ``label value (bound)`` and whether ``value`` holds
    ``bound``, a text ``"< L"`` or ``"> L"`` that may go on with a note
    after a comma.  L is read from that text, so the limit printed is the
    limit tested.  Neither sense holds at L itself or on NaN, and ``>``
    holds only for a finite value: ``worst`` reads a NaN, and a list with
    nothing evaluated, as inf."""
    text = f"{label} {value:{fmt}}"
    limit = float(bound[2:].split(",")[0])
    if bound[0] == "<":
        holds = value < limit
    else:
        holds = math.isfinite(value) and value > limit
    return f"{text} ({bound})", bool(holds)


def _scenario(description):
    """Register a scenario whose body returns its detail lines: plain text
    or ``(text, holds)`` rows.  Its duration is timed but tests nothing,
    so no verdict depends on the machine's load."""
    def register(body):
        @functools.wraps(body)
        def run():
            start = time.perf_counter()
            rows = body()
            elapsed = time.perf_counter() - start
            rows = [(row, True) if isinstance(row, str) else row
                    for row in rows]
            return ScenarioResult(
                _anchor(body), description,
                all(holds for _, holds in rows),
                [text for text, _ in rows], elapsed)
        SCENARIOS.append(run)
        return run
    return register


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


def rotational_points(count):
    """Deterministic points with B in (0,1) and v = x1 away from zero, at
    radii from 0.35 to 0.9."""
    points = []
    k = 0
    while len(points) < count:
        t = k / max(count * 2 - 1, 1)
        r = 0.35 + (0.9 - 0.35) * t
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


def _tensors(alpha, beta, points):
    """The tensor data (rd, ab) at each point, from one batched build
    (``ab_tensor_rows``); the first point that fails raises its own
    error."""
    return [_raised(row) for row in ab_tensor_rows(alpha, beta, points)]


@_scenario("closed-form curvature of the rotational family")
def scenario_rotational_family_curvature():
    """Engine Einstein scalar of the rotational family vs its closed form."""
    fam = sqrt2d_family(ROTATIONAL_TRIPLE)
    metric = fam.metric()
    points = rotational_points(10)
    # a skipped point or direction fails the scenario, which must not pass
    # on fewer samples than its detail line prints
    spreads, skipped = EinsteinTable(
        metric, sphere_directions(2, 32)).spreads(points)
    rows = [f"points: {len(points)}, directions: 32"]
    if skipped:
        rows.append(("skipped:", False))
        rows += ["  " + text for text in skipped]
    rows.append(_row("max spread of the Einstein scalar over directions:",
                     worst(spreads), "< 1e-7"))
    bs = [fam.b_squared(x) for x in points]
    lams = einstein_scalars(metric, points, [[0.6, 0.8]] * len(points))
    rows.append(_row("max |engine - closed form -1/sqrt(1-B)|:",
                     worst(abs(lam - (-1.0 / math.sqrt(1.0 - b)))
                           for b, lam in zip(bs, lams.tolist())), "< 1e-7"))
    return rows


@_scenario("pairwise agreement of the three curvature formulas")
def scenario_family_curvature_consistency():
    """Three independent curvature computations agree on family instances."""
    gaps = []
    count = 0
    for spec, points in ((ROTATIONAL_TRIPLE, rotational_points(20)),
                         (SECOND_TRIPLE, second_triple_points(8))):
        fam = sqrt2d_family(spec)
        metric = fam.metric()
        for x in points:
            pde = fam.pde_residuals(x)
            if max(abs(v) for v in pde.values()) > 1e-10:
                return [(f"triple violates its constraints at {x}", False)]
        k_engines = einstein_scalars(metric, points,
                                     [[0.6, 0.8]] * len(points))
        tensors = _tensors(fam.alpha, fam.beta, points)
        for x, k_engine, (rd, ab) in zip(points, k_engines.tolist(), tensors):
            k_formula = sqrt2d_flag_curvature(spec, x)
            k_alpha = sqrt2d_K_from_lambda(rd, ab)
            gaps += [abs(k_formula - k_alpha), abs(k_formula - k_engine),
                     abs(k_alpha - k_engine)]
            count += 1
    return [
        f"{count} points across two scalar triples",
        _row("max pairwise disagreement of the three curvature values:",
             worst(gaps), "< 1e-6"),
    ]


@_scenario("structural vs generic geodesic coefficients")
def scenario_spray_cross_validation():
    """Structural spray formula vs generic spray over random samples."""
    rng = np.random.default_rng(42)
    exponents = (1.0, 2.0, -1.0, 0.5, 3.0)
    rows = []
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
        rows.append(_row(f"p={p}: max relative spray difference",
                         worst(values), "< 1e-9"))
    return rows


@_scenario("closed-form Randers Ricci vs the generic engine")
def scenario_randers_ricci_formula():
    """Closed-form Randers Ricci curvature vs the generic engine."""
    rng = np.random.default_rng(7)
    metric = ppower_metric(PPowerSpec(IDENTITY_2D, FLAT_RANDERS_BETA, 1.0))
    samples = _draw_samples(metric, 50, lambda: (
        rng.uniform(-0.6, 0.6, size=2).tolist(),
        rng.uniform(-1.0, 1.0, size=2).tolist()))
    rows = [_row("50 flat-metric samples: max relative difference",
                 worst(_randers_ricci_gaps(metric, IDENTITY_2D,
                                           FLAT_RANDERS_BETA, samples)),
                 "< 1e-7")]
    funk = ppower_metric(PPowerSpec(FUNK_ALPHA, FUNK_BETA, 1.0))
    samples = [([0.45 * math.cos(0.7 * k), 0.45 * math.sin(0.7 * k)],
                [math.cos(2.1 * k + 0.4), math.sin(2.1 * k + 0.4)])
               for k in range(10)]
    rows.append(_row("unit-ball instance: max relative difference",
                     worst(_randers_ricci_gaps(funk, FUNK_ALPHA, FUNK_BETA,
                                               samples)), "< 1e-7"))
    lams = einstein_scalars(funk, [x for x, _ in samples],
                            [y for _, y in samples])
    rows.append(_row("unit-ball Einstein scalar vs -1/4:",
                     worst(abs(lam + 0.25) for lam in lams.tolist()),
                     "< 1e-6"))
    return rows


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


@_scenario("covariant-derivative identity residuals")
def scenario_covariant_identity_suite():
    """The four covariant-derivative identities, and their sign sensitivity."""
    rng = np.random.default_rng(2024)
    sign = curvature_term_sign()
    residuals, flipped = [], []
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
            flipped += ricci_identity_residuals(*row, -sign)[0]
            instances += 1
    return [
        f"calibrated curvature term sign: {sign:+d}",
        _row("20 instances: max identity residual", worst(residuals),
             "< 1e-7"),
        # np.max keeps a NaN, which fails the row
        _row("flipped sign: max residual", float(np.max(flipped)),
             "> 1e-4, sensitivity"),
    ]


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


@_scenario("closed-form positivity vs inequality sampling")
def scenario_positivity_criterion():
    """Closed-form positivity case split vs sampling the three inequalities.

    Passes iff both routes agree on every pair.  For each exponent in
    (0, 1/2) among the pairs a detail line sets the stated bound
    (``stated_positivity_bound``) beside the exact one that the case split
    uses, so the gap between them stays in sight.
    """
    pairs = positivity_pairs()
    disagreements = []
    for p, b_sq in pairs:
        closed = positivity_check(p, b_sq)
        sampled, margin = positivity_sample(p, b_sq, 201)
        if closed != sampled:
            disagreements.append(
                f"(p={p}, b^2={b_sq:.4f}): closed-form {closed}, "
                f"inequalities {sampled} (worst margin {margin:.3e})")
    rows = [f"{len(pairs)} (p, b^2) pairs across the three case boundaries"]
    if disagreements:
        rows.append(("divergent pairs:", False))
        rows += ["  " + d for d in disagreements]
    else:
        rows.append("closed form and inequality sampling agree everywhere")
    for p in sorted({p for p, _ in pairs if 0.0 < p < 0.5}):
        rows.append(f"p={p}: stated bound b^2 < "
                    f"{stated_positivity_bound(p):.5f}, exact b^2 < "
                    f"{positivity_bound(p):.5f}")
    return rows


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


@_scenario("flat metric + parallel 1-form is Ricci-flat "
           "and reversible for all exponents")
def scenario_flat_parallel_family():
    """Flat metric with a parallel 1-form is Ricci-flat and reversible."""
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
        # |lambda(y) - lambda(-y)| is the reversibility residual; the first
        # row that holds an error raises it, Ric's first
        rows = evaluate(metric, np.concatenate([xs, xs]),
                        np.concatenate([ys, -ys]))
        ric_values += np.abs(_checked(rows.ric[:len(ys)])).tolist()
        lams = np.array(_checked(rows.lam))
        rev_values += np.abs(lams[:len(ys)] - lams[len(ys):]).tolist()
    return [
        (f"flat-parallel verdict: {rfp} (covariant derivative "
         f"{max_cov:.1e}, curvature {max_ric_alpha:.1e})", rfp),
        _row("5 exponents x 50 samples: max |Ricci of F|", worst(ric_values),
             "< 1e-9"),
        _row("max reversibility residual", worst(rev_values), "< 1e-9"),
    ]


@_scenario("checkers reject a generic non-Einstein instance")
def scenario_non_einstein_rejection():
    """A generic non-Einstein instance must fail every checker."""
    metric = ppower_metric(PPowerSpec(IDENTITY_2D, NEGATIVE_CONTROL_BETA, 1.0))
    rows = [_row("reversibility residual",
                 EinsteinTable(metric, ()).reversal([0.0, 1.0], [1.0, 0.5]),
                 "> 1e-3", ".4f")]
    for name, check, key, label in (
            ("Randers", randers_einstein_residuals, "closedness",
             "closedness residual"),
            ("square", square_einstein_residuals, "covariant_derivative",
             "covariant-derivative residual")):
        report = check(IDENTITY_2D, NEGATIVE_CONTROL_BETA,
                       [[0.0, 1.0], [0.2, 0.8]])
        text, holds = _row(
            f"{name} structure equations: verdict {report.verdict}, {label}",
            report.residuals[key], "> 1e-3", ".4f")
        rows.append((text, holds and not report.verdict))
    return rows


@_scenario("rescaled 1-form is Killing with the stated norm")
def scenario_killing_rescale():
    """Rescaled 1-form of the rotational family is a Killing form."""
    fam = sqrt2d_family(ROTATIONAL_TRIPLE)
    r_values, norm_values = [], []
    for rd, ab in _tensors(fam.alpha, fam.beta, rotational_points(10)):
        kd = killing_deformation(rd, ab)
        r_values.append(kd.r_residual)
        norm_values.append(abs(kd.btilde_norm_sq - kd.expected_norm_sq))
    return [
        _row("10 points: max Killing residual", worst(r_values), "< 1e-7"),
        _row("max |norm^2 - B/(1-B)^(3/2)|", worst(norm_values), "< 1e-9"),
    ]


@_scenario("jet derivatives vs central finite differences")
def scenario_derivative_soundness():
    """Jet partials of F^2 and the spray match finite differences."""
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

    # the jets of F^2 at every sample in one batched pass, in the full
    # order-4 context; the first sample whose F raised raises its error
    xs, ys = (np.array(v) for v in zip(*f2_samples))
    f2, errors = _f2_rows(metric, xs, ys, x_degree=None)
    _checked(errors)
    wants = fd_partials(f2_rows, np.hstack([xs, ys]), f2_monomials)
    gots = read_partials(f2, f2_index, ctx)
    f2_errors = rel_err(gots, wants).ravel().tolist()

    # the spray jets likewise; the finite differences difference one
    # batched spray evaluation per chunk of stencil rows
    xs, ys = (np.array(v) for v in zip(*spray_samples))
    g, errors = _spray_jet_rows(metric, xs, ys)
    _checked(errors)
    wants = fd_partials(lambda rows: sprays(metric, rows),
                        np.hstack([xs, ys]), spray_monomials)
    # gots[b, i, m] and wants[b, m, i]: partial m of G^i at sample b
    gots = read_partials(g, spray_index, low)
    spray_errors = rel_err(gots, wants.transpose(0, 2, 1)).ravel().tolist()
    return [
        _row("100 samples, all F^2 partials to order 4: max error",
             worst(f2_errors), "< 1e-5"),
        _row("100 samples, all spray partials to order 2: max error",
             worst(spray_errors), "< 1e-5"),
    ]


def run_scenarios(filter_text=None):
    """The results of the registered scenarios whose anchor contains
    ``filter_text`` (all of them without one), in ``SCENARIOS`` order."""
    return [fn() for fn in SCENARIOS
            if not filter_text or filter_text in _anchor(fn)]
