"""Execute a validated manifest: sample points, run checks, build the report.

Per-sample failures are recorded as skipped rows with a reason and never
abort the run; the singular sets of these metric families are dense
enough that aborting would make random sampling useless.  A check that
evaluated no sample reports an infinite residual, and a NaN residual
reads inf (``core.worst``), so neither can pass.

Each tangent sample of a run is evaluated once, into a
``core.EinsteinTable`` that takes a point's directions in one curvature
pass (``core.evaluate``) and keeps F, g, R^i_k, Ric and lambda of each
row; the alphabeta tensor data of all its points is built in one pass of
``alphabeta.ab_tensor_rows``, one row per point, ``(rd, ab)`` or the
FinslerError the point raised.  The sample rows and every check read
both: the ``einstein``, ``reversibility`` and ``sqrt2d_conditions`` checks
read lambda (``values``, ``spreads``, ``reversal``), ``flag_curvature``
reads (F, g, R) at the first direction that evaluates
(``EinsteinTable.curvature``), and ``randers_conditions`` and
``square_conditions`` read (F, Ric) along their directions
(``EinsteinTable.ricci_rows``) from the run's own table where the run's
metric is the Randers (p = 1) or square (p = 2) metric, else from a table
of that metric's own.

A check registers once, by ``_check`` on its body, with the metric kinds
it applies to and the bound of each residual (``SPECS``, from which the
manifest reads kinds, check names and tolerance defaults).  A body
returns its residual lists by key, its notes and its skip texts, as does
``constructions.fold_points``, the one point loop of the checks over a
point's tensor data; ``CHECKS`` holds each check that folds them into its
block.  Samples and checks run in manifest order, so output is
deterministic.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import __version__
from .alphabeta import (
    _raised,
    ab_tensor_rows,
    ab_tensors,
    curvature_term_sign,
    ricci_identity_residuals,
    structural_spray,
)
from .constructions import (
    RANDERS_KEYS,
    RICCI_FLAT_PARALLEL_KEYS,
    SQRT2D_KEYS,
    SQUARE_KEYS,
    PPowerSpec,
    fold_points,
    killing_deformation,
    positivity_check,
    positivity_sample,
    ppower_metric,
    randers_residuals,
    ricci_flat_parallel_residuals,
    sqrt2d_K_from_lambda,
    sqrt2d_flag_curvature,
    sqrt2d_structure_report,
    square_residuals,
)
from .core import (
    EinsteinTable,
    _spray_rows,
    flag_formula,
    sphere_directions,
    spread,
    worst,
)
from .errors import FinslerError
from .exprlang import shared_tape
from .report import manifest_hash


def _point_admissible(manifest, x, margin):
    try:
        if manifest.kind == "sqrt2d_family":
            fam = manifest.family
            b = fam.b_squared(x)  # raises when outside (0, 1)
            if not margin < b < 1.0 - margin:
                return False
            u, v = shared_tape((fam.spec.u, fam.spec.v)).floats(x)
            return abs(v) >= margin and u * u + v * v >= margin * margin
        _, ab = ab_tensors(manifest.alpha_spec, manifest.beta_spec, x,
                           order=2)
        if abs(ab.b2 - 4.0) < margin:
            return False
        return not (ab.b2 > 0
                    and not positivity_check(manifest.ppower.p, ab.b2))
    except (FinslerError, ValueError):
        return False


def collect_points(manifest):
    """Explicit points plus seeded random points inside the box."""
    plan = manifest.samples
    points = [list(p) for p in plan.points]
    if plan.random_points > 0:
        rng = np.random.default_rng(plan.seed)
        lo = np.array([iv[0] for iv in plan.box])
        hi = np.array([iv[1] for iv in plan.box])
        attempts = 0
        found = 0
        while found < plan.random_points and attempts < 200 * plan.random_points:
            attempts += 1
            x = (lo + (hi - lo) * rng.uniform(size=manifest.dimension)).tolist()
            if _point_admissible(manifest, x, plan.margin):
                points.append(x)
                found += 1
    return points


def build_metric(manifest):
    """The run's metric: the p-power metric of the manifest's spec, which
    every kind has (a ``riemann`` manifest's is p = 1 with beta = 0)."""
    return ppower_metric(manifest.ppower)


def _sample_row(manifest, metric, lam, tensor_row, x):
    row = {"x": [float(v) for v in x]}
    try:
        _, ab = _raised(tensor_row)
        row["b_squared"] = float(ab.b2)
    except FinslerError as exc:
        row["b_squared"] = None
        row["skipped"] = f"tensor data unavailable: {exc}"
        return row
    ys, values, _ = lam.values(x)
    rev = None
    # the reversal of the first direction that has one is a lone lookup
    for y in ys:
        if metric.in_domain(x, [-v for v in y]):
            try:
                rev = lam.reversal(x, y)
                break
            except FinslerError:
                pass
    if values:
        row["lambda_mean"] = float(np.mean(values))
        row["lambda_spread"] = float(spread(values))
        row["directions_used"] = len(values)
    else:
        row["lambda_mean"] = None
        row["lambda_spread"] = None
        row["skipped"] = "no admissible directions"
    row["reversibility_residual"] = rev
    row["closed_form_curvature"] = None
    if manifest.kind == "sqrt2d_family":
        try:
            row["closed_form_curvature"] = sqrt2d_flag_curvature(
                manifest.family.spec, x)
        except FinslerError:
            pass
    return row


# where a check applies and what bounds its residuals: the metric kinds,
# the one dimension (None for any) and, per residual key in block order, a
# fixed bound or a (tolerance name, default) pair that a manifest may set
CheckSpec = namedtuple("CheckSpec", "kinds bounds dimension")

ALL_KINDS = ("riemann", "ppower", "sqrt2d_family")
BETA_KINDS = ("ppower", "sqrt2d_family")
FAMILY_KIND = ("sqrt2d_family",)

# check name -> its CheckSpec, which the manifest validates against
SPECS = {}
# check name -> fn(manifest, metric, points, lam, tensors) -> block
CHECKS = {}


def _check(name, kinds, bounds, dimension=None):
    """Register the body ``fn(manifest, metric, points, lam, tensors) ->
    (lists, notes, skipped)`` as the check ``name``, which folds each list
    with ``core.worst`` and pairs it with its bound.  The verdict, that
    every residual is below its bound, is a pure function of the block,
    so reports are auditable on their own."""
    SPECS[name] = CheckSpec(kinds, bounds, dimension)

    def register(body):
        def check(manifest, *args):
            lists, notes, skipped = body(manifest, *args)
            residuals = {k: worst(lists[k]) for k in bounds}
            tolerances = {k: manifest.tolerance(b[0]) if isinstance(b, tuple)
                          else b for k, b in bounds.items()}
            return {"residuals": residuals, "tolerances": tolerances,
                    "verdict": all(residuals[k] < tolerances[k]
                                   for k in bounds),
                    "notes": notes, "skipped": skipped}
        CHECKS[name] = check
        return body
    return register


def run_check(name, manifest, metric, points, lam, tensors):
    """One check block; ``lam`` is the run's EinsteinTable and ``tensors``
    the tensor rows of ``points`` (``alphabeta.ab_tensor_rows``)."""
    check = CHECKS.get(name)
    if check is None:
        raise ValueError(f"unknown check {name!r}")
    return {"name": name, **check(manifest, metric, points, lam, tensors)}


@_check("einstein", ALL_KINDS, {"max_spread": ("einstein_spread", 1e-7)})
def _einstein(manifest, metric, points, lam, tensors):
    spreads, skipped = lam.spreads(points)
    return {"max_spread": spreads}, [], skipped


@_check("reversibility", ALL_KINDS, {"max_residual": ("reversibility", 1e-8)})
def _reversibility(manifest, metric, points, lam, tensors):
    values, skipped = [], []
    for x in points:
        ys = lam.reversible(x)
        if not ys:
            skipped.append(f"x={x}: no reversible direction")
        for y in ys:
            try:
                values.append(lam.reversal(x, y))
            except FinslerError as exc:
                skipped.append(f"x={x}: {exc}")
    return {"max_residual": values}, [], skipped


# lambda is the curvature of the one flag through y only in 2-D
@_check("flag_curvature", ALL_KINDS,
        {"max_residual": ("flag_consistency", 1e-6)}, dimension=2)
def _flag_curvature(manifest, metric, points, lam, tensors):
    values, notes, skipped = [], [], []
    for x in points:
        ys, lams, _ = lam.values(x)
        if not lams:
            skipped.append(f"x={x}: no admissible direction")
            continue
        y0, lam0 = list(ys[0]), lams[0]  # the first that evaluates
        scale = max(1.0, abs(lam0))
        if manifest.kind == "sqrt2d_family":
            try:
                k_formula = sqrt2d_flag_curvature(manifest.family.spec, x)
                values.append(abs(k_formula - lam0) / scale)
            except FinslerError as exc:
                notes.append(f"x={x}: closed form unavailable ({exc})")
        try:
            k_flag = flag_formula(*lam.curvature(x, y0), y0, [-y0[1], y0[0]])
            values.append(abs(k_flag - lam0) / scale)
        except FinslerError as exc:
            skipped.append(f"x={x}: {exc}")
    return {"max_residual": values}, notes, skipped


@_check("pde_residuals", FAMILY_KIND,
        {"max_residual": ("pde_residuals", 1e-9)})
def _pde_residuals(manifest, metric, points, lam, tensors):
    values = []
    for x in points:
        values += [abs(v) for v in manifest.family.pde_residuals(x).values()]
    return {"max_residual": values}, [], []


@_check("structural_vs_generic", BETA_KINDS,
        {"max_residual": ("structural_vs_generic", 1e-9)})
def _structural_vs_generic(manifest, metric, points, lam, tensors):
    p = manifest.ppower.p
    values, skipped = [], []
    for x, row in zip(points, tensors):
        try:
            rd, ab = _raised(row)
        except FinslerError as exc:
            skipped.append(f"x={x}: {exc}")
            continue
        ys = lam.directions(x)
        generic, errors = _spray_rows(metric, [list(x) + list(y) for y in ys])
        for y, g_generic, error in zip(ys, generic, errors):
            try:
                g_struct = structural_spray(rd, ab, p, y)
                _raised(error)
            except FinslerError as exc:
                skipped.append(f"x={x}: {exc}")
                continue
            scale = max(1.0, float(np.abs(g_generic).max()))
            values.append(float(np.abs(g_struct - g_generic).max()) / scale)
    return {"max_residual": values}, [], skipped


IDENTITY_KEYS = tuple(f"identity_{i + 1}" for i in range(4))


@_check("ricci_identities", ALL_KINDS,
        dict.fromkeys(IDENTITY_KEYS, ("ricci_identities", 1e-7)))
def _ricci_identities(manifest, metric, points, lam, tensors):
    sign = curvature_term_sign()

    def at(x, rd, ab):
        return dict(zip(IDENTITY_KEYS,
                        ricci_identity_residuals(rd, ab, sign)[0]))

    lists, _, skipped = fold_points(points, tensors, at, IDENTITY_KEYS)
    return lists, [f"curvature_term_sign={sign}"], skipped


def _table_of(manifest, lam, p):
    """The Einstein table of the p-power metric on the run's (alpha,
    beta): the run's own ``lam`` where the run's metric is that metric,
    whose F has the same bits, else a table of its own."""
    if manifest.ppower.p == p:
        return lam
    return EinsteinTable(ppower_metric(PPowerSpec(
        manifest.alpha_spec, manifest.beta_spec, p)), ())


@_check("randers_conditions", BETA_KINDS,
        dict.fromkeys(RANDERS_KEYS, ("randers_conditions", 1e-6)))
def _randers_conditions(manifest, metric, points, lam, tensors):
    randers = _table_of(manifest, lam, 1.0)
    return fold_points(points, tensors,
                       lambda x, rd, ab: randers_residuals(rd, ab, randers),
                       RANDERS_KEYS)


@_check("square_conditions", BETA_KINDS,
        dict.fromkeys(SQUARE_KEYS, ("square_conditions", 1e-6)))
def _square_conditions(manifest, metric, points, lam, tensors):
    square = _table_of(manifest, lam, 2.0)
    return fold_points(points, tensors,
                       lambda x, rd, ab: square_residuals(rd, ab, square),
                       SQUARE_KEYS)


SQRT2D_CHECK_KEYS = SQRT2D_KEYS + ("curvature_agreement",)


@_check("sqrt2d_conditions", FAMILY_KIND,
        dict.fromkeys(SQRT2D_CHECK_KEYS, ("sqrt2d_conditions", 1e-6)))
def _sqrt2d_conditions(manifest, metric, points, lam, tensors):
    precheck_tol = max(manifest.tolerance("sqrt2d_conditions"), 1e-6)

    def at(x, rd, ab):
        row = sqrt2d_structure_report(rd, ab).residuals
        # alpha-data curvature against lambda at the first direction that
        # evaluates; where it cannot be had, the structure residuals of x
        # still count
        try:
            k_alpha = sqrt2d_K_from_lambda(rd, ab, precheck_tol=precheck_tol)
        except FinslerError as exc:
            row["skipped"] = str(exc)
            return row
        _, lams, _ = lam.values(x)
        if lams:
            row["curvature_agreement"] = (abs(k_alpha - lams[0])
                                          / max(1.0, abs(lams[0])))
        else:
            row["skipped"] = "no admissible direction"
        return row

    return fold_points(points, tensors, at, SQRT2D_CHECK_KEYS)


POSITIVITY_KEYS = ("disagreements", "inadmissible_points")


# counts, not worst residuals, so no manifest sets their bound
@_check("positivity", BETA_KINDS, dict.fromkeys(POSITIVITY_KEYS, 0.5))
def _positivity(manifest, metric, points, lam, tensors):
    p = manifest.ppower.p

    def at(x, rd, ab):
        closed = positivity_check(p, ab.b2)
        sampled, margin = positivity_sample(p, ab.b2, 101)
        notes = []
        if closed != sampled:
            notes.append(f"closed form {closed} vs sampled {sampled} "
                         f"(b^2={ab.b2:.6f}, worst margin {margin:.3e})")
        if not closed:
            notes.append(f"metric not positive definite (b^2={ab.b2:.6f})")
        return {"disagreements": float(closed != sampled),
                "inadmissible_points": float(not closed), "notes": notes}

    lists, notes, skipped = fold_points(points, tensors, at, POSITIVITY_KEYS)
    # each count is one value, and none where no point was evaluated
    counts = {k: [float(sum(v))] if v else [] for k, v in lists.items()}
    return counts, notes, skipped


@_check("killing_deformation", BETA_KINDS,
        {"killing_residual": ("killing_deformation", 1e-7),
         "norm_identity": ("killing_norm_identity", 1e-9)})
def _killing_deformation(manifest, metric, points, lam, tensors):
    def at(x, rd, ab):
        kd = killing_deformation(rd, ab)
        return {"killing_residual": kd.r_residual,
                "norm_identity": abs(kd.btilde_norm_sq - kd.expected_norm_sq)}

    return fold_points(points, tensors, at,
                       ("killing_residual", "norm_identity"))


@_check("ricci_flat_parallel", ALL_KINDS,
        dict.fromkeys(RICCI_FLAT_PARALLEL_KEYS, ("ricci_flat_parallel", 1e-9)))
def _ricci_flat_parallel(manifest, metric, points, lam, tensors):
    return fold_points(points, tensors,
                       lambda x, rd, ab: ricci_flat_parallel_residuals(rd, ab),
                       RICCI_FLAT_PARALLEL_KEYS)


def run(manifest, include_timings=False):
    """Execute the manifest and return the report dict.  With
    ``include_timings`` the report also holds ``timings``: the seconds of
    the sample rows (``samples``, the phase that fills the Einstein table),
    of each check by name, and of the whole run (``total``)."""
    import time

    start = time.perf_counter()
    metric = build_metric(manifest)
    points = collect_points(manifest)
    dirs = sphere_directions(manifest.dimension,
                             manifest.samples.direction_count)
    lam = EinsteinTable(metric, dirs)
    tensors = ab_tensor_rows(manifest.alpha_spec, manifest.beta_spec, points)
    t0 = time.perf_counter()
    sample_rows = [_sample_row(manifest, metric, lam, row, x)
                   for x, row in zip(points, tensors)]
    timings = {"samples": time.perf_counter() - t0}
    checks = []
    for name in manifest.checks:
        t0 = time.perf_counter()
        checks.append(run_check(name, manifest, metric, points, lam,
                                tensors))
        timings[name] = time.perf_counter() - t0
    verdict = all(c["verdict"] for c in checks)
    report = {
        "schema": "finslerlab-report/1",
        "manifest": manifest.raw,
        "manifest_hash": manifest_hash(manifest.raw),
        "engine": {
            "version": __version__,
            "jet_order": 4,
            "curvature_term_sign": curvature_term_sign(),
        },
        "samples": sample_rows,
        "checks": checks,
        "verdict": verdict,
    }
    if include_timings:
        timings["total"] = time.perf_counter() - start
        report["timings"] = timings
    return report
