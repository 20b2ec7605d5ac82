"""Execute a validated manifest: sample points, run checks, build the report.

Per-sample failures are recorded as skipped rows with a reason and never
abort the run; the singular sets of these metric families are dense
enough that aborting would make random sampling useless.  A check that
evaluated no sample reports an infinite residual, and a NaN residual
reads inf (``core.worst``), so neither can pass.

Each Einstein scalar of a run is evaluated once, into an
``EinsteinTable`` that takes a point's directions in one batch, and the
alphabeta tensor data of each point once, into a ``TensorTable`` that
calls the one builder ``alphabeta.ab_tensors``; the sample rows and every
check read both.  A check is a small function registered in ``CHECKS``
under its manifest name, and ``run_check`` looks it up.  The checks over
the tensor data of a point share one point loop,
``constructions.fold_points``.  Samples and checks are evaluated in
manifest order, so output is deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__
from .alphabeta import (
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
    riemann_metric,
    sqrt2d_K_from_lambda,
    sqrt2d_flag_curvature,
    sqrt2d_structure_report,
    square_residuals,
)
from .core import (
    einstein_rows,
    einstein_scalar,
    exact_key,
    flag_curvature,
    spray,
    sphere_directions,
    spread,
    sprays,
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
        return not (manifest.kind == "ppower" and ab.b2 > 0
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
    if manifest.kind == "riemann":
        return riemann_metric(manifest.alpha_spec)
    if manifest.kind == "sqrt2d_family":
        return manifest.family.metric()
    return ppower_metric(manifest.ppower)


class _RunTable:
    """Results of one run, each evaluated once.

    A result, or the FinslerError its evaluation raised, is stored under
    exact bits (``core.exact_key``), so the sample rows and every check
    read the same numbers, and the same skip text, without evaluating
    twice.
    """

    def __init__(self):
        self._results = {}

    def _recall(self, key, evaluate):
        result = self._results.get(key)
        if result is None:
            try:
                result = evaluate()
            except FinslerError as exc:
                result = exc.with_traceback(None)  # keep no frames alive
            self._results[key] = result
        if isinstance(result, FinslerError):
            raise result.with_traceback(None)
        return result


class TensorTable(_RunTable):
    """The alphabeta tensor data of one run: ``(rd, ab)`` at each point x
    (``alphabeta.ab_tensors``), or the FinslerError building it raised."""

    def __init__(self, manifest):
        super().__init__()
        self.manifest = manifest

    def __call__(self, x):
        return self._recall(exact_key(x), lambda: ab_tensors(
            self.manifest.alpha_spec, self.manifest.beta_spec, x))


class EinsteinTable(_RunTable):
    """The Einstein scalars of one run: the value at (x, y), or the
    FinslerError its evaluation raised, over the run's directions.

    ``directions(x)`` lists the admissible directions at x and
    ``reversible(x)`` those whose reverse is admissible too, each worked
    out once per point.  The first call of either evaluates its rows (the
    directions, or their reverses) in one batch, ``core.einstein_rows``;
    a lookup that no batch filled, and a row a batch leaves, goes through
    ``einstein_scalar`` one point at a time.
    """

    def __init__(self, metric, dirs):
        super().__init__()
        self.metric = metric
        self.dirs = dirs
        self._sweeps = {}

    def __call__(self, x, y):
        return self._recall(
            exact_key(x, y),
            lambda: einstein_scalar(self.metric, x, list(y)))

    def values(self, x):
        """The Einstein scalars over ``directions(x)``: the directions
        that have one, their values, and a skip text for each direction
        whose evaluation raised, all in order."""
        ys, values, skipped = [], [], []
        for y in self.directions(x):
            try:
                values.append(self(x, y))
            except FinslerError as exc:
                skipped.append(f"x={x}: {exc}")
                continue
            ys.append(y)
        return ys, values, skipped

    def reversal(self, x, y):
        """|lambda(x, y) - lambda(x, -y)|; both rays must be admissible."""
        return abs(self(x, y) - self(x, [-v for v in y]))

    def directions(self, x):
        """The run's directions y with (x, y) admissible, in order."""
        return self._sweep(x, reverse=False)

    def reversible(self, x):
        """The admissible directions at x whose reverse is admissible."""
        return self._sweep(x, reverse=True)

    def _sweep(self, x, reverse):
        key = (exact_key(x), reverse)
        ys = self._sweeps.get(key)
        if ys is None:
            ys = self.directions(x) if reverse else list(self.dirs)
            rows = [-y for y in ys] if reverse else ys
            if rows:
                taken = self.metric.in_domain_rows(x, rows).tolist()
                rows = [y for y, ok in zip(rows, taken) if ok]
                ys = [y for y, ok in zip(ys, taken) if ok]
            self._sweeps[key] = ys
            self._fill(x, rows)
        return ys

    def _fill(self, x, ys):
        """Evaluate the directions ``ys`` at x not yet in the table, in
        one batch."""
        rows = {}
        for y in ys:
            rows.setdefault(exact_key(x, y), y)
        for key in self._results.keys() & rows.keys():
            del rows[key]
        lam, ok = einstein_rows(self.metric, x, list(rows.values()))
        for key, value, took in zip(rows, lam.tolist(), ok.tolist()):
            if took:
                self._results[key] = value


def _sample_row(manifest, metric, lam, tensors, x):
    row = {"x": [float(v) for v in x]}
    try:
        _, ab = tensors(x)
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


def _block(residuals, tol, notes=None, skipped=None):
    """A check block but for its name; ``tol`` is one tolerance for every
    residual or a dict of them.  The verdict is a pure function of
    residuals and tolerances, so reports are auditable on their own."""
    tolerances = tol if isinstance(tol, dict) else {k: tol for k in residuals}
    return {
        "residuals": residuals,
        "tolerances": tolerances,
        "verdict": all(residuals[k] < tolerances[k] for k in residuals),
        "notes": notes or [],
        "skipped": skipped or [],
    }


def _per_point(points, tensors, at, keys, tol, notes=None):
    """The block of ``at`` folded over the points by ``fold_points``."""
    residuals, _, skipped = fold_points(points, tensors, at, keys)
    return _block(residuals, tol, notes, skipped)


# check name -> fn(manifest, metric, points, lam, tensors) -> block
CHECKS = {}


def _check(name):
    def register(fn):
        CHECKS[name] = fn
        return fn
    return register


def run_check(name, manifest, metric, points, lam, tensors):
    """One check block; ``lam`` and ``tensors`` are the run's EinsteinTable
    and TensorTable."""
    check = CHECKS.get(name)
    if check is None:
        raise ValueError(f"unknown check {name!r}")
    return {"name": name, **check(manifest, metric, points, lam, tensors)}


@_check("einstein")
def _einstein(manifest, metric, points, lam, tensors):
    spreads, skipped = [], []
    for x in points:
        _, values, missed = lam.values(x)
        skipped += missed
        if len(values) >= 2:
            spreads.append(float(spread(values)))
        else:
            skipped.append(f"x={x}: fewer than two admissible directions")
    return _block({"max_spread": worst(spreads)},
                  manifest.tolerance("einstein_spread"), skipped=skipped)


@_check("reversibility")
def _reversibility(manifest, metric, points, lam, tensors):
    values, skipped = [], []
    for x in points:
        for y in lam.reversible(x):
            try:
                values.append(lam.reversal(x, y))
            except FinslerError as exc:
                skipped.append(f"x={x}: {exc}")
    return _block({"max_residual": worst(values)},
                  manifest.tolerance("reversibility"), skipped=skipped)


@_check("flag_curvature")
def _flag_curvature(manifest, metric, points, lam, tensors):
    values, notes, skipped = [], [], []
    for x in points:
        y0 = lam0 = None
        for y in lam.directions(x):  # the first that evaluates
            try:
                lam0, y0 = lam(x, y), list(y)
                break
            except FinslerError:
                continue
        if lam0 is None:
            skipped.append(f"x={x}: no admissible direction")
            continue
        scale = max(1.0, abs(lam0))
        if manifest.kind == "sqrt2d_family":
            try:
                k_formula = sqrt2d_flag_curvature(manifest.family.spec, x)
                values.append(abs(k_formula - lam0) / scale)
            except FinslerError as exc:
                notes.append(f"x={x}: closed form unavailable ({exc})")
        if metric.dim == 2:
            u = [-y0[1], y0[0]]
            try:
                k_flag = flag_curvature(metric, x, y0, u)
                values.append(abs(k_flag - lam0) / scale)
            except FinslerError as exc:
                skipped.append(f"x={x}: {exc}")
    return _block({"max_residual": worst(values)},
                  manifest.tolerance("flag_consistency"), notes, skipped)


@_check("pde_residuals")
def _pde_residuals(manifest, metric, points, lam, tensors):
    values = []
    for x in points:
        values += [abs(v) for v in manifest.family.pde_residuals(x).values()]
    return _block({"max_residual": worst(values)},
                  manifest.tolerance("pde_residuals"))


@_check("structural_vs_generic")
def _structural_vs_generic(manifest, metric, points, lam, tensors):
    p = manifest.ppower.p
    values, skipped = [], []
    for x in points:
        try:
            rd, ab = tensors(x)
        except FinslerError as exc:
            skipped.append(f"x={x}: {exc}")
            continue
        ys = lam.directions(x)
        try:
            generic = sprays(metric, [list(x) + list(y) for y in ys])
        except FinslerError:
            # some row raises: take the rows one at a time, so each skip
            # names the error its own row raises first
            generic = [None] * len(ys)
        for y, g_generic in zip(ys, generic):
            try:
                g_struct = structural_spray(rd, ab, p, y)
                if g_generic is None:
                    g_generic = spray(metric, x, list(y))
            except FinslerError as exc:
                skipped.append(f"x={x}: {exc}")
                continue
            scale = max(1.0, float(np.abs(g_generic).max()))
            values.append(float(np.abs(g_struct - g_generic).max()) / scale)
    return _block({"max_residual": worst(values)},
                  manifest.tolerance("structural_vs_generic"), skipped=skipped)


@_check("ricci_identities")
def _ricci_identities(manifest, metric, points, lam, tensors):
    sign = curvature_term_sign()
    keys = [f"identity_{i + 1}" for i in range(4)]

    def residuals_at(x, rd, ab):
        return dict(zip(keys, ricci_identity_residuals(rd, ab, sign)[0]))

    return _per_point(points, tensors, residuals_at, keys,
                      manifest.tolerance("ricci_identities"),
                      notes=[f"curvature_term_sign={sign}"])


@_check("randers_conditions")
def _randers_conditions(manifest, metric, points, lam, tensors):
    randers = ppower_metric(PPowerSpec(manifest.alpha_spec,
                                       manifest.beta_spec, 1.0))
    return _per_point(points, tensors,
                      lambda x, rd, ab: randers_residuals(rd, ab, randers),
                      RANDERS_KEYS, manifest.tolerance("randers_conditions"))


@_check("square_conditions")
def _square_conditions(manifest, metric, points, lam, tensors):
    square = ppower_metric(PPowerSpec(manifest.alpha_spec,
                                      manifest.beta_spec, 2.0))
    return _per_point(points, tensors,
                      lambda x, rd, ab: square_residuals(rd, ab, square),
                      SQUARE_KEYS, manifest.tolerance("square_conditions"))


@_check("sqrt2d_conditions")
def _sqrt2d_conditions(manifest, metric, points, lam, tensors):
    tol = manifest.tolerance("sqrt2d_conditions")

    def at(x, rd, ab):
        row = sqrt2d_structure_report(rd, ab, tolerance=tol).residuals
        # alpha-data curvature against lambda at the first direction;
        # where it cannot be had, the structure residuals of x still count
        try:
            k_alpha = sqrt2d_K_from_lambda(rd, ab, precheck_tol=max(tol, 1e-6))
            y0 = next(iter(lam.directions(x)), None)
            if y0 is None:
                row["skipped"] = "no admissible direction"
            else:
                lam0 = lam(x, y0)
                row["curvature_agreement"] = (abs(k_alpha - lam0)
                                              / max(1.0, abs(lam0)))
        except FinslerError as exc:
            row["skipped"] = str(exc)
        return row

    return _per_point(points, tensors, at,
                      SQRT2D_KEYS + ("curvature_agreement",), tol)


@_check("positivity")
def _positivity(manifest, metric, points, lam, tensors):
    p = manifest.ppower.p
    notes = []

    def at(x, rd, ab):
        closed = positivity_check(p, ab.b2)
        sampled, margin = positivity_sample(p, ab.b2, 101)
        if closed != sampled:
            notes.append(f"x={x}: closed form {closed} vs sampled {sampled} "
                         f"(b^2={ab.b2:.6f}, worst margin {margin:.3e})")
        if not closed:
            notes.append(f"x={x}: metric not positive definite "
                         f"(b^2={ab.b2:.6f})")
        return {"disagreements": float(closed != sampled),
                "inadmissible_points": float(not closed)}

    _, rows, skipped = fold_points(points, tensors, at, ())
    # counts, not worst residuals
    residuals = {k: float(sum(row[k] for row in rows)) if rows else math.inf
                 for k in ("disagreements", "inadmissible_points")}
    return _block(residuals, 0.5, notes, skipped)


@_check("killing_deformation")
def _killing_deformation(manifest, metric, points, lam, tensors):
    def at(x, rd, ab):
        kd = killing_deformation(manifest.alpha_spec, manifest.beta_spec, x)
        return {"killing_residual": kd.r_residual,
                "norm_identity": abs(kd.btilde_norm_sq - kd.expected_norm_sq)}

    return _per_point(
        points, tensors, at, ("killing_residual", "norm_identity"),
        {"killing_residual": manifest.tolerance("killing_deformation"),
         "norm_identity": manifest.tolerance("killing_norm_identity")})


@_check("ricci_flat_parallel")
def _ricci_flat_parallel(manifest, metric, points, lam, tensors):
    return _per_point(points, tensors,
                      lambda x, rd, ab: ricci_flat_parallel_residuals(rd, ab),
                      RICCI_FLAT_PARALLEL_KEYS,
                      manifest.tolerance("ricci_flat_parallel"))


def run(manifest, include_timings=False):
    """Execute the manifest and return the report dict."""
    import time

    start = time.perf_counter()
    metric = build_metric(manifest)
    points = collect_points(manifest)
    dirs = sphere_directions(manifest.dimension,
                             manifest.samples.direction_count)
    lam = EinsteinTable(metric, dirs)
    tensors = TensorTable(manifest)
    sample_rows = [_sample_row(manifest, metric, lam, tensors, x)
                   for x in points]
    checks = []
    timings = {}
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
