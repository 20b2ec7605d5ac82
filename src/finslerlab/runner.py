"""Execute a validated manifest: sample points, run checks, build the report.

Per-sample domain failures are recorded as skipped rows with a reason and
never abort the run; the singular sets of these metric families are dense
enough that aborting would make random sampling useless.  Each Einstein
scalar of a run is evaluated once, into an ``EinsteinTable`` that takes a
point's directions in one batch, and the alphabeta tensor data of each
point once, into a ``TensorTable``; the sample rows and every check read
both.  Samples and checks are evaluated in manifest order, so output is
deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__
from .alphabeta import (
    ab_tensors_from_jets,
    covector_jets,
    curvature_term_sign,
    matrix_jets,
    ricci_identity_residuals,
    riemann_data_from_jets,
    structural_spray,
)
from .constructions import (
    killing_deformation,
    positivity_check,
    positivity_sample,
    randers_einstein_residuals,
    ricci_flat_parallel_check,
    riemann_metric,
    ppower_metric,
    square_einstein_residuals,
    sqrt2d_K_from_lambda,
    sqrt2d_flag_curvature,
    sqrt2d_structure_report,
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
from .report import manifest_hash


def _point_admissible(manifest, x, margin):
    try:
        if manifest.kind == "sqrt2d_family":
            fam = manifest.family
            b = fam.b_squared(x)  # raises when outside (0, 1)
            if not margin < b < 1.0 - margin:
                return False
            from .exprlang import eval_scalar
            u = eval_scalar(fam.spec.u, x)
            v = eval_scalar(fam.spec.v, x)
            if abs(v) < margin or u * u + v * v < margin * margin:
                return False
        else:
            jets = matrix_jets(manifest.alpha_spec, x, order=2)
            rd = riemann_data_from_jets(jets, x)
            ab = ab_tensors_from_jets(
                rd, covector_jets(manifest.beta_spec, x, order=2))
            if abs(ab.b2 - 4.0) < margin:
                return False
            if manifest.kind == "ppower" and ab.b2 > 0:
                if not positivity_check(manifest.ppower.p, ab.b2):
                    return False
        return True
    except FinslerError:
        return False
    except ValueError:
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


def _tensors(manifest, x):
    rd = riemann_data_from_jets(matrix_jets(manifest.alpha_spec, x, 3), x)
    ab = ab_tensors_from_jets(rd, covector_jets(manifest.beta_spec, x, 3))
    return rd, ab


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
    """The alphabeta tensor data of one run: ``(rd, ab)`` at each point x,
    or the FinslerError building it raised."""

    def __init__(self, manifest):
        super().__init__()
        self.manifest = manifest

    def __call__(self, x):
        return self._recall(exact_key(x), lambda: _tensors(self.manifest, x))


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
    values = []
    rev = None
    for y in lam.directions(x):
        try:
            values.append(lam(x, y))
        except FinslerError:
            continue
        # the reversal of the first direction is a lone lookup
        if rev is None and metric.in_domain(x, [-v for v in y]):
            try:
                rev = lam.reversal(x, y)
            except FinslerError:
                rev = None
    if values:
        row["lambda_mean"] = float(np.mean(values))
        row["lambda_spread"] = float(spread(values))
        row["directions_used"] = len(values)
    else:
        row["lambda_mean"] = None
        row["lambda_spread"] = None
        row["skipped"] = "no admissible directions"
    row["reversibility_residual"] = rev
    if manifest.kind == "sqrt2d_family":
        try:
            row["closed_form_curvature"] = sqrt2d_flag_curvature(
                manifest.family.spec, x)
        except FinslerError:
            row["closed_form_curvature"] = None
    else:
        row["closed_form_curvature"] = None
    return row


def _check_result(name, residuals, tolerances, notes=None, skipped=None):
    """Assemble one check block; the verdict is a pure function of
    residuals and tolerances so reports are auditable on their own."""
    verdict = all(residuals[k] < tolerances[k] for k in residuals)
    return {
        "name": name,
        "residuals": residuals,
        "tolerances": tolerances,
        "verdict": bool(verdict),
        "notes": notes or [],
        "skipped": skipped or [],
    }


def run_check(name, manifest, metric, points, lam, tensors):
    """One check block; ``lam`` and ``tensors`` are the run's EinsteinTable
    and TensorTable.  A check that evaluated no sample reports an infinite
    residual, so it cannot pass."""
    tol_map = manifest.tolerances
    skipped = []

    if name == "einstein":
        tol = tol_map["einstein_spread"]
        spreads = []
        for x in points:
            values = []
            for y in lam.directions(x):
                try:
                    values.append(lam(x, y))
                except FinslerError as exc:
                    skipped.append(f"x={x}: {exc}")
            if len(values) >= 2:
                spreads.append(float(spread(values)))
            else:
                skipped.append(f"x={x}: fewer than two admissible directions")
        return _check_result(name, {"max_spread": worst(spreads)},
                             {"max_spread": tol}, skipped=skipped)

    if name == "reversibility":
        tol = tol_map["reversibility"]
        values = []
        for x in points:
            for y in lam.reversible(x):
                try:
                    values.append(lam.reversal(x, y))
                except FinslerError as exc:
                    skipped.append(f"x={x}: {exc}")
        return _check_result(name, {"max_residual": worst(values)},
                             {"max_residual": tol}, skipped=skipped)

    if name == "flag_curvature":
        tol = tol_map["flag_consistency"]
        values = []
        notes = []
        for x in points:
            y0 = None
            lam0 = None
            for y in lam.directions(x):
                try:
                    lam0 = lam(x, y)
                    y0 = list(y)
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
        return _check_result(name, {"max_residual": worst(values)},
                             {"max_residual": tol}, notes=notes,
                             skipped=skipped)

    if name == "pde_residuals":
        tol = tol_map["pde_residuals"]
        values = []
        for x in points:
            res = manifest.family.pde_residuals(x)
            values += [abs(v) for v in res.values()]
        return _check_result(name, {"max_residual": worst(values)},
                             {"max_residual": tol})

    if name == "ricci_identities":
        tol = tol_map["ricci_identities"]
        rows = []
        sign = curvature_term_sign()
        for x in points:
            try:
                rd, ab = tensors(x)
                res, _ = ricci_identity_residuals(rd, ab, sign)
                rows.append(res)
            except FinslerError as exc:
                skipped.append(f"x={x}: {exc}")
        worsts = [worst(col) for col in zip(*rows)] if rows else [math.inf] * 4
        residuals = {f"identity_{i + 1}": w for i, w in enumerate(worsts)}
        return _check_result(name, residuals,
                             {k: tol for k in residuals},
                             notes=[f"curvature_term_sign={sign}"],
                             skipped=skipped)

    if name == "structural_vs_generic":
        tol = tol_map["structural_vs_generic"]
        p = manifest.ppower.p
        values = []
        for x in points:
            try:
                rd, ab = tensors(x)
            except FinslerError as exc:
                skipped.append(f"x={x}: {exc}")
                continue
            ys = lam.directions(x)
            try:
                generic = sprays(metric, [list(x) + list(y) for y in ys]) \
                    if ys else []
            except FinslerError:
                # some row raises: take the rows one at a time, so each
                # skip names the error its own row raises first
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
                values.append(
                    float(np.abs(g_struct - g_generic).max()) / scale)
        return _check_result(name, {"max_residual": worst(values)},
                             {"max_residual": tol}, skipped=skipped)

    if name == "randers_conditions":
        tol = tol_map["randers_conditions"]
        rep = randers_einstein_residuals(manifest.alpha_spec,
                                         manifest.beta_spec, points,
                                         tolerance=tol)
        return _check_result(name, rep.residuals,
                             {k: tol for k in rep.residuals}, notes=rep.notes)

    if name == "square_conditions":
        tol = tol_map["square_conditions"]
        rep = square_einstein_residuals(manifest.alpha_spec,
                                        manifest.beta_spec, points,
                                        tolerance=tol)
        return _check_result(name, rep.residuals,
                             {k: tol for k in rep.residuals}, notes=rep.notes)

    if name == "sqrt2d_conditions":
        tol = tol_map["sqrt2d_conditions"]
        structure = {}
        agreements = []
        for x in points:
            try:
                rep = sqrt2d_structure_report(
                    manifest.alpha_spec, manifest.beta_spec, x, tolerance=tol)
                for key, value in rep.residuals.items():
                    structure.setdefault(key, []).append(value)
                k_alpha = sqrt2d_K_from_lambda(
                    manifest.alpha_spec, manifest.beta_spec, x,
                    precheck_tol=max(tol, 1e-6))
                y0 = next(iter(lam.directions(x)), None)
                if y0 is None:
                    skipped.append(f"x={x}: no admissible direction")
                    continue
                lam0 = lam(x, y0)
                agreements.append(abs(k_alpha - lam0) / max(1.0, abs(lam0)))
            except FinslerError as exc:
                skipped.append(f"x={x}: {exc}")
        residuals = ({key: worst(v) for key, v in structure.items()}
                     if structure else {"r00_equation": math.inf})
        residuals["curvature_agreement"] = worst(agreements)
        return _check_result(name, residuals, {k: tol for k in residuals},
                             skipped=skipped)

    if name == "positivity":
        disagreements = 0.0
        inadmissible = 0.0
        evaluated = 0
        notes = []
        p = manifest.ppower.p
        for x in points:
            try:
                _, ab = tensors(x)
            except FinslerError as exc:
                skipped.append(f"x={x}: {exc}")
                continue
            evaluated += 1
            closed = positivity_check(p, ab.b2)
            sampled, margin = positivity_sample(p, ab.b2, 101)
            if closed != sampled:
                disagreements += 1.0
                notes.append(
                    f"x={x}: closed form {closed} vs sampled {sampled} "
                    f"(b^2={ab.b2:.6f}, worst margin {margin:.3e})")
            if not closed:
                inadmissible += 1.0
                notes.append(f"x={x}: metric not positive definite "
                             f"(b^2={ab.b2:.6f})")
        residuals = {"disagreements": disagreements,
                     "inadmissible_points": inadmissible}
        if not evaluated:
            residuals = {k: math.inf for k in residuals}
        return _check_result(name, residuals,
                             {k: 0.5 for k in residuals},
                             notes=notes, skipped=skipped)

    if name == "killing_deformation":
        tol = tol_map["killing_deformation"]
        norm_tol = tol_map["killing_norm_identity"]
        r_values = []
        norm_values = []
        for x in points:
            try:
                kd = killing_deformation(manifest.alpha_spec,
                                         manifest.beta_spec, x)
                r_values.append(kd.r_residual)
                norm_values.append(
                    abs(kd.btilde_norm_sq - kd.expected_norm_sq))
            except FinslerError as exc:
                skipped.append(f"x={x}: {exc}")
        return _check_result(
            name,
            {"killing_residual": worst(r_values),
             "norm_identity": worst(norm_values)},
            {"killing_residual": tol, "norm_identity": norm_tol},
            skipped=skipped)

    if name == "ricci_flat_parallel":
        tol = tol_map["ricci_flat_parallel"]
        _, max_cov, max_ric = ricci_flat_parallel_check(
            manifest.alpha_spec, manifest.beta_spec, points, tolerance=tol)
        residuals = {"max_covariant_derivative": max_cov,
                     "max_ricci_alpha": max_ric}
        return _check_result(name, residuals, {k: tol for k in residuals})

    raise ValueError(f"unknown check {name!r}")


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
