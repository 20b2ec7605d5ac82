"""Which public functions the traced run wraps, and the per-layer metrics.

Each layer metric is meant to move one end-to-end metric on one workload
(see NOTES.md).  Counts are per pass and identical on every pass of a
seed; times are per pass and reported as medians over the traced passes.
A metric reads 0 on a workload that does not exercise its layer.
"""

from __future__ import annotations

import statistics
import threading

import numpy as np
from finslerlab import alphabeta, constructions, core, exprlang, fdcheck
from finslerlab import linalg, manifest, report, runner
from finslerlab.jets import Jet

# every check name the manifest workloads use, so the metric list is fixed
CHECK_NAMES = (
    "einstein", "reversibility", "flag_curvature", "pde_residuals",
    "sqrt2d_conditions", "killing_deformation", "randers_conditions",
    "structural_vs_generic", "ricci_identities", "positivity",
    "square_conditions", "ricci_flat_parallel",
)

CONSTRUCTIONS = (
    "sqrt2d_structure_report", "sqrt2d_K_from_lambda", "sqrt2d_flag_curvature",
    "killing_deformation", "randers_einstein_residuals",
    "square_einstein_residuals", "positivity_sample",
)


def _floats(values):
    return tuple(float(v) for v in values)


def _sample_key(tracer, args, kwargs):
    """(metric, x, y) for the core entry points ``fn(metric, x, y, ...)``."""
    return (tracer.pin(args[0]), _floats(args[1]), _floats(args[2]))


def _eval_jet_key(tracer, args, kwargs):
    node, ctx, point = args[:3]
    return (node, ctx.num_vars, ctx.order, _floats(point))


def _point_key(tracer, args, kwargs):
    return _floats(args[1])


def _check_span(args, kwargs):
    return f"runner.check.{args[0]}"


def install(tracer):
    """Wrap every traced layer boundary; undo with ``tracer.restore()``."""
    tracer.patch_method(Jet, "__mul__", "jets.mul")
    tracer.patch_method(Jet, "__truediv__", "jets.div")
    tracer.patch_method(Jet, "__rtruediv__", "jets.div")
    tracer.patch_method(Jet, "__pow__", "jets.pow")
    functions = [
        (exprlang.jet_pow, "jets.pow", None),
        (exprlang.eval_jet, "exprlang.eval_jet", _eval_jet_key),
        (exprlang.eval_scalar, "exprlang.eval_scalar", None),
        (linalg.solve, "linalg.solve", None),
        (linalg.is_positive_definite, "linalg.is_positive_definite", None),
        (core.einstein_scalar, "core.einstein_scalar", _sample_key),
        (core.spray, "core.spray", _sample_key),
        (core.riemann_curvature, "core.riemann_curvature", None),
        (core.fundamental_tensor, "core.fundamental_tensor", None),
        (alphabeta.matrix_jets, "alphabeta.matrix_jets", None),
        (alphabeta.ab_tensors_from_jets, "alphabeta.ab_tensors_from_jets",
         None),
        (alphabeta.riemann_data_from_jets, "alphabeta.riemann_data_from_jets",
         _point_key),
        (alphabeta.structural_spray, "alphabeta.structural_spray", None),
        (alphabeta.ricci_identity_residuals,
         "alphabeta.ricci_identity_residuals", None),
        (runner.collect_points, "runner.collect_points", None),
        (runner.run_check, _check_span, None),
        (runner.run, "runner.run", None),
        (manifest.validate_manifest, "manifest.validate", None),
        (report.json_dumps, "report.json_dumps", None),
        (fdcheck.fd_partial, "fdcheck.fd_partial", None),
    ]
    functions += [(getattr(constructions, fn), f"constructions.{fn}", None)
                  for fn in CONSTRUCTIONS]
    for fn, name, key in functions:
        tracer.patch_function(fn, name, key)

    def count_builds(metric, jet_builder):
        def builder(x_jets, y_jets):
            tracer.record("core.f_jet_build", (
                tracer.pin(metric), _floats(j.value for j in x_jets + y_jets)))
            return jet_builder(x_jets, y_jets)
        return builder

    tracer.patch_constructor_argument(core.FinslerMetric, "jet_builder",
                                      count_builds)


def per_layer_names(workload_names):
    """Every per-layer metric name with its unit, in a fixed order."""
    names = []
    for op in ("mul", "div", "pow"):
        names += [(f"jets.{op}.calls", "count"), (f"jets.{op}.self_s", "s")]
    names += [("jets.context_build_s", "s"), ("jets.mul_us", "us"),
              ("jets.recip_us", "us"), ("jets.pow_us", "us")]
    names += [("exprlang.eval_jet.calls", "count"),
              ("exprlang.eval_jet.self_s", "s"),
              ("exprlang.eval_jet.useful_ratio", "ratio"),
              ("exprlang.eval_scalar.calls", "count"),
              ("exprlang.eval_scalar.self_s", "s")]
    names += [("linalg.solve.calls", "count"), ("linalg.solve.self_s", "s"),
              ("linalg.is_positive_definite.calls", "count")]
    names += [("core.einstein_scalar.calls", "count"),
              ("core.einstein_scalar.self_s", "s"),
              ("core.einstein_scalar.useful_ratio", "ratio"),
              ("core.einstein_scalar.p50_ms", "ms"),
              ("core.einstein_scalar.p99_ms", "ms"),
              ("core.spray.calls", "count"), ("core.spray.self_s", "s"),
              ("core.spray.useful_ratio", "ratio"),
              ("core.riemann_curvature.calls", "count"),
              ("core.riemann_curvature.self_s", "s"),
              ("core.fundamental_tensor.calls", "count"),
              ("core.f_jet_builds_per_sample", "ratio")]
    names += [("alphabeta.matrix_jets.calls", "count"),
              ("alphabeta.matrix_jets.self_s", "s"),
              ("alphabeta.ab_tensors_from_jets.calls", "count"),
              ("alphabeta.ab_tensors_from_jets.self_s", "s"),
              ("alphabeta.tensors.useful_ratio", "ratio"),
              ("alphabeta.structural_spray.self_s", "s"),
              ("alphabeta.ricci_identity_residuals.self_s", "s")]
    names += [(f"constructions.{fn}.self_s", "s") for fn in CONSTRUCTIONS]
    names += [("runner.collect_points_s", "s"), ("runner.run.self_s", "s")]
    names += [(f"runner.check.{c}_s", "s") for c in CHECK_NAMES]
    names += [("runner.skipped", "count")]
    names += [("manifest.validate_s", "s"), ("report.json_dumps_s", "s"),
              ("report.bytes", "bytes")]
    names += [(f"scenarios.{a}_s", "s") for a in workload_names]
    names += [("fdcheck.fd_partial.calls", "count"),
              ("fdcheck.fd_partial.self_s", "s")]
    names += [("trace.overhead_share", "ratio")]
    return names


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(tracer):
    """Per-layer values of one traced pass, from its spans and counters."""
    rows = tracer.summary()
    out = {}

    def calls(name):
        return rows[name]["calls"] if name in rows else 0

    def self_s(name):
        return rows[name]["self_ns"] / 1e9 if name in rows else 0.0

    def total_s(name):
        return rows[name]["total_ns"] / 1e9 if name in rows else 0.0

    for op in ("mul", "div", "pow"):
        out[f"jets.{op}.calls"] = calls(f"jets.{op}")
        out[f"jets.{op}.self_s"] = self_s(f"jets.{op}")
    for name in ("exprlang.eval_jet", "exprlang.eval_scalar", "linalg.solve",
                 "core.einstein_scalar", "core.spray",
                 "core.riemann_curvature", "alphabeta.matrix_jets",
                 "alphabeta.ab_tensors_from_jets", "fdcheck.fd_partial"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("exprlang.eval_jet", "core.einstein_scalar", "core.spray"):
        out[f"{name}.useful_ratio"] = _ratio(tracer.distinct(name),
                                             calls(name))
    out["linalg.is_positive_definite.calls"] = calls(
        "linalg.is_positive_definite")
    out["core.fundamental_tensor.calls"] = calls("core.fundamental_tensor")
    durations = np.sort(rows["core.einstein_scalar"]["durations_ns"]
                        if "core.einstein_scalar" in rows else [])
    for q, label in ((0.50, "p50"), (0.99, "p99")):
        value = durations[min(len(durations) - 1, int(q * len(durations)))] \
            if len(durations) else 0
        out[f"core.einstein_scalar.{label}_ms"] = float(value) / 1e6
    out["core.f_jet_builds_per_sample"] = _ratio(
        tracer.counts["core.f_jet_build"], tracer.distinct("core.f_jet_build"))
    out["alphabeta.tensors.useful_ratio"] = _ratio(
        tracer.distinct("alphabeta.riemann_data_from_jets"),
        calls("alphabeta.riemann_data_from_jets"))
    for name in ("alphabeta.structural_spray",
                 "alphabeta.ricci_identity_residuals"):
        out[f"{name}.self_s"] = self_s(name)
    for fn in CONSTRUCTIONS:
        out[f"constructions.{fn}.self_s"] = self_s(f"constructions.{fn}")
    out["runner.collect_points_s"] = total_s("runner.collect_points")
    for check in CHECK_NAMES:
        out[f"runner.check.{check}_s"] = total_s(f"runner.check.{check}")
    # the sample-row phase plus report assembly: runner.run minus its
    # point collection and its checks
    out["runner.run.self_s"] = total_s("runner.run") - sum(
        total_s(name) for name in rows
        if name == "runner.collect_points" or name.startswith("runner.check."))
    # threads other than the main one that evaluated Einstein scalars are
    # the runner's sample pool; without a pool the main thread does it all
    spans = tracer.table()
    index = tracer.names.get("core.einstein_scalar", -1)
    main = tracer.threads.get(threading.main_thread().ident)
    out["runner.workers"] = max(1, len(
        set(spans[spans[:, 1] == index, 5].tolist()) - {main}))
    out["manifest.validate_s"] = total_s("manifest.validate")
    out["report.json_dumps_s"] = total_s("report.json_dumps")
    return out


def median_metrics(per_pass):
    """Median of each metric over passes."""
    return {name: statistics.median(p[name] for p in per_pass)
            for name in per_pass[0]}
