"""Workload inputs, one measured pass, and the correctness verdict of a pass.

Every workload is a closed loop: a single client in this process starts the
next pass only after the previous one has finished.  A pass calls only the
public functions of the ``finslerlab`` package, from outside it.

An operation is one manifest check or one scenario.  It fails if it raises
or if its verdict differs from the expected one: every check of the
negative control ``non_einstein_control`` is expected to be false, every
other check and every scenario true.

A scenario that fails on the code as it stands is a known defect.  It is
kept out of the measured passes, so that every measured operation can pass,
and run once per run on its own by ``known_defects``, whose verdicts are
printed and recorded next to the result.
"""

from __future__ import annotations

import json
import math
import random
import re
import time
from dataclasses import dataclass, field

# calls go through the module attributes, where the traced run wraps them
from finslerlab import jets, manifest, report, runner
from finslerlab.scenarios import SCENARIOS

WORKLOADS = ("manifests-2d", "funk-4d", "verify-paper")
BUNDLED = ("rotational_family", "funk_ball", "non_einstein_control")
NEGATIVE_CONTROL = "non_einstein_control"

# the generated 4-D Funk ball is Einstein with this closed-form scalar
FUNK_LAMBDA = -0.25
FUNK_LAMBDA_TOL = 1e-9
FUNK_DIM = 4

# residual / tolerance ratios are clamped here so a zero residual or an
# infinite one (a check that evaluated nothing) still gives a finite log
RATIO_FLOOR = 1e-300
RATIO_CEIL = 1e300

# "<value> (< <tolerance>)" in scenario detail lines; "runtime: 1.2s (< 10s)"
# does not match because of its unit suffix
_BOUND_RE = re.compile(r"([-+]?\d[\d.]*(?:e[-+]?\d+)?) \(< ([-+]?\d[\d.]*(?:e[-+]?\d+)?)\)")


def scenario_anchor(fn):
    """The anchor ``run_scenarios`` filters on, from the scenario function."""
    return fn.__name__.replace("scenario_", "").replace("_", "-")


SCENARIO_ANCHORS = tuple(scenario_anchor(fn) for fn in SCENARIOS)
# the closed-form positivity case split disagrees with sampling the
# inequalities for 0 < p < 1/2 (ROADMAP item 2); it fails on every pass
KNOWN_DEFECTS = ("positivity-criterion",)
MEASURED_SCENARIOS = tuple((fn, anchor)
                           for fn, anchor in zip(SCENARIOS, SCENARIO_ANCHORS)
                           if anchor not in KNOWN_DEFECTS)


def funk_4d_manifest(seed):
    """4-D Funk-ball Randers manifest at three seed-drawn points, |x| <= 0.5.

    a_ij = ((1-|x|^2) delta_ij + x_i x_j) / (1-|x|^2)^2 and
    b_i = x_i / (1-|x|^2), with p = 1.
    """
    rng = random.Random(seed)
    xs = [f"x{i + 1}" for i in range(FUNK_DIM)]
    den = "(1-" + "-".join(f"{x}^2" for x in xs) + ")"
    a = [[(f"(1-" + "-".join(f"{x}^2" for x in xs if x != xi) + f")/{den}^2")
          if xi == xj else f"{xi}*{xj}/{den}^2" for xj in xs] for xi in xs]
    b = [f"{xi}/{den}" for xi in xs]
    points = []
    for _ in range(3):
        v = [rng.gauss(0.0, 1.0) for _ in range(FUNK_DIM)]
        scale = 0.5 * rng.random() / math.sqrt(sum(c * c for c in v))
        points.append([c * scale for c in v])
    return {
        "dimension": FUNK_DIM,
        "metric": {"kind": "ppower", "a": a, "b": b, "p": 1.0},
        "samples": {"points": points, "direction_count": 16},
        "checks": ["einstein", "reversibility", "randers_conditions",
                   "structural_vs_generic", "ricci_identities"],
        "tolerances": {"reversibility": 1e-7},
    }


def make_inputs(workload, seed, root):
    """``[(name, manifest document)]``; empty for ``verify-paper``, whose
    scenario inputs are fixed by the program."""
    if workload == "manifests-2d":
        docs = []
        for name in BUNDLED:
            with open(root / "manifests" / f"{name}.json", encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["samples"] = dict(doc["samples"], seed=seed)
            docs.append((name, doc))
        return docs
    if workload == "funk-4d":
        return [("funk_4d", funk_4d_manifest(seed))]
    if workload == "verify-paper":
        return []
    raise ValueError(f"unknown workload {workload!r}")


# A run draws this many input sets from its seed and pass i uses set i mod K.
# The worst residual of a manifest workload is set by where its random
# points land, so one set per run would make the residual metric a lottery
# over seeds; the run reports the median over its sets.
INPUT_SETS = {"manifests-2d": 6, "funk-4d": 2, "verify-paper": 1}
# every set runs once and the first runs again, so the determinism guard
# compares passes in every run
MIN_PASSES = {name: k + 1 for name, k in INPUT_SETS.items()}


def input_sets(workload, seed, root):
    """The run's input sets, all drawn from ``seed``."""
    rng = random.Random(seed)
    return [make_inputs(workload, rng.randrange(2 ** 31), root)
            for _ in range(INPUT_SETS[workload])]


def dimension(docs):
    return max((doc["dimension"] for _, doc in docs), default=2)


def context_keys(docs):
    """(num_vars, order) of every jet context the workload's passes use."""
    n = dimension(docs)
    return [(2 * n, 4), (2 * n, 2), (n, 3), (n, 2)]


def set_up(docs):
    """Validate the manifests, build their metrics and the jet contexts."""
    manifests = [manifest.validate_manifest(doc) for _, doc in docs]
    metrics = [runner.build_metric(m) for m in manifests]
    contexts = [jets.get_context(*key) for key in context_keys(docs)]
    return manifests, metrics, contexts


@dataclass
class Op:
    name: str
    ok: bool
    reason: str = ""


@dataclass
class PassOutcome:
    ops: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)    # manifest name -> bytes
    verdicts: dict = field(default_factory=dict)   # op name -> verdict
    seconds: dict = field(default_factory=dict)    # manifest / anchor -> s
    headroom: list = field(default_factory=list)   # log10(tol / residual)
    skipped: int = 0

    @property
    def failed(self):
        return [op for op in self.ops if not op.ok]

    @property
    def worst_headroom(self):
        """Headroom of the worst expected-true residual; a pass that
        produced no residual at all reads as the worst possible."""
        return min(self.headroom, default=-math.log10(RATIO_CEIL))


def _headroom(residual, tolerance):
    ratio = residual / tolerance if tolerance > 0 else math.inf
    if ratio != ratio:  # nan
        ratio = math.inf
    return -math.log10(min(max(ratio, RATIO_FLOOR), RATIO_CEIL))


def _manifest_ops(outcome, name, result):
    expect = name != NEGATIVE_CONTROL
    oracle_misses = []
    if name == "funk_4d":
        for row in result["samples"]:
            lam = row.get("lambda_mean")
            miss = math.inf if lam is None else abs(lam - FUNK_LAMBDA)
            outcome.headroom.append(_headroom(miss, FUNK_LAMBDA_TOL))
            if not miss < FUNK_LAMBDA_TOL:
                oracle_misses.append(f"x={row['x']}: lambda_mean {lam}")
    for check in result["checks"]:
        op_name = f"{name}/{check['name']}"
        outcome.verdicts[op_name] = check["verdict"]
        ok = check["verdict"] == expect
        reason = "" if ok else f"verdict {check['verdict']}, expected {expect}"
        if check["name"] == "einstein" and oracle_misses:
            ok = False
            reason = "lambda_mean != -1/4: " + "; ".join(oracle_misses)
        if expect:
            outcome.headroom += [_headroom(v, check["tolerances"][k])
                                 for k, v in check["residuals"].items()]
        outcome.ops.append(Op(op_name, ok, reason))
    outcome.skipped += sum(len(c["skipped"]) for c in result["checks"])
    outcome.skipped += sum(1 for row in result["samples"] if "skipped" in row)


def manifest_pass(docs):
    outcome = PassOutcome()
    for name, doc in docs:
        start = time.perf_counter()
        try:
            result = runner.run(manifest.validate_manifest(doc))
            text = report.json_dumps(result).encode("utf-8")
        except Exception as exc:  # an operation that raises fails
            outcome.ops += [Op(f"{name}/{check}", False,
                               f"{type(exc).__name__}: {exc}")
                            for check in doc["checks"]]
            continue
        finally:
            outcome.seconds[name] = time.perf_counter() - start
        outcome.reports[name] = text
        _manifest_ops(outcome, name, result)
    return outcome


def scenario_pass(scenarios=MEASURED_SCENARIOS):
    outcome = PassOutcome()
    for fn, anchor in scenarios:
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an operation that raises fails
            outcome.ops.append(Op(anchor, False,
                                  f"{type(exc).__name__}: {exc}"))
            continue
        finally:
            outcome.seconds[anchor] = time.perf_counter() - start
        outcome.verdicts[anchor] = result.passed
        outcome.ops.append(Op(anchor, result.passed,
                              "" if result.passed else "scenario failed"))
        for line in result.details:
            outcome.headroom += [_headroom(float(value), float(tol))
                                 for value, tol in _BOUND_RE.findall(line)]
    return outcome


def known_defects():
    """One unmeasured pass over the known-defect scenarios: ``{anchor:
    (passed, seconds, reason)}``, so a defect stays in sight and a fix
    shows."""
    chosen = tuple((fn, anchor)
                   for fn, anchor in zip(SCENARIOS, SCENARIO_ANCHORS)
                   if anchor in KNOWN_DEFECTS)
    outcome = scenario_pass(chosen)
    return {op.name: (op.ok, outcome.seconds[op.name], op.reason)
            for op in outcome.ops}


def run_pass(workload, docs):
    if workload == "verify-paper":
        return scenario_pass()
    return manifest_pass(docs)


def guard_determinism(outcome, first):
    """Fail every operation of a manifest whose report bytes differ from
    the first pass of the run (mirrors the package's byte-identity test)."""
    for name, text in outcome.reports.items():
        if text == first.reports.get(name):
            continue
        for op in outcome.ops:
            if op.name.startswith(name + "/") and op.ok:
                op.ok = False
                op.reason = "report bytes differ from the first pass"
    for name, verdict in outcome.verdicts.items():
        if name in first.verdicts and verdict != first.verdicts[name]:
            for op in outcome.ops:
                if op.name == name and op.ok:
                    op.ok = False
                    op.reason = "verdict differs from the first pass"
