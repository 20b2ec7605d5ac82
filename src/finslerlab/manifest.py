"""Manifest loading and validation.

A manifest is a JSON document describing one metric scenario: the
dimension, the metric (by kind and expression payloads), the sample plan,
the list of checks to run, and tolerance overrides.  Every numeric field
must be a JSON number: ``true`` and ``false`` are not 1 and 0.  Validation
errors carry a JSON-pointer path to the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .constructions import PPowerSpec, Sqrt2dFamilySpec, sqrt2d_family
from .errors import ExprError, ManifestError
from .exprlang import parse

MAX_DIMENSION = 8

CHECKS_BY_KIND = {
    "riemann": {
        "reversibility", "einstein", "flag_curvature", "ricci_identities",
        "ricci_flat_parallel",
    },
    "ppower": {
        "reversibility", "einstein", "flag_curvature", "ricci_identities",
        "structural_vs_generic", "randers_conditions", "square_conditions",
        "positivity", "killing_deformation", "ricci_flat_parallel",
    },
    "sqrt2d_family": {
        "reversibility", "einstein", "flag_curvature", "pde_residuals",
        "ricci_identities", "structural_vs_generic", "randers_conditions",
        "square_conditions", "sqrt2d_conditions", "positivity",
        "killing_deformation", "ricci_flat_parallel",
    },
}

ALL_CHECKS = sorted(set().union(*CHECKS_BY_KIND.values()))

DEFAULT_TOLERANCES = {
    "einstein_spread": 1e-7,
    "reversibility": 1e-8,
    "flag_consistency": 1e-6,
    "pde_residuals": 1e-9,
    "ricci_identities": 1e-7,
    "structural_vs_generic": 1e-9,
    "randers_conditions": 1e-6,
    "square_conditions": 1e-6,
    "sqrt2d_conditions": 1e-6,
    "killing_deformation": 1e-7,
    "killing_norm_identity": 1e-9,
    "ricci_flat_parallel": 1e-9,
}


@dataclass
class SamplePlan:
    points: list = field(default_factory=list)
    random_points: int = 0
    seed: int | None = None
    direction_count: int = 32
    margin: float = 0.05
    box: list = field(default_factory=list)


@dataclass
class Manifest:
    raw: dict
    dimension: int
    kind: str
    samples: SamplePlan
    checks: list
    tolerances: dict
    ppower: PPowerSpec | None = None
    family: object = None

    def tolerance(self, name):
        return self.tolerances[name]

    @property
    def alpha_spec(self):
        return self.ppower.alpha

    @property
    def beta_spec(self):
        return self.ppower.beta


def _expect(cond, message, pointer):
    if not cond:
        raise ManifestError(message, pointer)


def _is_number(value):
    """Whether ``value`` is a JSON number: an int or a float, and not a
    bool, which Python counts as an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value):
    return _is_number(value) and isinstance(value, int)


def _parse_expr(text, pointer, dimension):
    _expect(isinstance(text, str), "expected an expression string", pointer)
    try:
        ast = parse(text)
    except ExprError as exc:
        raise ManifestError(f"expression error: {exc}", pointer) from exc
    used = ast.coordinate_count
    _expect(used <= dimension,
            f"expression uses x{used} but dimension is {dimension}", pointer)
    return ast


def validate_manifest(doc):
    """Validate a manifest dict and return the parsed Manifest."""
    _expect(isinstance(doc, dict), "manifest must be an object", "")
    dim = doc.get("dimension")
    _expect(_is_integer(dim), "dimension must be an integer", "/dimension")
    _expect(2 <= dim <= MAX_DIMENSION,
            f"dimension must be between 2 and {MAX_DIMENSION}", "/dimension")

    metric = doc.get("metric")
    _expect(isinstance(metric, dict), "metric block is required", "/metric")
    kind = metric.get("kind")
    _expect(kind in CHECKS_BY_KIND,
            f"kind must be one of {sorted(CHECKS_BY_KIND)}", "/metric/kind")

    ppower = None
    family = None
    if kind in ("riemann", "ppower"):
        a = metric.get("a")
        _expect(isinstance(a, list) and len(a) == dim
                and all(isinstance(row, list) and len(row) == dim for row in a),
                f"a must be a {dim}x{dim} expression matrix", "/metric/a")
        a_ast = [[_parse_expr(a[i][j], f"/metric/a/{i}/{j}", dim)
                  for j in range(dim)] for i in range(dim)]
        if kind == "ppower":
            b = metric.get("b")
            _expect(isinstance(b, list) and len(b) == dim,
                    f"b must be a list of {dim} expressions", "/metric/b")
            b_ast = [_parse_expr(b[i], f"/metric/b/{i}", dim)
                     for i in range(dim)]
            p = metric.get("p")
            _expect(_is_number(p), "p is required and must be a number",
                    "/metric/p")
            _expect(p != 0, "p must be nonzero", "/metric/p")
            _expect(math.isfinite(p), "p must be finite", "/metric/p")
            ppower = PPowerSpec(a_ast, b_ast, float(p))
        else:
            from .constructions import zero_covector
            ppower = PPowerSpec(a_ast, zero_covector(dim), 1.0)
    else:  # sqrt2d_family
        _expect(dim == 2, "sqrt2d_family requires dimension 2", "/dimension")
        triple = {}
        for name in ("u", "v", "B"):
            triple[name] = _parse_expr(metric.get(name), f"/metric/{name}", dim)
        family = sqrt2d_family(
            Sqrt2dFamilySpec(triple["u"], triple["v"], triple["B"]))
        ppower = PPowerSpec(family.alpha, family.beta, 0.5)

    samples_doc = doc.get("samples")
    _expect(isinstance(samples_doc, dict), "samples block is required",
            "/samples")
    points = samples_doc.get("points", [])
    _expect(isinstance(points, list), "points must be a list", "/samples/points")
    for i, pt in enumerate(points):
        _expect(isinstance(pt, list) and len(pt) == dim
                and all(_is_number(v) for v in pt),
                f"point must have {dim} numeric coordinates",
                f"/samples/points/{i}")
        _expect(all(math.isfinite(v) for v in pt),
                "point coordinates must be finite", f"/samples/points/{i}")
    random_points = samples_doc.get("random_points", 0)
    _expect(_is_integer(random_points) and random_points >= 0,
            "random_points must be a nonnegative integer",
            "/samples/random_points")
    seed = samples_doc.get("seed")
    if seed is not None:
        _expect(_is_integer(seed) and seed >= 0,
                "seed must be a nonnegative integer", "/samples/seed")
    elif random_points > 0:
        raise ManifestError("seed is required when random_points > 0",
                            "/samples/seed")
    _expect(points or random_points > 0,
            "at least one sample point is required", "/samples")
    direction_count = samples_doc.get("direction_count", 32)
    _expect(_is_integer(direction_count) and direction_count >= 2,
            "direction_count must be an integer >= 2",
            "/samples/direction_count")
    margin = samples_doc.get("margin", 0.05)
    _expect(_is_number(margin) and 0 <= margin < 0.5,
            "margin must be in [0, 0.5)", "/samples/margin")
    box = samples_doc.get("box", [[-0.8, 0.8]] * dim)
    _expect(isinstance(box, list) and len(box) == dim
            and all(isinstance(iv, list) and len(iv) == 2
                    and all(_is_number(v) and math.isfinite(v)
                            for v in iv) and iv[0] < iv[1] for iv in box),
            f"box must be {dim} finite [lo, hi] intervals", "/samples/box")

    checks = doc.get("checks")
    _expect(isinstance(checks, list) and checks,
            "checks must be a nonempty list", "/checks")
    allowed = CHECKS_BY_KIND[kind]
    for i, name in enumerate(checks):
        _expect(name in ALL_CHECKS, f"unknown check {name!r}", f"/checks/{i}")
        _expect(name in allowed,
                f"check {name!r} does not apply to kind {kind!r}",
                f"/checks/{i}")

    tolerances = dict(DEFAULT_TOLERANCES)
    overrides = doc.get("tolerances", {})
    _expect(isinstance(overrides, dict), "tolerances must be an object",
            "/tolerances")
    for name, value in overrides.items():
        _expect(name in DEFAULT_TOLERANCES,
                f"unknown tolerance {name!r}", f"/tolerances/{name}")
        _expect(_is_number(value) and value >= 0,
                "tolerance must be a nonnegative number", f"/tolerances/{name}")
        _expect(math.isfinite(value), "tolerance must be finite",
                f"/tolerances/{name}")
        tolerances[name] = float(value)

    plan = SamplePlan(points=[list(map(float, pt)) for pt in points],
                      random_points=random_points,
                      seed=seed,
                      direction_count=direction_count,
                      margin=float(margin),
                      box=[[float(iv[0]), float(iv[1])] for iv in box])
    return Manifest(raw=doc, dimension=dim, kind=kind, samples=plan,
                    checks=list(checks), tolerances=tolerances,
                    ppower=ppower, family=family)


def load_manifest(path):
    """Read, parse and validate a manifest file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ManifestError(f"cannot read manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    return validate_manifest(doc)
