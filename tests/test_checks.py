"""The check harness: what the registry lets a manifest name, how a
registered check folds its residual lists into its block, and what a
check reports for a point it could not evaluate."""

import math

import pytest

from finslerlab import ManifestError, run, runner, validate_manifest
from finslerlab.manifest import ALL_CHECKS, DEFAULT_TOLERANCES, KINDS
from finslerlab.report import json_dumps

# the checks each kind allowed, and the tolerance defaults, when both were
# literals of the manifest module
ALLOWED = {
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

DEFAULTS = {
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

IDENTITY = [["1", "0"], ["0", "1"]]


def doc_of(kind, checks, dimension=2):
    metric = {
        "riemann": {"kind": "riemann", "a": IDENTITY},
        "ppower": {"kind": "ppower", "a": IDENTITY, "b": ["0.3", "0"],
                   "p": 1.0},
        "sqrt2d_family": {"kind": "sqrt2d_family", "u": "-x2", "v": "x1",
                          "B": "x1^2+x2^2"},
    }[kind]
    return {"dimension": dimension, "metric": metric,
            "samples": {"points": [[0.45, 0.3]], "direction_count": 8},
            "checks": checks}


def test_each_kind_allows_the_checks_it_allowed():
    assert KINDS == sorted(ALLOWED)
    assert ALL_CHECKS == sorted(set().union(*ALLOWED.values()))
    for kind, allowed in ALLOWED.items():
        for name in ALL_CHECKS:
            if name in allowed:
                assert validate_manifest(doc_of(kind, [name])).checks == [name]
                continue
            with pytest.raises(ManifestError) as info:
                validate_manifest(doc_of(kind, ["einstein", name]))
            assert info.value.pointer == "/checks/1"
            assert str(info.value) == (f"/checks/1: check {name!r} does not "
                                       f"apply to kind {kind!r}")


@pytest.mark.parametrize("kind", ["finsler", ["ppower"], {"kind": "ppower"}])
def test_an_unknown_kind_is_named_by_its_pointer(kind):
    doc = doc_of("ppower", ["einstein"])
    doc["metric"]["kind"] = kind
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert str(info.value) == ("/metric/kind: kind must be one of "
                               "['ppower', 'riemann', 'sqrt2d_family']")


def test_every_registered_tolerance_validates_and_reaches_the_block():
    assert DEFAULT_TOLERANCES == DEFAULTS
    # a distinct override per name, so a block that reads the wrong name
    # shows it
    overrides = {name: (i + 1) * 1e-3
                 for i, name in enumerate(sorted(DEFAULT_TOLERANCES))}
    doc = doc_of("sqrt2d_family", ALL_CHECKS)
    doc["tolerances"] = overrides
    manifest = validate_manifest(doc)
    assert manifest.tolerances == overrides
    for block in run(manifest)["checks"]:
        bounds = runner.SPECS[block["name"]].bounds
        assert list(block["tolerances"]) == list(bounds)
        for key, bound in bounds.items():
            want = overrides[bound[0]] if isinstance(bound, tuple) else bound
            assert block["tolerances"][key] == want, (block["name"], key)
    # a fixed bound is no tolerance a manifest may set
    doc["tolerances"] = {"disagreements": 1.0}
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == "/tolerances/disagreements"


@pytest.mark.parametrize("values, residual", [
    ([0.0, math.nan], "null"),
    ([], "null"),
    ([1e-9, 1e-7], "9.9999999999999995e-08"),
])
def test_a_nan_an_empty_list_or_a_residual_at_its_tolerance_fails(
        monkeypatch, values, residual):
    monkeypatch.setattr(runner, "SPECS", dict(runner.SPECS))
    monkeypatch.setattr(runner, "CHECKS", dict(runner.CHECKS))

    @runner._check("probe", runner.ALL_KINDS,
                   {"r": ("einstein_spread", 1e-7), "count": 0.5})
    def probe(manifest, metric, points, lam, tensors):
        return {"r": values, "count": [0.0]}, ["a note"], ["a skip"]

    manifest = validate_manifest(doc_of("ppower", ["einstein"]))
    block = runner.run_check("probe", manifest, None, [], None, None)
    assert block["verdict"] is False
    assert json_dumps(block) == "\n".join([
        "{",
        '  "name": "probe",',
        '  "residuals": {',
        f'    "r": {residual},',
        '    "count": 0',
        "  },",
        '  "tolerances": {',
        '    "r": 9.9999999999999995e-08,',
        '    "count": 0.5',
        "  },",
        '  "verdict": false,',
        '  "notes": ["a note"],',
        '  "skipped": ["a skip"]',
        "}"])


def test_flag_curvature_is_rejected_outside_dimension_two():
    """lambda is the curvature of the one flag through y only in 2-D, so
    in 3-D the check would compare nothing."""
    doc = doc_of("ppower", ["einstein", "flag_curvature"], dimension=3)
    doc["metric"] = {"kind": "ppower",
                     "a": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                     "b": ["0.1", "0.2", "0.0"], "p": 1.0}
    doc["samples"]["points"] = [[0.1, 0.2, 0.3]]
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == "/checks/1"
    assert "dimension 2" in str(info.value)
    doc["checks"] = ["einstein"]
    assert validate_manifest(doc).dimension == 3


def test_a_point_without_a_reversible_direction_is_a_skipped_row():
    doc = doc_of("ppower", ["einstein", "reversibility"])
    doc["metric"].update(b=["3*x1", "0.0"], p=0.5)
    doc["samples"] = {"points": [[0.1, 0.2], [1.0, 0.0]],
                      "direction_count": 2}
    einstein, reversibility = run(validate_manifest(doc))["checks"]
    assert einstein["skipped"] == [
        "x=[1.0, 0.0]: fewer than two admissible directions"]
    assert reversibility["skipped"] == [
        "x=[1.0, 0.0]: no reversible direction"]
