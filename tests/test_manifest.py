import json
import math

import pytest

from finslerlab import ManifestError, load_manifest, run, runner, validate_manifest
from finslerlab.cli import main as cli_main
from finslerlab.report import json_dumps, manifest_hash, report_csv

MANIFEST_DIR = "manifests"


def rotational_doc():
    return {
        "dimension": 2,
        "metric": {"kind": "sqrt2d_family", "u": "-x2", "v": "x1",
                   "B": "x1^2+x2^2"},
        "samples": {"points": [[0.6, 0.0], [0.45, 0.3]],
                    "direction_count": 8},
        "checks": ["einstein", "flag_curvature"],
    }


def ppower_doc(**overrides):
    doc = {
        "dimension": 2,
        "metric": {"kind": "ppower", "a": [["1", "0"], ["0", "1"]],
                   "b": ["0.3", "0"], "p": 1.0},
        "samples": {"points": [[0.1, 0.2]], "direction_count": 8},
        "checks": ["einstein"],
    }
    doc.update(overrides)
    return doc


def test_load_bundled_manifests():
    for name in ("rotational_family.json", "funk_ball.json",
                 "non_einstein_control.json"):
        manifest = load_manifest(f"{MANIFEST_DIR}/{name}")
        assert manifest.dimension == 2


def test_missing_p_pointer():
    doc = ppower_doc()
    del doc["metric"]["p"]
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == "/metric/p"


def test_dimension_limit():
    doc = ppower_doc(dimension=9)
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == "/dimension"


def test_zero_p_rejected():
    doc = ppower_doc()
    doc["metric"]["p"] = 0
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == "/metric/p"


def test_expression_error_pointer():
    doc = ppower_doc()
    doc["metric"]["a"][0][1] = "x1 +"
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == "/metric/a/0/1"


def test_coordinate_out_of_dimension():
    doc = ppower_doc()
    doc["metric"]["b"][0] = "x3"
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == "/metric/b/0"


def test_unknown_and_inapplicable_checks():
    doc = ppower_doc(checks=["made_up"])
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == "/checks/0"
    doc = ppower_doc(checks=["pde_residuals"])  # needs the family kind
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == "/checks/0"


def test_seed_required_for_random_points():
    doc = ppower_doc()
    doc["samples"] = {"points": [], "random_points": 3}
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == "/samples/seed"


def test_family_requires_dimension_two():
    doc = rotational_doc()
    doc["dimension"] = 3
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == "/dimension"


def test_tolerance_override_validation():
    doc = ppower_doc(tolerances={"einstein_spread": 1e-6})
    manifest = validate_manifest(doc)
    assert manifest.tolerance("einstein_spread") == 1e-6
    doc = ppower_doc(tolerances={"bogus": 1.0})
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == "/tolerances/bogus"


def test_run_produces_consistent_report():
    manifest = validate_manifest(rotational_doc())
    report = run(manifest)
    assert report["verdict"] is True
    assert report["engine"]["jet_order"] == 4
    assert report["engine"]["curvature_term_sign"] in (-1, 1)
    assert len(report["samples"]) == 2
    for check in report["checks"]:
        recomputed = all(
            check["residuals"][k] < check["tolerances"][k]
            for k in check["residuals"])
        assert recomputed == check["verdict"]


def test_run_reports_are_byte_identical():
    doc = {
        "dimension": 2,
        "metric": {"kind": "sqrt2d_family", "u": "-x2", "v": "x1",
                   "B": "x1^2+x2^2"},
        "samples": {"points": [[0.6, 0.0]], "random_points": 3, "seed": 11,
                    "direction_count": 8},
        "checks": ["einstein"],
    }
    text1 = json_dumps(run(validate_manifest(doc)))
    text2 = json_dumps(run(validate_manifest(doc)))
    assert text1 == text2
    # a different seed changes the sampled points, hence the report
    doc["samples"]["seed"] = 12
    text3 = json_dumps(run(validate_manifest(doc)))
    assert text3 != text1


def test_manifest_hash_stable():
    doc = rotational_doc()
    assert manifest_hash(doc) == manifest_hash(json.loads(json.dumps(doc)))
    other = rotational_doc()
    other["samples"]["direction_count"] = 9
    assert manifest_hash(other) != manifest_hash(doc)


def test_float_formatting_round_trip():
    values = [0.1, 1.0 / 3.0, 2.0 ** -52, 1e300, -1.25e-7]
    text = json_dumps({"values": values})
    parsed = json.loads(text)
    assert parsed["values"] == values
    assert json.loads(json_dumps(math.inf)) is None


def test_csv_projection():
    manifest = validate_manifest(rotational_doc())
    report = run(manifest)
    csv_text = report_csv(report)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("x1,x2,b_squared,lambda_mean")
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        b_sq = float(cells[2])
        closed_form = float(cells[5])
        assert closed_form == pytest.approx(-1.0 / math.sqrt(1.0 - b_sq),
                                            rel=1e-9)
        assert float(cells[3]) == pytest.approx(closed_form, abs=1e-9)


def test_flat_parallel_manifest_all_residuals_vanish():
    doc = ppower_doc(checks=["einstein", "reversibility",
                             "ricci_flat_parallel", "structural_vs_generic"])
    report = run(validate_manifest(doc))
    assert report["verdict"] is True
    for check in report["checks"]:
        assert max(check["residuals"].values()) < 1e-12, check["name"]
    for sample in report["samples"]:
        assert abs(sample["lambda_mean"]) < 1e-12
        assert sample["lambda_spread"] < 1e-12


def test_riemann_kind_manifest():
    doc = {
        "dimension": 2,
        "metric": {"kind": "riemann",
                   "a": [["4/(1+x1^2+x2^2)^2", "0"],
                         ["0", "4/(1+x1^2+x2^2)^2"]]},
        "samples": {"points": [[0.1, 0.2], [0.4, -0.3]],
                    "direction_count": 8},
        "checks": ["einstein", "reversibility", "ricci_identities",
                   "ricci_flat_parallel"],
    }
    report = run(validate_manifest(doc))
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["einstein"]["verdict"]          # constant curvature 1
    assert by_name["reversibility"]["verdict"]
    assert by_name["ricci_identities"]["verdict"]  # trivial with b = 0
    assert not by_name["ricci_flat_parallel"]["verdict"]
    for sample in report["samples"]:
        assert sample["lambda_mean"] == pytest.approx(1.0, abs=1e-10)


def test_warm_memo_report_is_identical(monkeypatch):
    manifest = validate_manifest(rotational_doc())
    metric = runner.build_metric(manifest)
    fresh = runner.build_metric
    monkeypatch.setattr(runner, "build_metric",
                        lambda m: metric if m is manifest else fresh(m))
    cold = json_dumps(run(manifest))
    run(validate_manifest(ppower_doc()))
    assert len(metric.coefficients) > 0  # warm from the first run
    assert json_dumps(run(manifest)) == cold


def test_check_without_samples_fails():
    # B = x1^2 + x2^2 > 1 at both points: no sample is in the domain
    doc = rotational_doc()
    doc["samples"]["points"] = [[1.2, 0.0], [0.0, 1.5]]
    doc["checks"] = ["flag_curvature", "killing_deformation",
                     "sqrt2d_conditions"]
    report = run(validate_manifest(doc))
    for check in report["checks"]:
        assert not check["verdict"], check["name"]
        assert all(math.isinf(v) for v in check["residuals"].values())
        assert len(check["skipped"]) == 2
    doc = ppower_doc(checks=["ricci_identities", "positivity"])
    doc["metric"]["a"] = [["1/x1", "0"], ["0", "1"]]
    doc["samples"]["points"] = [[0.0, 0.2]]  # a_11 is singular at x1 = 0
    report = run(validate_manifest(doc))
    for check in report["checks"]:
        assert not check["verdict"], check["name"]
        assert all(math.isinf(v) for v in check["residuals"].values())
        assert len(check["skipped"]) == 1


def test_cli_run_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main(["run", f"{MANIFEST_DIR}/rotational_family.json",
                     "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] is True
    code = cli_main(["run", f"{MANIFEST_DIR}/non_einstein_control.json",
                     "--out", str(out)])
    assert code == 1
    capsys.readouterr()


def test_cli_tolerance_override(tmp_path):
    out = tmp_path / "report.json"
    code = cli_main(["run", f"{MANIFEST_DIR}/rotational_family.json",
                     "--out", str(out), "--tol", "einstein_spread=1e-16"])
    assert code == 1  # documents the numerical floor of the check
    report = json.loads(out.read_text())
    einstein = next(c for c in report["checks"] if c["name"] == "einstein")
    assert not einstein["verdict"]


def test_cli_eval(capsys):
    code = cli_main(["eval", "--expr", "x1^2+x2^2", "--at", "0.6,0",
                     "--order", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "value: 0.35999999999999999" in out
    assert "d1: 1.2" in out


def test_cli_verify_filter(capsys):
    code = cli_main(["verify-paper", "--filter", "killing"])
    assert code == 0
    out = capsys.readouterr().out
    assert "killing-rescale" in out
    assert "pass" in out


def test_cli_bad_manifest(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"dimension\": 2}")
    code = cli_main(["run", str(bad)])
    assert code == 2
    assert "manifest error" in capsys.readouterr().err


def test_timings_flag(tmp_path):
    manifest = validate_manifest(rotational_doc())
    with_timings = run(manifest, include_timings=True)
    without = run(manifest)
    assert "timings" in with_timings
    assert "timings" not in without
