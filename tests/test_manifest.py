import json
import math

import pytest

from finslerlab import (
    DegenerateValue,
    ManifestError,
    load_manifest,
    run,
    runner,
    validate_manifest,
)
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
    # every check a manifest may name is registered, and no other
    from finslerlab.manifest import ALL_CHECKS
    assert sorted(runner.CHECKS) == ALL_CHECKS
    with pytest.raises(ValueError, match="unknown check 'made_up'"):
        runner.run_check("made_up", None, None, [], None, None)


def test_seed_required_for_random_points():
    doc = ppower_doc()
    doc["samples"] = {"points": [], "random_points": 3}
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == "/samples/seed"
    doc["samples"]["seed"] = 0
    assert validate_manifest(doc).samples.seed == 0


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


@pytest.mark.parametrize("edit, pointer", [
    (lambda doc: doc["samples"].update(points=[[math.nan, 1.0]]),
     "/samples/points/0"),
    (lambda doc: doc["samples"].update(points=[[0.1, 0.2], [math.inf, 1.0]]),
     "/samples/points/1"),
    (lambda doc: doc["samples"].update(points=[[0.1, -math.inf]]),
     "/samples/points/0"),
    (lambda doc: doc["samples"].update(box=[[-1.0, math.inf], [-1.0, 1.0]]),
     "/samples/box"),
    (lambda doc: doc["samples"].update(box=[[-1.0, 1.0], [math.nan, 1.0]]),
     "/samples/box"),
    (lambda doc: doc.update(tolerances={"einstein_spread": math.inf}),
     "/tolerances/einstein_spread"),
    (lambda doc: doc["metric"].update(p=math.inf), "/metric/p"),
    (lambda doc: doc["metric"].update(p=math.nan), "/metric/p"),
], ids=["nan-point", "inf-point", "minus-inf-point", "inf-box", "nan-box",
        "inf-tolerance", "inf-p", "nan-p"])
def test_non_finite_numbers_are_rejected(edit, pointer):
    doc = ppower_doc()
    edit(doc)
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == pointer


@pytest.mark.parametrize("edit, pointer", [
    (lambda doc: doc.update(tolerances={"einstein_spread": True}),
     "/tolerances/einstein_spread"),
    (lambda doc: doc["samples"].update(points=[[True, False]]),
     "/samples/points/0"),
    (lambda doc: doc["samples"].update(random_points=True, seed=1),
     "/samples/random_points"),
    (lambda doc: doc["samples"].update(seed=True), "/samples/seed"),
    (lambda doc: doc["samples"].update(margin=False), "/samples/margin"),
    (lambda doc: doc["samples"].update(direction_count=True),
     "/samples/direction_count"),
    (lambda doc: doc["samples"].update(box=[[False, True], [-1.0, 1.0]]),
     "/samples/box"),
    (lambda doc: doc.update(dimension=True), "/dimension"),
    (lambda doc: doc["metric"].update(p=True), "/metric/p"),
], ids=["tolerance", "point", "random-points", "seed", "margin",
        "direction-count", "box", "dimension", "p"])
def test_booleans_are_not_numbers(edit, pointer):
    doc = ppower_doc()
    edit(doc)
    with pytest.raises(ManifestError) as info:
        validate_manifest(doc)
    assert info.value.pointer == pointer


@pytest.mark.parametrize("random_points", [0, 3])
@pytest.mark.parametrize("seed", [-1, 1.5, "7", [7]])
def test_seed_must_be_a_nonnegative_integer(seed, random_points):
    """Also where random_points is 0, a seed that is there is checked."""
    doc = ppower_doc()
    doc["samples"].update(random_points=random_points, seed=seed)
    with pytest.raises(ManifestError, match="seed must be a nonnegative "
                                            "integer") as info:
        validate_manifest(doc)
    assert info.value.pointer == "/samples/seed"


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


def test_a_bad_point_is_skipped_by_every_structure_check():
    """A point where a_ij is not positive definite becomes a skipped row
    of each check that reads its tensor data, not an error of the run."""
    with open(f"{MANIFEST_DIR}/funk_ball.json") as fh:
        doc = json.load(fh)
    doc["samples"]["points"].append([0.9, 0.9])
    report = run(validate_manifest(doc))
    text = "x=[0.9, 0.9]: a_ij not positive definite at x=[0.9, 0.9]"
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("randers_conditions", "structural_vs_generic",
                 "ricci_identities", "positivity"):
        assert text in by_name[name]["skipped"], name
        assert by_name[name]["verdict"], name
    assert report["samples"][3]["b_squared"] is None


def test_skip_texts_print_coordinates_as_floats():
    """Skip and error texts print a point or direction read from a numpy
    row as Python floats, as they print one given as a list."""
    with open(f"{MANIFEST_DIR}/funk_ball.json") as fh:
        doc = json.load(fh)
    doc["samples"]["points"].append([0.9, 0.9])
    text = json_dumps(run(validate_manifest(doc)))
    assert "fundamental tensor not positive definite at x=[0.9, 0.9], y=[" in text
    assert "np.float64" not in text


def test_structure_checks_without_an_evaluated_point_fail():
    """randers_conditions, square_conditions and ricci_flat_parallel read
    inf, and fail, where no point was evaluated."""
    doc = ppower_doc(checks=["randers_conditions"])
    doc["metric"]["b"] = ["0", "0"]  # b^2 ~ 0 at every point
    doc["samples"]["points"] = [[0.1, 0.2], [0.3, -0.1]]
    check = run(validate_manifest(doc))["checks"][0]
    assert not check["verdict"]
    assert all(math.isinf(v) for v in check["residuals"].values())
    assert check["skipped"] == ["x=[0.1, 0.2]: b^2 ~ 0",
                                "x=[0.3, -0.1]: b^2 ~ 0"]
    doc = ppower_doc(checks=["square_conditions", "ricci_flat_parallel"])
    doc["metric"]["a"] = [["1/x1", "0"], ["0", "1"]]
    doc["samples"]["points"] = [[0.0, 0.2]]  # a_11 is singular at x1 = 0
    for check in run(validate_manifest(doc))["checks"]:
        assert not check["verdict"], check["name"]
        assert all(math.isinf(v) for v in check["residuals"].values())
        assert len(check["skipped"]) == 1


def test_sqrt2d_conditions_keep_structure_residuals_without_agreement():
    """Where the alpha-data curvature cannot be had (the structure
    precheck fails), the point's structure residuals still count and the
    reason is a skipped row."""
    doc = rotational_doc()
    doc["metric"]["B"] = "x1^2+x2^2+0.05*x1"  # u B_1 + v B_2 != 0
    doc["samples"]["points"] = [[0.45, 0.3], [-0.3, 0.55]]
    doc["checks"] = ["sqrt2d_conditions"]
    check = run(validate_manifest(doc))["checks"][0]
    assert not check["verdict"]
    residuals = check["residuals"]
    assert 1e-6 < residuals["r00_equation"] < math.inf
    assert math.isinf(residuals["curvature_agreement"])
    assert len(check["skipped"]) == 2
    assert all("structure-equation residual" in s for s in check["skipped"])


def test_sqrt2d_conditions_read_lambda_at_the_first_direction_that_evaluates():
    """The alpha-data curvature is compared with lambda at the first
    direction whose scalar evaluates, as flag_curvature reads it: a first
    direction that raises does not skip the point."""
    doc = rotational_doc()
    doc["checks"] = ["sqrt2d_conditions"]
    manifest = validate_manifest(doc)
    metric = runner.build_metric(manifest)
    points = manifest.samples.points
    dirs = runner.sphere_directions(2, 8)

    class FirstRaises(runner.EinsteinTable):
        def __call__(self, x, y):
            if list(y) == list(dirs[0]):
                raise DegenerateValue("the first direction raises")
            return super().__call__(x, y)

    check = runner.run_check("sqrt2d_conditions", manifest, metric, points,
                             FirstRaises(metric, dirs),
                             runner.ab_tensor_rows(manifest.alpha_spec,
                                                   manifest.beta_spec, points))
    assert check["skipped"] == []
    assert check["verdict"]
    assert check["residuals"]["curvature_agreement"] < 1e-9


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
    # the report describes the manifest that was run, override included
    assert report["manifest"]["tolerances"]["einstein_spread"] == 1e-16
    assert report["manifest_hash"] == manifest_hash(report["manifest"])


@pytest.mark.parametrize("override, error", [
    ("einstein_spread=-1", "/tolerances/einstein_spread: tolerance must be "
                           "a nonnegative number"),
    ("einstein_spread=nan", "/tolerances/einstein_spread: tolerance must be "
                            "a nonnegative number"),
    ("einstein_spread=inf", "/tolerances/einstein_spread: tolerance must be "
                            "finite"),
    ("bogus=1", "/tolerances/bogus: unknown tolerance 'bogus'"),
], ids=["negative", "nan", "inf", "unknown"])
def test_cli_tolerance_override_is_validated(tmp_path, capsys, override,
                                             error):
    out = tmp_path / "report.json"
    code = cli_main(["run", f"{MANIFEST_DIR}/rotational_family.json",
                     "--out", str(out), "--tol", override])
    assert code == 2
    assert capsys.readouterr().err == f"manifest error: {error}\n"
    assert not out.exists()


def test_cli_negative_seed_is_a_manifest_error(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main(["run", f"{MANIFEST_DIR}/funk_ball.json",
                     "--out", str(out), "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "manifest error: /samples/seed: seed must be a nonnegative integer\n")
    assert not out.exists()


def test_cli_eval(capsys):
    code = cli_main(["eval", "--expr", "x1^2+x2^2", "--at", "0.6,0",
                     "--order", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "value: 0.35999999999999999" in out
    assert "d1: 1.2" in out


@pytest.mark.parametrize("argv, error", [
    (["--expr", "x2 + 1", "--at", "0.5"],
     "expression uses x2 but the point has 1 coordinates"),
    (["--expr", "x1", "--at", "0.5", "--order", "0"],
     "order must be in 1..4, got 0"),
    (["--expr", "x1", "--at", "0.5", "--order", "5"],
     "order must be in 1..4, got 5"),
    # the jet kernels' texts print plain floats, not numpy reprs
    (["--expr", "ln(x1)", "--at=-1"], "ln of nonpositive value -1.0"),
    (["--expr", "sqrt(x1)", "--at=-1"], "sqrt of nonpositive value -1.0"),
    (["--expr", "x1^1.5", "--at=-1"],
     "non-integer power 1.5 of nonpositive value -1.0"),
    (["--expr", "1/x1", "--at=0"],
     "division by a jet with value 0.0 below the floor"),
])
def test_cli_eval_reports_input_errors(capsys, argv, error):
    assert cli_main(["eval", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""


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


def test_timings_time_the_sample_rows():
    """The sample rows, which fill the Einstein table, are timed as their
    own phase, before the checks; the report without timings keeps its
    bytes."""
    manifest = validate_manifest(rotational_doc())
    with_timings = run(manifest, include_timings=True)
    timings = with_timings.pop("timings")
    assert list(timings) == ["samples", *manifest.checks, "total"]
    assert all(v >= 0.0 for v in timings.values())
    assert timings["samples"] + sum(timings[c] for c in manifest.checks) \
        <= timings["total"]
    assert json_dumps(with_timings) == json_dumps(run(manifest))


NAN_LISTS = [[math.nan, 0.1, 0.1], [0.1, math.nan, 0.1], [0.1, 0.1, math.nan]]


@pytest.mark.parametrize("values", NAN_LISTS, ids=["first", "middle", "last"])
def test_a_nan_fails_wherever_it_sits(values):
    """A NaN residual or Einstein scalar reads inf, and fails its check,
    at the first, a middle and the last position."""
    from finslerlab import core

    assert core.worst(values) == math.inf
    assert core.spread(values) == math.inf
    assert core.worst([0.1, 0.2]) == 0.2 and core.worst([]) == math.inf
    assert core.spread([-0.3, 0.1]) == 0.1 - (-0.3)

    class Table:
        """Einstein scalars, and reversal residuals, given by position."""

        def directions(self, x):
            return list(range(len(values)))

        reversible = directions

        def __call__(self, x, y):
            return values[y]

        reversal = __call__
        # the runner's reads of the scalars, over the fakes above
        values = runner.EinsteinTable.values
        spreads = runner.EinsteinTable.spreads

    manifest = validate_manifest(ppower_doc())
    for name in ("einstein", "reversibility"):
        check = runner.run_check(name, manifest, None, [[0.1, 0.2]],
                                 Table(), None)
        assert not check["verdict"], name
        assert all(math.isinf(v) for v in check["residuals"].values())
