"""Each tangent sample is evaluated once: the runner's Einstein-scalar and
tensor tables, the x-only coefficient memo of p-power metrics, and the
curvature tail in the order-2 context."""

import math
import re
import sys
import traceback
from collections import Counter

import numpy as np
import pytest

from finslerlab import alphabeta, constructions, core, exprlang, jets, runner
from finslerlab.constructions import (
    COEFFICIENT_MEMO_KEYS,
    PPowerSpec,
    ppower_metric,
)
from finslerlab.core import (
    EinsteinTable,
    circle_directions,
    einstein_scalar,
    exact_key,
    fundamental_tensor,
    ricci,
    riccis,
    riemann_curvature,
    sphere_directions,
)
from finslerlab.errors import DomainError
from finslerlab.exprlang import Tape
from finslerlab.manifest import load_manifest, validate_manifest
from fdtools import funk_spec

CURVED = [["1 + 0.3*x1^2 + 0.1*x2^2", "0.12*x1*x2"],
          ["0.12*x1*x2", "1 + 0.2*x2^2 + 0.15*x1^2"]]
CURVED_BETA = ["0.2*x2 + 0.05*x1^2", "0.1*x1 - 0.04*x2^2"]


def curved_metric():
    return ppower_metric(PPowerSpec(CURVED, CURVED_BETA, 0.5))


def test_run_evaluates_each_einstein_scalar_once(monkeypatch):
    """Each (x, y) is evaluated once: by the batched entry, or, for a
    lookup no sweep filled and for a row the batch leaves, by the
    one-point entry."""
    calls = Counter()
    one_point = Counter()
    batched, original = core.evaluate, core.einstein_scalar

    def counting_rows(metric, x, ys):
        rows = batched(metric, x, ys)
        calls.update(exact_key(x, y) for y, took in zip(ys, rows.ok) if took)
        return rows

    def counting(metric, x, y):
        calls[exact_key(x, y)] += 1
        one_point[exact_key(x)] += 1
        return original(metric, x, y)

    monkeypatch.setattr(core, "evaluate", counting_rows)
    monkeypatch.setattr(core, "einstein_scalar", counting)
    report = runner.run(load_manifest("manifests/rotational_family.json"))
    assert report["verdict"]
    assert calls and max(calls.values()) == 1
    # every direction and its reverse at every point that has samples
    dirs = report["manifest"]["samples"]["direction_count"]
    assert len(calls) <= 2 * dirs * len(report["samples"])
    # one point at a time: each sample row's reversal probe, nothing else
    assert set(one_point.values()) == {1}
    assert len(one_point) == len(report["samples"])


@pytest.mark.parametrize("name", ["funk_ball", "non_einstein_control"])
def test_one_point_lookups_are_the_reversal_probes_only(monkeypatch, name):
    """A run calls einstein_scalar exactly once per point that has a
    reversible direction, the sample row's reversal probe, and never
    evaluates a batch of one: every other read of the curvature comes in
    batches of two rows or more."""
    probes = Counter()
    sizes = []
    batched, original = core.evaluate, core.einstein_scalar

    def counting_rows(metric, x, ys):
        sizes.append(len(ys))
        return batched(metric, x, ys)

    def counting(metric, x, y):
        probes[exact_key(x)] += 1
        return original(metric, x, y)

    monkeypatch.setattr(core, "evaluate", counting_rows)
    monkeypatch.setattr(core, "einstein_scalar", counting)
    manifest = load_manifest(f"manifests/{name}.json")
    report = runner.run(manifest)
    metric = runner.build_metric(manifest)
    dirs = sphere_directions(2, manifest.samples.direction_count)
    reversible = [row["x"] for row in report["samples"]
                  if any(metric.in_domain(row["x"], y)
                         and metric.in_domain(row["x"], -y) for y in dirs)]
    assert reversible and sizes
    assert probes == Counter(exact_key(x) for x in reversible)
    assert min(sizes) >= 2


def test_direction_sweep_evaluates_coefficients_once(monkeypatch):
    calls = Counter()
    original = Tape.jets

    def counting(tape, ctx, point):
        calls[(id(tape), ctx.num_vars, ctx.order)] += 1
        return original(tape, ctx, point)

    monkeypatch.setattr(Tape, "jets", counting)
    metric = curved_metric()
    x = [0.2, -0.1]
    for y in circle_directions(16):
        einstein_scalar(metric, x, list(y))
    # the a_ij (i <= j) tape and the b_i tape, in the one order-4 context
    assert len(calls) == 2
    assert set(calls.values()) == {1}


def test_a_failing_batch_of_values_falls_back_once(monkeypatch):
    """Where one sample of a batch fails (y = 0 at row 2), the batched F
    raises and ``value_rows`` evaluates each sample once on its own: 12
    coefficient lookups, one for the batch and a_ij and b_i per sample
    (b_i not at the failing one), each row with the bits of ``value``."""
    metric = curved_metric()
    x = [0.2, -0.1]
    ys = np.array([[1.0, 0.3], [-0.4, 1.0], [0.0, 0.0], [0.7, -0.7],
                   [-1.0, -0.2], [0.1, 0.9]])
    lookups = []
    original = constructions.CoefficientMemo.values

    def counting(memo, what, point):
        lookups.append(what)
        return original(memo, what, point)

    monkeypatch.setattr(constructions.CoefficientMemo, "values", counting)
    f, ok = metric.value_rows(x, ys)
    monkeypatch.undo()
    assert len(lookups) == 12
    assert ok.tolist() == [True, True, False, True, True, True]
    for b, y in enumerate(ys.tolist()):
        if b == 2:
            with pytest.raises(DomainError):
                metric.value(x, y)
            continue
        assert np.float64(f[b]).tobytes() == \
            np.float64(metric.value(x, y)).tobytes()


def test_memo_stays_bounded():
    metric = curved_metric()
    for k in range(100):
        x = [0.3 * k / 100.0, -0.2 + 0.001 * k]
        einstein_scalar(metric, x, [1.0, 0.4])
        assert metric.in_domain(x, [0.2, -1.0])
    assert 0 < len(metric.coefficients) <= COEFFICIENT_MEMO_KEYS


def test_alternating_points_match_a_fresh_metric():
    metric = curved_metric()
    # the first two points differ by 1e-9, below any rounding of the key
    points = ([0.25, 0.1], [0.25 + 1e-9, 0.1], [-0.3, 0.05])
    assert einstein_scalar(metric, points[0], [1.0, 0.3]) != \
        einstein_scalar(metric, points[1], [1.0, 0.3])
    for k in range(9):
        x = points[k % 3]
        for y in ([1.0, 0.3], [-0.4, 0.9]):
            assert einstein_scalar(metric, x, y) == \
                einstein_scalar(curved_metric(), x, y)
            assert metric.value(x, y) == curved_metric().value(x, y)


def test_memo_keys_are_exact():
    assert exact_key([0.0, 1.0]) != exact_key([-0.0, 1.0])
    assert exact_key([0.1]) != exact_key([math.nextafter(0.1, 1.0)])
    assert exact_key([1, 2]) == exact_key([1.0, 2.0])


def test_exact_key_has_the_bytes_of_struct_pack():
    """The key of a vector is the native float64 bytes of its entries,
    the bytes ``struct.pack`` gives them, whatever the vector's type."""
    import struct

    def packed(*vectors):
        return b"".join(struct.pack(f"{len(v)}d", *v) for v in vectors)

    row = np.array([0.25, -0.0, math.nan, -1e300])
    vectors = [[0.1, -0.0, 2.5], (0.1, -0.0, 2.5), [1, -2, 3], (0, 7),
               [math.nan, -math.nan, math.inf], row, row[::2], row[1:3],
               np.array([3, -4]), [np.float64(-0.0), np.int64(5)], []]
    for v in vectors:
        assert exact_key(v) == packed(v), v
    assert exact_key(row, [1, -0.0], (2.0,)) == packed(row, [1, -0.0], (2.0,))
    assert exact_key([1, 2], row) != exact_key([1, 2], row[::-1])


@pytest.mark.parametrize("alpha,point,message", [
    # alpha^2 fails before b_1 = sqrt(x1) is evaluated
    ([["x1", "0"], ["0", "x1"]], [-0.5, 0.1], "alpha^2 is not positive"),
    ([["1", "0"], ["0", "1"]], [-0.5, 0.1], "sqrt of nonpositive value -0.5"),
])
def test_domain_errors_keep_text_and_order(alpha, point, message):
    metric = ppower_metric(PPowerSpec(alpha, ["sqrt(x1)", "0"], 1.0))
    for _ in range(2):  # cold, then with the alpha coefficients memoised
        with pytest.raises(DomainError, match=re.escape(message)):
            metric.value(point, [1.0, 0.5])
        assert not metric.in_domain(point, [1.0, 0.5])
        assert not metric.in_domain_rows(point, [[1.0, 0.5], [0.2, 1.0]]).any()


def test_einstein_scalar_runs_the_tail_at_order_two(monkeypatch):
    """Per 4-D Einstein scalar (warm coefficient memo) only F and F^2 take
    order-4 products over pairs of the Cauchy table: 9 of them, down from
    128 with the tail in the order-4 context.  3 are full Cauchy products
    (beta/alpha, alpha * base, F * F); the 6 of the square root's
    composition and beta/alpha's reciprocal skip the pairs of a known
    zero.  Products by a coordinate take no Cauchy product."""
    metric = ppower_metric(funk_spec(4))
    x = [0.1, -0.2, 0.15, 0.05]
    einstein_scalar(metric, x, [0.0, 1.0, 0.0, 0.0])
    products = Counter()
    full = Counter()
    original = jets._pair_product

    def counting(ctx, a, b, pairs):
        products[ctx.order] += 1
        full[ctx.order] += len(pairs[0]) == len(ctx._mul_i)
        return original(ctx, a, b, pairs)

    # every Cauchy product, full or zero-skipping, runs jets._pair_product,
    # wherever the module that calls _cauchy imported it from
    monkeypatch.setattr(jets, "_pair_product", counting)
    lam = einstein_scalar(metric, x, [1.0, 0.3, -0.2, 0.5])
    assert abs(lam + 0.25) < 1e-9
    assert 0 < products[4] <= 9
    assert 0 < full[4] <= 3
    assert set(products) == {2, 4}


def test_jet_solves_reuse_pivot_reciprocals(monkeypatch):
    """A 4x4 jet solve divides by each of its 4 pivots once: with the
    coefficient memo warm, a 4-D Funk Einstein scalar takes 5 reciprocals
    (the solve's 4 and beta/alpha in F), not 11, and the same bits."""
    metric = ppower_metric(funk_spec(4))
    x = [0.1, -0.2, 0.15, 0.05]
    y = [1.0, 0.3, -0.2, 0.5]
    einstein_scalar(metric, x, [0.0, 1.0, 0.0, 0.0])
    count = Counter()
    original = jets._recip

    def counting(ctx, c):
        count[ctx.order] += 1
        return original(ctx, c)

    monkeypatch.setattr(jets, "_recip", counting)
    monkeypatch.setattr(constructions, "_recip", counting)
    lam = einstein_scalar(metric, x, y)
    assert abs(lam + 0.25) < 1e-9
    assert 0 < sum(count.values()) <= 5
    cached = riemann_curvature(metric, x, y)

    def uncached(jet):
        return jets.Jet(jet.ctx, original(jet.ctx, jet.c))

    monkeypatch.setattr(jets.Jet, "_reciprocal", uncached)
    assert riemann_curvature(metric, x, y).tobytes() == cached.tobytes()


def count_calls(monkeypatch, fn, key):
    """Count the calls of ``fn`` by ``key(*args)``, wherever a finslerlab
    module holds it; calls whose key is None are not counted."""
    calls = Counter()

    def counting(*args, **kwargs):
        k = key(*args, **kwargs)
        if k is not None:
            calls[k] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "finslerlab":
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attribute, counting)
    return calls


def test_run_builds_tensor_data_once_per_point(monkeypatch):
    """Each run builds the order-3 (rd, ab) data of its points in one call
    of alphabeta.ab_tensor_rows, over exactly the run's points in order,
    over the three bundled manifests; no check builds order-3 jets of a_ij
    or Levi-Civita data of its own, the Killing rescaling included."""
    alphabeta.curvature_term_sign()  # calibrated once per process
    builds = count_calls(
        monkeypatch, alphabeta.ab_tensor_rows,
        lambda alpha, beta, points, order=3:
        (tuple(exact_key(x) for x in points), order))
    a_jets = count_calls(monkeypatch, alphabeta.matrix_jets,
                         lambda exprs, x, order=3: order)
    levi_civita = count_calls(
        monkeypatch, alphabeta.riemann_data_from_jets,
        lambda jets_of_a, x: jets_of_a[0][0].ctx.order)
    checks = set()
    for name in ("funk_ball", "non_einstein_control", "rotational_family"):
        builds.clear()
        a_jets.clear()
        levi_civita.clear()
        report = runner.run(load_manifest(f"manifests/{name}.json"))
        checks |= {c["name"] for c in report["checks"]}
        points = tuple(exact_key(s["x"]) for s in report["samples"])
        assert builds == Counter({(points, 3): 1}), name
        assert a_jets[3] == 0 and levi_civita[3] == 0, name
    assert checks >= {
        "randers_conditions", "square_conditions", "sqrt2d_conditions",
        "ricci_flat_parallel", "ricci_identities", "structural_vs_generic",
        "positivity", "killing_deformation"}


TENSOR_CHECKS = ["ricci_identities", "structural_vs_generic",
                 "randers_conditions", "square_conditions", "positivity",
                 "killing_deformation", "ricci_flat_parallel"]


def test_a_failing_tensor_row_gives_one_skip_text(monkeypatch):
    """A point whose tensor row holds an error is skipped with that
    error's text in its sample row and in every check that reads the
    rows, all from the one build of the run."""
    builds = count_calls(monkeypatch, alphabeta.ab_tensor_rows,
                         lambda *args, **kwargs: "build")
    manifest = validate_manifest({
        "dimension": 2,
        "metric": {"kind": "ppower", "a": [["x1", "0"], ["0", "x1"]],
                   "b": ["0.1", "0"], "p": 1},
        "samples": {"points": [[-0.5, 0.1], [0.5, 0.1]],
                    "direction_count": 8},
        "checks": TENSOR_CHECKS})
    report = runner.run(manifest)
    assert builds == Counter({"build": 1})
    failing, good = report["samples"]
    prefix = "tensor data unavailable: "
    assert failing["skipped"].startswith(prefix)
    text = failing["skipped"][len(prefix):]
    assert "not positive definite" in text
    assert "skipped" not in good
    assert [c["name"] for c in report["checks"]] == TENSOR_CHECKS
    for check in report["checks"]:
        assert f"x={[-0.5, 0.1]}: {text}" in check["skipped"], check["name"]


def test_a_failing_row_raises_its_error_again_without_old_frames():
    """Re-reading a failing row raises the stored error, with the same
    text and a traceback that does not grow by each earlier raise."""
    row = alphabeta.ab_tensor_rows([["1", "0"], ["0", "1"]],
                                   ["sqrt(x1)", "0"], [[-0.5, 0.1]])[0]
    assert isinstance(row, DomainError)
    texts, depths = [], []
    for _ in range(3):
        with pytest.raises(DomainError) as info:
            alphabeta._raised(row)
        assert info.value is row
        texts.append(str(info.value))
        depths.append(len(traceback.extract_tb(info.value.__traceback__)))
    assert texts[0] and texts == [texts[0]] * 3
    assert depths == [depths[0]] * 3


def count_rows(monkeypatch):
    """The order-4 rows of F each metric builds at each (x, y): the rows
    of ``core._f2_rows`` and the one-point ``core._spray_jets`` calls."""
    rows = Counter()
    f2_rows, spray_jets = core._f2_rows, core._spray_jets

    def counting_rows(metric, x, ys):
        for b, y in enumerate(ys):
            rows[id(metric), exact_key(core._point(x, b), y)] += 1
        return f2_rows(metric, x, ys)

    def counting_jets(metric, x, y, *cap):
        rows[id(metric), exact_key(x, y)] += 1
        return spray_jets(metric, x, y, *cap)

    monkeypatch.setattr(core, "_f2_rows", counting_rows)
    monkeypatch.setattr(core, "_spray_jets", counting_jets)
    return rows


def count_per_check(monkeypatch, counter):
    """How much ``counter`` grows while each registered check runs."""
    added = Counter()
    for name, check in list(runner.CHECKS.items()):
        def counted(*args, _check=check, _name=name):
            before = sum(counter.values())
            block = _check(*args)
            added[_name] += sum(counter.values()) - before
            return block
        monkeypatch.setitem(runner.CHECKS, name, counted)
    return added


def funk_4d_doc():
    spec = funk_spec(4)
    return {
        "dimension": 4,
        "metric": {"kind": "ppower",
                   "a": [[exprlang.to_source(e) for e in row]
                         for row in spec.alpha],
                   "b": [exprlang.to_source(e) for e in spec.beta],
                   "p": 1.0},
        "samples": {"points": [[0.1, -0.2, 0.15, 0.05],
                               [-0.25, 0.1, 0.0, 0.3]],
                    "direction_count": 16},
        "checks": ["einstein", "reversibility", "randers_conditions",
                   "structural_vs_generic", "ricci_identities"],
    }


@pytest.mark.parametrize("source", ["funk_ball", "funk_4d"])
def test_run_builds_each_order_4_row_once(monkeypatch, source):
    """A run builds the order-4 F of each (x, y) at most once over its
    sample rows and all of its checks: at p = 1 the Randers relation reads
    (F, Ric) from the run's Einstein table and builds no row."""
    rows = count_rows(monkeypatch)
    added = count_per_check(monkeypatch, rows)
    if source == "funk_ball":
        manifest = load_manifest("manifests/funk_ball.json")
    else:
        manifest = validate_manifest(funk_4d_doc())
    report = runner.run(manifest)
    assert report["verdict"]
    assert rows and max(rows.values()) == 1
    # the directions and their reverses at each point, one metric
    dirs = manifest.samples.direction_count
    assert len({metric for metric, _ in rows}) == 1
    assert len(rows) <= 2 * dirs * len(report["samples"])
    assert added["randers_conditions"] == 0


def test_flag_curvature_builds_no_jet_of_f(monkeypatch):
    """On the rotational family the flag-curvature check reads F, g and R
    of its samples from the Einstein table: no jet of F, of any order."""
    jets_of_f = Counter()
    for name in ("jet", "batch_jet"):
        original = getattr(core.FinslerMetric, name)

        def counting(metric, *args, _name=name, _original=original):
            jets_of_f[_name] += 1
            return _original(metric, *args)

        monkeypatch.setattr(core.FinslerMetric, name, counting)
    added = count_per_check(monkeypatch, jets_of_f)
    report = runner.run(load_manifest("manifests/rotational_family.json"))
    assert report["verdict"] and jets_of_f
    assert "flag_curvature" in added and added["flag_curvature"] == 0


def _ricci_rows(metric, x, directions):
    """(F, Ric) of ``metric`` at x along each admissible one of
    ``directions`` sphere directions, one ``metric.value`` per direction
    and one ``riccis`` pass: the evaluation the Randers and square
    relations made before they read the Einstein table; the reference the
    table's rows are checked against."""
    ys = [y for y in sphere_directions(len(x), directions)
          if metric.in_domain(x, y)]
    return [(metric.value(x, y), ric)
            for y, ric in zip(ys, riccis(metric, x, ys).tolist())]


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


RELATION_METRICS = {
    "randers": (funk_spec(2), [[0.2, 0.3], [-0.35, 0.1]]),
    "square": (PPowerSpec([["1", "0"], ["0", "1"]], ["0.3*x2", "0"], 2.0),
               [[0.0, 1.0], [0.1, 0.2]]),
}


@pytest.mark.parametrize("relation", sorted(RELATION_METRICS))
def test_relation_rows_have_the_bits_of_the_old_evaluation(relation):
    """The (F, Ric) rows of the Randers and square relations, read from a
    run's table swept over 16 directions and from a fresh table, have the
    bits of the evaluation they replace; the 8 relation directions are
    among the 16 on the circle, bit for bit."""
    spec, points = RELATION_METRICS[relation]
    metric = ppower_metric(spec)
    swept = EinsteinTable(metric, sphere_directions(2, 16))
    for x in points:
        want = [(_bits(f), _bits(ric)) for f, ric in _ricci_rows(metric, x, 8)]
        assert len(want) >= 2
        swept.values(x)
        for table in (swept, EinsteinTable(metric, ())):
            got = table.ricci_rows(x, sphere_directions(2, 8))
            assert [(_bits(f), _bits(ric)) for f, ric in got] == want
            assert all(exact_key(x, y) in table._rows
                       for y in sphere_directions(2, 8)
                       if metric.in_domain(x, y))
    assert all(exact_key(y) in {exact_key(d) for d in circle_directions(16)}
               for y in circle_directions(8))
    four = sphere_directions(4, 16)
    assert sphere_directions(4, 8).tobytes() == four[:8].tobytes()


@pytest.mark.parametrize("case", ["curved", "funk_4d"])
def test_table_rows_have_the_bits_of_the_one_point_functions(case):
    """F, g, R, Ric and lambda read from the Einstein table have the bits
    of metric.value, fundamental_tensor, riemann_curvature, ricci and
    einstein_scalar: at the rows one batch evaluated, and at a direction
    evaluated alone, which the table stores as well (a batch of one, run
    through the one-point code)."""
    if case == "curved":
        metric, x = curved_metric(), [0.2, -0.1]
    else:
        metric, x = ppower_metric(funk_spec(4)), [0.1, -0.2, 0.15, 0.05]
    n = metric.dim
    table = EinsteinTable(metric, sphere_directions(n, 12))
    ys = table.directions(x)
    lone = [0.3 + 0.1 * k for k in range(n)]
    assert len(ys) >= 2
    assert all(exact_key(x, y) in table._rows for y in ys)
    for y in ys + [lone]:
        (f, ric), = table.ricci_rows(x, [y])
        f_table, g, r = table.curvature(x, y)
        y = list(y)
        assert _bits(f) == _bits(f_table) == _bits(metric.value(x, y))
        assert _bits(g) == _bits(fundamental_tensor(metric, x, y)[0])
        assert _bits(r) == _bits(riemann_curvature(metric, x, y))
        assert _bits(ric) == _bits(ricci(metric, x, y))
        assert _bits(table(x, y)) == _bits(einstein_scalar(metric, x, y))
    assert exact_key(x, lone) in table._rows
