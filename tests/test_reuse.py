"""Each tangent sample is evaluated once: the runner's Einstein-scalar and
tensor tables, the x-only coefficient memo of p-power metrics, and the
curvature tail in the order-2 context."""

import math
import re
from collections import Counter
from types import SimpleNamespace

import pytest

from finslerlab import constructions, jets, runner
from finslerlab.constructions import (
    COEFFICIENT_MEMO_KEYS,
    PPowerSpec,
    ppower_metric,
)
from finslerlab.core import (
    circle_directions,
    einstein_scalar,
    exact_key,
    riemann_curvature,
)
from finslerlab.errors import DomainError, FinslerError
from finslerlab.exprlang import Tape
from finslerlab.manifest import load_manifest
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
    batched, original = runner.einstein_rows, runner.einstein_scalar

    def counting_rows(metric, x, ys):
        lam, ok = batched(metric, x, ys)
        calls.update(exact_key(x, y) for y, took in zip(ys, ok) if took)
        return lam, ok

    def counting(metric, x, y):
        calls[exact_key(x, y)] += 1
        one_point[exact_key(x)] += 1
        return original(metric, x, y)

    monkeypatch.setattr(runner, "einstein_rows", counting_rows)
    monkeypatch.setattr(runner, "einstein_scalar", counting)
    report = runner.run(load_manifest("manifests/rotational_family.json"))
    assert report["verdict"]
    assert calls and max(calls.values()) == 1
    # every direction and its reverse at every point that has samples
    dirs = report["manifest"]["samples"]["direction_count"]
    assert len(calls) <= 2 * dirs * len(report["samples"])
    # one point at a time: each sample row's reversal probe, nothing else
    assert set(one_point.values()) == {1}
    assert len(one_point) == len(report["samples"])


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
    order-4 Cauchy products: 9 of them, down from 128 with the tail in the
    order-4 context.  Products by a coordinate take no Cauchy product."""
    metric = ppower_metric(funk_spec(4))
    x = [0.1, -0.2, 0.15, 0.05]
    einstein_scalar(metric, x, [0.0, 1.0, 0.0, 0.0])
    products = Counter()
    original = jets._cauchy

    def counting(ctx, a, b):
        products[ctx.order] += 1
        return original(ctx, a, b)

    monkeypatch.setattr(jets, "_cauchy", counting)
    lam = einstein_scalar(metric, x, [1.0, 0.3, -0.2, 0.5])
    assert abs(lam + 0.25) < 1e-9
    assert 0 < products[4] <= 9
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


def test_run_builds_tensor_data_once_per_point(monkeypatch):
    calls = Counter()
    original = runner._tensors

    def counting(manifest, x):
        calls[exact_key(x)] += 1
        return original(manifest, x)

    monkeypatch.setattr(runner, "_tensors", counting)
    report = runner.run(load_manifest("manifests/funk_ball.json"))
    assert report["verdict"]
    # the sample rows, structural_vs_generic, ricci_identities and
    # positivity all read each point
    assert {"structural_vs_generic", "ricci_identities", "positivity"} <= {
        c["name"] for c in report["checks"]}
    assert len(calls) == len(report["samples"])
    assert set(calls.values()) == {1}


def test_tensor_table_raises_the_stored_error_again(monkeypatch):
    calls = Counter()
    original = runner._tensors

    def counting(manifest, x):
        calls[exact_key(x)] += 1
        return original(manifest, x)

    monkeypatch.setattr(runner, "_tensors", counting)
    spec = SimpleNamespace(alpha_spec=[["x1", "0"], ["0", "x1"]],
                           beta_spec=["0", "0"])
    table = runner.TensorTable(spec)
    texts = []
    for _ in range(3):
        with pytest.raises(FinslerError) as info:
            table([-0.5, 0.1])
        texts.append(str(info.value))
    assert texts[0] and texts == [texts[0]] * 3
    rd, ab = table([0.5, 0.1])
    again = table([0.5, 0.1])
    assert again[0] is rd and again[1] is ab
    assert list(calls.values()) == [1, 1]
