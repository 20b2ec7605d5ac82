"""Each tangent sample is evaluated once: the runner's Einstein-scalar table
and the x-only coefficient memo of p-power metrics."""

import math
import re
from collections import Counter

import pytest

from finslerlab import constructions, runner
from finslerlab.constructions import (
    COEFFICIENT_MEMO_KEYS,
    PPowerSpec,
    ppower_metric,
)
from finslerlab.core import circle_directions, einstein_scalar, exact_key
from finslerlab.errors import DomainError
from finslerlab.manifest import load_manifest

CURVED = [["1 + 0.3*x1^2 + 0.1*x2^2", "0.12*x1*x2"],
          ["0.12*x1*x2", "1 + 0.2*x2^2 + 0.15*x1^2"]]
CURVED_BETA = ["0.2*x2 + 0.05*x1^2", "0.1*x1 - 0.04*x2^2"]


def curved_metric():
    return ppower_metric(PPowerSpec(CURVED, CURVED_BETA, 0.5))


def test_run_evaluates_each_einstein_scalar_once(monkeypatch):
    calls = Counter()
    original = runner.einstein_scalar

    def counting(metric, x, y):
        calls[exact_key(x, y)] += 1
        return original(metric, x, y)

    monkeypatch.setattr(runner, "einstein_scalar", counting)
    report = runner.run(load_manifest("manifests/rotational_family.json"))
    assert report["verdict"]
    assert calls and max(calls.values()) == 1
    # every direction and its reverse at every point that has samples
    dirs = report["manifest"]["samples"]["direction_count"]
    assert len(calls) <= 2 * dirs * len(report["samples"])


def test_direction_sweep_evaluates_coefficients_once(monkeypatch):
    calls = Counter()
    original = constructions.eval_jet

    def counting(node, ctx, point):
        calls[(id(node), ctx.num_vars, ctx.order)] += 1
        return original(node, ctx, point)

    monkeypatch.setattr(constructions, "eval_jet", counting)
    metric = curved_metric()
    x = [0.2, -0.1]
    for y in circle_directions(16):
        einstein_scalar(metric, x, list(y))
    # three a_ij (i <= j) and two b_i, in the one order-4 context
    assert len(calls) == 5
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
