"""Compiled coefficient tapes replay the tree walks bit for bit, and the
scenarios that run on them keep their results under the benchmark tracer."""

import math
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslerlab import DegenerateValue, DomainError, exprlang, scenarios
from finslerlab.constructions import PPowerSpec, ppower_metric
from finslerlab.exprlang import (
    BatchFailed,
    Binary,
    Call,
    Coord,
    Number,
    Tape,
    Unary,
    parse,
    to_source,
)
from finslerlab.core import FinslerMetric
from finslerlab.jets import Jet, get_context, jet_pow, jet_sqrt, lift_variable
from walks import eval_jet, eval_scalar

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

CONTEXTS = [(2, 2), (4, 2), (4, 4), (8, 4)]

# literals of both zero signs, one below the jet division floor, and
# integer and real exponents
LITERALS = st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, 3.0, 1.5, 1e-20])
EXPONENTS = st.sampled_from([2.0, 3.0, -1.0, -2.0, 0.5, 1.5, -0.5])
COORDINATE = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.5, 1.5))


# a literal of either sign, as a factor or divisor of a jet
SIGNED = st.one_of(st.builds(Number, LITERALS),
                   st.builds(Unary, st.just("neg"), st.builds(Number, LITERALS)))


def _extend(children):
    return st.one_of(
        st.builds(Unary, st.just("neg"), children),
        st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div"]),
                  children, children),
        st.builds(Binary, st.just("mul"), SIGNED, children),
        st.builds(Binary, st.sampled_from(["mul", "div"]), children, SIGNED),
        # constant exponents, negated ones, and evaluated ones
        st.builds(Binary, st.just("pow"), children, st.builds(Number, EXPONENTS)),
        st.builds(Binary, st.just("pow"), children,
                  st.builds(Unary, st.just("neg"), st.builds(Number, EXPONENTS))),
        st.builds(lambda a, b: Call("pow", (a, b)), children, children),
        st.builds(lambda f, a: Call(f, (a,)),
                  st.sampled_from(["sqrt", "exp", "ln", "sin", "cos"]),
                  children),
    )


TREES = st.recursive(
    st.one_of(st.builds(Number, LITERALS),
              st.builds(Coord, st.integers(0, 1))),
    _extend, max_leaves=6)


@st.composite
def shared_lists(draw):
    """A coefficient list whose entries share subtrees."""
    parts = draw(st.lists(TREES, min_size=1, max_size=3))
    combined = draw(st.lists(
        st.tuples(st.sampled_from(["add", "mul", "div"]),
                  st.integers(0, len(parts) - 1),
                  st.integers(0, len(parts) - 1)), max_size=3))
    return parts + [Binary(op, parts[i], parts[j]) for op, i, j in combined]


def _outcome(evaluate):
    """Values, or the type and text of the first error raised."""
    try:
        return evaluate()
    except Exception as exc:  # every error is compared, text included
        return (type(exc), str(exc))


def _same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
        assert np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))


# products by a literal whose exact value is a zero of either sign, and a
# literal divisor, which multiplies by its reciprocal: 5/3 != 5 * (1/3)
@example(exprs=[parse("2*(-x1)"), parse("x2*-3"), parse("-x1/(-4)")],
         points=[[0.5, -0.0]])
@example(exprs=[parse("x1/3"), parse("(x1 + x2)/1.5")], points=[[5.0, 0.25]])
# powers that raise at one point of the batch: an overflow, zeros of either
# sign to a negative power, a negative value to a real power and an
# evaluated power that overflows
@example(exprs=[parse("x1^-2")], points=[[0.5, 1.0], [1e-160, 1.0]])
@example(exprs=[parse("x2 + x1^-1")], points=[[0.0, 1.0], [-0.0, 2.0]])
@example(exprs=[parse("x1^0.5")], points=[[4.0, 0.0], [-1.0, 0.0]])
@example(exprs=[parse("pow(x1, x2)")], points=[[2.0, 0.5], [10.0, 400.0]])
@settings(max_examples=40, deadline=None)
@given(exprs=shared_lists(),
       points=st.lists(st.lists(COORDINATE, min_size=2, max_size=2),
                       min_size=1, max_size=4))
def test_replays_match_the_tree_walks(exprs, points):
    tape = Tape(exprs)
    with np.errstate(all="ignore"):
        floats = [_outcome(lambda: [eval_scalar(e, x) for e in exprs])
                  for x in points]
        for x, want in zip(points, floats):
            _same(_outcome(lambda: tape.floats(x)), want)
            # the public one-tree evaluators, each through its own tape
            _same(_outcome(lambda: [exprlang.eval_scalar(e, x)
                                    for e in exprs]), want)
            for shape in CONTEXTS:
                ctx = get_context(*shape)
                want = _outcome(lambda: [eval_jet(e, ctx, x).c for e in exprs])
                # a literal times a jet is a scalar multiply plus 0.0, which
                # has the bits of the Cauchy product on finite coefficients
                if isinstance(want, tuple) or all(
                        np.isfinite(c).all() for c in want):
                    _same(_outcome(lambda: tape.jets(ctx, x)), want)
                    _same(_outcome(lambda: [exprlang.eval_jet(e, ctx, x).c
                                            for e in exprs]), want)
        columns = np.array(points).T
        # a coordinate-major batch replays each point's jets, or raises
        # BatchFailed where a point raises or an operation is not batched
        for shape in CONTEXTS:
            ctx = get_context(*shape)
            per_point = [_outcome(lambda: tape.jets(ctx, x)) for x in points]
            try:
                rows = tape.jets(ctx, columns)
            except BatchFailed:
                assert not tape.batches_jets or any(
                    isinstance(want, tuple) for want in per_point)
                continue
            for k, want in enumerate(per_point):
                _same([v[k] for v in rows], want)
        try:
            batch = tape.batch(columns)
        except BatchFailed:
            assert any(isinstance(f, tuple) for f in floats)
            return
    for k, want in enumerate(floats):
        _same([np.broadcast_to(v, len(points))[k] for v in batch], want)


@pytest.mark.parametrize("source, bad, error", [
    ("x1^-2", 1e-160, OverflowError),
    ("x1^-1", 0.0, DomainError),
    ("x1^-1", -0.0, DomainError),
    ("x1^-1", 1e-301, DomainError),  # below the zero floor, yet finite
    ("x1^0.5", -1.0, DomainError),
    ("pow(x2, x1)", 400.0, OverflowError),
    ("pow(x1, x2)", -1.0, DomainError),
])
def test_batched_powers_fail_where_a_point_raises(source, bad, error):
    tape = Tape([parse(source)])
    points = [[0.5, 10.0], [bad, 10.0], [2.0, 10.0]]
    want = _outcome(lambda: eval_scalar(parse(source), points[1]))
    assert want[0] is error
    assert _outcome(lambda: tape.floats(points[1])) == want
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(BatchFailed):
            tape.batch(np.array(points).T)
        # the points around it replay as a batch with their own bits
        got = tape.batch(np.array([points[0], points[2]]).T)[0]
    assert got.tobytes() == np.array([tape.floats(points[0])[0],
                                      tape.floats(points[2])[0]]).tobytes()


def test_errors_keep_text_and_order():
    # ln(x2) in the second entry fails before the shared sqrt(x1)
    exprs = [parse(s) for s in ("x1 + 1", "ln(x2) + sqrt(x1)", "sqrt(x1)")]
    tape = Tape(exprs)
    for x in ([-1.0, -2.0], [-1.0, 2.0]):
        want = _outcome(lambda: [eval_scalar(e, x) for e in exprs])
        assert want[0] is DomainError
        assert _outcome(lambda: tape.floats(x)) == want
        ctx = get_context(4, 4)
        want = _outcome(lambda: [eval_jet(e, ctx, x).c for e in exprs])
        assert _outcome(lambda: tape.jets(ctx, x)) == want
        with pytest.raises(BatchFailed):
            tape.batch(np.array([[0.5, x[0]], [0.5, x[1]]]))
    assert _outcome(lambda: tape.floats([-1.0, -2.0]))[1] == \
        "ln of nonpositive value -2.0"
    assert _outcome(lambda: tape.floats([-1.0, 2.0]))[1] == \
        "sqrt of nonpositive value -1.0"
    # a literal whose folding raises (1/1e-20 is below the jet division
    # floor) raises where the walk evaluates it, after sqrt(x1)
    exprs = [parse("sqrt(x1)"), parse("x2 / (1/1e-20)")]
    tape = Tape(exprs)
    ctx = get_context(2, 2)
    raised = []
    for x in ([-1.0, 2.0], [1.0, 2.0]):
        want = _outcome(lambda: [eval_jet(e, ctx, x).c for e in exprs])
        assert _outcome(lambda: tape.jets(ctx, x)) == want
        raised.append(want[0])
        assert tape.floats([1.0, x[1]]) == [eval_scalar(e, [1.0, x[1]])
                                            for e in exprs]
    assert raised == [DomainError, DegenerateValue]
    # both ValueErrors of eval_jet, and the one of eval_scalar
    tape = Tape([parse("x1"), parse("x2")])
    with pytest.raises(ValueError, match="uses x2 but the point has 1 "
                                         "coordinates"):
        tape.jets(ctx, [0.5])
    with pytest.raises(ValueError, match="uses x2 but the context has 1 "
                                         "variables"):
        tape.jets(get_context(1, 2), [0.5, 0.5])
    with pytest.raises(ValueError, match="uses x2 but the point has 1 "
                                         "coordinates"):
        tape.floats([0.5])


# a right operand of the same precedence needs parentheses: x1 + 1.0 + x2
# is (x1 + 1.0) + x2, which rounds differently from x1 + (1.0 + x2)
@example(tree=Binary("add", Coord(0), Binary("add", Number(1.0), Coord(1))))
@example(tree=Binary("mul", Coord(0), Binary("mul", Coord(1), Number(3.0))))
# a negative literal prints as one, and must not parse back as a negation
@example(tree=Number(-0.0))
@example(tree=Binary("mul", Number(-2.0), Coord(0)))
@settings(max_examples=200, deadline=None)
@given(tree=TREES)
def test_printed_trees_parse_back_with_their_bits(tree):
    printed = to_source(tree)
    again = parse(printed)
    assert to_source(again) == printed
    with np.errstate(all="ignore"):
        for x in ([1.2, 0.4], [-0.7, 1.1], [0.0, -0.0]):
            _same(_outcome(lambda: [eval_scalar(again, x)]),
                  _outcome(lambda: [eval_scalar(tree, x)]))
            # a negated literal and a negative one differ in the signs of
            # their jets' zero coefficients
            for shape in CONTEXTS:
                ctx = get_context(*shape)
                _same(_outcome(lambda: [eval_jet(again, ctx, x).c]),
                      _outcome(lambda: [eval_jet(tree, ctx, x).c]))


def test_literals_fold_with_the_jet_operators():
    """A literal folds with the Jet operators' kernels, non-finite values
    included: inf times a constant jet is a Cauchy product, whose zero
    coefficients times inf give NaN, not a scalar multiply."""
    sources = ["1e200*1e200*3", "2*(1e200*1e200)", "(1e200*1e200)/2",
               "(1e200*1e200)^0.5*2", "ln(1e200*1e200)", "1/(1e200*1e200)"]
    exprs = [parse(s) for s in sources]
    tape = Tape(exprs)
    with np.errstate(all="ignore"):
        for shape in CONTEXTS:
            ctx = get_context(*shape)
            want = [eval_jet(e, ctx, []).c for e in exprs]
            assert np.isnan(want[0][1:]).all()
            _same(tape.jets(ctx, []), want)
        _same(tape.floats([]), [eval_scalar(e, []) for e in exprs])


def test_shared_subtrees_are_one_instruction():
    den = "(1-x1^2-x2^2)"
    tape = Tape([parse(f"x1/{den}"), parse(f"x2/{den}"),
                    parse(f"x1*x2/{den}^2")])
    # x1^2, x2^2, two subtractions, two divisions, x1*x2, den^2 and one
    # more division: the shared denominator is computed once
    assert len(tape) == 9


def _details(result):
    return [line for line in result.details if not line.startswith("runtime:")]


def _namespaces():
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "finslerlab" or name.startswith("finslerlab.")}
    snapshot = {name: dict(vars(mod)) for name, mod in mods.items()}
    for cls in (Jet, FinslerMetric, Tape):
        snapshot[cls.__name__] = dict(vars(cls))
    return snapshot


def test_spray_cross_validation_parses_once_and_traces_alike(monkeypatch):
    parsed = Counter()
    original = exprlang._Parser

    class Counting(original):
        def __init__(self, source):
            parsed[source] += 1
            super().__init__(source)

    monkeypatch.setattr(exprlang, "_Parser", Counting)
    compiled = []

    class CountingTape(Tape):
        def __init__(self, exprs):
            compiled.append(len(exprs))
            super().__init__(exprs)

    monkeypatch.setattr(exprlang, "Tape", CountingTape)
    parse.cache_clear()
    plain = scenarios.scenario_spray_cross_validation()
    assert parsed and max(parsed.values()) == 1
    # the five metrics share one a_ij tape and one b_i tape
    assert compiled == [3, 2]
    monkeypatch.undo()

    before = _namespaces()
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = scenarios.scenario_spray_cross_validation()
    finally:
        tracer.restore()
    assert _namespaces() == before
    assert traced.passed is plain.passed is True
    assert _details(traced) == _details(plain)
    # the 500 samples go through core.sprays, one batch per exponent, and
    # never through the traced one-point spray
    assert "core.spray" not in tracer.summary()


def test_derivative_soundness_traces_alike_without_one_point_sprays():
    plain = scenarios.scenario_derivative_soundness()
    before = _namespaces()
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = scenarios.scenario_derivative_soundness()
    finally:
        tracer.restore()
    assert _namespaces() == before
    assert traced.passed is plain.passed is True
    assert _details(traced) == _details(plain)
    # the spray oracle's stencils go through core.sprays in batches, never
    # through the traced one-point spray (8,100 calls before batching)
    assert "core.spray" not in tracer.summary()


@pytest.mark.parametrize("order", [2, 3])
def test_alphabeta_jets_replay_the_walks(order):
    from finslerlab.alphabeta import covector_jets, matrix_jets

    alpha = [["1 + 0.3*x1^2 + 0.1*x2^2", "0.12*x1*x2"],
             ["0.12*x1*x2", "-0.0 + 1/(1 - x1^2)"]]
    beta = ["0.2*x2 + 0.05*x1^2", "x1"]  # a bare coordinate too
    x = [0.3, -0.4]
    ctx = get_context(2, order)
    got = matrix_jets(alpha, x, order)
    for i in range(2):
        for j in range(2):
            _same(got[i][j].c, eval_jet(parse(alpha[min(i, j)][max(i, j)]),
                                        ctx, x).c)
    assert got[0][1] is got[1][0]
    for jet, source in zip(covector_jets(beta, x, order), beta):
        _same(jet.c, eval_jet(parse(source), ctx, x).c)
    # the first entry whose walk raises raises first, with its text
    bad = [["1", "sqrt(x1)"], ["sqrt(x1)", "ln(x2)"]]
    for point, first in (([-0.5, -0.1], "sqrt"), ([0.5, -0.1], "ln")):
        with pytest.raises(DomainError) as walk:
            for source in ("1", "sqrt(x1)", "ln(x2)"):
                eval_jet(parse(source), ctx, point)
        assert str(walk.value).startswith(first)
        for replay in (lambda: matrix_jets(bad, point, order),
                       lambda: covector_jets(bad[1], point, order)):
            with pytest.raises(DomainError,
                               match=re.escape(str(walk.value))):
                replay()


def test_shared_tapes_stay_bounded():
    for k in range(exprlang.TAPE_CACHE_SIZE + 5):
        tape = exprlang.shared_tape([parse(f"x1 + {k}")])
        assert exprlang.shared_tape([parse(f"x1 + {k}")]) is tape
    assert len(exprlang._TAPES) == exprlang.TAPE_CACHE_SIZE


def _reference_f(spec, x, y, order):
    """F with Jet operators and tree walks, in the operation order of the
    p-power builder."""
    n = spec.dim
    ctx = get_context(2 * n, order)
    ys = [lift_variable(ctx, n + i, y[i]) for i in range(n)]
    alpha2 = None
    for i in range(n):
        for j in range(i, n):
            term = eval_jet(spec.alpha[i][j], ctx, x) * ys[i] * ys[j]
            if i != j:
                term = 2.0 * term
            alpha2 = term if alpha2 is None else alpha2 + term
    alpha = jet_sqrt(alpha2)
    beta = None
    for i in range(n):
        term = eval_jet(spec.beta[i], ctx, x) * ys[i]
        beta = term if beta is None else beta + term
    return alpha * jet_pow(1.0 + beta / alpha, spec.p)


def _reference_value(spec, x, y):
    n = spec.dim
    alpha2 = 0.0
    for i in range(n):
        for j in range(i, n):
            alpha2 += (eval_scalar(spec.alpha[i][j], x) * y[i] * y[j]
                       * (2.0 if i != j else 1.0))
    alpha = math.sqrt(alpha2)
    s = sum(eval_scalar(spec.beta[i], x) * y[i] for i in range(n)) / alpha
    return alpha * (1.0 + s) ** spec.p


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, -1.0, 3.0])
def test_ppower_assembly_matches_jet_operators(p):
    rng = np.random.default_rng(int(10 * p) + 20)
    for alpha, beta in ((scenarios.CURVED_ALPHA, scenarios.CURVED_BETA),
                        (scenarios.FUNK_ALPHA, scenarios.FUNK_BETA),
                        (scenarios.IDENTITY_2D, ["x1", "-0.25"])):
        spec = PPowerSpec(alpha, beta, p)
        metric = ppower_metric(spec)
        xs, ys = [], []
        while len(xs) < 6:
            x = rng.uniform(-0.4, 0.4, size=2).tolist()
            y = rng.uniform(-1.0, 1.0, size=2).tolist()
            if metric.in_domain(x, y):
                xs.append(x)
                ys.append(y)
        for x, y in zip(xs, ys):
            for order in (2, 4):
                got = metric.jet(x, y, order).c
                _same([got], [_reference_f(spec, x, y, order).c])
            assert metric.value(x, y) == _reference_value(spec, x, y)
        batch = metric.value(np.array(xs).T, np.array(ys).T)
        assert batch.tolist() == [metric.value(x, y) for x, y in zip(xs, ys)]
    # a batch with a point outside the domain raises BatchFailed, and
    # ``value_rows`` marks that point, whose own call raises its error
    xs.insert(3, [0.1, 0.2])
    ys.insert(3, [0.0, 0.0])
    with pytest.raises(BatchFailed):
        metric.value(np.array(xs).T, np.array(ys).T)
    with pytest.raises(DomainError, match="alpha\\^2 is not positive"):
        metric.value(xs[3], ys[3])
    f, ok = metric.value_rows(np.array(xs), np.array(ys))
    assert ok.tolist() == [k != 3 for k in range(len(xs))]
    assert f[ok].tolist() == [metric.value(x, y) for k, (x, y)
                              in enumerate(zip(xs, ys)) if k != 3]
