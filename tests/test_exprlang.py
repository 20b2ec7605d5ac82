import numpy as np
import pytest

from finslerlab import ArityError, DomainError, ExprSyntaxError, UnknownIdentifier
from finslerlab.exprlang import (
    Binary,
    Call,
    Coord,
    Number,
    Unary,
    eval_jet,
    eval_scalar,
    max_coord,
    parse,
    to_source,
)
from finslerlab.jets import extract_partial, get_context


def test_parse_sum_of_squares():
    ast = parse("x1^2 + x2^2")
    assert ast == Binary("add",
                         Binary("pow", Coord(0), Number(2.0)),
                         Binary("pow", Coord(1), Number(2.0)))


def test_parse_unary_minus():
    assert parse("-x2") == Unary("neg", Coord(1))


def test_arity_error():
    with pytest.raises(ArityError):
        parse("sqrt(x1, x2)")
    with pytest.raises(ArityError):
        parse("pow(x1)")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse("y1 + 2")
    with pytest.raises(UnknownIdentifier):
        parse("tan(x1)")
    with pytest.raises(UnknownIdentifier):
        parse("x10")


def test_coordinates_stop_at_x8():
    assert parse("x8") == Coord(7)
    with pytest.raises(UnknownIdentifier):
        parse("x9")
    with pytest.raises(UnknownIdentifier):
        parse("x0")


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as info:
        parse("x1 + ")
    assert info.value.offset == 5
    with pytest.raises(ExprSyntaxError):
        parse("(x1 + x2")
    with pytest.raises(ExprSyntaxError) as info:
        parse("x1 $ x2")
    assert info.value.offset == 3


def test_power_right_associative():
    assert eval_scalar(parse("2^3^2"), []) == 512.0


def test_unary_minus_binds_tighter_than_power():
    # -x1^2 is (-x1)^2 under this grammar
    assert eval_scalar(parse("-x1^2"), [3.0]) == 9.0
    assert eval_scalar(parse("-(x1^2)"), [3.0]) == -9.0


def test_scientific_literals():
    assert eval_scalar(parse("1.5e-2 + 2E3 + .25"), []) == pytest.approx(2000.265)


def test_eval_jet_polynomial():
    ctx = get_context(2, 2)
    jet = eval_jet(parse("x1^2+x2^2"), ctx, [0.6, 0.0])
    assert extract_partial(jet, (0, 0)) == pytest.approx(0.36)
    assert extract_partial(jet, (1, 0)) == pytest.approx(1.2)
    assert extract_partial(jet, (0, 1)) == pytest.approx(0.0)
    assert extract_partial(jet, (2, 0)) == pytest.approx(2.0)
    assert extract_partial(jet, (0, 2)) == pytest.approx(2.0)


def test_eval_jet_mixed_partial():
    ctx = get_context(2, 2)
    jet = eval_jet(parse("x1*x2"), ctx, [2.0, 3.0])
    assert jet.value == pytest.approx(6.0)
    assert extract_partial(jet, (1, 1)) == pytest.approx(1.0)


def test_eval_jet_domain_error():
    ctx = get_context(2, 2)
    with pytest.raises(DomainError):
        eval_jet(parse("ln(x1)"), ctx, [0.0, 1.0])


def test_eval_jet_dimension_check():
    ctx = get_context(1, 2)
    with pytest.raises(ValueError):
        eval_jet(parse("x2"), ctx, [1.0])


ROUND_TRIP_SOURCES = [
    "x1^2 + x2^2",
    "-x2",
    "-(x1^2) + 3*x1",
    "(x1 + x2)*(x1 - x2)",
    "x1/(x2/x1)",
    "2^3^2",
    "(x1^2)^3",
    "sqrt(x1^2 + 1) * exp(-(x1*x2))",
    "pow(1 - x1, 1.5)/ln(2 + x2)",
    "sin(x1)*cos(x2) - 1.25e-1",
    "1 - (x1 - (x2 - 1))",
    "-(x1 + x2)^2",
    "x1 + (x2 + 1)",
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_round_trip_stability(source):
    ast = parse(source)
    printed = to_source(ast)
    assert parse(printed) == ast
    assert to_source(parse(printed)) == printed


def test_value_matches_scalar_eval():
    sources = [
        "sqrt(1 + x1^2) * exp(0.3*x2) + sin(x1)*cos(x2)",
        "pow(1.2 + x1, 2.5) / (1 + x1*x2)",
        "ln(2 + x1) - x2^3 + 1.5e0*x1",
    ]
    ctx = get_context(2, 2)
    rng = np.random.default_rng(3)
    for source in sources:
        ast = parse(source)
        for _ in range(25):
            point = rng.uniform(-0.8, 0.8, size=2)
            want = eval_scalar(ast, point)
            got = eval_jet(ast, ctx, point).value
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want))


def test_pow_function_and_caret_agree():
    ctx = get_context(1, 3)
    a = eval_jet(parse("pow(1 + x1, 0.5)"), ctx, [0.2])
    b = eval_jet(parse("(1 + x1)^0.5"), ctx, [0.2])
    np.testing.assert_allclose(a.c, b.c, atol=1e-15)
    # integer exponent on a negative base is fine
    assert eval_scalar(parse("(-2)^3"), []) == -8.0


def test_non_literal_exponent():
    ctx = get_context(2, 2)
    jet = eval_jet(parse("pow(2 + x1, x2)"), ctx, [0.0, 1.5])
    assert jet.value == pytest.approx(2.0 ** 1.5)
    assert eval_scalar(parse("pow(2, x2)"), [0.0, 1.5]) == pytest.approx(2.0 ** 1.5)


def test_max_coord():
    assert max_coord(parse("1 + 2")) == -1
    assert max_coord(parse("x3*x1")) == 2
    assert max_coord(Call("pow", (Coord(4), Number(2.0)))) == 4


def test_eval_jet_walks_each_tree_once(monkeypatch):
    """The coordinate count of each subtree is walked once, when the tree's
    tape is compiled, and kept on it, not once per evaluation; both
    ValueErrors keep their text."""
    from finslerlab import exprlang

    walked = []
    original = exprlang.max_coord

    def counting(node):
        walked.append(node)
        return original(node)

    monkeypatch.setattr(exprlang, "max_coord", counting)
    tree = parse("x1*x2 + sin(x1)^2")
    ctx = get_context(2, 2)
    eval_jet(tree, ctx, [0.1, 0.2])
    # compiling the tree's tape reads the count of each subtree once: one
    # visit per node below it, 8 + 3 + 1 + 1 + 4 + 2 + 1
    assert len(walked) == 20
    for k in range(20):
        eval_jet(tree, ctx, [0.1 * k, 0.2])
    assert len(walked) == 20
    assert tree.coordinate_count == 2
    with pytest.raises(ValueError, match="uses x2 but the point has 1 "
                                         "coordinates"):
        eval_jet(tree, ctx, [0.1])
    with pytest.raises(ValueError, match="uses x2 but the context has 1 "
                                         "variables"):
        eval_jet(tree, get_context(1, 2), [0.1, 0.2])
    assert len(walked) == 20
