import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occlp import exprs
from occlp.simulate import LawPolicy, SimulationError


def scalar(text, y=(), u=(), m=None, p=None):
    m = len(y) if m is None else m
    p = len(u) if p is None else p
    node = exprs.parse_expr(text, m, p)
    return exprs.compile_scalar((node,))(tuple(y), tuple(u))[0]


def test_arithmetic_and_variables():
    assert scalar("u1*y2", y=(1.0, 0.0), u=(1.0,)) == 0.0
    assert scalar("-u1*y1", y=(3.0, 0.0), u=(2.0,)) == -6.0
    assert scalar("y1 + u1^2", y=(0.5, 0.0), u=(1.0,)) == 1.5
    assert scalar("2*(1 + 3)/4", m=1, p=0, y=(0.0,)) == 2.0
    assert scalar("1e-3 + 2E2", m=1, p=0, y=(0.0,)) == pytest.approx(200.001)
    assert scalar("pi", m=1, p=0, y=(0.0,)) == math.pi
    assert scalar("y1^-1", y=(4.0,)) == 0.25


def test_functions():
    assert scalar("sin(pi/2)", m=1, p=0, y=(0.0,)) == pytest.approx(1.0)
    assert scalar("cos(y1)^2 + sin(y1)^2", y=(0.7,)) == pytest.approx(1.0)
    assert scalar("sqrt(y1^2)", y=(-3.0,)) == pytest.approx(3.0)
    assert scalar("exp(0)", m=1, p=0, y=(0.0,)) == 1.0
    assert scalar("abs(-2*y1)", y=(1.5,)) == 3.0
    assert scalar("atan2(y2, y1)", y=(-1.0, 1.0)) == math.atan2(1.0, -1.0)
    assert scalar("atan2(1, u1 - y1)", y=(2.0,), u=(2.0,)) == math.pi / 2


def test_powers_and_roots_leave_their_domain_as_value_errors():
    # the scalar forms raise where Python's ** would return a complex number
    for text in ("y1^0.5", "sqrt(y1)", "y1^-1.5"):
        with pytest.raises(ValueError):
            scalar(text, y=(-0.25,))
    assert scalar("y1^3", y=(-0.5,)) == -0.125
    assert scalar("y1^2", y=(-0.1,)) == (-0.1) ** 2


@pytest.mark.parametrize("bad", [
    "y3", "u2 + 1", "1 +", "(y1", "sin", "q1", "y1 ^ u1", "2 ** 3", "y1 y2",
    "atan2(y1)", "atan2(y1, y2, u1)", "sin(y1, y2)", "atan2(y1 y2)", "atan2(y1,",
    # what Python reads but the grammar does not have
    "y1 # note", "y1 % 2", "y1 < 2", "y1 == y2", "y1.real", "0x10", "1_000", "2j", "True",
    "y1 // 2", "y1 and y2", "y1 if y2 else 0", "(y1, y2)", "sin(*y1)", "(sin)(y1)",
    "y1^+2", "y1^--2", "y1^(1 + 1)", "y1^2^3", "", "   ", "y1 \u00e9",
])
def test_parse_errors(bad):
    with pytest.raises(exprs.ExpressionError):
        exprs.parse_expr(bad, 2, 1)


# the inputs whose acceptance differs from the recursive-descent parser this
# one replaced: Python rejects leading zeros in an integer and reads a
# parenthesised exponent and a trailing comma in a call, and an infinite
# number is rejected
@pytest.mark.parametrize("text,tree", [
    ("007", None),
    ("2^(-3)", exprs.Power(exprs.Num(2.0), -3.0)),
    ("sin(y1, )", exprs.Call("sin", (exprs.Var("y", 0),))),
    ("1e999", None),
])
def test_accepted_inputs_that_changed(text, tree):
    if tree is None:
        with pytest.raises(exprs.ExpressionError):
            exprs.parse_expr(text, 2, 1)
    else:
        assert exprs.parse_expr(text, 2, 1) == tree


@pytest.mark.parametrize("text,message", [
    ("y1^2 + y1^y2", "exponent must be a constant (at position 10)"),
    ("  fast", "unknown name 'fast' (at position 2)"),
    ("y1^2 +\t* u1", "invalid syntax (at position 7)"),
    ("2^1 + 1e999", "number '1e999' is not finite (at position 6)"),
    ("y1 ** 2", "use '^' for powers (at position 3)"),
    # rejected before Python reads them: its messages would advise an 0o prefix,
    # and it would warn about a number run into a keyword on stderr
    ("y1 + 007", "integer '007' has a leading zero (at position 5)"),
    ("1or y1", "'1or' is not a decimal number (at position 0)"),
    ("y1 + 2y2", "'2y2' is not a decimal number (at position 5)"),
])
def test_errors_give_the_position_in_the_text_as_written(text, message):
    with pytest.raises(exprs.ExpressionError) as err:
        exprs.parse_expr(text, 2, 1)
    assert str(err.value) == message


def _sum(terms: int, term: str = "y1") -> str:
    return " + ".join([term] * terms)  # nests terms - 1 deep


def test_an_expression_at_the_depth_limit_compiles_in_every_target():
    node = exprs.parse_expr(_sum(exprs.MAX_DEPTH + 1), 1, 0)
    assert exprs.depth(node) == exprs.MAX_DEPTH
    total = exprs.MAX_DEPTH + 1.0
    assert exprs.compile_scalar((node,))((1.0,), ()) == (total,)
    assert exprs.compile_numpy((node,))([[1.0]], np.empty((1, 0))).tolist() == [[total]]
    # in the one run shape: as the dynamics at a held control, and as a law
    held = exprs.compile_rk4_run((node,), (exprs.Var("u", 0),))
    controls = []
    assert held((1.0,), (0.5,), (0.0,), (1.0,), 0.0, 1, [], controls) == (1, (1.0,), None)
    assert controls == [0.5]
    dynamics = (exprs.parse_expr("u1", 1, 1),)
    run = exprs.compile_rk4_run(dynamics, (node,))
    assert run((1.0,), (), (0.0,), (1e3,), 0.0, 1, [], controls) == (1, (1.0,), None)
    assert controls == [0.5, total]


@pytest.mark.parametrize("text", [
    _sum(exprs.MAX_DEPTH + 2),
    "-" * (exprs.MAX_DEPTH + 1) + "y1",
    "sin(" * (exprs.MAX_DEPTH + 1) + "y1" + ")" * (exprs.MAX_DEPTH + 1),
    _sum(1000),
    "-" * 3000 + "1",
])
def test_an_expression_past_the_depth_limit_is_rejected(text):
    with pytest.raises(exprs.ExpressionError, match=f"deeper than {exprs.MAX_DEPTH} levels"):
        exprs.parse_expr(text, 1, 0)


# grammar trees as the parser builds them: numbers are non-negative (a minus
# sign is a Unary node) and finite
_leaves = st.one_of(
    st.builds(exprs.Num, st.floats(min_value=0.0, allow_infinity=False)),
    st.builds(exprs.Var, st.just("y"), st.integers(0, 2)),
    st.builds(exprs.Var, st.just("u"), st.integers(0, 1)))


def _extend(children):
    return st.one_of(
        st.builds(exprs.Unary, st.just("neg"), children),
        st.builds(exprs.Binary, st.sampled_from("+-*/"), children, children),
        st.builds(exprs.Power, children, st.floats(allow_nan=False, allow_infinity=False)),
        st.builds(exprs.Call, st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]),
                  st.tuples(children)),
        st.builds(exprs.Call, st.just("atan2"), st.tuples(children, children)))


def _text(node) -> str:
    """Grammar text of a tree, every operand in parentheses."""
    if isinstance(node, exprs.Num):
        return repr(node.value)
    if isinstance(node, exprs.Var):
        return f"{node.kind}{node.index + 1}"
    if isinstance(node, exprs.Unary):
        return f"-({_text(node.arg)})"
    if isinstance(node, exprs.Binary):
        return f"({_text(node.left)}) {node.op} ({_text(node.right)})"
    if isinstance(node, exprs.Power):
        return f"({_text(node.base)})^{node.exponent!r}"
    return f"{node.func}({', '.join(map(_text, node.args))})"


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaves, _extend, max_leaves=20))
def test_printed_trees_parse_back_to_themselves(tree):
    assert exprs.parse_expr(_text(tree), 3, 2) == tree


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="yu12.e+-*/^(), sincoxpqrtab_#%<=\t\n09j")))
@example("9" * 400)
@example("1" * 400 + ".5e-3")
@example("(" * 300 + "y1" + ")" * 300)
@example("y1^" + "9" * 400)
@example("\x00")
def test_any_text_parses_or_raises_an_expression_error(text):
    try:
        node = exprs.parse_expr(text, 2, 1)
    except exprs.ExpressionError:
        return
    assert exprs.depth(node) <= exprs.MAX_DEPTH


@pytest.mark.parametrize("text", [
    "y1^3 - 2*y2^2 + y1*y2",
    "sin(y1)*cos(y2)",
    "exp(y1/4) + sqrt(y2 + 3)",
    "(y1 + y2)^4 / (2 + y1^2)",
    "atan2(y2 + 2, y1)",  # y2 + 2 > 0 keeps the points off the branch cut
    "cos(atan2(y1 * y2 + 1, y1 - y2)) * y1",
])
def test_derivative_matches_finite_differences(text):
    node = exprs.parse_expr(text, 2, 0)
    value = exprs.compile_scalar((node,))
    rng = np.random.default_rng(7)
    for _ in range(25):
        y = tuple(rng.uniform(-0.9, 0.9, size=2).tolist())
        for j in range(2):
            dnode = exprs.diff(node, j)
            analytic = exprs.compile_scalar((dnode,))(y, ())[0]
            h = 1e-6
            yp = tuple(v + (h if i == j else 0.0) for i, v in enumerate(y))
            ym = tuple(v - (h if i == j else 0.0) for i, v in enumerate(y))
            numeric = (value(yp, ())[0] - value(ym, ())[0]) / (2 * h)
            assert analytic == pytest.approx(numeric, abs=1e-5, rel=1e-5)


def test_derivative_of_control_free_variable():
    node = exprs.parse_expr("u1*y2", 2, 1)
    dy1 = exprs.diff(node, 0)
    assert exprs.compile_scalar((dy1,))((5.0, 7.0), (3.0,))[0] == 0.0
    dy2 = exprs.diff(node, 1)
    assert exprs.compile_scalar((dy2,))((5.0, 7.0), (3.0,))[0] == 3.0


def test_batch_compilation_matches_scalar():
    node = exprs.parse_expr("y1*y2 - u1^2", 2, 1)
    batch = exprs.compile_numpy((node,))
    scalar_fn = exprs.compile_scalar((node,))
    rng = np.random.default_rng(11)
    ys = rng.normal(size=(40, 2))
    us = rng.normal(size=(40, 1))
    out = batch(ys, us)[0]
    expected = [scalar_fn(tuple(y), tuple(u))[0] for y, u in zip(ys, us)]
    assert np.allclose(out, expected, rtol=1e-14, atol=0)


def test_atan2_scalar_and_numpy_forms_agree():
    node = exprs.parse_expr("atan2(y2 - u1, y1) + cos(atan2(y1, -y2))", 2, 1)
    rng = np.random.default_rng(5)
    ys = rng.normal(size=(60, 2))
    us = rng.normal(size=(60, 1))
    scalar_fn = exprs.compile_scalar((node,))
    expected = [scalar_fn(tuple(y), tuple(u))[0] for y, u in zip(ys, us)]
    assert np.allclose(exprs.compile_numpy((node,))(ys, us)[0], expected,
                       rtol=1e-14, atol=1e-15)


def test_feedback_law_reads_the_state_only():
    # a feedback law (LawPolicy, rotation_delta) is parsed with no controls,
    # so a u1 in its text is refused before any run is compiled
    with pytest.raises(exprs.ExpressionError, match="'u1' out of range"):
        exprs.parse_expr("u1 + y1", 1, 0)
    # and one built from a tree that reads a control is refused as a policy
    reads_u = exprs.parse_expr("u1 + y1", 1, 1)
    assert exprs.variables(reads_u) == {exprs.Var("u", 0), exprs.Var("y", 0)}
    with pytest.raises(SimulationError, match="state only"):
        LawPolicy([exprs.parse_expr("y1", 1, 0), reads_u])
    # in a run's law, u1 is the run's control argument; read with the state,
    # the law is evaluated and checked at every step
    dynamics = (exprs.parse_expr("u1 * y1", 1, 1),)
    run = exprs.compile_rk4_run(dynamics, (exprs.parse_expr("u1 + y1", 1, 1),))
    rows, controls = [], []
    assert run((0.25,), (0.5,), (0.0,), (1.0,), 0.0, 3, rows, controls) == (3, (0.25,), None)
    assert rows == [0.25] * 3 and controls == [0.75] * 3
    assert run((0.75,), (0.5,), (0.0,), (1.0,), 0.0, 3, rows, controls) == (0, (0.75,), (1.25,))


@pytest.mark.parametrize("texts,p,degrees", [
    (("u1*y2", "-u1*y1"), 1, [(1,), (1,)]),  # the rotation
    (("-y1 + u1", "-y2 + y1"), 1, [(1,), (0,)]),  # box-custom
    (("0", "0"), 1, [(0,), (0,)]),  # frozen
    (("u1*u2", "y1/2 - sin(y2)*u2"), 2, [(1, 1), (0, 1)]),
    (("u1^2",), 1, [None]),
    (("sin(u1)",), 1, [None]),
    (("y1/u1",), 1, [None]),
    (("(u1 - u1)*u1",), 1, [(2,)]),  # no cancelling: a "no" that is wrong
])
def test_control_degrees_decide_multilinearity(texts, p, degrees):
    nodes = tuple(exprs.parse_expr(text, 2, p) for text in texts)
    assert [exprs.control_degrees(node, p) for node in nodes] == degrees
    assert exprs.multilinear_in_controls(nodes, p) == all(
        d is not None and max(d) <= 1 for d in degrees)
