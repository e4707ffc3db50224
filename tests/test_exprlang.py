import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg.exprlang import (
    FUNCTIONS,
    ArityError,
    Bin,
    Call,
    DomainEvalError,
    ExprError,
    ExprSyntaxError,
    Neg,
    Num,
    UnknownIdentifierError,
    Var,
    eval_expr,
    parse_expr,
    to_string,
)


def ev(text, s=0.0, t=0.0):
    return eval_expr(parse_expr(text), s, t)


def test_parse_call_node():
    e = parse_expr("exp(t)")
    assert isinstance(e, Call) and e.fn == "exp" and e.arg == Var("t")


def test_parse_product_node():
    e = parse_expr("s*exp(t)")
    assert isinstance(e, Bin) and e.op == "*"
    assert e.left == Var("s") and isinstance(e.right, Call)


def test_precedence_example():
    assert ev("1+2*3^2") == 19.0


def test_precedence_rules():
    assert ev("2^3^2") == 512.0          # right-associative
    assert ev("-2^2") == -4.0            # ^ binds tighter than unary -
    assert ev("(-2)^2") == 4.0
    assert ev("6/2*3") == 9.0            # left-associative
    assert ev("1-2-3") == -4.0
    assert ev("-s*t", 2, 3) == -6.0      # unary - binds tighter than *


def test_eval_examples():
    assert ev("t/s", 2, 4) == 2.0
    assert abs(ev("exp(t)/exp(s)", 1, 2) - math.e) <= 1e-12
    with pytest.raises(DomainEvalError):
        ev("1/s", 0, 1)


def test_domain_errors():
    with pytest.raises(DomainEvalError):
        ev("log(0-1)")
    with pytest.raises(DomainEvalError):
        ev("sqrt(0-2)")
    with pytest.raises(DomainEvalError):
        ev("0^(0-1)")
    with pytest.raises(DomainEvalError):
        ev("exp(10000)")
    with pytest.raises(DomainEvalError):
        ev("(0-2)^0.5")
    # infinite and NaN intermediates: sin, cos and int() would raise ValueError
    for text in ("sin(1e308*10)", "cos(s*1e308*1e308)", "(0-1)^(1e308*10)",
                 "(0-1)^(1e308*10-1e308*10)"):
        with pytest.raises(DomainEvalError):
            ev(text, 1.0)
    err = None
    try:
        ev("1 + t/s", 0, 1)
    except DomainEvalError as e:
        err = e
    assert err is not None and "t/s" in str(err)


def test_parse_errors():
    with pytest.raises(ExprSyntaxError):
        parse_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_expr("1+")
    with pytest.raises(ExprSyntaxError):
        parse_expr("(s")
    with pytest.raises(UnknownIdentifierError):
        parse_expr("u+1")
    with pytest.raises(UnknownIdentifierError):
        parse_expr("foo(s)")
    with pytest.raises(ArityError):
        parse_expr("exp(s, t)")
    try:
        parse_expr("s + @")
    except ExprSyntaxError as e:
        assert e.offset == 4


def test_determinism():
    e = parse_expr("exp(s)*cos(t)-s/(1+t)")
    vals = {eval_expr(e, 0.7, 1.3) for _ in range(5)}
    assert len(vals) == 1


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Num(float(rng.randint(0, 9))), Var("s"), Var("t")])
    kind = rng.random()
    if kind < 0.15:
        return Neg(_random_tree(rng, depth - 1))
    if kind < 0.3:
        return Call(rng.choice(("sin", "cos", "abs")), _random_tree(rng, depth - 1))
    op = rng.choice("+-*")
    return Bin(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_roundtrip_structural():
    corpus = [
        "1+2*3^2", "s*exp(t)", "-s^2", "(-s)^2", "s--t", "s-(t-1)",
        "2*(s+t)", "s*-t", "exp(t)/exp(s)", "abs(s-t)+sqrt(4)",
        "s/(1+t)/2", "2^-3", "1/(2^3)^2",
    ]
    for text in corpus:
        e = parse_expr(text)
        assert parse_expr(to_string(e)) == e
    rng = random.Random(99)
    for _ in range(300):
        e = _random_tree(rng, 4)
        assert parse_expr(to_string(e)) == e


def test_roundtrip_values_agree():
    rng = random.Random(100)
    for _ in range(200):
        e = _random_tree(rng, 4)
        s, t = rng.uniform(0.1, 3), rng.uniform(0.1, 3)
        try:
            v1 = eval_expr(e, s, t)
        except DomainEvalError:
            continue
        v2 = eval_expr(parse_expr(to_string(e)), s, t)
        assert v1 == v2


# every tree the parser can produce: numbers are finite and non-negative (a
# minus sign parses as Neg), and calls cover all six functions
_TREES = st.recursive(
    st.one_of(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Num),
              st.integers(0, 9).map(float).map(Num), st.sampled_from([Var("s"), Var("t")])),
    lambda inner: st.one_of(
        inner.map(Neg),
        st.builds(Bin, st.sampled_from("+-*/^"), inner, inner),
        st.builds(Call, st.sampled_from(FUNCTIONS), inner)),
    max_leaves=10)
_POINTS = st.floats(-1e3, 1e3)


@given(_TREES, _POINTS, _POINTS)
@settings(max_examples=300, deadline=None)
def test_roundtrip_hypothesis(e, s, t):
    back = parse_expr(to_string(e))
    assert back == e
    try:
        want = eval_expr(e, s, t)
    except DomainEvalError:
        return
    assert eval_expr(back, s, t) == want


def test_fuzz_never_crashes():
    rng = random.Random(101)
    alphabet = "st+-*/^()0123456789. exploginsqrbac,"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 24)))
        try:
            e = parse_expr(text)
            eval_expr(e, 1.3, 2.7)
        except ExprError:
            pass


def test_fuzz_arbitrary_bytes():
    rng = random.Random(102)
    for _ in range(500):
        text = bytes(rng.randrange(256) for _ in range(rng.randint(1, 16))).decode(
            "latin-1"
        )
        try:
            parse_expr(text)
        except ExprError:
            pass
