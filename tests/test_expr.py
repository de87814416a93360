import cmath
import copy
import math
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import maxsurf.expr
from maxsurf.expr import (
    _FUNCTIONS,
    Add,
    Call,
    Const,
    Div,
    EvalError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Var,
    compile_fn,
    differentiate,
    evaluate,
    format_expr,
    parse,
    sconj,
    substitute,
)
from maxsurf.minkowski import LVector

CORPUS = [
    "z",
    "1",
    "i",
    "1/z^2",
    "(1+i)*exp(z)",
    "z^3-2*z+1",
    "exp(z)*sin(z)",
    "sconj(exp(z))/(1+z^2)",
    "cos(z)*sinh(z)-tanh(z)",
    "sqrt(1+z^2)",
    "log(2+z)",
    "-z^2+0.5*z",
    "exp(-i*z)*(1-2*i)",
    "sconj(cos(i*z))",
    "(z-0.25)/(z+3)",
    "cosh(z/2)^3",
]

SAMPLE_POINTS = [0.3 + 0.4j, -0.2 + 0.7j, 0.9 - 0.1j, -0.5 - 0.5j, 0.01 + 0.99j]


def interpret(e, z: complex) -> complex:
    """A tree-walking reference evaluator, independent of compile_fn's closures:
    operands left to right, faults as EvalError naming the node."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return z
    if isinstance(e, Neg):
        return -interpret(e.arg, z)
    if isinstance(e, (Add, Sub, Mul, Div)):
        left, right = interpret(e.left, z), interpret(e.right, z)
        if isinstance(e, Div):
            if right == 0:
                raise EvalError("division by zero", e)
            return left / right
        return left + right if isinstance(e, Add) else left - right if isinstance(e, Sub) else left * right
    if isinstance(e, Pow):
        base = interpret(e.base, z)
        try:
            return base**e.exponent
        except ZeroDivisionError:
            raise EvalError("zero base with negative exponent", e) from None
        except OverflowError:
            raise EvalError("overflow", e) from None
    if isinstance(e, Call):
        arg = interpret(e.arg, z)
        if e.func == "log" and arg == 0:
            raise EvalError("log of zero", e)
        try:
            return _FUNCTIONS[e.func].scalar(arg)
        except (ValueError, OverflowError) as exc:
            raise EvalError(str(exc), e) from None
    raise TypeError(f"not an Expr node: {e!r}")


def test_parse_division_power_shape():
    e = parse("1/z^2")
    assert e == Div(Const(1), Pow(Var(), 2))


def test_parse_product_shape():
    e = parse("(1+i)*exp(z)")
    assert e == Mul(Add(Const(1), Const(1j)), Call("exp", Var()))


def test_parse_error_position_unbalanced():
    with pytest.raises(ParseError) as exc:
        parse("(z")
    assert exc.value.offset == 2


@pytest.mark.parametrize(
    "text,offset",
    [("", 0), ("1+", 2), ("z^z", 2), ("2i", 1), ("foo(z)", 0), ("z @ 1", 2), ("²", 0), ("①/z", 0), ("z*²", 2)],
)
def test_parse_error_offsets_within_input(text, offset):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert 0 <= exc.value.offset <= len(text)


@pytest.mark.parametrize("text,offset", [("1e999", 0), ("z+2e400", 2), ("-1e999*z", 1), ("exp(9" + "9" * 400 + ")", 4)])
def test_a_literal_that_is_not_finite_is_refused_at_its_offset(text, offset):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.offset, exc.value.expected) == (offset, "finite number")


def test_format_of_a_non_finite_constant_does_not_raise():
    assert [format_expr(Const(v)) for v in (math.inf, -math.inf, complex(0, math.inf))] == ["inf", "-inf", "inf*i"]


def test_decimal_digits_of_any_script_are_numbers():
    assert parse("٣") == Const(3)
    assert parse("1٣.5*z") == Mul(Const(13.5), Var())


def test_parse_rejects_absolute_value_syntax():
    with pytest.raises(ParseError):
        parse("|z|")


def test_eval_square():
    assert evaluate(parse("z^2"), 1 + 1j) == 2j


def test_eval_schwarz_conjugate_of_square():
    assert evaluate(sconj(parse("z^2")), 1 + 1j) == 2j


def test_eval_inverse_square():
    assert evaluate(parse("1/z^2"), 2) == 0.25


def test_eval_precedence():
    assert evaluate(parse("-z^2"), 2) == -4
    assert evaluate(parse("1-2-3"), 0) == -4
    assert evaluate(parse("2*z^3"), 2) == 16
    assert evaluate(parse("z^-1"), 4) == 0.25


FAULTS = [("1/z", 0, "division by zero in '1/z'"), ("log(z)", 0, "log of zero in 'log(z)'"),
          ("z^-2", 0, "zero base with negative exponent in 'z^-2'"), ("exp(z)", 1e6, "math range error in 'exp(z)'"),
          ("log(z)/z", 0, "log of zero in 'log(z)'"), ("1/z+log(z)", 0, "division by zero in '1/z'")]


@pytest.mark.parametrize(
    "run", [evaluate, lambda e, z: compile_fn(e)(z)], ids=["evaluate", "compile_fn"]
)
def test_eval_faults_carry_the_offending_node(run):
    # the message of the reference walk, which names the node; where two
    # operands fault, the left one's fault is raised
    for text, z, message in FAULTS:
        with pytest.raises(EvalError) as want:
            interpret(parse(text), z)
        with pytest.raises(EvalError) as got:
            run(parse(text), z)
        assert str(got.value) == str(want.value) == message, text


def test_derivative_power_rule():
    d = differentiate(parse("z^2"))
    for z in SAMPLE_POINTS:
        assert d and evaluate(d, z) == 2 * z


def test_derivative_exponential():
    d = differentiate(parse("exp(z)"))
    for z in SAMPLE_POINTS:
        assert evaluate(d, z) == cmath.exp(z)


def test_derivative_matches_finite_difference_oracle():
    # central difference at z = 2 for 1/z: expected -1/4
    e = parse("1/z")
    h = 1e-6
    fd = (evaluate(e, 2 + h) - evaluate(e, 2 - h)) / (2 * h)
    d = evaluate(differentiate(e), 2)
    assert abs(d - fd) <= 1e-8
    assert abs(d - (-0.25)) <= 1e-12


@pytest.mark.parametrize("text", CORPUS)
def test_derivative_finite_difference_corpus(text):
    e = parse(text)
    d = differentiate(e)
    h = 1e-6
    for z in SAMPLE_POINTS:
        try:
            exact = evaluate(d, z)
            fd = (evaluate(e, z + h) - evaluate(e, z - h)) / (2 * h)
        except EvalError:
            continue
        assert abs(exact - fd) <= 1e-6 * (1 + abs(exact))


@pytest.mark.parametrize("text", CORPUS)
def test_format_round_trip_is_structural(text):
    e = parse(text)
    assert parse(format_expr(e)) == e


@pytest.mark.parametrize("text", CORPUS)
def test_format_round_trip_evaluates_equal(text):
    e = parse(text)
    r = parse(format_expr(e))
    for z in SAMPLE_POINTS:
        try:
            a = evaluate(e, z)
        except EvalError:
            continue
        assert abs(evaluate(r, z) - a) < 1e-13 * (1 + abs(a))


def test_format_derivative_round_trips_pointwise():
    # derivative trees may print constants like 2*i whose re-parse is a
    # product node; the round-trip contract is pointwise evaluation
    for text in CORPUS:
        d = differentiate(parse(text))
        r = parse(format_expr(d))
        for z in SAMPLE_POINTS:
            try:
                a = evaluate(d, z)
            except EvalError:
                continue
            assert abs(evaluate(r, z) - a) <= 1e-14 * (1 + abs(a))


def test_format_sconj_keyword():
    # the keyword is read and folded at parse time, so it is never printed
    e = parse("sconj(exp(i*z))")
    assert e == Call("exp", Mul(Const(-1j), Var()))
    assert format_expr(e) == "exp(-i*z)"


def test_format_real_constant_is_plain():
    assert format_expr(Const(1 + 0j)) == "1"
    assert format_expr(Const(2.5)) == "2.5"
    assert format_expr(Const(1j)) == "i"
    assert format_expr(Const(1 + 1j)) == "(1+i)"
    assert format_expr(Const(-2j)) == "-2*i"


def test_a_negative_imaginary_constant_prints_as_a_product():
    # -0.5*i is a product: as a divisor it needs parentheses, or z/-0.5*i reads as (z/-0.5)*i
    for node in (Div, Mul, Sub, Add):
        e = node(Var(), Const(-0.5j))
        assert evaluate(parse(format_expr(e)), 1 + 1j) == evaluate(e, 1 + 1j), format_expr(e)
    assert format_expr(Div(Var(), Const(-0.5j))) == "z/(-0.5*i)"
    assert format_expr(Mul(Const(-0.5j), Var())) == "-0.5*i*z"


@pytest.mark.parametrize("text", CORPUS)
def test_schwarz_conjugate_identity_exact(text):
    e = parse(text)
    s = sconj(e)
    for z in SAMPLE_POINTS:
        try:
            expected = evaluate(e, z.conjugate()).conjugate()
        except EvalError:
            continue
        assert evaluate(s, z) == expected


@pytest.mark.parametrize("text", CORPUS)
def test_sconj_is_involutive(text):
    e = parse(text)
    assert sconj(sconj(e)) == e


def test_sconj_distributes_over_arithmetic():
    e = parse("(1+2*i)*z + exp(z)/z")
    s = sconj(e)
    # no conjugation wrapper survives anywhere: only the constants change
    assert s == parse("(1+2*-i)*z + exp(z)/z")
    for z in SAMPLE_POINTS:
        assert evaluate(s, z) == evaluate(e, z.conjugate()).conjugate()


def test_sconj_derivative_rule():
    for text in CORPUS:
        e = parse(text)
        d_of_s = differentiate(sconj(e))
        s_of_d = sconj(differentiate(e))
        for z in SAMPLE_POINTS:
            try:
                a = evaluate(d_of_s, z)
                b = evaluate(s_of_d, z)
            except EvalError:
                continue
            assert abs(a - b) <= 1e-14 * (1 + abs(a))


def test_substitute_composition():
    e = parse("z^2+1")
    w = parse("1/z")
    composed = substitute(e, w)
    for z in SAMPLE_POINTS:
        assert abs(evaluate(composed, z) - (1 / z**2 + 1)) < 1e-14


def test_substitute_through_sconj():
    e = parse("sconj(exp(z))")
    w = parse("i*z")
    composed = substitute(e, w)
    for z in SAMPLE_POINTS:
        manual = cmath.exp((1j * z).conjugate()).conjugate()
        assert abs(evaluate(composed, z) - manual) < 1e-14


@pytest.mark.parametrize("text", CORPUS)
def test_compiled_matches_interpreter(text):
    e = parse(text)
    fn = compile_fn(e)
    for z in SAMPLE_POINTS:
        try:
            a = interpret(e, z)
        except EvalError:
            continue
        assert fn(z) == a
        assert evaluate(e, z) == a


def test_exprs_are_immutable_and_hashable():
    e = parse("z^2+i")
    with pytest.raises(Exception):
        e.left = Const(0)
    assert hash(e) == hash(parse("z^2+i"))
    with pytest.raises(FrozenInstanceError):
        del e.right
    assert copy.deepcopy(e) == e == pickle.loads(pickle.dumps(e)) and repr(e) == repr(parse("z^2+i"))


_z, _i = Var(), Const(1j)
# one value of each node type and LVector, with the repr a frozen dataclass of its fields prints
VALUES = [
    (Const(2), "Const(value=(2+0j))"),
    (_z, "Var()"),
    (Neg(_z), "Neg(arg=Var())"),
    (Add(_z, _i), "Add(left=Var(), right=Const(value=1j))"),
    (Sub(_z, _i), "Sub(left=Var(), right=Const(value=1j))"),
    (Mul(_z, _i), "Mul(left=Var(), right=Const(value=1j))"),
    (Div(_z, _i), "Div(left=Var(), right=Const(value=1j))"),
    (Pow(_z, -2), "Pow(base=Var(), exponent=-2)"),
    (Call("sin", _z), "Call(func='sin', arg=Var())"),
    (LVector(0, 0, 1), "LVector(x1=0.0, x2=0.0, x3=1.0)"),
]


@pytest.mark.parametrize("value, text", VALUES, ids=[text.split("(")[0] for _, text in VALUES])
def test_each_value_type_is_frozen_hashable_and_copies_as_a_dataclass_did(value, text):
    assert repr(value) == text
    twin = eval(text, {**vars(maxsurf.expr), "LVector": LVector})
    assert twin == value and hash(twin) == hash(value) and twin is not value
    assert all(value != other for other, _ in VALUES if other is not value)
    fields = value.__match_args__ or ("anything",)
    for name in fields:
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    for copied in (copy.deepcopy(value), copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value and hash(copied) == hash(value)
        assert repr(copied) == text
    assert repr(value) == text  # unchanged by the attempts above


def test_equality_is_by_exact_type_and_fields():
    assert Add(_z, _i) != Sub(_z, _i) and Mul(_z, _i) != Div(_z, _i)
    assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))
    assert Pow(_z, 2) != Pow(_z, 3) and Call("sin", _z) != Call("cos", _z)
    assert parse("sin(z)^2-1/z") == parse("sin(z) ^ 2 - 1 / z") and {parse("z+1"), parse("z + 1")} == {parse("z+1")}
    assert Const(1) == Const(1 + 0j) and type(Const(1).value) is complex


def test_an_lvector_holds_finite_floats():
    v = LVector(0, 0, 1)
    assert [type(x) for x in v.as_tuple()] == [float] * 3 and v.as_tuple() == (0.0, 0.0, 1.0)
    for parts, name in (((math.inf, 0, 0), "x1=inf"), ((0, math.nan, 0), "x2=nan"), ((1, 2, -math.inf), "x3=-inf")):
        with pytest.raises(ValueError, match=f"non-finite component {name}"):
            LVector(*parts)


# sconj conjugates constants only, which is exact because every function of
# the language commutes with conj on its principal branch.  A function added
# without real coefficients fails here.
_PARTS = (0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, 700.0, -700.0)
_CONJ_POINTS = (
    [complex(a, b) for a in _PARTS for b in _PARTS]
    + [complex(-1, 0.0), complex(-1, -0.0), complex(-4, 0.0), complex(-4, -0.0)]
    + [complex(a / 16, b / 16) for a, b in np.random.default_rng(7).integers(-48, 49, size=(200, 2))]
)


def _bits(x: complex) -> tuple[str, str]:
    return repr(x.real), repr(x.imag)


def _outcome(fn, w):
    try:
        return _bits(fn(w))
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc)


_A = Mul(Const(2), Var())
_OUTER = {  # the chain rule's outer factor of each function at _A, as trees
    "exp": Call("exp", _A),
    "log": Div(Const(1), _A),
    "sin": Call("cos", _A),
    "cos": Neg(Call("sin", _A)),
    "sinh": Call("cosh", _A),
    "cosh": Call("sinh", _A),
    "tanh": Sub(Const(1), Pow(Call("tanh", _A), 2)),
    "sqrt": Div(Const(0.5), Call("sqrt", _A)),
}


@pytest.mark.parametrize("name", sorted(_FUNCTIONS))
def test_derivative_of_each_function_is_its_outer_factor_times_the_inner(name):
    assert differentiate(Call(name, _A)) == Mul(_OUTER[name], Const(2))


@pytest.mark.parametrize("name", sorted(_FUNCTIONS))
def test_functions_commute_with_conj_bit_for_bit(name):
    fn = _FUNCTIONS[name].scalar
    for w in _CONJ_POINTS:
        assert _outcome(lambda v: fn(v.conjugate()).conjugate(), w) == _outcome(fn, w), (name, w)


@pytest.mark.parametrize("name", sorted(_FUNCTIONS))
def test_array_functions_commute_with_conj_bit_for_bit(name):
    fn = _FUNCTIONS[name].array
    ws = np.array(_CONJ_POINTS)
    with np.errstate(all="ignore"):
        got, want = np.conj(fn(np.conj(ws))), fn(ws)
    assert [_bits(x) for x in got.tolist()] == [_bits(x) for x in want.tolist()], name
