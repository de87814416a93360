"""Property tests for the expression language on generated trees and points.

The generator builds canonical trees, as parse and the constructors do: a
negation never wraps a constant (the parser folds those), and constants are
real or i, the constants the printer writes as one literal.  One branch
applies ``sconj`` to a function call; that conjugates the constants below
it, so -i occurs as well, which the printer also writes as one literal.
"""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxsurf.expr import (
    Add,
    Call,
    Const,
    Div,
    EvalError,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    compile_array,
    compile_fn,
    differentiate,
    evaluate,
    format_expr,
    parse,
    sconj,
    substitute,
)

FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh", "tanh", "sqrt")


def _neg(e):
    return Const(-e.value) if isinstance(e, Const) else Neg(e)


def _tree(children):
    pair = st.tuples(children, children)
    return st.one_of(
        children.map(_neg),
        pair.map(lambda t: Add(*t)),
        pair.map(lambda t: Sub(*t)),
        pair.map(lambda t: Mul(*t)),
        pair.map(lambda t: Div(*t)),
        st.tuples(children, st.integers(-3, 3)).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda t: Call(*t)),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda t: sconj(Call(*t))),
    )


_leaf = st.one_of(st.just(Var()), st.sampled_from([0.5, 2.0, -1.5, 3.0, 1j]).map(Const))
exprs = st.recursive(_leaf, _tree, max_leaves=6)
# points on a 1/16 lattice, moved off it so they avoid the real and imaginary axes
points = st.tuples(st.integers(-24, 24), st.integers(-24, 24)).map(
    lambda t: complex(t[0] / 16 + 0.0123, t[1] / 16 + 0.0371)
)
lattice = st.tuples(st.integers(-32, 32), st.integers(-32, 32)).map(lambda t: complex(t[0] / 16, t[1] / 16))
# the constants and zero, where generated trees have their poles and branch points
special = st.sampled_from([0j, 0.5 + 0j, 2 + 0j, -1.5 + 0j, 3 + 0j, 1j, -1j])

_FAST = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_PAIRS = settings(max_examples=40, deadline=None, derandomize=True, database=None)  # two trees each


def _subtrees(e):
    yield e
    for name in ("arg", "left", "right", "base"):
        if hasattr(e, name):
            yield from _subtrees(getattr(e, name))


def _scale(e, z):
    """The largest value any subexpression takes near z, the size of its round-off."""
    size = 1.0
    for t in _subtrees(e):
        try:
            v = abs(evaluate(t, z))
        except EvalError:
            continue
        if v == v and v != float("inf"):
            size = max(size, v)
    return size


@_FAST
@given(e=exprs, zs=st.lists(st.one_of(special, lattice, points), min_size=1, max_size=6))
def test_array_backend_agrees_with_compile_fn(e, zs):
    # every function, a conjugated call and a division on top of each generated tree
    trees = [e, sconj(Call("log", e)), Div(Const(1), e)] + [Call(f, e) for f in FUNCTIONS]
    for tree in trees:
        scalar = compile_fn(tree)
        values = compile_array(tree)(np.array(zs))
        assert values.shape == (len(zs),)
        for z, got in zip(zs, values.tolist()):
            try:
                want = scalar(z)
            except EvalError:
                assert not cmath.isfinite(got), (format_expr(tree), z, got)
                continue
            if cmath.isfinite(want) and cmath.isfinite(got) and got != want:
                assert abs(got - want) <= 1e-13 * _scale(tree, z), (format_expr(tree), z, got, want)


@pytest.mark.parametrize("func", ["log", "sqrt"])
@pytest.mark.parametrize("z", [complex(-1, 0.0), complex(-1, -0.0), complex(-4, 0.0), complex(-4, -0.0)])
def test_array_branch_cuts_keep_the_sign_of_zero(func, z):
    fn = getattr(cmath, func)
    got = complex(compile_array(Call(func, Var()))(np.array([z]))[0])
    want = fn(z)
    assert got == want
    assert (got.real, got.imag) == (want.real, want.imag)
    assert str(got.imag)[0] == str(want.imag)[0]  # the sign of the imaginary part, zero or not


def test_array_signed_zero_through_negation_and_sconj():
    # -(1 + 0i) has imaginary part -0.0; sqrt and log must see it as below the cut
    z = np.array([complex(1, 0.0)])
    for func in ("log", "sqrt"):
        for text in (f"{func}(-z)", f"sconj({func}(-z))"):
            e = parse(text)
            got = complex(compile_array(e)(z)[0])
            want = compile_fn(e)(complex(1, 0.0))
            assert (got.real, got.imag) == (want.real, want.imag), text


def test_array_faults_are_nan_and_stay_nan():
    z = np.array([0j, 1 + 0j, 2 + 0j])
    cases = {
        "1/z": [False, True, True],
        "log(z)": [False, True, True],
        "z^-2": [False, True, True],
        "(1/z)^0": [False, True, True],  # numpy has nan^0 = 1
        "exp(1/(z-1))*0": [True, False, True],
        "exp(500*z)": [True, True, False],
        "1/exp(500*z)": [True, True, False],  # 1/inf would be a finite 0
    }
    for text, finite in cases.items():
        got = compile_array(parse(text))(z)
        assert np.isfinite(got).tolist() == finite, text


def test_array_constant_fills_the_shape():
    got = compile_array(parse("2+i"))(np.zeros((2, 3), dtype=complex))
    assert got.shape == (2, 3)
    assert (got == 2 + 1j).all()


# ---------------------------------------------------------------------------
# algebraic properties


@_FAST
@given(e=exprs)
def test_parse_inverts_format_expr(e):
    assert parse(format_expr(e)) == e


@_FAST
@given(e=exprs, z=points)
def test_sconj_is_an_involution_and_conjugates_values(e, z):
    assert sconj(sconj(e)) == e
    try:
        want = evaluate(e, z.conjugate()).conjugate()
    except EvalError:
        return
    assert abs(evaluate(sconj(e), z) - want) <= 1e-13 * _scale(e, z.conjugate())


@_PAIRS
@given(a=exprs, b=exprs)
def test_sconj_distributes_over_arithmetic(a, b):
    for node in (Add, Sub, Mul, Div):
        assert sconj(node(a, b)) == node(sconj(a), sconj(b))
    assert sconj(Pow(a, 3)) == Pow(sconj(a), 3)
    assert sconj(Neg(a)) == Neg(sconj(a))


@_FAST
@given(e=exprs, z=points)
def test_differentiate_agrees_with_a_central_difference(e, z):
    h = 1e-5
    try:
        slope = evaluate(differentiate(e), z)
        ahead, behind = evaluate(e, z + h), evaluate(e, z - h)
        above, below = evaluate(e, z + 1j * h), evaluate(e, z - 1j * h)
    except EvalError:
        return
    values = (slope, ahead, behind, above, below)
    if not all(cmath.isfinite(v) for v in values) or max(map(abs, values)) > 1e6:
        return
    along = (ahead - behind) / (2 * h)
    across = (above - below) / (2j * h)
    if abs(along - across) > 1e-4 * (1 + abs(along)):
        return  # a branch cut passes between the samples
    assert abs(along - slope) <= 1e-5 * (1 + abs(slope)), (format_expr(e), z, slope, along)


@_PAIRS
@given(e=exprs, w=exprs, z=points)
def test_substitute_agrees_with_composition(e, w, z):
    try:
        inner = evaluate(w, z)
        want = evaluate(e, inner)
    except EvalError:
        return
    if not (cmath.isfinite(inner) and cmath.isfinite(want)):
        return
    got = evaluate(substitute(e, w), z)
    assert abs(got - want) <= 1e-12 * max(_scale(e, inner), _scale(w, z)), (format_expr(e), format_expr(w), z)
