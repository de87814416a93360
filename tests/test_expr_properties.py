"""Property tests for the expression language on generated trees and points.

The generator builds canonical trees, as parse and the constructors do: a
negation never wraps a constant (the parser folds those), and constants are
real or i, the constants the printer writes as one literal.  One branch
applies ``sconj`` to a function call; that conjugates the constants below
it, so -i occurs as well, which the printer also writes as one literal.

The array kernel is held to the per-node-guarded evaluator it replaced,
kept here as ``guarded_array``, on trees with infinite and zero constants
and at points that are zero, infinite, NaN or near the ends of the range.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixtures import (
    bracket_depth,
    catenoid_extension_fixture,
    lightlike_fixture,
    spacelike_fixture,
    timelike_fixture,
    tree_height,
)
from maxsurf import expr, extension
from maxsurf.expr import (
    _FUNCTIONS,
    _OPERATOR_SYNTAX,
    _P_ATOM,
    _P_NEG,
    _P_POW,
    _REBUILD,
    Add,
    _NormalForm,
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
from maxsurf.minkowski import CausalClass, LVector
from maxsurf.weierstrass import Domain, DomainKind, WeierstrassData

FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh", "tanh", "sqrt")


def _neg(e):
    return Const(-e.value) if isinstance(e, Const) else Neg(e)


def _tree(children, exponents=st.integers(-3, 3)):
    pair = st.tuples(children, children)
    return st.one_of(
        children.map(_neg),
        pair.map(lambda t: Add(*t)),
        pair.map(lambda t: Sub(*t)),
        pair.map(lambda t: Mul(*t)),
        pair.map(lambda t: Div(*t)),
        st.tuples(children, exponents).map(lambda t: Pow(*t)),
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
# the array kernel against the per-node-guarded evaluator it replaced

_ARITHMETIC = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide}


def _nan_unless_finite(x):
    return np.where(np.isfinite(x), x, np.nan)


@np.errstate(all="ignore")
def guarded_array(e, z):
    """The array evaluator as it was: every computed node except a negation replaces its non-finite
    elements by NaN, each constant is a full array, and z and constants are used as given."""
    if isinstance(e, Const):
        return np.full(z.shape, e.value)
    if isinstance(e, Var):
        return z
    if isinstance(e, Neg):
        return -guarded_array(e.arg, z)
    if isinstance(e, Pow):
        base = guarded_array(e.base, z)
        if e.exponent == 0:
            return np.where(np.isfinite(base), 1 + 0j, np.nan)
        return _nan_unless_finite(base**e.exponent)
    if isinstance(e, Call):
        return _nan_unless_finite(_FUNCTIONS[e.func].array(guarded_array(e.arg, z)))
    return _nan_unless_finite(_ARITHMETIC[type(e)](guarded_array(e.left, z), guarded_array(e.right, z)))


def _assert_as_guarded(got, want, label):
    finite = np.isfinite(want)
    assert (np.isfinite(got) == finite).all() and (np.isnan(got) == np.isnan(want)).all(), (label, got, want)
    assert got[finite].tobytes() == want[finite].tobytes(), (label, got, want)  # bit for bit, signed zeros too


_INF = math.inf
# every kind of constant: infinite (a tree may hold one, though parse refuses 1e999), zero of both signs,
# tiny, huge and plain
_kernel_leaf = st.one_of(
    st.just(Var()), st.sampled_from([0.5, -1.5, 1j, 0.0, -0.0, _INF, -_INF, 1e-300, 1e300]).map(Const)
)
_kernel_exponents = st.sampled_from([-150, -2, -1, 0, 1, 2, 3, 150])
kernel_exprs = st.recursive(_kernel_leaf, lambda c: _tree(c, _kernel_exponents), max_leaves=6)
_kernel_points = st.lists(
    st.one_of(
        st.sampled_from([0j, complex(-0.0, -0.0), complex(_INF, 0), complex(-_INF, 0), complex(0, _INF),
                         complex(_INF, -_INF), complex(float("nan"), 0), complex(0, float("nan")), 1e300 + 0j,
                         -1e300j, 1e-300 + 0j, complex(-1e-300, 1e300), 1 + 0j]),
        points,
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(e=kernel_exprs, zs=_kernel_points)
def test_array_kernel_matches_the_per_node_guarded_evaluator(e, zs):
    z = np.array(zs)
    trees = [e, Div(Const(1), e), Call("exp", e), Call("exp", Neg(e))]  # Neg(e) is not canonical for a Const e
    for tree in trees:
        _assert_as_guarded(compile_array(tree)(z), guarded_array(tree, z), tree)
    # one pass over trees that share subtrees by identity, as f and f' do
    trees = [e, differentiate(e), Mul(e, differentiate(e))]
    for tree, got in zip(trees, compile_array(*trees)(z)):
        _assert_as_guarded(got, guarded_array(tree, z), tree)


def _copy(e):
    """A tree structurally equal to e that shares no node with it."""
    return expr._compile(e, {**_REBUILD, Const: lambda c: Const(c.value), Var: lambda v: Var()})


def _flip_zeros(e):
    """e with every zero part of a constant of the other sign: equal as a dataclass, apart in its bits."""
    flip = lambda x: -x if x == 0 else x  # noqa: E731
    flipped = lambda c: Const(complex(flip(c.value.real), flip(c.value.imag)))  # noqa: E731
    return expr._compile(e, {**_REBUILD, Const: flipped, Var: lambda v: Var()})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(e=kernel_exprs, zs=_kernel_points)
def test_value_numbering_keeps_each_tree_bit_for_bit(e, zs):
    # subtrees equal in structure but built apart are computed once; constants that differ only in the
    # sign of a zero are not, so log's two sides of its cut stay apart
    z = np.array(zs)
    trees = [e, _copy(e), _flip_zeros(e), Call("log", _copy(e)), Call("log", _flip_zeros(e)), Add(e, _copy(e)),
             Mul(_flip_zeros(e), Call("exp", _copy(e))), Div(Const(1), Sub(_copy(e), Const(-0.0)))]
    for tree, got in zip(trees, compile_array(*trees)(z)):
        alone = compile_array(tree)(z)
        assert got.tobytes() == alone.tobytes(), (tree, got, alone)
        _assert_as_guarded(got, guarded_array(tree, z), tree)


def test_log_of_constants_on_both_sides_of_its_cut_stays_apart():
    upper, lower = Call("log", Const(complex(-1, 0.0))), Call("log", Const(complex(-1, -0.0)))
    got = compile_array(Add(Var(), upper), Add(Var(), lower))(np.zeros(1, dtype=complex))
    assert (got[0][0], got[1][0]) == (math.pi * 1j, -math.pi * 1j)


def test_a_subexpression_written_twice_is_computed_once_per_run(monkeypatch):
    calls = []
    row = _FUNCTIONS["exp"]
    exp = row.array
    monkeypatch.setitem(expr._FUNCTIONS, "exp", row._replace(array=lambda x: calls.append(x) or exp(x)))
    run = compile_array(parse("exp(i*z)*(1-exp(i*z))"))
    z = np.array([0.1 + 0.2j, -0.3j, 2.5 + 0j])
    for runs in (1, 2):
        got = run(z)
        assert len(calls) == runs
    with np.errstate(all="ignore"):
        assert got.tobytes() == (exp(1j * z) * (1 - exp(1j * z))).tobytes()


def test_a_run_holds_only_the_registers_it_still_reads():
    # both sides' f and g of the timelike extension, its reflected formulas as check reads them back from
    # the emitted file, on one GK15 chunk of 512 panels; with every register alive to the end of the run the
    # peak was 6.41 MB, for 0.49 MB of outputs, and dropping each register after its last read holds 0.86 MB
    data, plane = timelike_fixture()
    ext = extension.extend(data, plane)
    run = compile_array(data.f, data.g, *(parse(format_expr(t)) for t in (ext.f_minus, ext.g_minus)))
    rng = np.random.default_rng(0)
    z = rng.uniform(-0.5, 0.5, (15, 512)) + 1j * rng.uniform(0.01, 0.5, (15, 512))
    run(z)
    tracemalloc.start()
    try:
        out = run(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(v.nbytes for v in out) == 4 * z.nbytes
    assert peak < 1.6e6, peak


@pytest.mark.parametrize(
    "tree,z,want",
    [
        (parse("exp(z)"), -_INF, 0j),  # z is used as given, not made NaN first
        (Div(Var(), Const(math.inf)), 1 + 0j, 0j),  # so is a constant denominator
        (parse("exp(-z)"), _INF, 0j),  # and the negation of either
        (Call("exp", Neg(Const(_INF))), 0j, 0j),
        (Div(Const(1), Mul(Var(), Const(math.inf))), 1 + 0j, None),  # a computed denominator that is not finite is NaN
        (Pow(Add(Var(), Const(math.inf)), -1), 1 + 0j, None),  # so is the base of a negative power
    ],
    ids=["exp-of-z-at-minus-inf", "z-over-a-constant-inf", "exp-of-minus-z", "exp-of-minus-a-constant-inf",
         "one-over-a-computed-inf", "a-computed-inf-to-the-minus-one"],
)
def test_array_leaves_are_used_as_given(tree, z, want):
    zs = np.array([z], dtype=complex)
    got = compile_array(tree)(zs)
    assert cmath.isnan(got[0]) if want is None else got[0] == want
    _assert_as_guarded(got, guarded_array(tree, zs), tree)


@pytest.mark.parametrize("fixture", [catenoid_extension_fixture, spacelike_fixture, timelike_fixture,
                                     lightlike_fixture], ids=lambda fx: fx.__name__)
def test_matching_gaps_are_those_of_the_per_tree_guarded_evaluator(fixture, monkeypatch):
    data, plane = fixture()
    ext = extension.extend(data, plane)
    gaps = extension._match_report(data, ext.minus).gaps
    trees = lambda side: (side.f, side.g, differentiate(side.f), differentiate(side.g))  # noqa: E731
    monkeypatch.setattr(WeierstrassData, "_fgd_array", property(lambda side: lambda z: [guarded_array(t, z) for t in trees(side)]))
    assert extension._match_report(data, ext.minus).gaps == gaps


# leaves that reach every fold of the derivative rules: the constants 0 and 1 of either sign, and
# negations that parsing would fold into a constant or that _neg unwraps
_folding_leaf = st.one_of(_leaf, st.sampled_from([Const(0), Const(-0.0), Const(1), Const(-1), Neg(Const(1)),
                                                   Neg(Const(-1)), Neg(Const(0)), Neg(Var()), Neg(Neg(Var()))]))
folding_exprs = st.recursive(_folding_leaf, _tree, max_leaves=6)
_EDGES = [complex(math.inf, 0), complex(0, -math.inf), complex(math.nan, 0), 1e200 + 1e200j, -0.0 + 0j, 0j]


@_PAIRS
@given(f=folding_exprs, g=folding_exprs, shared=st.booleans(), order=st.sampled_from(["values-first", "last"]),
       zs=st.lists(st.one_of(special, lattice, points, st.sampled_from(_EDGES)), min_size=1, max_size=6))
def test_the_patch_program_runs_are_compile_array_of_the_derivative_trees_bit_for_bit(f, g, shared, order, zs):
    # f may hold g by identity, as f_minus holds g_minus; the value run may be made last, as a prefix
    # of a program whose later steps read its registers
    f = Mul(f, g) if shared else f
    data = WeierstrassData(f, g, Domain(DomainKind.DISK), 0j, LVector(0, 0, 0))
    z = np.array(zs, dtype=complex)
    runs = {name: getattr(data, name) for name in
            {"values-first": ("fg_array", "_fgd_array"), "last": ("_fgd_array", "fg_array")}[order]}
    want = compile_array(f, g, differentiate(f), differentiate(g))(z)
    got = runs["_fgd_array"](z)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want], (format_expr(f), format_expr(g))
    assert [v.tobytes() for v in runs["fg_array"](z)] == [v.tobytes() for v in want[:2]]


# ---------------------------------------------------------------------------
# the passes of the one tree walk against the recursions they replaced, kept here as references


def _map_leaves(e, leaf):
    """The tree e with every Const and Var node x replaced by leaf(x)."""
    if isinstance(e, (Const, Var)):
        return leaf(e)
    if isinstance(e, Neg):
        return Neg(_map_leaves(e.arg, leaf))
    if isinstance(e, Call):
        return Call(e.func, _map_leaves(e.arg, leaf))
    if isinstance(e, Pow):
        return Pow(_map_leaves(e.base, leaf), e.exponent)
    return type(e)(_map_leaves(e.left, leaf), _map_leaves(e.right, leaf))


def _fmt(e):
    """(text, precedence) of e, printed by recursion."""
    if isinstance(e, Const):
        return expr._fmt_const(e.value)
    if isinstance(e, Var):
        return "z", _P_ATOM
    if isinstance(e, Neg):
        s, p = _fmt(e.arg)
        return f"-({s})" if p < _P_NEG else f"-{s}", _P_NEG
    if isinstance(e, Pow):
        bs, bp = _fmt(e.base)
        return f"({bs})^{e.exponent}" if bp < _P_ATOM else f"{bs}^{e.exponent}", _P_POW
    if isinstance(e, Call):
        return f"{e.func}({_fmt(e.arg)[0]})", _P_ATOM
    op, prec = _OPERATOR_SYNTAX[type(e)]
    (ls, lp), (rs, rp) = _fmt(e.left), _fmt(e.right)
    return f"{f'({ls})' if lp < prec else ls}{op}{f'({rs})' if rp <= prec else rs}", prec


_OUTER_FACTORS = {  # each function's derivative as a tree in its argument a
    "exp": lambda a: Call("exp", a),
    "log": lambda a: Div(Const(1), a),
    "sin": lambda a: Call("cos", a),
    "cos": lambda a: expr._neg(Call("sin", a)),
    "sinh": lambda a: Call("cosh", a),
    "cosh": lambda a: Call("sinh", a),
    "tanh": lambda a: expr._sub(Const(1), Pow(Call("tanh", a), 2)),
    "sqrt": lambda a: Div(Const(0.5), Call("sqrt", a)),
}


def _derivative(e, memo):
    """The derivative of e by recursion, with an identity memo of every node, leaves too."""
    out = memo.get(id(e))
    if out is not None:
        return out
    add, sub, mul, div = expr._add, expr._sub, expr._mul, expr._div
    if isinstance(e, Const):
        out = Const(0)
    elif isinstance(e, Var):
        out = Const(1)
    elif isinstance(e, Neg):
        out = expr._neg(_derivative(e.arg, memo))
    elif isinstance(e, (Add, Sub)):
        out = (add if isinstance(e, Add) else sub)(_derivative(e.left, memo), _derivative(e.right, memo))
    elif isinstance(e, Mul):
        a, b = e.left, e.right
        out = add(mul(_derivative(a, memo), b), mul(a, _derivative(b, memo)))
    elif isinstance(e, Div):
        a, b = e.left, e.right
        out = div(sub(mul(_derivative(a, memo), b), mul(a, _derivative(b, memo))), Pow(b, 2))
    elif isinstance(e, Pow):
        n = e.exponent
        out = Const(0) if n == 0 else mul(mul(Const(n), expr._pow(e.base, n - 1)), _derivative(e.base, memo))
    else:
        out = mul(_OUTER_FACTORS[e.func](e.arg), _derivative(e.arg, memo))
    memo[id(e)] = out
    return out


def _at_leaves(e, out):
    """The nodes of out, a tree built from e, where e has its z leaves."""
    if isinstance(e, Var):
        yield out
    for name in ("arg", "left", "right", "base"):
        if hasattr(e, name):
            yield from _at_leaves(getattr(e, name), getattr(out, name))


@_PAIRS
@given(e=st.one_of(exprs, kernel_exprs), w=exprs)
def test_each_pass_of_the_walk_equals_its_recursive_reference(e, w):
    conj = lambda leaf: Const(leaf.value.conjugate()) if isinstance(leaf, Const) else leaf  # noqa: E731
    assert format_expr(e) == _fmt(e)[0]
    passes = [(differentiate(e), _derivative(e, {})), (sconj(e), _map_leaves(e, conj)),
              (substitute(e, w), _map_leaves(e, lambda leaf: w if isinstance(leaf, Var) else leaf))]
    for got, want in passes:
        assert got == want, (format_expr(e), format_expr(w))
        assert format_expr(got) == _fmt(want)[0]
    assert all(node is w for node in _at_leaves(e, substitute(e, w)))


@pytest.mark.parametrize("fixture, shared", [(timelike_fixture, None), (lightlike_fixture, "1-i*exp(-i*z)")],
                         ids=["timelike_fixture", "lightlike_fixture"])
def test_the_derivative_of_f_minus_holds_that_of_g_minus(fixture, shared):
    # _match_report differentiates f_minus, then g_minus, with one memo, so f_minus' holds the derivative of
    # each subtree that f_minus holds of g_minus.  Across a timelike plane f_minus holds g_minus itself.
    # Across the lightlike fixture's plane (lam = -2) g_minus is -0.5*X/Y, and the normal form writes the
    # recovery's 1 - g_minus as the new product 1 + 0.5*X/Y, so the largest subtree they share is X
    data, plane = fixture()
    ext = extension.extend(data, plane)
    core = ext.g_minus if shared is None else next(t for t in _subtrees(ext.g_minus) if format_expr(t) == shared)
    assert any(t is core for t in _subtrees(ext.f_minus))
    assert (shared is None) == any(t is ext.g_minus for t in _subtrees(ext.f_minus))
    memo = {}
    df = expr._derivative(ext.f_minus, memo)
    dg = expr._derivative(ext.g_minus, memo)
    dcore = expr._derivative(core, memo)
    assert any(t is dcore for t in _subtrees(df)) and any(t is dcore for t in _subtrees(dg))
    assert df == _derivative(ext.f_minus, {}) and dg == _derivative(ext.g_minus, {})


@pytest.mark.parametrize("run", [format_expr, differentiate, sconj, lambda e: substitute(e, Var())],
                         ids=["format_expr", "differentiate", "sconj", "substitute"])
def test_a_node_of_no_expr_type_is_refused(run):
    with pytest.raises(TypeError, match="^not an Expr node: "):
        run(Add(Var(), object()))
    with pytest.raises(TypeError, match="^not an Expr node: "):
        run(object())


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


# ---------------------------------------------------------------------------
# the normal form extend writes the reflected formulas in


def _nodes(e):
    return sum(1 for _ in _subtrees(e))


# products of repeated factors, so that exponents add up and cancel: z/z, exp(z)^2/exp(z)
_factors = st.sampled_from([Var(), Call("exp", Var()), Add(Var(), Const(2.0))])
_normal_exprs = st.recursive(st.one_of(_leaf, _factors), _tree, max_leaves=10)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(e=st.one_of(exprs, _normal_exprs), zs=st.lists(st.one_of(special, lattice, points), min_size=1, max_size=4))
def test_normal_form_agrees_with_its_input_and_is_a_fixed_point(e, zs):
    # A factor whose exponents cancel goes, with its singularity: z/z is 1 at z = 0, where the input
    # divides by zero.  So only the input's faults bound the normal form's: where the input evaluates,
    # the normal form does too, within 1e-13 of the input's largest subexpression value.
    n = _NormalForm()(e)
    assert _NormalForm()(n) == n, (format_expr(e), format_expr(n))
    # on a tree as a config reads it, the printed normal form evaluates as the normal form does
    read = _NormalForm()(parse(format_expr(e)))
    printed = parse(format_expr(read))
    assert _nodes(n) <= _nodes(e), (format_expr(e), format_expr(n))
    for z in zs:
        try:
            want = evaluate(e, z)
        except EvalError:
            continue
        got = evaluate(n, z)  # an EvalError here is a fault the input does not have
        if cmath.isfinite(want) and z.real and z.imag:  # off the axes, no part of a value is a signed zero
            assert abs(got - want) <= 1e-13 * _scale(e, z), (format_expr(e), format_expr(n), z, got, want)
            assert abs(evaluate(printed, z) - evaluate(read, z)) <= 1e-13 * _scale(e, z), (format_expr(read), z)


def test_a_function_of_a_constant_that_would_not_read_back_folds():
    # parse reads log(-1) as log(-1-0j) = -pi*i, and sconj turns it into log(-1+0j) = pi*i, whose
    # constant prints as -1 and so reads back on the other side of log's cut; pi*i reads back
    e = sconj(parse("log(-1)"))
    n = _NormalForm()(e)
    assert n == Const(evaluate(e, 0j)) and evaluate(parse(format_expr(n)), 0j) == evaluate(e, 0j) == math.pi * 1j
    assert format_expr(_NormalForm()(parse("log(-1)"))) == "log(-1)"  # reads back, and prints shorter than -pi*i


def test_a_constant_whose_reciprocal_squared_overflows_stays_a_factor():
    # 0.5*z is z/2, but z/4.710607496712135e+195 would make the quotient rule square its divisor to inf
    assert format_expr(_NormalForm()(parse("1+-0.5*z^2"))) == "1-z^2/2"
    n = _NormalForm()(parse("1+-2.1228684425479528e-196*z^2"))
    assert format_expr(n) == "1-2.1228684425479528e-196*z^2"
    assert evaluate(differentiate(n), 0.3 + 0.2j) == evaluate(differentiate(parse("-2.1228684425479528e-196*z^2")),
                                                              0.3 + 0.2j)


# ---------------------------------------------------------------------------
# the normal form of the reflected formulas: a constant term of a sum is written as it reads back

_real_leaf = st.one_of(st.just(Var()), st.sampled_from([0.5, 2.0, -1.5, 3.0]).map(Const))
real_exprs = st.recursive(_real_leaf, _tree, max_leaves=5)


def _factors(e):
    """The factors above and below the line of a product chain, constants left out."""
    t = type(e)
    if t is Const:
        return [], []
    if t is Neg:
        return _factors(e.arg)
    if t is Mul or t is Div:
        (la, lb), (ra, rb) = _factors(e.left), _factors(e.right)
        return (la + ra, lb + rb) if t is Mul else (la + rb, lb + ra)
    if t is Pow:
        return ([e.base], []) if e.exponent > 0 else ([], [e.base])
    return [e], []


@_PAIRS
@given(f=real_exprs, g=real_exprs)
def test_no_factor_of_a_reflected_quotient_stays_above_and_below_the_line(f, g):
    # with real coefficients the orthogonal timelike row gives g_minus = sconj(g) and f_minus =
    # 2*L_minus/(i*(1-g_minus^2)), whose L_minus = -sconj(phi2) holds 1-sconj(g)^2 with the 1-0j of sconj:
    # the two sums are one factor, and the normal form cancels it, as it does (1-z^2)/(1-z^2)
    for e in (f, g):
        try:
            evaluate(e, 0.3 + 0.2j)
        except EvalError:
            return  # a constant subtree that faults keeps its product as one opaque factor
    arc, case = extension.CircleOrLine(0.0, 1j, 0.0), extension.CASES[CausalClass.TIMELIKE]
    g_minus = extension.reflect_g(g, case.locus(0.0, 1, [0j])[0], arc)
    normal = _NormalForm()  # one memo, as extend's
    normal(g_minus)
    above, below = _factors(normal(case.recover(arc.pullback(case.odd(f, g)), g_minus)))
    both = {format_expr(x) for x in above} & {format_expr(x) for x in below}
    assert not both, (format_expr(f), format_expr(g), both)


@pytest.mark.parametrize("text", ["log(-2+z)", "log(-2-z)", "log(z-2)", "log(-2-z^2)", "sqrt(-2-z)", "log(-2+0.5*z)"])
def test_a_constant_term_on_a_branch_cut_evaluates_as_the_written_form(text):
    # sconj makes -2 = -(2+0j) into -2+0j, which prints as -2 and reads back as -2-0j; on the cut the two
    # lie apart (log by 2*pi*i).  A tree as a config reads it evaluates as before, and the one sconj
    # builds evaluates as the text the normal form writes, on both signs of zero
    cut = [complex(x, s) for x in (-1.0, -0.5, 0.5, 1.0) for s in (0.0, -0.0)]
    read = parse(text)
    for e in (read, sconj(read)):
        n = _NormalForm()(e)
        written = parse(format_expr(n))
        assert [repr(evaluate(n, z)) for z in cut] == [repr(evaluate(written, z)) for z in cut]
        if e is read:
            assert [repr(evaluate(n, z)) for z in cut] == [repr(evaluate(e, z)) for z in cut]


# constants of any kind, as the normal form writes them, and negations of constants, which parse folds
_written_leaf = st.one_of(
    st.just(Var()), st.sampled_from([0.5, -1.5, 1j, -1j, 2.5j, -0.5j, 1 - 1j, -2 + 0.25j, 0.5 + 2j]).map(Const)
)
_written = st.recursive(_written_leaf, lambda c: st.one_of(_tree(c), c.map(Neg)), max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(e=_written)
def test_a_printed_formula_has_an_operator_character_per_nested_operation_and_open_bracket(e):
    # the rule by which extend's read-back check parses only a text with more of them than the parser's bounds
    text = format_expr(e)
    count = sum(map(text.count, "+-*/^("))
    assert tree_height(parse(text)) <= count and bracket_depth(text) <= count
