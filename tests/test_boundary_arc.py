"""The boundary arc as one generalized circle, held to the closed forms of the two arcs it replaces: the real
diameter, reflected by conj(z), and the circle |z| = rho, inverted by rho^2/conj(z).  The reference functions
below are those closed forms as the arc once spelled them out, one branch per shape."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from maxsurf.expr import Call, Const, Div, Mul, Neg, Pow, Sub, Var, _NormalForm, format_expr, sconj, substitute
from maxsurf.extension import CASES, CircleOrLine, reflect_g
from maxsurf.minkowski import CausalClass

SEGMENT = CircleOrLine(0.0, 1j, 0.0)


def circle(rho: float) -> CircleOrLine:
    return CircleOrLine(1.0, 0j, -rho * rho)


# ---------------------------------------------------------------------------
# the closed forms: rho is None on the diameter

def ref_mirror(rho, z: complex) -> complex:
    if rho is None:
        return z.conjugate()
    if z == 0:
        return complex(math.inf)
    return rho * rho / z.conjugate()


def ref_mirror_array(rho, z: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return z.conj() if rho is None else rho * rho / z.conj()


def ref_side(rho, z):
    return z.imag >= 0 if rho is None else np.hypot(z.real, z.imag) >= rho


def ref_crossings(rho, a: complex, b: complex) -> list[complex]:
    d = b - a
    if rho is None:
        crosses = (a.imag > 0) != (b.imag > 0) and a.imag != b.imag
        ts = [a.imag / (a.imag - b.imag)] if crosses else []
    else:
        aa = (d * d.conjugate()).real
        bb = 2 * (a * d.conjugate()).real
        cc = (a * a.conjugate()).real - rho * rho
        disc = bb * bb - 4 * aa * cc
        if aa == 0 or disc <= 0:
            ts = []
        else:
            root = math.sqrt(disc)
            ts = [(-bb - root) / (2 * aa), (-bb + root) / (2 * aa)]
    return [a + t * d for t in ts if 1e-12 < t < 1 - 1e-12]


def ref_conj(rho, e):
    return sconj(e) if rho is None else substitute(sconj(e), Div(Const(rho * rho), Var()))


def ref_pullback(rho, L):
    return Neg(sconj(L)) if rho is None else Mul(ref_conj(rho, L), Div(Const(rho * rho), Pow(Var(), 2)))


def _arc(rho):
    return SEGMENT if rho is None else circle(rho)


def _bits(points) -> list[tuple[str, str]]:
    return [(complex(w).real.hex(), complex(w).imag.hex()) for w in points]


# ---------------------------------------------------------------------------
# draws: radii, and coordinates from round-off size to 1e200, where |d|^2 overflows

radii = st.one_of(st.none(), st.floats(1e-3, 1e3))
_scales = st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e154, 1e200])
coordinates = st.one_of(
    st.floats(-2, 2),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.tuples(st.floats(-1, 1), _scales).map(lambda t: t[0] * t[1]),
)
numbers = st.builds(complex, coordinates, coordinates)
_ARRAY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _same(got, want) -> bool:
    """Equal values, NaN where the other is NaN; signs of zero may differ."""
    return all(g == w or (g != g and w != w) for g, w in zip(np.ravel(got).tolist(), np.ravel(want).tolist()))


@_ARRAY
@given(rho=radii, zs=st.lists(numbers, min_size=1, max_size=20))
@example(rho=0.5, zs=[0j, -0j, complex(-0.0, 0.0)])
def test_the_point_reflection_is_the_closed_form_on_numbers_and_arrays(rho, zs):
    arc = _arc(rho)
    assert _same([arc.mirror(z) for z in zs], [ref_mirror(rho, z) for z in zs])
    z = np.array(zs)
    got, want = arc.mirror(z), ref_mirror_array(rho, z)
    assert got.shape == want.shape and _same(got.real, want.real) and _same(got.imag, want.imag)


def test_the_centre_maps_to_infinity_and_is_the_pole_0j():
    arc = circle(0.5)
    assert arc.mirror(0j) == complex(math.inf) and arc.mirror(complex(-0.0, -0.0)) == complex(math.inf)
    (pole,) = arc.poles
    assert _bits([pole]) == _bits([0j])  # not -0j
    assert SEGMENT.poles == ()


@_ARRAY
@given(rho=radii, a=numbers, b=numbers)
@example(rho=None, a=complex(1e200, 1e200), b=complex(-1e200, -1e200))  # |d|^2 overflows: 0 * inf on a line
@example(rho=None, a=complex(3e199, -1e200), b=complex(-2e200, 7e199))
@example(rho=0.5, a=complex(-1e200, 0.1), b=complex(1e200, -0.2))
def test_crossings_are_the_closed_forms_bit_for_bit(rho, a, b):
    assert _bits(_arc(rho).crossings(a, b)) == _bits(ref_crossings(rho, a, b))


@_ARRAY
@given(rho=radii, zs=st.lists(numbers, min_size=1, max_size=20))
def test_the_side_test_is_the_closed_form_off_the_arc(rho, zs):
    # everywhere on the diameter; about a circle, outside a band of 1e-15 relative, inside which the signs of
    # |z|^2 - rho^2 and hypot(z) - rho may part
    arc = _arc(rho)
    off = [rho is None or abs(abs(z) - rho) > 1e-15 * rho for z in zs]
    z = np.array(zs)
    numbers_got, numbers_want = [bool(arc.on_original_side(w)) for w in zs], [bool(ref_side(rho, w)) for w in zs]
    arrays_got, arrays_want = arc.on_original_side(z).tolist(), ref_side(rho, z).tolist()
    for k, keep in enumerate(off):
        if keep:
            assert numbers_got[k] == numbers_want[k] and arrays_got[k] == arrays_want[k], zs[k]
    assert numbers_got == arrays_got  # one formula for numbers and arrays


# ---------------------------------------------------------------------------
# extend's builders print the same reflected formulas

_FUNCTIONS = ("exp", "log", "sin", "cosh", "sqrt")
_leaf = st.one_of(st.just(Var()), st.sampled_from([0.5, 2.0, -1.5, 1j, 0.25 - 2j]).map(Const))


def _tree(children):
    pair = st.tuples(children, children)
    return st.one_of(
        children.map(Neg),
        pair.map(lambda t: Sub(*t)),
        pair.map(lambda t: Mul(*t)),
        pair.map(lambda t: Div(*t)),
        st.tuples(children, st.integers(-3, 3)).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(_FUNCTIONS), children).map(lambda t: Call(*t)),
    )


formulas = st.recursive(_leaf, _tree, max_leaves=5)
_LOCI = {  # a locus of each row
    CausalClass.SPACELIKE: CircleOrLine(1.0, 0j, -0.25),
    CausalClass.TIMELIKE: CircleOrLine(0.75, 1j, -0.75),
    CausalClass.LIGHTLIKE: CircleOrLine(-0.5, 1 + 0j, -1.5),
}
_ROWS = [(kind, None) for kind in _LOCI] + [(CausalClass.SPACELIKE, math.exp(-0.7))]


def _printed(f, g, kind, conj, pullback):
    """(f_minus, g_minus) as extend prints them, from a conjugation and a pull-back of the arc."""
    case, locus = CASES[kind], _LOCI[kind]
    g_minus = locus.reflect(conj(g))
    f_minus = case.recover(pullback(case.odd(f, g)), g_minus)
    normal = _NormalForm()
    return format_expr(normal(f_minus)), format_expr(normal(g_minus))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(f=formulas, g=formulas, row=st.sampled_from(_ROWS))
def test_extend_prints_the_formulas_of_the_closed_forms(f, g, row):
    kind, rho = row
    arc = _arc(rho)
    assert reflect_g(g, _LOCI[kind], arc) == _LOCI[kind].reflect(arc.conj(g))
    got = _printed(f, g, kind, arc.conj, arc.pullback)
    assert got == _printed(f, g, kind, lambda e: ref_conj(rho, e), lambda L: ref_pullback(rho, L))
