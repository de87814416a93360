import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixtures import (
    SCONJ_FORMULAS,
    UNREDUCED_FORMULAS,
    bench_configs,
    catenoid_extension_fixture,
    lightlike_fixture,
    lightlike_tangent_fixture,
    patch_of_g,
    quadrature_constants,
    spacelike_fixture,
    timelike_fixture,
)
from maxsurf import expr, extension, weierstrass
from maxsurf.cli import SurfaceConfig
from maxsurf.expr import Const, Div, EvalError, Pow, Var, compile_array, compile_fn, evaluate, format_expr, parse, sconj
from maxsurf.extension import (
    ANGLE_TOL,
    CASES,
    CircleOrLine,
    DegenerateContactWarning,
    ExtendedSurface,
    GeometryMismatchError,
    LOCUS_TOL,
    HypothesisViolationError,
    SingularReconstructionError,
    _check_reconstruction_singular,
    boundary_samples,
    extend,
    measure_contact,
    reflect_g,
)
from maxsurf.minkowski import CausalClass, LVector, Plane
from maxsurf.weierstrass import (
    CLEARANCE,
    Domain,
    DomainKind,
    PathError,
    QuadratureConfig,
    ToleranceError,
    WeierstrassData,
    _build_path,
    evaluate_surface,
    surface_path,
)


DIAMETER = CircleOrLine(0.0, 1j, 0.0)  # the real diameter as the boundary arc, 2 Im z = 0


def minus_points(n=50, radius=0.6, seed=0):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, -0.01))
        if abs(z) < radius:
            pts.append(z)
    return pts


# ---------------------------------------------------------------------------
# the Gauss locus

def test_distance_from_a_line_and_a_circle():
    line = CircleOrLine(0.0, 1 + 0j, -2.0)  # 2 Re w - 2 = 0: the line Re w = 1
    assert line.distance(1 + 5j) < 1e-12
    assert abs(line.distance(3 + 0j) - 2) < 1e-12
    assert line.radius == math.inf and line.mismatch(3 + 0j) == 2 / 4  # the scale 1 + |w|
    circle = CircleOrLine(1.0, -1j, -3.0)  # |w - i|^2 = 4
    assert abs(circle.distance(1j + 2.5) - 0.5) < 1e-15 and circle.distance(1j - 2) < 1e-15
    assert circle.radius == 2 and circle.mismatch(1j + 2.5) == circle.distance(1j + 2.5) / 3  # 1 + min(|w|, 2)
    # the timelike circle of c = 1e-12, of radius about 1e12, is the line Im w = 0 to within 1e-12 about 0
    for w in (0.3 + 0.2j, -0.5 - 0.1j):
        assert abs(CircleOrLine(1e-12, 1j, -1e-12).distance(w) - abs(w.imag)) < 1e-12


def test_locus_mismatch_metric():
    # the largest distance of a boundary limit of g from the row's closed-form locus
    for data, plane in (spacelike_fixture(), timelike_fixture(), lightlike_fixture()):
        contact = measure_contact(data, plane)
        g_limits = extension._boundary_limits(data, contact.unit_normal)[3]
        assert contact.locus_mismatch == max(contact.locus.mismatch(g) for g in g_limits)
        assert contact.locus_mismatch < 1e-13


# ---------------------------------------------------------------------------
# contact measurement

def test_measure_contact_spacelike_fixture():
    data, plane = spacelike_fixture()
    c = measure_contact(data, plane)
    assert c.plane_kind is CausalClass.SPACELIKE
    assert abs(c.c + 5 / 3) < 1e-8
    assert c.deviation < 1e-8
    assert c.sheet == 1
    assert (c.locus.a, c.locus.b) == (1, 0)  # a circle about 0
    assert abs(c.locus.radius - 0.5) < 1e-9
    # cosh(theta) = 5/3 forces tanh(theta/2) = 1/2 on the upper sheet
    assert abs(math.cosh(c.theta) - 5 / 3) < 1e-8
    assert abs(math.tanh(c.theta / 2) - 0.5) < 1e-8
    assert c.locus_mismatch < 1e-6


def test_measure_contact_timelike_fixture():
    data, plane = timelike_fixture()
    c = measure_contact(data, plane)
    assert c.plane_kind is CausalClass.TIMELIKE
    assert abs(c.c - 1.0) < 1e-6
    assert abs(c.lam - 1.0) < 1e-6
    assert c.locus == CircleOrLine(c.c, 1j, -c.c)  # about -i/c
    assert abs(c.locus.radius - math.sqrt(2)) < 1e-6


def test_measure_contact_lightlike_fixture():
    data, plane = lightlike_fixture()
    c = measure_contact(data, plane)
    assert c.plane_kind is CausalClass.LIGHTLIKE
    assert abs(c.c + 1.0) < 1e-7
    assert abs(c.lam + 2.0) < 1e-7
    assert c.locus == CircleOrLine(c.lam, 1 + 0j, -c.lam - 2)  # about -1/lam
    assert abs(c.locus.radius - 0.5) < 1e-7


def test_measure_contact_lightlike_tangent_fixture():
    data, plane = lightlike_tangent_fixture()
    c = measure_contact(data, plane)
    assert abs(c.lam) < 1e-14 and c.lam == c.c - 1  # measured, not rounded to 0
    assert c.sheet == -1
    assert c.locus == CircleOrLine(c.lam, 1 + 0j, -c.lam - 2)  # the line Re w = 1 to round-off
    assert c.locus.radius > 1e14 and c.locus.distance(1 + 1j) < 1e-14


def test_a_lower_sheet_contact_at_c_1_is_refused():
    # |g| = 1e10 on the arc: c = (1 + |g|^2)/(|g|^2 - 1) rounds to 1, so theta = 0 and the locus radius
    # coth(theta/2) of the lower sheet is infinite
    data = WeierstrassData(parse("exp(-i*z)"), parse("1e10*exp(i*z)"), Domain(DomainKind.HALF_DISK, radius=0.7),
                           0.5j, LVector(0, 0, 0))
    with pytest.raises(GeometryMismatchError, match=r"^\|<N,n>\| = 1.000000 on the lower sheet puts the Gauss locus "
                                                    r"at \|g\| = infinity$"):
        measure_contact(data, Plane(LVector(0, 0, 1), 0.3))


def test_measure_contact_catenoid_circle():
    data, plane = catenoid_extension_fixture(b=-0.7)
    rho = math.exp(-0.7)
    c = measure_contact(data, plane)
    assert c.boundary == CircleOrLine(1.0, 0j, -rho * rho)
    assert abs(c.c + (1 + rho**2) / (1 - rho**2)) < 1e-9
    assert c.deviation < 1e-8
    assert abs(c.locus.radius - rho) < 1e-12
    assert (c.locus.a, c.locus.b) == (1, 0)
    assert abs(math.tanh(c.theta / 2) - rho) < 1e-9


def test_orthogonal_contact_is_the_timelike_line():
    # g real on the axis makes <N, (0,1,0)> = 0 on the arc: the timelike locus of that c is the line
    # Im w = 0, through which g reflects to conj(g) itself
    dom = Domain(DomainKind.HALF_DISK, radius=0.7)
    data = WeierstrassData(parse("1"), parse("0.3*cos(z)"), dom, 0.5j, LVector(0, 0, 0))
    c = measure_contact(data, Plane(LVector(0, 1, 0), 0.22552898657150722))
    assert c.c == 0 and c.lam is None and c.theta is None
    assert c.locus == CircleOrLine(c.c, 1j, -c.c) and c.locus_mismatch < 1e-15
    conj_g = compile_fn(c.boundary.conj(data.g))
    g_minus = compile_fn(reflect_g(data.g, c.locus, c.boundary))
    assert all(abs(g_minus(z) - conj_g(z)) < 1e-15 for z in minus_points(10, radius=0.7))
    line = CASES[CausalClass.TIMELIKE].locus(0.0, 1, [])
    assert line == (CircleOrLine(0.0, 1j, -0.0), None, None)
    assert format_expr(reflect_g(data.g, line[0], c.boundary)) == format_expr(c.boundary.conj(data.g))


def _circle(center, radius, ts):
    return [center + radius * cmath.exp(1j * t) for t in ts]


_R_SPACELIKE = math.tanh(math.acosh(5 / 3) / 2)
_T9 = np.linspace(-0.5, 0.5, 9)
LOCI = {  # row: (plane normal, c, boundary limits of g on its locus, the locus's unit normal at a limit)
    "spacelike": ((0, 0, 1), -5 / 3, _circle(0, _R_SPACELIKE, _T9 * 6), lambda g: g / abs(g)),
    "timelike": ((0, 1, 0), 1.0, _circle(-1j, math.sqrt(2), _T9 + math.pi / 2), lambda g: (g + 1j) / abs(g + 1j)),
    "timelike-line": ((0, 1, 0), 0.0, [complex(t) for t in _T9], lambda g: 1j),
    "lightlike": ((1, 0, 1), -1.0, _circle(0.5, 0.5, _T9 * 5 + math.pi), lambda g: (g - 0.5) / abs(g - 0.5)),
    "lightlike-line": ((1, 0, 1), 1.0, [1 + 1j * t for t in _T9 + 0.8], lambda g: 1 + 0j),
}


def _contact_from_limits(monkeypatch, normal, c, g_limits):
    """measure_contact on boundary limits given in place of the extrapolated ones."""
    limits = (DIAMETER, c, [c] * len(g_limits), list(g_limits))
    monkeypatch.setattr(extension, "_boundary_limits", lambda data, unit_n: limits)
    return measure_contact(spacelike_fixture()[0], Plane(LVector(*normal), 0.0))


@pytest.mark.parametrize("row", list(LOCI))
def test_a_boundary_limit_off_the_locus_is_refused_at_the_tolerance(monkeypatch, row):
    # two limits moved off the closed-form locus, to either side, each by a multiple of LOCUS_TOL times
    # its own scale 1 + min(|w|, R), R infinite for a line; the spacelike mean radius stays where it was
    normal, c, gs, unit = LOCI[row]
    radius = _contact_from_limits(monkeypatch, normal, c, gs).locus.radius

    def moved(k):
        out = list(gs)
        for j, side in ((3, k), (5, -k)):
            out[j] += side * LOCUS_TOL * (1 + min(abs(gs[j]), radius)) * unit(gs[j])
        return out

    mismatch = _contact_from_limits(monkeypatch, normal, c, moved(0.5)).locus_mismatch
    assert mismatch == pytest.approx(0.5 * LOCUS_TOL, rel=1e-5)
    with pytest.raises(GeometryMismatchError, match=rf"boundary g lies {re.escape(f'{2 * LOCUS_TOL:.3e}')} \(relative\) off generalized circle"):
        _contact_from_limits(monkeypatch, normal, c, moved(2))


def test_a_spacelike_radius_off_tanh_half_theta_is_refused_at_the_tolerance(monkeypatch):
    # every limit on a circle about 0 whose radius r gives (1 + r^2)/|1 - r^2|, the cosh(theta) of
    # tanh(theta/2), off |c| by a multiple of ANGLE_TOL
    normal, c, gs, _ = LOCI["spacelike"]

    def scaled(k):
        cosh = abs(c) + k * ANGLE_TOL
        return [g * (math.sqrt((cosh - 1) / (cosh + 1)) / _R_SPACELIKE) for g in gs]

    assert _contact_from_limits(monkeypatch, normal, c, scaled(0.5)).locus_mismatch < 1e-15
    message = re.escape("boundary |g| = 0.500000562 gives (1 + |g|^2)/|1 - |g|^2| = 1.666668667, "
                        "which misses |c| = 1.666666667")
    with pytest.raises(GeometryMismatchError, match=message):
        _contact_from_limits(monkeypatch, normal, c, scaled(2))


def test_a_nan_distance_from_the_locus_is_refused(monkeypatch):
    # an infinite limit on the line Re w = 1 is at a NaN distance from it
    normal, c, gs, _ = LOCI["lightlike-line"]
    with pytest.raises(GeometryMismatchError, match=r"boundary g lies nan \(relative\) off generalized circle"):
        _contact_from_limits(monkeypatch, normal, c, gs[:-1] + [complex(1, math.inf)])


@st.composite
def orthogonal_contacts(draw):
    """Data real on the real axis: g a real quadratic of a real Moebius map whose pole lies beyond
    |z| = 2, with |g| < 0.71 on the disk |z| < 0.7, and f a real quadratic without a zero there."""
    b, c = draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.5, 0.5))
    a0, a2 = draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1))
    a1 = draw(st.sampled_from((-1, 1))) * draw(st.floats(0.1, 0.3))
    f0, f1, f2 = draw(st.floats(0.7, 2.0)), draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
    m = f"((z+{b!r})/(1+{c!r}*z))"
    return parse(f"{f0!r}+{f1!r}*z+{f2!r}*z^2"), parse(f"{a0!r}+{a1!r}*{m}+{a2!r}*{m}^2")


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(fg=orthogonal_contacts(), zs=st.lists(st.tuples(st.floats(-0.45, 0.45), st.floats(0.02, 0.45)),
                                           min_size=2, max_size=2))
def test_an_orthogonal_contact_extends_to_its_mirror_image(fg, zs):
    # real data on the axis: the reflected formulas are f and g again, and X(conj z) mirrors X(z) in x2 = d
    f, g = fg
    dom = Domain(DomainKind.HALF_DISK, radius=0.7)
    data = WeierstrassData(f, g, dom, 0.5j, LVector(0, 0, 0))
    d = evaluate_surface(data, 0j).x2
    ext = extend(data, Plane(LVector(0, 1, 0), d))
    assert ext.contact.c == 0 and ext.contact.lam is None and ext.matching.passed
    assert format_expr(ext.g_minus) == format_expr(expr._NormalForm()(sconj(g)))
    formulas = [(compile_fn(e), compile_fn(minus)) for e, minus in ((f, ext.f_minus), (g, ext.g_minus))]
    for z in [complex(u, v) for u, v in zs]:
        for plus, minus in formulas:
            for w in (z, z.conjugate()):
                assert abs(minus(w) - plus(w)) <= 1e-13 * (1 + abs(plus(w)))
        X, Y = ext.evaluate(z), ext.evaluate(z.conjugate())
        scale = 1 + math.sqrt(X.x1 ** 2 + X.x2 ** 2 + X.x3 ** 2)
        assert max(abs(Y.x1 - X.x1), abs(Y.x2 - (2 * d - X.x2)), abs(Y.x3 - X.x3)) <= 1e-12 * scale


def test_varying_angle_rejected():
    dom = Domain(DomainKind.HALF_DISK, radius=0.9)
    data = WeierstrassData(parse("1"), parse("0.3+0.2*z"), dom, 0.5j, LVector(0, 0, 0))
    with pytest.raises(HypothesisViolationError):
        measure_contact(data, Plane(LVector(0, 0, 1), 0.0))


def test_misaligned_normal_rejected():
    data, _ = spacelike_fixture()
    with pytest.raises(GeometryMismatchError):
        measure_contact(data, Plane(LVector(0.1, 0, 1), 0.0))
    with pytest.raises(GeometryMismatchError):
        measure_contact(data, Plane(LVector(1, 0, -1), 0.0))  # wrong lightlike axis


def test_flipped_normal_orientation_is_canonicalized():
    data, plane = spacelike_fixture()
    flipped = Plane(LVector(0, 0, -2), -2 * plane.d)
    c1 = measure_contact(data, plane)
    c2 = measure_contact(data, flipped)
    assert abs(c1.c - c2.c) < 1e-10
    assert abs(c1.offset - c2.offset) < 1e-15


def test_degenerate_lightlike_contact_warns():
    # |g|^2 - 1 stays in (0.02, 0.05) along the arc: tangential contact
    # approaching the degenerate locus, still extrapolatable
    dom = Domain(DomainKind.HALF_DISK, radius=0.7)
    data = WeierstrassData(
        parse("i"), parse("1 + i*(0.18 + 0.05*z)"), dom, 0.5j, LVector(0, 0, 0)
    )
    with pytest.warns(DegenerateContactWarning):
        measure_contact(data, Plane(LVector(1, 0, 1), 0.0))


# ---------------------------------------------------------------------------
# the reflection formulas fix their locus and are involutive

def test_spacelike_reflection_fixes_circle_and_involutes():
    g, circle = parse("exp(i*z)/2"), CircleOrLine(1.0, 0j, -0.25)  # |w| = 1/2
    gm = reflect_g(g, circle, DIAMETER)
    assert gm == Div(Const(0.25), parse("exp(-i*z)/2"))  # r^2/conj(g)
    for u in np.linspace(-0.6, 0.6, 7):
        assert abs(abs(evaluate(gm, u)) - 0.5) < 1e-12
    g2 = reflect_g(gm, circle, DIAMETER)
    for z in minus_points(20):
        assert abs(evaluate(g2, z) - evaluate(g, z)) < 1e-12


def test_timelike_reflection_fixes_circle():
    g = parse("-i + sqrt(2)*i*exp(i*z)")
    gm = reflect_g(g, CircleOrLine(1.0, 1j, -1.0), DIAMETER)  # the timelike locus of c = 1
    for u in np.linspace(-0.5, 0.5, 7):
        w = evaluate(gm, u)
        assert abs(w.real**2 + (w.imag + 1) ** 2 - 2) < 1e-12


def test_lightlike_line_reflection_fixes_axis():
    g = parse("1 + i*(1 + z/4)")
    gm = reflect_g(g, CircleOrLine(0.0, 1 + 0j, -2.0), DIAMETER)  # lam = 0: Re w = 1, g to 2 - conj(g)
    assert format_expr(gm) == "2+-1*(1+-i*(1+z/4))"
    for u in np.linspace(-0.5, 0.5, 7):
        assert abs(evaluate(gm, u).real - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# full extensions on the self-symmetric fixtures

def check_self_symmetric(data, ext, tol=1e-7):
    for z in minus_points(60, radius=0.5 * data.domain.radius):
        assert abs(evaluate(ext.g_minus, z) - evaluate(data.g, z)) < tol
        assert abs(evaluate(ext.f_minus, z) - evaluate(data.f, z)) < tol


def test_extend_spacelike_fixture():
    data, plane = spacelike_fixture()
    ext = extend(data, plane)
    assert ext.reflected == "x3"
    assert ext.matching.passed
    assert ext.matching.max_gap < 1e-10
    check_self_symmetric(data, ext, tol=1e-8)
    # odd reflection of x3 about the plane level 1/4
    for z in (0.3 + 0.2j, -0.1 + 0.4j):
        a = ext.evaluate(z).x3 - 0.25
        b = ext.evaluate(z.conjugate()).x3 - 0.25
        assert abs(a + b) < 1e-8


def test_extend_spacelike_restricts_to_original():
    data, plane = spacelike_fixture()
    ext = extend(data, plane)
    from maxsurf.weierstrass import evaluate_surface

    for z in (0.2 + 0.3j, -0.4 + 0.1j):
        X = evaluate_surface(data, z)
        Xe = ext.evaluate(z)
        assert max(abs(a - b) for a, b in zip(X.as_tuple(), Xe.as_tuple())) < 1e-10


def test_extend_timelike_fixture():
    data, plane = timelike_fixture()
    ext = extend(data, plane)
    assert ext.reflected == "x2"
    assert ext.matching.passed
    assert ext.matching.max_gap < 1e-10
    check_self_symmetric(data, ext, tol=1e-10)
    d = plane.d
    for z in (0.2 + 0.2j, -0.3 + 0.15j):
        a = ext.evaluate(z).x2 - d
        b = ext.evaluate(z.conjugate()).x2 - d
        assert abs(a + b) < 1e-8


def test_extend_lightlike_fixture():
    data, plane = lightlike_fixture()
    ext = extend(data, plane)
    assert ext.reflected == "psi"
    assert ext.matching.passed
    check_self_symmetric(data, ext, tol=1e-7)
    for z in (0.2 + 0.2j, -0.3 + 0.15j):
        Xp = ext.evaluate(z)
        Xm = ext.evaluate(z.conjugate())
        a = (Xp.x1 - Xp.x3) + 0.125
        b = (Xm.x1 - Xm.x3) + 0.125
        assert abs(a + b) < 1e-7


def test_extend_lightlike_tangent_fixture():
    data, plane = lightlike_tangent_fixture()
    ext = extend(data, plane)
    assert ext.matching.max_gap < 1e-8
    check_self_symmetric(data, ext, tol=1e-8)


def test_half_plane_identity_for_lightlike_reconstruction():
    # phi1 - phi3 = f (1 - g)^2 / 2 is an algebraic identity of the triple
    from maxsurf.weierstrass import phi
    from fixtures import random_polynomial_data

    rng = np.random.default_rng(9)
    data = random_polynomial_data(rng)
    for _ in range(200):
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        p = phi(data, z)
        fv = evaluate(data.f, z)
        gv = evaluate(data.g, z)
        lhs = 0.5 * fv * (1 - gv) ** 2
        rhs = p.phi1 - p.phi3
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


# The reflected-side formulas are emitted into extended configs, so their
# text is pinned exactly.  extend writes them in normal form.
EMITTED_FORMULAS = [
    (
        spacelike_fixture,
        "i*exp(i*z)*exp(-i*z)^2",
        "0.5/exp(-i*z)",
    ),
    (
        timelike_fixture,
        "exp(i*z)*(1-(i-i*sqrt(2)*exp(-i*z))^2)/(1-((1.0000000000000004*i+(i-i*sqrt(2)*exp(-i*z)))/(1+1.0000000000000004*i*(i-i*sqrt(2)*exp(-i*z))))^2)",
        "(1.0000000000000004*i+(i-i*sqrt(2)*exp(-i*z)))/(1+1.0000000000000004*i*(i-i*sqrt(2)*exp(-i*z)))",
    ),
    (
        lightlike_fixture,
        "-exp(i*z)*(1-(1-i*exp(-i*z))/2)^2/(1+0.5*(1-i*exp(-i*z))/(1-(1-i*exp(-i*z))))^2",
        "-0.5*(1-i*exp(-i*z))/(1-(1-i*exp(-i*z)))",
    ),
    (
        lightlike_tangent_fixture,
        "i*(1-(1-i*(1+z/4)))^2/(1-(2-(1-i*(1+z/4))))^2",
        "2-(1-i*(1+z/4))",
    ),
    (
        catenoid_extension_fixture,
        "z^-2",
        "z",
    ),
]


@pytest.mark.parametrize(
    "fixture, f_minus, g_minus", EMITTED_FORMULAS, ids=[c[0].__name__ for c in EMITTED_FORMULAS]
)
def test_emitted_formulas_are_stable(fixture, f_minus, g_minus):
    ext = extend(*fixture())
    assert format_expr(ext.f_minus) == f_minus
    assert format_expr(ext.g_minus) == g_minus


def _nodes(e):
    return 1 + sum(_nodes(getattr(e, name)) for name in ("arg", "left", "right", "base") if hasattr(e, name))


def _unreduced(ext):
    """(f_minus, g_minus) as the case row and the locus's reflection build them, before the normal form."""
    data, case, arc = ext.original, ext.case, ext.contact.boundary
    g_minus = reflect_g(data.g, ext.contact.locus, arc)
    return case.recover(arc.pullback(case.odd(data.f, data.g)), g_minus), g_minus


@pytest.mark.parametrize("fixture", [c[0] for c in EMITTED_FORMULAS], ids=lambda fx: fx.__name__)
def test_emitted_formulas_are_no_longer_than_the_unreduced_ones(fixture):
    ext = extend(*fixture())
    for old, new in zip(map(format_expr, _unreduced(ext)), (ext.f_minus, ext.g_minus)):
        text = format_expr(new)
        assert len(text) <= len(old)
        assert _nodes(parse(text)) <= _nodes(parse(old)) and _nodes(new) <= _nodes(parse(old))


@pytest.mark.parametrize("fixture", [c[0] for c in EMITTED_FORMULAS], ids=lambda fx: fx.__name__)
def test_emitted_formulas_agree_with_the_unreduced_ones(fixture):
    # the normal form moves values at round-off only: within 1e-13 of the largest subexpression value
    from test_expr_properties import _scale

    ext = extend(*fixture())
    for old, new in zip(UNREDUCED_FORMULAS[fixture.__name__], (ext.f_minus, ext.g_minus)):
        old = parse(old)
        for z in _LATTICE.tolist():
            try:
                want = evaluate(old, z)
            except EvalError:
                continue
            assert abs(evaluate(new, z) - want) <= 1e-13 * _scale(old, z), (fixture.__name__, z)


def test_the_catenoid_reflects_to_constant_monomials():
    # the locus radius is rho to round-off, so the constants fold to 1: the catenoid's own data
    ext = extend(*catenoid_extension_fixture())
    assert ext.f_minus == Pow(Var(), -2) and ext.g_minus == Var()


def test_the_reflected_f_shares_the_reflected_g():
    # the timelike recovery divides by 1 - g_minus^2; the normal form keeps that g_minus the same object
    ext = extend(*timelike_fixture())
    assert ext.f_minus.right.right.base is ext.g_minus


def test_the_catenoid_text_reflects_back_to_its_data():
    # the text half of the involution: the emitted reflected side, extended back across the same
    # plane, is z^-2 and z again
    data, plane = catenoid_extension_fixture()
    ext = extend(data, plane)
    back_data = WeierstrassData(parse(format_expr(ext.f_minus)), parse(format_expr(ext.g_minus)),
                                data.domain, data.z0, data.X0)
    back = extend(back_data, plane)
    assert (format_expr(back.f_minus), format_expr(back.g_minus)) == ("z^-2", "z")


@pytest.mark.parametrize("fixture", [c[0] for c in EMITTED_FORMULAS], ids=lambda fx: fx.__name__)
def test_sconj_formulas_parse_to_the_emitted_trees(fixture):
    # the trees that configs written before the normal form carry: configs written while trees
    # kept sconj(...) read as those
    for sconj_text, unreduced in zip(SCONJ_FORMULAS[fixture.__name__], UNREDUCED_FORMULAS[fixture.__name__]):
        assert parse(sconj_text) == parse(unreduced)


_LATTICE = np.array([complex(x, y) for x in np.linspace(-1.2, 1.2, 25) for y in np.linspace(-1.2, 1.2, 25)])


def _scalar_values(fn):
    out = []
    for z in _LATTICE.tolist():
        try:
            w = fn(z)
        except Exception as exc:
            out.append(type(exc))
        else:
            out.append((repr(w.real), repr(w.imag)))
    return out


def _array_values(fn):
    w = np.broadcast_to(fn(_LATTICE), _LATTICE.shape)
    return [(repr(v.real), repr(v.imag)) for v in w.tolist()]


@pytest.mark.parametrize("fixture", [c[0] for c in EMITTED_FORMULAS], ids=lambda fx: fx.__name__)
def test_emitted_formulas_evaluate_like_the_trees_extend_built(fixture):
    # extend reports matching on its own trees and check reads the printed ones;
    # a complex constant such as -0.5j prints as -0.5*i and parses to a product
    ext = extend(*fixture())
    for built in (ext.f_minus, ext.g_minus):
        read = parse(format_expr(built))
        assert _scalar_values(compile_fn(read)) == _scalar_values(compile_fn(built))
        assert _array_values(compile_array(read)) == _array_values(compile_array(built))


def test_extension_dispatch():
    data, plane = catenoid_extension_fixture()
    ext = extend(data, plane)
    rho = math.exp(-0.7)
    assert ext.contact.boundary == CircleOrLine(1.0, 0j, -rho * rho)
    data2, plane2 = timelike_fixture()
    assert extend(data2, plane2).reflected == "x2"
    data3, plane3 = lightlike_fixture()
    assert extend(data3, plane3).reflected == "psi"


def test_singular_reconstruction_guard():
    with pytest.raises(SingularReconstructionError):
        _check_reconstruction_singular(patch_of_g(parse("1")), [0.1 + 0.1j], (1 + 0j,))


def test_singular_reconstruction_check_compiles_g_minus_once(monkeypatch):
    # 1/(z-z) is NaN in the array pass at every point, so every point is flagged, and faults at each in scalar code
    compiled = []
    monkeypatch.setattr(weierstrass, "compile_fn", lambda e: compiled.append(e) or compile_fn(e))
    g_minus = parse("1/(z-z)")
    assert _check_reconstruction_singular(patch_of_g(g_minus), minus_points(), (1 + 0j, -1 + 0j)) is None
    assert compiled == [g_minus]


# ---------------------------------------------------------------------------
# circular (conelike) extension

def test_extend_circular_reproduces_catenoid():
    data, plane = catenoid_extension_fixture(b=-0.7)
    ext = extend(data, plane)
    rho = math.exp(-0.7)
    rng = np.random.default_rng(4)
    for _ in range(40):
        z = cmath.rect(rng.uniform(0.26, 0.45), rng.uniform(-math.pi, math.pi))
        assert abs(evaluate(ext.g_minus, z) - z) < 1e-12
        assert abs(evaluate(ext.f_minus, z) - 1 / z**2) < 1e-11


def test_extend_circular_fixes_the_circle():
    data, plane = catenoid_extension_fixture(b=-0.7)
    ext = extend(data, plane)
    rho = math.exp(-0.7)
    for t in np.linspace(-math.pi, math.pi, 9, endpoint=False):
        z = rho * cmath.exp(1j * t)
        assert abs(evaluate(ext.g_minus, z) - evaluate(data.g, z)) < 1e-10


def test_extend_circular_involution():
    data, plane = catenoid_extension_fixture(b=-0.7)
    ext = extend(data, plane)
    rho = math.exp(-0.7)
    g2 = reflect_g(ext.g_minus, ext.contact.locus, CircleOrLine(1.0, 0j, -rho * rho))
    rng = np.random.default_rng(5)
    for _ in range(30):
        z = cmath.rect(rng.uniform(0.55, 0.95), rng.uniform(-math.pi, math.pi))
        assert abs(evaluate(g2, z) - evaluate(data.g, z)) < 1e-10


def test_extend_circular_slab_mapping():
    b, a = -0.7, -1.2
    data, plane = catenoid_extension_fixture(b=b)
    ext = extend(data, plane)
    worst_slice = worst_pair = 0.0
    for k in range(10):
        zk = math.exp(a) * cmath.exp(1j * (2 * math.pi * k / 10 + 0.05))
        Xm = ext.evaluate(zk)
        Xp = ext.evaluate(ext.reflect(zk))
        worst_slice = max(worst_slice, abs(Xm.x3 - a), abs(Xp.x3 - (2 * b - a)))
        worst_pair = max(worst_pair, abs(Xm.x3 + Xp.x3 - 2 * b))
    assert worst_slice < 1e-7
    assert worst_pair < 1e-7


def test_extend_circular_plane_containment():
    data, plane = catenoid_extension_fixture(b=-0.7)
    ext = extend(data, plane)
    rho = math.exp(-0.7)
    for t in np.linspace(-math.pi, math.pi, 7, endpoint=False):
        X = ext.evaluate(rho * cmath.exp(1j * t))
        assert abs(X.x3 - (-0.7)) < 1e-9


def test_extended_evaluate_at_nan_raises_path_error():
    ext = extend(*catenoid_extension_fixture(b=-0.7))
    with pytest.raises(PathError):
        ext.evaluate(complex(math.nan, 0.1))


def test_extended_evaluate_raises_below_tolerance():
    # the path crosses the arc; both sides must honour the quadrature flag
    data, plane = catenoid_extension_fixture(b=-0.7)
    ext = extend(data, plane)
    with pytest.raises(ToleranceError) as exc, quadrature_constants(max_depth=1):
        ext.evaluate(0.06 + 0.01j, QuadratureConfig(tol=1e-14))
    assert exc.value.achieved > 1e-14


def test_extend_circular_matching():
    data, plane = catenoid_extension_fixture(b=-0.7)
    ext = extend(data, plane)
    assert ext.matching.passed
    assert ext.matching.max_gap < 1e-12


def test_extend_across_half_annulus_diameter():
    # same data as the spacelike fixture on a two-segment boundary arc
    dom = Domain(DomainKind.HALF_ANNULUS, radius=0.9, inner_radius=0.2)
    data = WeierstrassData(
        parse("i*exp(-i*z)"), parse("exp(i*z)/2"), dom, 0.5j, LVector(0, 0, 0)
    )
    ext = extend(data, Plane(LVector(0, 0, 1), -0.25))
    assert abs(ext.contact.c + 5 / 3) < 1e-9
    assert ext.matching.max_gap < 1e-10
    z = complex(0.4, -0.3)
    assert abs(evaluate(ext.g_minus, z) - evaluate(data.g, z)) < 1e-12


def test_a_puncture_of_the_original_side_is_avoided_at_its_reflection():
    # the data is regular at the declared puncture 0.1+0.5i, so the detour around its reflection
    # 0.1-0.5i changes only the path: the values agree with the extension without the puncture
    data, plane = spacelike_fixture()
    punctured = WeierstrassData(data.f, data.g, Domain(DomainKind.HALF_DISK, radius=0.9, punctures=(0.1 + 0.5j,)),
                                data.z0, data.X0)
    ext, plain, q = extend(punctured, plane), extend(data, plane), QuadratureConfig()
    assert ext._punctures == (0.1 + 0.5j, 0.1 - 0.5j)
    for z, waypoint in ((0.11 - 0.6j, 0.15 - 0.495j), (0.09 - 0.62j, 0.05 - 0.504j)):
        knots = ext.path(punctured.z0, z)
        assert abs(knots[-2] - waypoint) < 1e-3 and abs(knots[-2] - (0.1 - 0.5j)) == pytest.approx(CLEARANCE)
        got, want = ext.evaluate(z, q), plain.evaluate(z, q)
        assert max(abs(a - b) for a, b in zip(got.as_tuple(), want.as_tuple())) <= 10 * q.tol


def test_a_patch_is_the_surface_of_one_side_for_the_one_integrator():
    # surface_path integrates a patch's path(z0, z) as it integrates an extension's path split at the arc,
    # each segment on the side at its midpoint
    data, plane = spacelike_fixture()
    ext, z = extend(data, plane), 0.2 - 0.3j
    assert data.original is data and data.side(z) is data and data.contact is None and data.region == "domain"
    assert data.path(data.z0, z) == _build_path(data.z0, z, data.domain.punctures)
    assert not data.contains(z) and ext.contains(z) and ext.region == "assembled domain"
    assert ExtendedSurface.evaluate is evaluate_surface
    knots = ext.path(data.z0, z)
    value = surface_path(ext, z)
    assert value.waypoints == tuple(knots) and value.value == ext.evaluate(z)
    assert len(knots) == 3 and knots[1].imag == 0  # split on the diameter
    assert ext.side(0.5 * (data.z0 + knots[1])) is data and ext.side(0.5 * (knots[1] + z)) is ext.minus


_BENCH_EXTENSIONS = {name: extend(cfg.data, cfg.plane)
                     for name, cfg in ((name, SurfaceConfig.from_text(text)) for name, text in bench_configs().items())}

_RHO_B07 = math.exp(-0.7)
_CLOSED_FORM_C = {"spacelike": -5 / 3, "timelike": 1.0, "lightlike": -1.0,
                  "catenoid-b07": -(1 + _RHO_B07**2) / (1 - _RHO_B07**2)}


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_C))
def test_the_measured_c_of_each_bench_base_is_its_closed_form(name):
    # the contact is measured on the arc itself, so c is its closed form to round-off
    c = _BENCH_EXTENSIONS[name].contact.c
    assert abs(c - _CLOSED_FORM_C[name]) <= 1e-15 * abs(c), c


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(_BENCH_EXTENSIONS)), st.data())
def test_each_segment_of_a_path_lies_on_the_side_at_its_midpoint(name, data):
    # the integrators take a segment on the side at its midpoint: path(a, b) splits at the arc so that the
    # side holds along the whole segment; a patch's path is the puncture detour alone
    ext = _BENCH_EXTENSIONS[name]
    box = st.complex_numbers(max_magnitude=1.2 * ext.original.domain.radius, allow_nan=False, allow_infinity=False)
    a, b = data.draw(box.filter(ext.contains)), data.draw(box.filter(ext.contains))
    knots = ext.path(a, b)
    assert knots[0] == a and knots[-1] == b
    for x, y in zip(knots, knots[1:]):
        side = ext.side(0.5 * (x + y))
        assert ext.side(x + 0.25 * (y - x)) is side and ext.side(x + 0.75 * (y - x)) is side, (x, y)
    patch = ext.original
    a, b = data.draw(box.filter(patch.contains)), data.draw(box.filter(patch.contains))
    assert patch.path(a, b) == _build_path(a, b, patch.domain.punctures)


# ---------------------------------------------------------------------------
# boundary sampling helper

_BAND = (0.1, 0.05, 0.02, 0.012, 0.004)  # the depths of check's reflected approach band


def test_boundary_samples_stay_in_domain():
    data, _ = timelike_fixture()
    for z in boundary_samples(data.domain, _BAND):
        assert data.domain.contains(z)
    data2, _ = catenoid_extension_fixture()
    for z in boundary_samples(data2.domain, _BAND):
        assert data2.domain.contains(z)
