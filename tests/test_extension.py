import cmath
import math

import numpy as np
import pytest

from fixtures import (
    SCONJ_FORMULAS,
    UNREDUCED_FORMULAS,
    catenoid_extension_fixture,
    lightlike_fixture,
    lightlike_tangent_fixture,
    quadrature_constants,
    spacelike_fixture,
    timelike_fixture,
)
from maxsurf import extension
from maxsurf.expr import Const, Div, EvalError, Mul, Pow, Var, compile_array, compile_fn, evaluate, format_expr, parse
from maxsurf.extension import (
    BoundaryArc,
    CircleOrLine,
    DegenerateContactWarning,
    GeometryMismatchError,
    HypothesisViolationError,
    OrthogonalContactError,
    SingularReconstructionError,
    _check_reconstruction_singular,
    _locus_mismatch,
    boundary_samples,
    extend,
    fit_circle_or_line,
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
)


def minus_points(n=50, radius=0.6, seed=0):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, -0.01))
        if abs(z) < radius:
            pts.append(z)
    return pts


# ---------------------------------------------------------------------------
# locus fitting

def test_fit_exact_circle():
    pts = [1j + 2 * cmath.exp(1j * t) for t in np.linspace(0, 2, 9)]
    locus = fit_circle_or_line(pts)
    assert locus.kind == "circle"
    assert abs(locus.center - 1j) < 1e-10
    assert abs(locus.radius - 2) < 1e-10
    assert locus.residual < 1e-10


def test_fit_needs_three_points():
    with pytest.raises(ValueError, match="need at least 3 points to fit a locus"):
        fit_circle_or_line([0j, 1 + 0j])


def test_a_fitted_line_points_to_positive_real_parts():
    # drawn at angle 2.0, whose direction has Re < 0: the fit flips it
    locus = fit_circle_or_line([0.3 + t * cmath.exp(2j) for t in np.linspace(-1, 1, 9)])
    assert locus.kind == "line" and locus.direction.real > 0


@pytest.mark.parametrize("kind, rho, message", [("ray", None, "boundary kind must be 'segment' or 'circle'"),
                                                ("circle", 0.0, "circle boundary needs rho > 0")])
def test_a_boundary_arc_is_a_segment_or_a_circle_of_positive_radius(kind, rho, message):
    with pytest.raises(ValueError, match=message):
        BoundaryArc(kind, rho)


def test_fit_collinear_points_gives_line():
    pts = [complex(1.0, t) for t in np.linspace(-1, 1, 9)]
    locus = fit_circle_or_line(pts)
    assert locus.kind == "line"
    assert abs(locus.direction.real) < 1e-12
    assert abs(locus.point.real - 1.0) < 1e-12
    assert locus.distance(1 + 5j) < 1e-12
    assert abs(locus.distance(3 + 0j) - 2) < 1e-12


def test_locus_mismatch_metric():
    a = CircleOrLine("circle", center=0j, radius=1.0)
    b = CircleOrLine("circle", center=0.1 + 0j, radius=1.05)
    assert abs(_locus_mismatch(a, b) - 0.1) < 1e-12
    line = CircleOrLine("line", point=1 + 0j, direction=1j)
    assert _locus_mismatch(a, line) == math.inf


# ---------------------------------------------------------------------------
# contact measurement

def test_measure_contact_spacelike_fixture():
    data, plane = spacelike_fixture()
    c = measure_contact(data, plane)
    assert c.plane_kind is CausalClass.SPACELIKE
    assert abs(c.c + 5 / 3) < 1e-8
    assert c.deviation < 1e-8
    assert c.sheet == 1
    assert c.locus.kind == "circle"
    assert abs(c.locus.center) < 1e-9
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
    assert abs(c.locus.center + 1j) < 1e-6
    assert abs(c.locus.radius - math.sqrt(2)) < 1e-6


def test_measure_contact_lightlike_fixture():
    data, plane = lightlike_fixture()
    c = measure_contact(data, plane)
    assert c.plane_kind is CausalClass.LIGHTLIKE
    assert abs(c.c + 1.0) < 1e-7
    assert abs(c.lam + 2.0) < 1e-7
    assert abs(c.locus.center - 0.5) < 1e-7
    assert abs(c.locus.radius - 0.5) < 1e-7


def test_measure_contact_lightlike_tangent_fixture():
    data, plane = lightlike_tangent_fixture()
    c = measure_contact(data, plane)
    assert c.lam == 0.0
    assert c.sheet == -1
    assert c.locus.kind == "line"
    assert abs(c.locus.point.real - 1.0) < 1e-7
    assert abs(c.locus.direction.real) < 1e-7


def test_measure_contact_catenoid_circle():
    data, plane = catenoid_extension_fixture(b=-0.7)
    rho = math.exp(-0.7)
    c = measure_contact(data, plane)
    assert c.boundary == BoundaryArc("circle", rho)
    assert abs(c.c + (1 + rho**2) / (1 - rho**2)) < 1e-9
    assert c.deviation < 1e-8
    assert abs(c.locus.radius - rho) < 1e-12
    assert abs(c.locus.center) < 1e-12
    assert abs(math.tanh(c.theta / 2) - rho) < 1e-9


def test_orthogonal_contact_rejected():
    # g real on the axis makes <N, (0,1,0)> -> 0
    dom = Domain(DomainKind.HALF_DISK, radius=0.7)
    data = WeierstrassData(parse("1"), parse("0.3*cos(z)"), dom, 0.5j, LVector(0, 0, 0))
    with pytest.raises(OrthogonalContactError) as exc:
        measure_contact(data, Plane(LVector(0, 1, 0), 0.0))
    assert "symmetric" in str(exc.value)


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
    g = parse("exp(i*z)/2")
    gm = reflect_g(CausalClass.SPACELIKE, g, 0.5, BoundaryArc("segment"))
    for u in np.linspace(-0.6, 0.6, 7):
        assert abs(abs(evaluate(gm, u)) - 0.5) < 1e-12
    g2 = reflect_g(CausalClass.SPACELIKE, gm, 0.5, BoundaryArc("segment"))
    for z in minus_points(20):
        assert abs(evaluate(g2, z) - evaluate(g, z)) < 1e-12


def test_timelike_reflection_fixes_circle():
    g = parse("-i + sqrt(2)*i*exp(i*z)")
    gm = reflect_g(CausalClass.TIMELIKE, g, 1.0, BoundaryArc("segment"))
    for u in np.linspace(-0.5, 0.5, 7):
        w = evaluate(gm, u)
        assert abs(w.real**2 + (w.imag + 1) ** 2 - 2) < 1e-12


def test_lightlike_line_reflection_fixes_axis():
    g = parse("1 + i*(1 + z/4)")
    gm = reflect_g(CausalClass.LIGHTLIKE, g, 0.0, BoundaryArc("segment"))
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
        "0.9999999999999929*i*exp(i*z)*exp(-i*z)^2",
        "0.5000000000000036/exp(-i*z)",
    ),
    (
        timelike_fixture,
        "exp(i*z)*(1-(i-i*sqrt(2)*exp(-i*z))^2)/(1-(-1.0000000000002045*i+2.000000000000409/(i-i*sqrt(2)*exp(-i*z)-1.0000000000002045*i))^2)",
        "-1.0000000000002045*i+2.000000000000409/(i-i*sqrt(2)*exp(-i*z)-1.0000000000002045*i)",
    ),
    (
        lightlike_fixture,
        "-exp(i*z)*(1-(1-i*exp(-i*z))/2)^2/(1-(0.5000000000000044+0.24999999999999556/((1-i*exp(-i*z))/2-0.5000000000000044)))^2",
        "0.5000000000000044+0.24999999999999556/((1-i*exp(-i*z))/2-0.5000000000000044)",
    ),
    (
        lightlike_tangent_fixture,
        "i*(1-(1-i*(1+z/4)))^2/(1-(2-(1-i*(1+z/4))))^2",
        "2-(1-i*(1+z/4))",
    ),
    (
        catenoid_extension_fixture,
        "0.9999999999999996/z^2",
        "1.0000000000000004*z",
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


@pytest.mark.parametrize("fixture", [c[0] for c in EMITTED_FORMULAS], ids=lambda fx: fx.__name__)
def test_emitted_formulas_are_no_longer_than_the_unreduced_ones(fixture):
    ext = extend(*fixture())
    for old, new in zip(UNREDUCED_FORMULAS[fixture.__name__], (ext.f_minus, ext.g_minus)):
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
    ext = extend(*catenoid_extension_fixture())
    assert isinstance(ext.f_minus, Div) and ext.f_minus.right == Pow(Var(), 2) and isinstance(ext.f_minus.left, Const)
    assert isinstance(ext.g_minus, Mul) and ext.g_minus.right == Var() and isinstance(ext.g_minus.left, Const)


def test_the_reflected_f_shares_the_reflected_g():
    # the timelike recovery divides by 1 - g_minus^2; the normal form keeps that g_minus the same object
    ext = extend(*timelike_fixture())
    assert ext.f_minus.right.right.base is ext.g_minus


def test_the_catenoid_text_reflects_back_to_its_data():
    # the text half of the involution: the emitted reflected side, extended back across the same
    # plane, is one constant times z^-2 and one constant times z again, each within 1e-13 of 1
    data, plane = catenoid_extension_fixture()
    ext = extend(data, plane)
    back_data = WeierstrassData(parse(format_expr(ext.f_minus)), parse(format_expr(ext.g_minus)),
                                data.domain, data.z0, data.X0)
    back = extend(back_data, plane)
    f, g = format_expr(back.f_minus), format_expr(back.g_minus)
    assert f.endswith("/z^2") and g.endswith("*z"), (f, g)
    assert abs(parse(f.removesuffix("/z^2")).value - 1) < 1e-13
    assert abs(parse(g.removesuffix("*z")).value - 1) < 1e-13


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
    assert ext.contact.boundary.kind == "circle"
    data2, plane2 = timelike_fixture()
    assert extend(data2, plane2).reflected == "x2"
    data3, plane3 = lightlike_fixture()
    assert extend(data3, plane3).reflected == "psi"


def test_singular_reconstruction_guard():
    with pytest.raises(SingularReconstructionError):
        _check_reconstruction_singular(parse("1"), [0.1 + 0.1j], (1 + 0j,))


def test_singular_reconstruction_check_compiles_g_minus_once(monkeypatch):
    # 1/(z-z) is NaN in the array pass at every point, so every point is flagged, and faults at each in scalar code
    compiled = []
    monkeypatch.setattr(extension, "compile_fn", lambda e: compiled.append(e) or compile_fn(e))
    g_minus = parse("1/(z-z)")
    assert _check_reconstruction_singular(g_minus, minus_points(), (1 + 0j, -1 + 0j)) is None
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
    g2 = reflect_g(
        CausalClass.SPACELIKE, ext.g_minus, ext.contact.locus.radius, BoundaryArc("circle", rho)
    )
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
        knots, _ = ext._path(z)
        assert abs(knots[-2] - waypoint) < 1e-3 and abs(knots[-2] - (0.1 - 0.5j)) == pytest.approx(CLEARANCE)
        got, want = ext.evaluate(z, q), plain.evaluate(z, q)
        assert max(abs(a - b) for a, b in zip(got.as_tuple(), want.as_tuple())) <= 10 * q.tol


# ---------------------------------------------------------------------------
# boundary sampling helper

def test_boundary_samples_stay_in_domain():
    data, _ = timelike_fixture()
    for z in boundary_samples(data.domain):
        assert data.domain.contains(z)
    data2, _ = catenoid_extension_fixture()
    for z in boundary_samples(data2.domain):
        assert data2.domain.contains(z)
