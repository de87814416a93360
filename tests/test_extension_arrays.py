"""The extension stages against scalar references kept here (the per-point,
per-formula code): the C1 matching report and the side masks, which run as
array passes, and the contact measurement and the singularity check, which
read their few points through the patch's closures, on fixture families with
drawn parameters and on faults that only the scalar path can judge."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixtures import (
    catenoid_extension_fixture,
    lightlike_fixture,
    lightlike_tangent_fixture,
    patch_of_g,
    spacelike_fixture,
    timelike_fixture,
    with_formulas,
)
from maxsurf.expr import Add, Call, Const, Div, EvalError, Mul, Sub, Var, compile_array, compile_fn, differentiate, parse
from maxsurf.extension import (
    CASES,
    LOCUS_TOL,
    MATCH_TOL,
    MINUS_POINTS,
    MatchReport,
    ANGLE_TOL,
    SINGULAR_TOL,
    CircleOrLine,
    ExtensionError,
    HypothesisViolationError,
    GeometryMismatchError,
    SingularReconstructionError,
    _check_reconstruction_singular,
    _match_report,
    _match_values,
    _minus_grid,
    boundary_points,
    boundary_samples,
    extend,
    measure_contact,
    reflect_g,
)
from maxsurf.minkowski import LVector, Plane, lorentz_inner, plane_class
from maxsurf.weierstrass import DegenerateMetricError, Domain, DomainKind, WeierstrassData, gauss_from_g, phi_exprs

# ---------------------------------------------------------------------------
# scalar references: the stages as they ran point by point


def scalar_contact(data, plane):
    """measure_contact's fields (c, deviation, sheet, locus, mismatch), or its exception, point by point."""
    case = CASES[plane_class(plane)]
    unit_n, _ = case.normalize(plane)
    gfun = compile_fn(data.g)
    c_limits, g_limits = [], []
    for z in boundary_points(data.domain):
        g_limits.append(gfun(z))
        c_limits.append(lorentz_inner(gauss_from_g(g_limits[-1]), unit_n))
    c = float(np.mean(c_limits))
    deviation = max(abs(ci - c) for ci in c_limits)
    if deviation > ANGLE_TOL:
        raise HypothesisViolationError(
            f"constant-angle hypothesis violated: <N,n> varies by {deviation:.3e} about {c:.6f}"
        )
    mods = [abs(gv) for gv in g_limits]
    if all(m < 1 for m in mods):
        sheet = 1
    elif all(m > 1 for m in mods):
        sheet = -1
    else:
        raise HypothesisViolationError("boundary Gauss values straddle |g| = 1")
    locus, _, _ = case.locus(c, sheet, g_limits)
    mismatches = [locus.distance(gv) / (1 + min(abs(gv), locus.radius)) for gv in g_limits]
    mismatch = math.nan if any(map(math.isnan, mismatches)) else max(mismatches)
    if not mismatch <= LOCUS_TOL:
        raise GeometryMismatchError(f"boundary g lies {mismatch:.3e} (relative) off {locus.describe()} "
                                    f"implied by c = {c:.9f}")
    return c, deviation, sheet, locus, mismatch


def scalar_match_report(data, f_minus, g_minus):
    """(gaps, points): the ten formulas and their derivatives, each compiled and sampled on its own."""
    pts = boundary_points(data.domain)
    plus, minus = {"f": data.f, "g": data.g}, {"f": f_minus, "g": g_minus}
    for name, ep, em in zip(("phi1", "phi2", "phi3"), phi_exprs(data.f, data.g), phi_exprs(f_minus, g_minus)):
        plus[name], minus[name] = ep, em
    for name in list(plus):
        plus["d" + name], minus["d" + name] = differentiate(plus[name]), differentiate(minus[name])
    gaps = {}
    for name in plus:
        fp, fm = compile_fn(plus[name]), compile_fn(minus[name])
        worst = 0.0
        for z in pts:
            a, b = fp(z), fm(z)
            gap = abs(a - b) / (1 + abs(a))
            worst = math.nan if math.isnan(gap) else max(worst, gap)  # a NaN gap at any point stays
        gaps[name] = worst
    return gaps, tuple(pts)


def scalar_singular(g_minus, pts, offsets):
    fn = compile_fn(g_minus)
    for z in pts:
        try:
            gv = fn(complex(z))
        except EvalError:
            continue
        for w in offsets:
            if abs(gv - w) < SINGULAR_TOL:
                raise SingularReconstructionError(f"extended g takes the singular value {w} near z = {z}")


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


def contact_fields(data, plane):
    contact = measure_contact(data, plane)
    return contact.c, contact.deviation, contact.sheet, contact.locus, contact.locus_mismatch


# ---------------------------------------------------------------------------
# fixture families with drawn parameters: the radius of g on the axis, lam,
# and the plane offset

_HALF = Domain(DomainKind.HALF_DISK, radius=0.7)


def _exp_iz(scale: complex, shift: complex = 0j):
    """shift + scale * exp(i z) as a tree."""
    return Add(Const(shift), Mul(Const(scale), Call("exp", Mul(Const(1j), Var()))))


_EXP_MINUS = Call("exp", Mul(Const(-1j), Var()))


def spacelike_family(r, d):
    """g = r exp(iz): |g| = r on the axis, so the angle against x3 = -d is constant."""
    data = WeierstrassData(Mul(Const(1j), _EXP_MINUS), _exp_iz(r), Domain(DomainKind.HALF_DISK, radius=0.9), 0.5j,
                           LVector(0, 0, 0))
    return data, Plane(LVector(0, 0, 1), d)


def timelike_family(lam, d):
    """g on the circle about -i lam of radius sqrt(1 + lam^2) along the axis."""
    g = _exp_iz(1j * math.sqrt(1 + lam * lam), -1j * lam)
    return WeierstrassData(_EXP_MINUS, g, _HALF, 0.5j, LVector(0, 0, 0)), Plane(LVector(0, 1, 0), d)


def lightlike_family(lam, d):
    """g on the circle about -1/lam of radius |1 + 1/lam| along the axis."""
    g = _exp_iz(1j * (1 + 1 / lam), -1 / lam)
    return WeierstrassData(_EXP_MINUS, g, _HALF, 0.5j, LVector(0, 0, 0)), Plane(LVector(1, 0, 1), d)


def catenoid_family(b, d):
    """The catenoid across its contact circle |z| = e^b (the offset d is -b on the closed form)."""
    data, _ = catenoid_extension_fixture(b)
    return data, Plane(LVector(0, 0, 1), d)


_offsets = st.floats(-1.0, 1.0)
families = st.one_of(
    st.tuples(st.just(spacelike_family), st.one_of(st.floats(0.1, 0.8), st.floats(1.25, 3.0)), _offsets),
    st.tuples(st.just(timelike_family), st.floats(0.3, 1.6), _offsets),
    st.tuples(st.just(lightlike_family), st.one_of(st.floats(-4.0, -1.3), st.floats(0.4, 3.0)), _offsets),
    st.tuples(st.just(catenoid_family), st.floats(-1.6, -0.15), _offsets),
)
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(family=families)
def test_contact_matches_the_scalar_reference(family):
    make, p, d = family
    data, plane = make(p, d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected, got = outcome(scalar_contact, data, plane), outcome(contact_fields, data, plane)
    if isinstance(expected[0], type):  # a fault: the same type and message
        assert got == expected
        return
    (c0, dev0, sheet0, locus0, mis0), (c1, dev1, sheet1, locus1, mis1) = expected, got
    assert (c1, dev1, mis1) == (c0, dev0, mis0)  # the contact runs the reference's arithmetic
    assert sheet1 == sheet0
    assert locus1 == locus0  # built from arc values of the same arithmetic


def product_rule_gaps(data, f_minus, g_minus):
    """The report's product rule and reduction, fed by the scalar closures instead of the array pass."""
    pts = boundary_points(data.domain)
    sides = ((data.f, data.g), (f_minus, g_minus))
    fgd = np.array([[[compile_fn(e)(z) for z in pts] for e in (f, g, differentiate(f), differentiate(g))] for f, g in sides])
    plus, minus = _match_values(*fgd.swapaxes(0, 1)).swapaxes(0, 1)
    return (np.abs(plus - minus) / (1 + np.abs(plus))).max(axis=1).tolist()


# compile_array rounds complex division and exp as numpy does, not as Python does: on the
# reflected f' of a timelike family that alone moves values by up to 6e-15 relative
# (27 ulps, lam = 1.25), so the whole report is held to 1e-13 (450 ulps of 1) against the
# per-formula reference, and the product rule, fed the same scalar values, to 1e-15.
_ARRAY_ROUND_OFF = 1e-13


@_PROPERTY
@given(family=families)
def test_matching_matches_the_per_formula_reference(family):
    make, p, d = family
    data, plane = make(p, d)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ext = extend(data, plane)
    except ExtensionError:
        return  # no reflected side to match (the contact test compares these)
    gaps, points = scalar_match_report(data, ext.f_minus, ext.g_minus)
    report = _match_report(data, ext.minus)
    assert report.points == points
    assert list(report.gaps) == list(gaps)
    for name, gap, rule in zip(gaps, gaps.values(), product_rule_gaps(data, ext.f_minus, ext.g_minus)):
        assert abs(rule - gap) <= 1e-15, name
        assert abs(report.gaps[name] - gap) <= _ARRAY_ROUND_OFF, name
    assert report.passed == all(gap <= MATCH_TOL for gap in gaps.values())


@pytest.mark.parametrize("fixture", [spacelike_fixture, timelike_fixture, lightlike_fixture, lightlike_tangent_fixture,
                                     catenoid_extension_fixture], ids=lambda fx: fx.__name__)
def test_matching_of_the_fixtures_moves_at_most_1e_15(fixture):
    data, plane = fixture()
    ext = extend(data, plane)
    gaps, _ = scalar_match_report(data, ext.f_minus, ext.g_minus)
    assert max(abs(ext.matching.gaps[name] - gap) for name, gap in gaps.items()) <= 1e-15


def test_the_families_extend_in_every_case():
    # each drawn range holds a closed form that extends and matches
    for make, p in ((spacelike_family, 0.5), (spacelike_family, 2.0), (timelike_family, 1.0),
                    (lightlike_family, -2.0), (lightlike_family, 1.0), (catenoid_family, -0.7)):
        ext = extend(*make(p, 0.25))
        assert ext.matching.passed, (make.__name__, p)


@_PROPERTY
@given(family=families)
def test_the_reflected_side_reflects_back_to_the_data(family):
    # the construction is an involution: reflecting (f_minus, g_minus) across the same
    # arc and locus gives back (f, g) at points of the original side
    make, p, d = family
    data, plane = make(p, d)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ext = extend(data, plane)
    except ExtensionError:
        return
    case, arc = ext.case, ext.contact.boundary
    g2 = reflect_g(ext.g_minus, ext.contact.locus, arc)
    f2 = case.recover(arc.pullback(case.odd(ext.f_minus, ext.g_minus)), g2)
    points = boundary_samples(data.domain, depths=(0.6, 0.3, 0.1, 0.02))
    assert all(arc.on_original_side(z) for z in points)
    for e, back in ((data.f, f2), (data.g, g2)):
        for z in points:
            want = compile_fn(e)(z)
            assert abs(compile_fn(back)(z) - want) <= 1e-13 * (1 + abs(want)), (make.__name__, p, d, z)


# ---------------------------------------------------------------------------
# the side tests round |z| alike on numbers and arrays


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    rho=st.floats(1e-3, 1e3),
    points=st.lists(st.tuples(st.floats(-math.pi, math.pi), st.integers(-1, 1), st.integers(-1, 1)),
                    min_size=1, max_size=40),
)
def test_array_and_scalar_side_tests_agree_on_the_arc(rho, points):
    # every point lies within 2 ulps of |z| = rho, where the sign of |z|^2 - rho^2 turns on round-off
    arc = CircleOrLine(1.0, 0j, -rho * rho)
    zs = [complex(_nudge(rho * math.cos(t), i), _nudge(rho * math.sin(t), j)) for t, i, j in points]
    zs += [cmath.rect(rho, t) for t in np.linspace(-3, 3, 16).tolist()]
    assert arc.on_original_side(np.array(zs)).tolist() == [bool(arc.on_original_side(z)) for z in zs]


def test_array_side_test_on_the_segment_is_the_sign_of_the_imaginary_part():
    arc = CircleOrLine(0.0, 1j, 0.0)
    zs = [0.3 + 0j, 0.3 - 0j, complex(0.1, -1e-300), complex(0.1, 5e-324), complex(-2, math.nan),
          complex(1e200, -5e-324), complex(-1e200, 1e300)]  # |z|^2 overflows, and a line never squares z
    assert arc.on_original_side(np.array(zs)).tolist() == [arc.on_original_side(z) for z in zs]


# ---------------------------------------------------------------------------
# the scalar path judges what the arrays cannot: faults, |g| = 1 and values
# that only the scalar arithmetic brings back finite

_OVERFLOWED_ZERO = Div(Var(), Add(Const(1e308), Const(1e308)))  # z/inf: NaN in arrays, 0 in scalar arithmetic


def _arc_point(k: int) -> complex:
    """Arc point k // 7 of the spacelike fixture: the cases count 7 to a point, as the approach grid they
    were written for did, and fall on its first, inner and last points."""
    return boundary_points(spacelike_fixture()[0].domain)[k // 7]


@pytest.mark.parametrize("k", [0, 17, 30, 62])
def test_contact_fault_raises_as_the_scalar_code(k):
    data, plane = spacelike_fixture()
    g = Add(data.g, Div(Const(1), Sub(Var(), Const(_arc_point(k)))))
    bad = WeierstrassData(data.f, g, data.domain, data.z0, data.X0)
    expected = outcome(scalar_contact, bad, plane)
    assert expected[0] is EvalError and expected[1].startswith("division by zero in '1/(z-")
    assert outcome(contact_fields, bad, plane) == expected


@pytest.mark.parametrize("k", [0, 24, 55])
def test_contact_on_the_degenerate_locus_raises_as_the_scalar_code(k):
    data, plane = spacelike_fixture()
    g = Add(Const(1), Mul(Const(0.25), Sub(Var(), Const(_arc_point(k)))))  # exactly 1 at the point
    bad = WeierstrassData(data.f, g, data.domain, data.z0, data.X0)
    expected = outcome(scalar_contact, bad, plane)
    assert expected == (DegenerateMetricError, f"|g| = 1 within 1e-12 at g = {complex(1)}")
    assert outcome(contact_fields, bad, plane) == expected


def test_contact_judges_an_array_nan_by_its_scalar_value():
    data, plane = spacelike_fixture()
    g = Add(data.g, _OVERFLOWED_ZERO)
    odd = WeierstrassData(data.f, g, data.domain, data.z0, data.X0)
    assert contact_fields(odd, plane) == scalar_contact(odd, plane) == contact_fields(data, plane)


def scalar_sides(ext, z):
    """ExtendedSurface.sides' masks with the mirror built point by point by the scalar reflect."""
    dom, here = ext.original.domain, ext.contact.boundary.on_original_side(z)
    mirror = np.array([ext.reflect(w) for w in z.tolist()], dtype=complex)
    inside = dom.contains_many(z, closed=True) | dom.contains_many(mirror, closed=True)
    return [inside & here, inside & ~here]


@pytest.mark.parametrize("fixture", [catenoid_extension_fixture, spacelike_fixture], ids=["circle", "segment"])
def test_sides_on_arrays_hold_the_masks_of_the_scalar_reflection(fixture):
    ext = extend(*fixture())
    R = ext.original.domain.radius
    a = np.linspace(-1.2 * R, 1.2 * R, 65)
    z = (a[:, None] + 1j * a).ravel()
    assert 0j in z.tolist()  # the centre, which a circle sends to infinity
    got = [at for _, at in ext.sides(z)]
    assert [m.tolist() for m in got] == [m.tolist() for m in scalar_sides(ext, z)]
    assert got[0].any() and got[1].any()


def test_singular_check_skips_faults_and_reports_the_first_hit():
    data, plane = catenoid_extension_fixture()
    pts = _minus_grid(data.domain, CircleOrLine(0.0, 1j, 0.0))
    p, q = pts[3], pts[11]
    g = Add(Div(Sub(Var(), Const(q)), Sub(Var(), Const(p))), Const(1))  # faults at p, equals 1 at q
    expected = outcome(scalar_singular, g, pts, (1 + 0j,))
    assert expected == (SingularReconstructionError, f"extended g takes the singular value {1 + 0j} near z = {q}")
    assert outcome(_check_reconstruction_singular, patch_of_g(g), pts, (1 + 0j,)) == expected
    # without the hit, the fault alone is skipped, not reported
    assert _check_reconstruction_singular(patch_of_g(Div(Const(1), Sub(Var(), Const(p)))), pts, (1 + 0j, -1 + 0j)) is None


def uncached_minus_grid(domain, reflect):
    """_minus_grid as it ran before it was cached: drawn afresh on every call, reflected by a function."""
    R = domain.radius
    z = np.random.default_rng(2).uniform((-R, 0), R, size=(50 * MINUS_POINTS, 2)).view(complex)[:, 0]
    return [reflect(w) for w in z[domain.contains_many(z) & (z.imag > 1e-3 * R)][:MINUS_POINTS].tolist()]


def _bits(points):
    return [(w.real.hex(), w.imag.hex()) for w in points]


@pytest.mark.parametrize("make, p", [(spacelike_family, 0.5), (timelike_family, 1.0), (lightlike_family, -2.0),
                                     (catenoid_family, -0.7), (catenoid_family, -1.5)])
def test_the_cached_minus_grid_holds_the_uncached_points_bit_for_bit(make, p):
    data, plane = make(p, 0.25)
    arc = measure_contact(data, plane).boundary
    grid = _minus_grid(data.domain, arc)
    assert len(grid) == MINUS_POINTS
    assert _bits(grid) == _bits(uncached_minus_grid(data.domain, arc.mirror))
    assert _minus_grid(Domain(**vars(data.domain)), CircleOrLine(arc.a, arc.b, arc.c)) is grid  # drawn once


def test_singular_check_judges_an_array_nan_by_its_scalar_value():
    g = Add(Const(1), _OVERFLOWED_ZERO)  # 1 in scalar arithmetic, NaN in arrays
    pts = [0.3 - 0.2j, 0.1 - 0.5j]
    expected = (SingularReconstructionError, f"extended g takes the singular value {1 + 0j} near z = {pts[0]}")
    assert outcome(scalar_singular, g, pts, (1 + 0j,)) == expected
    assert outcome(_check_reconstruction_singular, patch_of_g(g), pts, (1 + 0j,)) == expected


# Quotients of constants that numpy and Python divide to values a few ulps apart, on the two
# sides of a threshold: the scalar value decides, so the array pass must hand them over.
_GAUSS_STRADDLE = Div(
    Const(1.2122733661674483 + 1.6027975160560677j), Const(-1.021609701005447 + 1.7305722205704264j)
)
_SINGULAR_STRADDLE = Div(
    Const(2.744257375271544 - 0.3377976265865043j), Const(2.744257393608006 - 0.33779764728142503j)
)


def test_straddling_quotients_part_at_the_thresholds():
    w = compile_fn(_GAUSS_STRADDLE)(0j), compile_array(_GAUSS_STRADDLE)(np.zeros(1))[0]
    assert [abs(1 - (v.real * v.real + v.imag * v.imag)) < 1e-12 for v in w] == [True, False]
    w = compile_fn(_SINGULAR_STRADDLE)(0j), compile_array(_SINGULAR_STRADDLE)(np.zeros(1))[0]
    assert [abs(v - 1) < SINGULAR_TOL for v in w] == [True, False]


def test_contact_decides_the_gauss_threshold_as_the_scalar_code():
    data, plane = spacelike_fixture()
    bad = WeierstrassData(data.f, _GAUSS_STRADDLE, data.domain, data.z0, data.X0)
    expected = outcome(scalar_contact, bad, plane)
    assert expected[0] is DegenerateMetricError
    assert outcome(contact_fields, bad, plane) == expected


def test_singular_check_decides_its_threshold_as_the_scalar_code():
    pts = [0.3 - 0.2j, 0.1 - 0.5j]
    expected = outcome(scalar_singular, _SINGULAR_STRADDLE, pts, (1 + 0j, -1 + 0j))
    assert expected[0] is SingularReconstructionError
    assert outcome(_check_reconstruction_singular, patch_of_g(_SINGULAR_STRADDLE), pts, (1 + 0j, -1 + 0j)) == expected


def _spacelike_sides():
    data, plane = spacelike_fixture()
    ext = extend(data, plane)
    return data, ext.f_minus, ext.g_minus


_INF = Add(Const(1e308), Const(1e308))


@pytest.mark.parametrize(
    "extra, nan_gaps",
    [
        (Div(Const(1), _INF), []),  # 1/inf: + 0 in scalar arithmetic
        # inf - inf: NaN there too; the constant's derivative is 0, so g, f' and g' keep their gaps
        (Sub(_INF, _INF), ["dphi1", "dphi2", "dphi3", "f", "phi1", "phi2", "phi3"]),
    ],
    ids=["zero", "nan"],
)
def test_matching_judges_an_array_nan_by_its_scalar_value(extra, nan_gaps):
    # a NaN the scalar closures return raises nothing, but makes its gaps NaN, and a NaN gap fails
    data, f_minus, g_minus = _spacelike_sides()
    odd = Add(f_minus, extra)
    gaps, _ = scalar_match_report(data, odd, g_minus)
    report = _match_report(data, with_formulas(data, odd, g_minus))
    for name, gap in gaps.items():  # every point was redone
        got = report.gaps[name]
        assert (math.isnan(got) and math.isnan(gap)) or abs(got - gap) <= 1e-15, name
    assert sorted(name for name, gap in report.gaps.items() if math.isnan(gap)) == nan_gaps
    assert math.isnan(report.max_gap) == (not report.passed) == bool(nan_gaps)


def test_a_nan_gap_fails_the_report_wherever_it_falls():
    # Python's max drops a NaN that does not come first; the report keeps it in any place
    data, f_minus, g_minus = _spacelike_sides()
    report = _match_report(data, with_formulas(data, f_minus, g_minus))
    assert report.passed
    for name in report.gaps:
        odd = MatchReport({**report.gaps, name: math.nan}, report.tol, report.points)
        assert math.isnan(odd.max_gap) and not odd.passed, name


@pytest.mark.parametrize(
    "f_minus, g_pole, g_shift",
    [
        ("1/z", None, 0),  # f faults at the middle arc point 0
        ("sqrt(z)", None, 0),  # only f' = 0.5/sqrt(z) faults
        ("sqrt(z)", 7, 0),  # g faults at a later point; g comes before f'
        ("1/z", 2, 0),  # f at point 4 comes before g at point 2
        ("sqrt(z)", None, 1e200),  # g^2 overflows in phi, which comes before f'
    ],
)
def test_matching_faults_raise_as_the_per_formula_report(f_minus, g_pole, g_shift):
    data, _, gm = _spacelike_sides()
    gm = Add(gm, Const(g_shift))
    if g_pole is not None:
        gm = Add(gm, Div(Const(1), Sub(Var(), Const(boundary_points(data.domain)[g_pole]))))
    fm = parse(f_minus)
    expected = outcome(scalar_match_report, data, fm, gm)
    assert expected[0] is EvalError
    assert outcome(_match_report, data, with_formulas(data, fm, gm)) == expected
