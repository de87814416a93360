import cmath
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixtures import (
    BOUNDARY_CIRCLE_REFUSALS,
    catenoid_oracle,
    phi_array,
    plane_fixture,
    quadrature_constants,
    random_polynomial_data,
)
from maxsurf import weierstrass
from maxsurf.expr import Call, Const, Div, EvalError, Mul, Var, compile_array, parse
from maxsurf.minkowski import LVector, lorentz_inner
from maxsurf.verify import catenoid_data, eq_zero_residual
from maxsurf.weierstrass import (
    DegenerateMetricError,
    Domain,
    DomainKind,
    PathError,
    PhiTriple,
    QuadratureConfig,
    SurfaceError,
    ToleranceError,
    WeierstrassData,
    _phi_values,
    conformal_factor,
    evaluate_surface,
    gauss_from_g,
    gauss_map,
    integrate_path,
    loop_periods,
    phi,
    phi_exprs,
    stereo_inverse,
    surface_path,
    surface_tree,
)


# ---------------------------------------------------------------------------
# domains

def test_domain_membership_disk():
    d = Domain(DomainKind.DISK, radius=1.0)
    assert d.contains(0.5 + 0.2j)
    assert not d.contains(1.0)
    assert d.contains(1.0, closed=True)
    assert not d.contains(1.1, closed=True)


def test_domain_membership_half_disk():
    d = Domain(DomainKind.HALF_DISK, radius=1.0)
    assert d.contains(0.2j)
    assert not d.contains(0.5)  # the diameter is boundary
    assert d.contains(0.5, closed=True)
    assert not d.contains(-0.2j, closed=True)


def test_domain_membership_annulus_and_punctures():
    d = Domain(DomainKind.ANNULUS, radius=1.0, inner_radius=0.3)
    assert d.contains(0.5)
    assert not d.contains(0.2)
    p = Domain(DomainKind.PUNCTURED_DISK, radius=1.0)
    assert 0j in p.punctures
    assert p.contains(0.5)
    assert not p.contains(0)
    assert not p.contains(0, closed=True)


def test_domain_membership_half_annulus():
    d = Domain(DomainKind.HALF_ANNULUS, radius=1.0, inner_radius=0.3)
    assert d.contains(0.5j)
    assert not d.contains(-0.5j)
    assert not d.contains(0.1j)
    assert d.contains(0.5, closed=True)
    assert not d.contains(0.5)


# ---------------------------------------------------------------------------
# Domain.contains_many against the scalar rules

_PROPERTY_DOMAINS = [
    Domain(DomainKind.DISK, radius=1.0),
    Domain(DomainKind.DISK, radius=2.5, punctures=(0.3 + 0.2j,)),
    Domain(DomainKind.HALF_DISK, radius=0.5, punctures=(0.1 + 0.2j,)),
    Domain(DomainKind.ANNULUS, radius=1.0, inner_radius=0.3, punctures=(-0.5 + 0.1j,)),
    Domain(DomainKind.HALF_ANNULUS, radius=2.0, inner_radius=0.5, punctures=(-1 + 0.6j,)),
    Domain(DomainKind.PUNCTURED_DISK, radius=1.0, punctures=(0.31 + 0.17j,)),
]
_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0]


@st.composite
def _domain_points(draw, domain):
    """A point on, within 1e-12 of, or away from an edge of the domain or a puncture, or with a non-finite part."""
    R = domain.radius
    turn = cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))  # |turn| = 1 to an ulp, so abs rounds either way
    anchors = [R, -R, 1j * R, -1j * R, R * turn, domain.inner_radius, -1j * domain.inner_radius]
    anchors += [domain.inner_radius * turn, 0.7 * R, -0.4 * R] + list(domain.punctures)
    base = draw(st.sampled_from(anchors)) if draw(st.booleans()) else complex(
        draw(st.floats(-1.5 * R, 1.5 * R)), draw(st.floats(-1.5 * R, 1.5 * R))
    )
    step = draw(st.sampled_from([0.0, 1e-13, 1e-12, 1e-12 * max(R, 1.0), 2e-12 * max(R, 1.0), 0.05, 1e-9]))
    z = base + step * turn
    if draw(st.integers(0, 5)) == 0:  # a non-finite or signed-zero part
        part = draw(st.sampled_from(_SPECIAL))
        z = complex(part, z.imag) if draw(st.booleans()) else complex(z.real, part)
    return z


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), which=st.integers(0, len(_PROPERTY_DOMAINS) - 1), spacing=st.sampled_from([0.0, 1e-12, 0.05]))
def test_contains_many_is_contains_elementwise(data, which, spacing):
    domain = _PROPERTY_DOMAINS[which]
    zs = data.draw(st.lists(_domain_points(domain), min_size=1, max_size=30))
    # and on each circle of the rules at fixed angles, where the two roundings of |z| often part
    gap = max(spacing, 1e-12 * max(domain.radius, 1.0))
    circles = [(0, domain.radius), (0, domain.inner_radius)] + [(p, gap) for p in domain.punctures]
    zs += [c + r * cmath.exp(1j * t) for c, r in circles for t in np.linspace(-3, 3, 16).tolist()]
    for closed in (False, True):
        got = domain.contains_many(np.array(zs, dtype=complex), closed=closed, spacing=spacing).tolist()
        clear = [all(abs(z - p) > spacing for p in domain.punctures) for z in zs]
        assert got == [domain.contains(z, closed=closed) and c for z, c in zip(zs, clear)]


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(DomainKind.ANNULUS, radius=1.0, inner_radius=1.5)
    with pytest.raises(ValueError):
        Domain(DomainKind.DISK, radius=1.0, punctures=(2 + 0j,))
    with pytest.raises(ValueError):
        Domain(DomainKind.DISK, radius=1.0, boundary_circle=1.5)
    with pytest.raises(ValueError):
        Domain(DomainKind.HALF_DISK, radius=1.0, boundary_circle=0.5)
    Domain(DomainKind.DISK, radius=8e307)  # 2 * 8e307 is finite
    for radius in (1e308, math.inf):
        with pytest.raises(ValueError, match="diameter overflows"):
            Domain(DomainKind.DISK, radius=radius)


@pytest.mark.parametrize("kind, inner, rho, message", BOUNDARY_CIRCLE_REFUSALS)
def test_a_boundary_circle_off_a_full_domain_is_refused(kind, inner, rho, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Domain(kind, radius=1.0, inner_radius=inner, boundary_circle=rho)


def test_basepoint_must_lie_in_closure():
    dom = Domain(DomainKind.DISK, radius=1.0)
    with pytest.raises(ValueError):
        WeierstrassData(parse("1"), parse("0"), dom, 2.0, LVector(0, 0, 0))


def test_declared_pole_must_be_a_puncture():
    dom = Domain(DomainKind.DISK, radius=1.0)
    with pytest.raises(ValueError):
        WeierstrassData(
            parse("z^2"), parse("1/z"), dom, 0.5, LVector(0, 0, 0), ((0j, 1),)
        )


# ---------------------------------------------------------------------------
# phi and its identities

def test_phi_plane_data():
    data = plane_fixture()
    p = phi(data, 0.3 + 0.1j)
    assert p.phi1 == 0.5
    assert p.phi2 == 0.5j
    assert p.phi3 == 0


def test_phi_catenoid_at_one():
    p = phi(catenoid_data(), 1.0)
    assert abs(p.phi1 - 1) < 1e-15
    assert abs(p.phi2) < 1e-15
    assert abs(p.phi3 - 1) < 1e-15


def test_phi_quadratic_identity_random_data():
    rng = np.random.default_rng(42)
    data = random_polynomial_data(rng)
    for _ in range(200):
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        assert eq_zero_residual(phi(data, z)) <= 1e-12


def test_phi_exprs_match_pointwise():
    data = catenoid_data()
    from maxsurf.expr import evaluate

    e1, e2, e3 = phi_exprs(data.f, data.g)
    for z in (0.5 + 0.1j, 0.3 - 0.4j, 0.9):
        p = phi(data, z)
        assert abs(evaluate(e1, z) - p.phi1) < 1e-14
        assert abs(evaluate(e2, z) - p.phi2) < 1e-14
        assert abs(evaluate(e3, z) - p.phi3) < 1e-14


# ---------------------------------------------------------------------------
# surface evaluation

def test_flat_surface_closed_form():
    data = plane_fixture()
    for z in (0.2 + 0.1j, -0.5 + 0.4j, 0.9j):
        X = evaluate_surface(data, z)
        assert abs(X.x1 - z.real / 2) < 1e-12
        assert abs(X.x2 + z.imag / 2) < 1e-12
        assert abs(X.x3) < 1e-12


def test_evaluation_at_basepoint_is_anchor():
    data = catenoid_data()
    X = evaluate_surface(data, data.z0)
    assert X == data.X0


def test_catenoid_reference_point():
    X = evaluate_surface(catenoid_data(), cmath.exp(-1))
    assert abs(X.x1 + math.sinh(1)) < 1e-9
    assert abs(X.x2) < 1e-9
    assert abs(X.x3 + 1) < 1e-9


@pytest.mark.parametrize(
    "u,v",
    [(-0.5, 0.0), (-1.2, 1.0), (-0.3, -2.0), (-0.8, 3.0), (-1.4, -3.1), (-0.2, 3.14)],
)
def test_catenoid_matches_oracle(u, v):
    # includes points near the negative real axis, which force a detour
    data = catenoid_data()
    z = cmath.exp(complex(u, v))
    X = evaluate_surface(data, z)
    ox = catenoid_oracle(z)
    assert max(abs(a - b) for a, b in zip(X.as_tuple(), ox)) < 2e-9


def test_quadrature_exact_on_entire_functions():
    from maxsurf.weierstrass import _integrate_segment

    fn = lambda z: (cmath.exp(z), z**5, 1.0 + 0j)
    (i1, i2, i3), err, ok = _integrate_segment(fn, 0, 1 + 1j, 1e-12, 20)
    assert ok
    assert abs(i1 - (cmath.exp(1 + 1j) - 1)) < 1e-13
    assert abs(i2 - (1 + 1j) ** 6 / 6) < 1e-13
    assert abs(i3 - (1 + 1j)) < 1e-14


def test_path_detours_around_multiple_punctures():
    from maxsurf.weierstrass import _build_path

    pts = _build_path(-0.8, 0.8, (-0.4 + 0j, 0.4 + 0j))
    assert len(pts) == 4  # one detour per puncture
    for p in (-0.4, 0.4):
        for a, b in zip(pts, pts[1:]):
            # legs ending on a clearance circle may cut marginally inside it,
            # so the guarantee is a constant factor of the clearance
            d = b - a
            t = max(0.0, min(1.0, ((p - a) * d.conjugate()).real / abs(d) ** 2))
            assert abs(a + t * d - p) >= 0.9 * weierstrass.CLEARANCE


def test_detour_waypoints_reported():
    data = catenoid_data()
    z = cmath.exp(complex(-0.5, 3.1))
    result = surface_path(data, z)
    assert len(result.waypoints) == 3  # one detour around the puncture
    assert result.error < 1e-9


def test_path_endpoint_on_puncture_rejected():
    data = catenoid_data()
    with pytest.raises(PathError):
        evaluate_surface(data, 0j)


@pytest.mark.parametrize("z", [complex(math.nan, 0), complex(0.5, math.nan), complex(math.inf, 0)])
def test_non_finite_points_are_outside_every_domain(z):
    disk = catenoid_data().domain
    assert not disk.contains(z)
    assert not disk.contains(z, closed=True)
    assert not Domain(DomainKind.HALF_DISK, radius=1.0).contains(z, closed=True)


def test_evaluation_at_nan_raises_path_error():
    with pytest.raises(PathError):
        evaluate_surface(catenoid_data(), complex(math.nan, 0))


def _one_side(field):
    """A surface of one side, whose phi field is ``field``."""
    side = SimpleNamespace(field=field)
    side.side = lambda z: side
    return side


def test_nan_field_stops_after_one_panel():
    calls = []

    def field(z):
        calls.append(z)
        return (math.nan, math.nan, math.nan)

    with pytest.raises(ToleranceError):
        integrate_path(_one_side(field), [0j, 1 + 0j], QuadratureConfig())
    assert len(calls) == 15  # one GK15 panel, no bisection


@pytest.mark.parametrize("slot", [1, 2], ids=["phi2", "phi3"])
def test_nan_in_one_component_raises(slot):
    # max() drops a NaN that is not its first argument; the error estimate must not
    calls = []

    def field(z):
        calls.append(z)
        out = [1.0, 1.0, 1.0]
        out[slot] = math.nan
        return tuple(out)

    with pytest.raises(ToleranceError):
        integrate_path(_one_side(field), [0j, 1 + 0j], QuadratureConfig())
    assert len(calls) == 15


def test_surface_tree_sums_edges_to_evaluate_surface():
    data = catenoid_data()
    points = [0.5 + 0.1j, 0.3 + 0.4j, -0.2 + 0.5j, 0.6 - 0.3j]
    parents = [-1, 0, 1, 0]
    got = surface_tree(data, points, parents)
    for z, X in zip(points, got.tolist()):
        ref = evaluate_surface(data, z)
        assert max(abs(a - b) for a, b in zip(X, ref.as_tuple())) < 1e-9


def test_surface_tree_splits_tol_over_the_deepest_branch(monkeypatch):
    tols = []
    integrate = weierstrass._integrate_segments

    def recording(fg, side, a, b, tol, max_depth):
        tols.extend(tol)
        return integrate(fg, side, a, b, tol, max_depth)

    monkeypatch.setattr(weierstrass, "_integrate_segments", recording)
    surface_tree(catenoid_data(), [0.5, 0.6, 0.7, 0.5j], [-1, 0, 1, -1], QuadratureConfig(tol=3e-10))
    assert tols == [1e-10] * 4  # depth 2: three edges on the longest branch


def test_surface_tree_needs_a_parent_for_every_point():
    with pytest.raises(ValueError, match="points and parents must have the same length"):
        surface_tree(catenoid_data(), [0.5, 0.6], [-1])


def test_a_loop_needs_three_waypoints():
    with pytest.raises(ValueError, match="a loop needs at least 3 waypoints"):
        loop_periods(catenoid_data(), [0.5, -0.5])


def test_surface_tree_needs_parents_first():
    with pytest.raises(ValueError):
        surface_tree(catenoid_data(), [0.5, 0.6], [1, -1])


def test_surface_tree_rejects_parents_below_minus_one():
    with pytest.raises(ValueError, match=r"parent -5 of point 1 must be -1 \(a root\) or come before it"):
        surface_tree(catenoid_data(), [0.5, 0.6], [-1, -5])
    with pytest.raises(ValueError, match="parent 2 of point 1 must"):  # the first bad parent
        surface_tree(catenoid_data(), [0.5, 0.6, 0.7], [-1, 2, -3])


# ---------------------------------------------------------------------------
# the array detour test against _build_path

_CLEARANCES = [0.05, 0.125, 1e-3]


@st.composite
def _edge_end(draw, punctures, clearance):
    """An edge end: near or on a puncture, on the real axis, anywhere, or not finite."""
    pick = draw(st.integers(0, 4))
    if pick == 0:
        p = draw(st.sampled_from(punctures))
        return p + draw(st.sampled_from([0.0, 5e-13, 1e-12, 2e-12, clearance, 2 * clearance])) * cmath.exp(
            1j * draw(st.floats(-math.pi, math.pi))
        )
    if pick == 1:
        return complex(draw(st.floats(-1, 1)))
    if pick == 2:
        return complex(draw(st.sampled_from(_SPECIAL)), draw(st.floats(-1, 1)))
    return complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), clearance=st.sampled_from(_CLEARANCES), x=st.floats(-0.9, 0.9))
def test_needs_path_flags_exactly_the_edges_build_path_changes(data, clearance, x):
    # a puncture at height exactly ``clearance`` over the real axis has its foot on a real edge at
    # exactly that distance (no detour), one a step lower is closer (a detour)
    punctures = [complex(x, clearance), complex(x, math.nextafter(clearance, 0)), 0.25 - 0.5j, 0j]
    punctures = data.draw(st.lists(st.sampled_from(punctures), max_size=3, unique=True))
    end = _edge_end(punctures or [0j], clearance)
    edges = data.draw(st.lists(st.tuples(end, end), min_size=1, max_size=12))
    edges += [(s, s) for s, _ in edges[:2]]  # zero-length edges
    for p in punctures:  # tangent to the clearance circle at a generic angle: the foot is that far to an ulp
        w = cmath.exp(1j * data.draw(st.floats(-math.pi, math.pi)))
        edges.append((p + clearance * w + 0.3j * w, p + clearance * w - 0.3j * w))
    expected = []
    with quadrature_constants(clearance=clearance):
        for s, t in edges:
            try:
                expected.append(len(weierstrass._build_path(s, t, punctures)) > 2)
            except PathError:
                expected.append(True)
        s, t = (np.array(ends, dtype=complex) for ends in zip(*edges))
        assert weierstrass._needs_path(s, t, punctures).tolist() == expected


def test_tolerance_error_carries_estimate():
    data = catenoid_data()
    with pytest.raises(ToleranceError) as exc, quadrature_constants(max_depth=2, clearance=1e-6):
        evaluate_surface(data, cmath.exp(complex(-0.5, 3.1)), QuadratureConfig(tol=1e-13))
    assert exc.value.achieved > 0


def test_loop_periods_catenoid():
    # around the puncture: (0, 0, 2 pi i), so the real parts vanish and the
    # surface is single valued despite the multivalued antiderivative of 1/z
    data = catenoid_data()
    square = [0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j]
    p1, p2, p3 = loop_periods(data, square)
    assert abs(p1) < 1e-10
    assert abs(p2) < 1e-10
    assert abs(p3 - 2j * math.pi) < 1e-10


def test_loop_periods_flag_real_period():
    # f = i/z, g = 0 has phi1 = i/(2z): the loop period is -pi, a genuine
    # real period, so this data does not define a single-valued surface
    dom = Domain(DomainKind.PUNCTURED_DISK, radius=1.0)
    data = WeierstrassData(parse("i/z"), parse("0"), dom, 0.5, LVector(0, 0, 0))
    square = [0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j]
    p1, _, _ = loop_periods(data, square)
    assert abs(p1.real + math.pi) < 1e-10


def test_loop_periods_raise_below_tolerance():
    # one bisection cannot reach 1e-14 on the loop; a period that missed its
    # tolerance must not come back looking like (0, 0, 2 pi i)
    data = catenoid_data()
    square = [0.3 + 0.3j, -0.3 + 0.3j, -0.3 - 0.3j, 0.3 - 0.3j]
    with pytest.raises(ToleranceError) as exc, quadrature_constants(max_depth=1):
        loop_periods(data, square, QuadratureConfig(tol=1e-14))
    assert exc.value.achieved > 1e-14


def test_path_independence_two_polylines():
    data = catenoid_data()
    z = 0.3 + 0.4j
    direct = evaluate_surface(data, z)
    # dogleg through an off-segment waypoint
    mid = 0.5 * (data.z0 + z) + 0.15j * (z - data.z0)
    leg1 = evaluate_surface(data, mid)
    via = WeierstrassData(data.f, data.g, data.domain, mid, leg1)
    indirect = evaluate_surface(via, z)
    gap = max(abs(a - b) for a, b in zip(direct.as_tuple(), indirect.as_tuple()))
    assert gap < 1e-9


# ---------------------------------------------------------------------------
# Gauss map, stereographic projection, conformal factor

def test_gauss_map_center():
    data = plane_fixture()
    assert gauss_map(data, 0.1 + 0.1j) == LVector(0, 0, 1)


def test_gauss_map_half_value():
    # g = 1/2 maps to (4/3, 0, 5/3); check it sits on the hyperboloid
    N = gauss_from_g(0.5)
    assert abs(N.x1 - 4 / 3) < 1e-15
    assert abs(N.x2) < 1e-15
    assert abs(N.x3 - 5 / 3) < 1e-15
    assert abs(lorentz_inner(N, N) + 1) < 1e-15


def test_gauss_values_on_hyperboloid_both_sheets():
    rng = np.random.default_rng(1)
    for _ in range(300):
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(abs(w) - 1) < 1e-3:
            continue
        N = gauss_from_g(w)
        assert abs(lorentz_inner(N, N) + 1) < 1e-12
        assert (N.x3 >= 1 - 1e-12) == (abs(w) < 1)


def test_gauss_degenerate_rejected():
    with pytest.raises(DegenerateMetricError):
        gauss_from_g(cmath.exp(0.3j))


@pytest.mark.parametrize("w", [1e200, 1e155j, complex(1e200, math.nan), complex(math.inf, 0)])
def test_gauss_of_a_g_whose_square_overflows_raises(w):
    with pytest.raises(SurfaceError, match=r"\|g\|\^2 = (inf|nan) is not finite"):
        gauss_from_g(w)


def test_the_array_field_overflows_without_warnings():
    # g^2 overflows on [0, 0.5]: the batch's phi is not finite there, so that segment fails, and nothing warns
    data = WeierstrassData(parse("1"), parse("1e200*z"), Domain(DomainKind.DISK), 0j, LVector(0, 0, 0))
    a, b = np.zeros(2, dtype=complex), np.array([0.5, 1e-201], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        side = np.zeros(2, dtype=np.intp)
        _, ok = weierstrass._integrate_segments([data.fg_array], side, a, b, np.full(2, 1e-10), 26)
    assert ok.tolist() == [False, True]


def _fg_cases():
    e = Call("exp", Var())  # f and g share this node by identity, and f is a subtree of g
    f = Mul(e, e)
    return [
        catenoid_data(),
        plane_fixture(),
        random_polynomial_data(np.random.default_rng(5)),
        WeierstrassData(f, Div(Const(1), Mul(f, Const(0.5))), Domain(DomainKind.DISK), 0j, LVector(0, 0, 0)),
        WeierstrassData(parse("1"), parse("1e200*z"), Domain(DomainKind.DISK), 0j, LVector(0, 0, 0)),
    ]


@pytest.mark.parametrize("data", _fg_cases())
def test_fg_array_is_the_two_programs_of_f_and_g_bit_for_bit(data):
    # 0 is the catenoid's pole, 400 and -400i make exp overflow, and NaN is NaN in every program
    z = np.array([0, 0.3 + 0.2j, -0.7j, 400, -400j, 1e200, complex("nan")])
    f, g = data.fg_array(z)
    want_f, want_g = compile_array(data.f)(z), compile_array(data.g)(z)
    assert f.tobytes() == want_f.tobytes() and g.tobytes() == want_g.tobytes()
    # one program over two sides gives each side's values bit for bit
    other = catenoid_data()
    both = compile_array(data.f, data.g, other.f, other.g)(z)
    assert [v.tobytes() for v in both] == [v.tobytes() for v in (f, g, *other.fg_array(z))]


def test_stereo_inverse_examples():
    assert stereo_inverse(LVector(0, 0, 1)) == 0
    assert abs(stereo_inverse(LVector(4 / 3, 0, 5 / 3)) - 0.5) < 1e-15


def test_stereo_inverse_inverts_gauss_map():
    rng = np.random.default_rng(2)
    for _ in range(200):
        w = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        assert abs(stereo_inverse(gauss_from_g(w)) - w) < 1e-13


def test_stereo_inverse_rejects_lower_sheet_and_junk():
    with pytest.raises(ValueError):
        stereo_inverse(gauss_from_g(2.0))  # |g| > 1 lands on x3 <= -1
    with pytest.raises(ValueError):
        stereo_inverse(LVector(1, 1, 1))


def test_conformal_factor_plane():
    assert abs(conformal_factor(plane_fixture(), 0.2 + 0.2j) - 0.5) < 1e-15


def test_conformal_factor_closed_form():
    # component sum equals |f|^2 (1 - |g|^2)^2 / 2
    from maxsurf.expr import evaluate

    data = catenoid_data()
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if abs(z) < 0.1 or abs(z) > 0.95:
            continue
        fv = evaluate(data.f, z)
        gv = evaluate(data.g, z)
        closed = 0.5 * abs(fv) ** 2 * (1 - abs(gv) ** 2) ** 2
        assert abs(conformal_factor(data, z) - closed) < 1e-12 * (1 + closed)


@pytest.mark.parametrize("phis", [(1e200, 0, 0), (0, 1e200j, 1), (1, 1, 1e200), (1e200, 0, 1e200), (1.2e154, 1.2e154, 0)])
def test_density_overflows_to_inf_as_on_arrays(phis):
    with np.errstate(over="ignore", invalid="ignore"):
        want = PhiTriple(*(np.array([complex(p)]) for p in phis)).density()[0]
    got = PhiTriple(*map(complex, phis)).density()
    assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("f", [1e180, 2e154])
@pytest.mark.parametrize("array", [False, True])
def test_a_density_whose_squares_overflow_is_its_closed_form(f, array):
    # the squares overflow, so a * a + b * b - c * c is inf - inf = NaN (f = 1e180) or inf (f = 2e154),
    # while |f|^2 (1 - |g|^2)^2 / 2 overflows for the first and is 1.186e308 for the second
    g = math.sin(0.5)
    x = f * (1 - g * g)
    want = 0.5 * x * x
    with np.errstate(all="ignore"):
        got = PhiTriple(*_phi_values(np.array([f]) if array else f, g)).density()
    assert np.ndim(got) == array and math.isclose(float(np.ravel(got)[0]), want, rel_tol=1e-15)


def test_scalar_density_squares_as_the_array_pass_bit_for_bit():
    # both square by multiplication; libm's x ** 2 rounds apart from x * x on about 1 in 1,200 of these
    rng = np.random.default_rng(14)
    moduli = rng.uniform(0, 4, (3, 10**5))
    moduli[0] = np.round(moduli[0] * 2**26) / 2**26  # 28 significant bits, where the two round apart most
    want = PhiTriple(*moduli).density()
    got = np.array([PhiTriple(*m).density() for m in moduli.T.tolist()])
    assert got.tobytes() == want.tobytes()


def test_conformal_factor_vanishes_at_cone_circle():
    data = catenoid_data()
    assert conformal_factor(data, 0.999) < 1e-5
    assert conformal_factor(data, cmath.exp(0.2j) * 0.9999) < 1e-7


def test_evaluation_fault_at_puncture():
    data = catenoid_data()
    with pytest.raises(EvalError):
        phi(data, 0j)


@pytest.mark.parametrize("max_depth", [26, 3])
def test_batched_segments_use_the_panels_of_the_scalar_integrator(monkeypatch, max_depth):
    # segments close to the catenoid's puncture need several levels of bisection
    data = catenoid_data()
    segments = [(0.9 + 0j, 0.06 + 0.01j), (0.5j, 0.2 - 0.5j), (0.3 + 0j, 0.31 + 0j), (0.07 + 0.07j, -0.07 + 0.07j)]
    tols = [1e-12, 1e-10, 1e-13, 1e-11]
    calls = []
    gk15 = weierstrass._gk15

    def counted(fn, a, b):
        calls.append((a, b))
        return gk15(fn, a, b)

    monkeypatch.setattr(weierstrass, "_gk15", counted)
    scalar = []
    for (a, b), tol in zip(segments, tols):
        before = len(calls)
        scalar.append(weierstrass._integrate_segment(data.field, a, b, tol, max_depth) + (len(calls) - before,))
    assert sum(s[3] for s in scalar) > 4 * len(segments)  # bisection happened

    sizes = []
    batch = weierstrass._gk15_panels

    def counted_batch(fg, a, b, side):
        sizes.append(len(a))
        return batch(fg, a, b, side)

    monkeypatch.setattr(weierstrass, "_gk15_panels", counted_batch)
    calls.clear()
    a, b = (np.array(ends, dtype=complex) for ends in zip(*segments))
    side = np.zeros(4, dtype=np.intp)
    sums, ok = weierstrass._integrate_segments([data.fg_array], side, a, b, np.array(tols), max_depth)
    assert calls == []
    assert sum(sizes) == sum(s[3] for s in scalar)
    assert ok.tolist() == [s[2] for s in scalar]
    assert (not all(ok)) == (max_depth == 3)
    for k, (triple, _, _, _) in enumerate(scalar):
        size = max(1.0, *map(abs, triple))
        for c in range(3):
            assert abs(sums[c, k] - triple[c]) <= 1e-13 * size


def test_surface_tree_raises_the_fault_the_scalar_path_meets_first():
    # [0, 1] is halved once; the centre nodes of its halves sit on the two poles
    data = WeierstrassData(
        parse("1/(z-0.75)+1/(z-0.25)"), parse("z/3"), Domain(DomainKind.DISK, radius=2.0), 0j, LVector(0, 0, 0)
    )
    with pytest.raises(EvalError) as scalar:
        evaluate_surface(data, 1.0)
    with pytest.raises(EvalError) as batched:
        surface_tree(data, [1 + 0j], [-1])
    assert str(batched.value) == str(scalar.value) == "division by zero in '1/(z-0.25)'"


# the false alarm: z*1e300*1e300 overflows, to NaN on arrays but to 1/inf = 0 in scalar arithmetic
_OVERFLOW = WeierstrassData(
    parse("1/(z*1e300*1e300)"), parse("z/3"), Domain(DomainKind.DISK), 0.1, LVector(1, 2, 3)
)
_REAL_TREE = ([0.5 + 0j, 0.3 + 0j, 0.7 + 0j, 0.2 + 0j], [-1, 0, 0, 1])


def test_surface_tree_gives_the_scalar_values_where_only_the_array_field_is_nan():
    points, parents = _REAL_TREE
    assert np.isnan(phi_array(_OVERFLOW, points)).all()
    assert all(map(cmath.isfinite, _OVERFLOW.field(0.5 + 0j)))
    got = surface_tree(_OVERFLOW, points, parents)
    assert got.tolist() == [list(evaluate_surface(_OVERFLOW, z).as_tuple()) for z in points] == [[1, 2, 3]] * 4


def test_failed_batch_is_replayed_once_edge_by_edge(monkeypatch):
    paths, scalar = [], weierstrass.integrate_path

    def counted_path(surface, points, q):
        paths.append(points)
        return scalar(surface, points, q)

    monkeypatch.setattr(weierstrass, "integrate_path", counted_path)
    points, parents = _REAL_TREE
    surface_tree(_OVERFLOW, points, parents)
    assert [(p[0], p[-1]) for p in paths] == [(0.1 + 0j, 0.5 + 0j), (0.5, 0.3), (0.5, 0.7), (0.3, 0.2)]


def test_only_the_failed_edges_are_replayed(monkeypatch):
    # z*1e154*1e154 overflows only beyond |z| = 1.797, so only edges reaching past it fail in the batch
    data = WeierstrassData(
        parse("1/(z*1e154*1e154)"), parse("z/3"), Domain(DomainKind.DISK, radius=2.0), 0.1, LVector(1, 2, 3)
    )
    points, parents = [0.5 + 0j, 1.0 + 0j, 1.9 + 0j, 0.3 + 0j, 1.95 + 0j], [-1, 0, 1, 0, 2]
    assert np.isnan(phi_array(data, [1.9 + 0j])).all()
    assert np.isfinite(phi_array(data, [1.0 + 0j])).all()
    paths, scalar = [], weierstrass.integrate_path

    def counted_path(surface, points, q):
        paths.append(points)
        return scalar(surface, points, q)

    monkeypatch.setattr(weierstrass, "integrate_path", counted_path)
    got = surface_tree(data, points, parents)
    assert [(p[0], p[-1]) for p in paths] == [(1.0, 1.9), (1.9, 1.95)]
    monkeypatch.setattr(weierstrass, "integrate_path", scalar)
    for z, X in zip(points, got.tolist()):
        assert max(abs(a - b) for a, b in zip(X, evaluate_surface(data, z).as_tuple())) < 1e-12


def test_surface_tree_raises_the_first_failure_in_forest_order():
    data = catenoid_data()
    with pytest.raises(PathError) as scalar:
        evaluate_surface(data, 0j)
    with pytest.raises(PathError) as batched:
        surface_tree(data, [0.5 + 0j, 0j], [-1, 0])
    assert str(batched.value) == str(scalar.value)
    # the root edge misses its share tol / 2 before the second edge is reached
    with quadrature_constants(max_depth=1):
        with pytest.raises(ToleranceError) as scalar:
            evaluate_surface(data, 0.06 + 0.01j, QuadratureConfig(tol=5e-15))
        with pytest.raises(ToleranceError) as batched:
            surface_tree(data, [0.06 + 0.01j, 0j], [-1, 0], QuadratureConfig(tol=1e-14))
    assert str(batched.value) == str(scalar.value)


@pytest.mark.parametrize("err", [math.inf, math.nan], ids=["inf", "nan"])
def test_a_non_finite_estimate_never_converges_and_stops_bisecting(err):
    # on floats and on arrays alike, whatever the tolerance, the largest component and the depth left
    for mag in (1.0, math.inf, math.nan):
        for depth in (0, 5):
            assert weierstrass._stop(err, 1e-10, mag, depth) == (True, False)
            done, good = weierstrass._stop(np.array([err, 1e-12, 1.0]), np.full(3, 1e-10), np.array([mag, 1, 1]), depth)
            assert done.tolist() == [True, True, depth == 0] and good.tolist() == [False, True, False]


def test_an_overflowed_estimate_raises_after_one_panel(monkeypatch):
    # an integral of inf made its estimate inf <= 1e-15 * inf pass for converged
    calls = []

    def overflowed(fn, a, b):
        calls.append((a, b))
        return (complex(math.inf), 0j, 0j), math.inf

    monkeypatch.setattr(weierstrass, "_gk15", overflowed)
    with pytest.raises(ToleranceError, match=r"achieved error estimate inf\)$"):
        integrate_path(_one_side(None), [0j, 1 + 0j], QuadratureConfig())
    assert len(calls) == 1


def test_an_overflowed_batch_estimate_fails_its_segment_after_one_level(monkeypatch):
    sizes = []

    def overflowed(fg, a, b, side):
        sizes.append(len(a))
        return np.full((3, len(a)), complex(math.inf)), np.where(a.real > 0, math.inf, 0.0)

    monkeypatch.setattr(weierstrass, "_gk15_panels", overflowed)
    a, b = np.array([0j, 1 + 0j]), np.array([-1 + 0j, 2 + 0j])
    _, ok = weierstrass._integrate_segments([None], np.zeros(2, dtype=np.intp), a, b, np.full(2, 1e-10), 26)
    assert ok.tolist() == [True, False] and sizes == [2]


# The level loop as it ran before one loop took every side: a loop per side, on the (n, 15) kernel.
_REFERENCE_NODES = np.array([0.0] + [s * x for x in weierstrass._XGK for s in (-1.0, 1.0)])


def _reference_gk15_panels(field_array, a, b):
    m = len(a)
    out = np.empty((3, m), dtype=complex)
    err = np.empty(m)
    for s in range(0, m, weierstrass._CHUNK):
        ca, cb = a[s : s + weierstrass._CHUNK], b[s : s + weierstrass._CHUNK]
        c = 0.5 * (ca + cb)
        h = 0.5 * (cb - ca)
        values = np.array(field_array(c[:, None] + h[:, None] * _REFERENCE_NODES))
        k = weierstrass._WGK_CENTER * values[..., 0]
        g = weierstrass._WG_CENTER * values[..., 0]
        for j, w in enumerate(weierstrass._WGK):
            pair = values[..., 2 * j + 1] + values[..., 2 * j + 2]
            k += w * pair
            if j % 2 == 1:
                g += weierstrass._WG[j // 2] * pair
        out[:, s : s + weierstrass._CHUNK] = h * k
        finite = np.isfinite(values).all(axis=(0, 2))
        err[s : s + weierstrass._CHUNK] = np.where(finite, np.abs(h) * np.abs(k - g).max(axis=0), np.nan)
    return out, err


def _reference_level_loop(field_array, a, b, tol, max_depth, levels, side):
    n = len(a)
    sums = np.zeros((3, n), dtype=complex)
    ok = np.ones(n, dtype=bool)
    seg = np.arange(n)
    depth = max_depth
    with np.errstate(all="ignore"):
        while len(a):
            levels.setdefault(max_depth - depth, []).extend((side, x, y) for x, y in zip(a.tolist(), b.tolist()))
            out, e = _reference_gk15_panels(field_array, a, b)
            done, good = weierstrass._stop(e, tol, np.abs(out).max(axis=0), depth)
            for c in range(3):
                np.add.at(sums[c], seg[done], out[c, done])
            ok[seg[done & ~good]] = False
            go = ~done
            mid = 0.5 * (a[go] + b[go])
            a, b = np.concatenate((a[go], mid)), np.concatenate((mid, b[go]))
            tol = np.tile(0.5 * tol[go], 2)
            seg = np.tile(seg[go], 2)
            depth -= 1
    return sums, ok


def _reference_integrate_segments(sides, side, a, b, tol, owner, polylines, q, levels):
    """The path batch with a level loop per side, on flattened segments: (path sums, segment sums, converged
    flags)."""
    n = len(polylines)
    sums, failed = np.zeros((3, n), dtype=complex), np.zeros(n, dtype=bool)
    seg_sums, oks = np.zeros((3, len(a)), dtype=complex), np.ones(len(a), dtype=bool)
    for i, patch in enumerate(sides):
        on = side == i
        field = lambda z, patch=patch: phi_array(patch, z)  # noqa: E731
        seg_sum, ok = _reference_level_loop(field, a[on], b[on], tol[on], weierstrass.MAX_DEPTH, levels, i)
        for c in range(3):
            np.add.at(sums[c], owner[on], seg_sum[c])
        failed[owner[on][~ok]] = True
        seg_sums[:, on], oks[on] = seg_sum, ok
    for k in np.flatnonzero(failed).tolist():
        sums[:, k] = weierstrass.integrate_path(*polylines[k], q)[0]
    return sums, seg_sums, oks


def _poly(f, g, radius=1.0):
    return WeierstrassData(parse(f), parse(g), Domain(DomainKind.DISK, radius=radius), 0j, LVector(0, 0, 0))


def _side_sets():
    from fixtures import catenoid_extension_fixture
    from maxsurf.extension import extend

    catenoid = catenoid_data()
    growth = _poly("1e295*exp(z*1e-11)", "0.1", radius=1e13)  # phi finite on [0, 2e12], its estimate inf
    return {
        "catenoid": [catenoid],
        "catenoid-b07": [catenoid, extend(*catenoid_extension_fixture()).minus],
        "polynomials": [_poly("1+z-0.3*z^3", "z/3"), _poly("(2-i)*z^2+0.5", "0.2*i*z+0.1")],
        "overflow": [_poly("1+z-0.3*z^3", "z/3"), growth],
    }


# segments with a node where the field is not finite: the catenoid's pole at the centre node, and z^2 overflowing
_FAULTS = {"catenoid": (-0.1, 0.1), "catenoid-b07": (-0.1j, 0.1j), "polynomials": (1e200, 2e200), "overflow": (0, 2e12)}
_SIDE_SETS = _side_sets()


@st.composite
def _level_batches(draw):
    """Sides, and paths on them: straight edges on the first side and polylines on a surface whose side at
    each segment's midpoint is drawn, some segments of length 0; a drawn tolerance and MAX_DEPTH, and a kernel
    chunk of 512 or 3 panels.  Some paths fail on a segment of ``_FAULTS``."""
    name = draw(st.sampled_from(sorted(_SIDE_SETS)))
    sides = _SIDE_SETS[name]
    point = st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False)
    ends, bent, on = [], {}, {}
    drawn = SimpleNamespace(side=lambda z: on[z])  # the side drawn at each midpoint
    for k in range(draw(st.integers(1, 4))):
        fault = draw(st.integers(0, 9)) == 0
        if not draw(st.integers(0, 2)) and not (fault and name == "overflow"):  # a straight edge
            ends.append(_FAULTS[name] if fault else (draw(point), draw(point)))
            continue
        points = [draw(point)]
        for _ in range(draw(st.integers(0, 3))):
            points.append(points[-1] if draw(st.integers(0, 9)) == 0 else draw(point))
        if fault:
            points = list(_FAULTS[name])
        for x, y in zip(points, points[1:]):
            side = 1 if fault and name == "overflow" else draw(st.integers(0, len(sides) - 1))  # the growth patch
            on.setdefault(0.5 * (x + y), sides[side])
        ends.append((0j, 0j))  # not read: the polyline takes the path's place
        bent[k] = (drawn, points)
    q = QuadratureConfig(10.0 ** draw(st.floats(-13, -6)))
    a, b = (np.array(column, dtype=complex) for column in zip(*ends))
    surface = SimpleNamespace(original=sides[0])
    return surface, (a, b), bent, q, draw(st.sampled_from([3, 8, 26])), draw(st.sampled_from([512, 3]))


def _flattened(surface, a, b, bent, q):
    """The batch's paths as the reference takes them: its sides, numbered from surface.original in the order
    met, and its segments as (side, a, b, tol, owner) arrays, the straight edges first and then the polylines'
    segments, each in path order; with the polyline of each path."""
    data = surface.original
    numbers, rows = {id(data): (0, data)}, []
    polylines = [bent.get(k) or (data, [complex(a[k]), complex(b[k])]) for k in range(len(a))]
    for k in sorted(range(len(a)), key=lambda k: k in bent):
        on, points = polylines[k]
        for x, y in zip(points, points[1:]):
            if x != y:
                patch = on.side(0.5 * (x + y))
                side = numbers.setdefault(id(patch), (len(numbers), patch))[0]
                rows.append((side, x, y, q.tol / max(len(points) - 1, 1), k))
    columns = zip(*rows) if rows else [()] * 5
    segments = [np.array(c, dtype=t) for c, t in zip(columns, (np.intp, complex, complex, float, np.intp))]
    return [patch for _, patch in numbers.values()], segments, polylines


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_level_batches())
def test_one_level_loop_over_all_sides_is_the_loop_per_side_bit_for_bit(batch):
    surface, (a, b), bent, q, max_depth, chunk = batch
    numbered, (side, sa, sb, tol, owner), polylines = _flattened(surface, a, b, bent, q)
    replays, want_replays = [], []

    def replay(record):
        def integrate(on, points, rq):  # a replay that converges, recording the polyline it is given
            record.append(list(points))
            return integrate_path(surface.original, [0.5 + 0j, 0.6 + 0j], rq)

        return integrate

    levels, loops, want_levels = [], [], {}
    kernel, loop = weierstrass._gk15_panels, weierstrass._integrate_segments

    def recorded_kernel(fg, pa, pb, pside):
        levels.append(list(zip(pside.tolist(), pa.tolist(), pb.tolist())))
        return kernel(fg, pa, pb, pside)

    def recorded_loop(*args):
        loops.append(loop(*args))
        return loops[-1]

    with quadrature_constants(max_depth=max_depth), pytest.MonkeyPatch.context() as patch:
        patch.setattr(weierstrass, "_CHUNK", chunk)
        patch.setattr(weierstrass, "integrate_path", replay(want_replays))
        want = _reference_integrate_segments(numbered, side, sa, sb, tol, owner, polylines, q, want_levels)
        patch.setattr(weierstrass, "integrate_path", replay(replays))
        patch.setattr(weierstrass, "_gk15_panels", recorded_kernel)
        patch.setattr(weierstrass, "_integrate_segments", recorded_loop)
        sums = weierstrass._integrate_batch(surface, a, b, bent, q)
    (seg_sums, ok), = loops
    assert sums.tobytes() == want[0].tobytes()
    assert seg_sums.tobytes() == want[1].tobytes()
    assert ok.tolist() == want[2].tolist()
    assert replays == want_replays
    key = lambda p: (p[0], p[1].real, p[1].imag, p[2].real, p[2].imag)  # noqa: E731
    want_levels = [sorted(want_levels[d], key=key) for d in sorted(want_levels)]
    assert [sorted(level, key=key) for level in levels] == want_levels
