import cmath
import hashlib
import math

import numpy as np
import pytest

from fixtures import (
    bench_configs,
    catenoid_extension_fixture,
    plane_fixture,
    spacelike_fixture,
    timelike_fixture,
)
from maxsurf.cli import SurfaceConfig
from maxsurf.expr import parse
from maxsurf.extension import extend, measure_contact
from maxsurf.minkowski import LVector, Plane
from maxsurf.verify import (
    GRID_MARGIN,
    GRID_RANDOM,
    GRID_SEED,
    GridSpec,
    _grid_points,
    catenoid_data,
    catenoid_reference,
    check_cross_product_normal,
    check_orthogonality_obstruction,
    eq_zero_residual,
    estimate_order,
    _puncture_square,
    full_diagnostics,
    harmonicity_order,
)
from maxsurf.weierstrass import Domain, DomainKind, PhiTriple, WeierstrassData, phi


def test_catenoid_reference_values():
    assert catenoid_reference(0, 0) == LVector(0, 0, 0)
    X = catenoid_reference(1, 0)
    assert abs(X.x1 - math.sinh(1)) < 1e-15 and X.x2 == 0 and X.x3 == 1
    X = catenoid_reference(1, math.pi / 2)
    assert abs(X.x1) < 1e-15
    assert abs(X.x2 - math.sinh(1)) < 1e-15
    assert X.x3 == 1


def test_catenoid_round_trip_grid():
    data = catenoid_data()
    from maxsurf.weierstrass import evaluate_surface

    worst = 0.0
    for u in np.linspace(-1.5, -0.1, 8):
        for v in np.linspace(-math.pi, math.pi, 9):
            z = cmath.exp(complex(u, v))
            X = evaluate_surface(data, z)
            R = catenoid_reference(u, v)
            worst = max(worst, max(abs(a - b) for a, b in zip(X.as_tuple(), R.as_tuple())))
    assert worst <= 1e-8


def test_quadratic_residual_flags_corrupted_triple():
    good = PhiTriple(1.0, 0.0, 1.0)
    assert eq_zero_residual(good) == 0
    corrupted = PhiTriple(1.0, 0.5j, 1.0)  # sign error in one component
    assert eq_zero_residual(corrupted) > 1e-2



def test_the_quadratic_identity_of_data_whose_squares_overflow_is_scale_free():
    # every |phi_k|^2 of f = 1e180 overflows; the ratio is taken of phi / max |phi_k|, as the density is
    dom = Domain(DomainKind.HALF_DISK, radius=10.0)
    data = WeierstrassData(parse("((1e-30)^-3)^2"), parse("sin(0.5)"), dom, 5j, LVector(0, 0, 0))
    assert eq_zero_residual(phi(data, 2 + 1j)) <= 1e-15
    record = full_diagnostics(data)["quadratic_identity"]
    assert record.passed and record.max_residual <= 1e-15 and record.details == {"points": 144}
    # on arrays: the overflowing triple is scaled; the others, 0 and a corrupted one, keep the plain ratio
    p = PhiTriple(np.array([1e200, 0, 1.0]), np.array([0, 0, 0.5j]), np.array([1e200, 0, 1.0]))
    assert eq_zero_residual(p).tolist() == [0.0, 0.0, eq_zero_residual(PhiTriple(1.0, 0.5j, 1.0))]

def test_full_diagnostics_plane_surface():
    rep = full_diagnostics(plane_fixture())
    assert rep.passed
    harm = rep["harmonicity"]
    assert harm.details["noise_floor_points"] == 3  # flat surface: pure roundoff


def test_full_diagnostics_catenoid():
    rep = full_diagnostics(catenoid_data())
    assert rep.passed
    assert rep["gauss_hyperboloid"].details["sheet"] == 1
    assert rep["metric_positivity"].details["min_factor"] > 0
    orders = rep["harmonicity"].details["fitted_orders"]
    assert all(o >= 1.8 for o in orders)


def test_full_diagnostics_deterministic():
    a = full_diagnostics(catenoid_data()).to_json()
    b = full_diagnostics(catenoid_data()).to_json()
    assert a == b


def test_full_diagnostics_extended_surface():
    data, plane = timelike_fixture()
    rep = full_diagnostics(extend(data, plane))
    assert rep.passed
    assert rep["c1_matching"].passed
    assert rep["plane_containment"].passed
    assert rep["reflection_symmetry"].details["coordinate"] == "x2"


def test_full_diagnostics_extended_catenoid():
    data, plane = catenoid_extension_fixture()
    rep = full_diagnostics(extend(data, plane))
    assert rep.passed


def test_harmonicity_order_catenoid():
    data = catenoid_data()
    order, res = harmonicity_order(data.field, 0.45 + 0.2j)
    assert order is not None and order >= 1.8
    assert res[0] > res[-1]


def test_estimate_order_poles_and_zeros():
    assert abs(estimate_order(parse("1/z^2"), 0) + 2) < 0.05
    assert abs(estimate_order(parse("1/z"), 0) + 1) < 0.05
    assert abs(estimate_order(parse("z^2"), 0) - 2) < 0.05
    assert abs(estimate_order(parse("z*(1+z)"), 0) - 1) < 0.05


def test_pole_zero_pairing_accepts_matched_orders():
    dom = Domain(DomainKind.DISK, radius=0.8, punctures=(0j,))
    data = WeierstrassData(
        parse("z^2"), parse("1/z"), dom, 0.4, LVector(0, 0, 0), ((0j, 1),)
    )
    rep = full_diagnostics(data)
    assert rep["pole_zero_orders"].passed


def test_pole_zero_pairing_rejects_simple_zero():
    dom = Domain(DomainKind.DISK, radius=0.8, punctures=(0j,))
    data = WeierstrassData(
        parse("z"), parse("1/z"), dom, 0.4, LVector(0, 0, 0), ((0j, 1),)
    )
    rep = full_diagnostics(data)
    assert not rep["pole_zero_orders"].passed
    assert not rep.passed


# ---------------------------------------------------------------------------
# obstruction checks

def test_obstruction_spacelike_impossible():
    plane = Plane(LVector(0, 0, 1), 0.0)
    rec = check_orthogonality_obstruction(plane, measured=[0.5, 0.1, 0.01, 1e-5])
    assert not rec.passed
    assert "impossible contact" in rec.details["message"]


def test_obstruction_needs_data_or_measured_values():
    with pytest.raises(ValueError, match="need either data or measured values"):
        check_orthogonality_obstruction(Plane(LVector(0, 0, 1), 0.0))


def test_a_report_has_no_check_of_an_unknown_name():
    with pytest.raises(KeyError, match="no_such_check"):
        full_diagnostics(catenoid_data(), GridSpec(3, 4))["no_such_check"]


def test_obstruction_spacelike_fine_for_real_contact():
    data, plane = spacelike_fixture()
    rec = check_orthogonality_obstruction(plane, data)
    assert rec.passed


def test_obstruction_timelike_orthogonal_out_of_scope():
    plane = Plane(LVector(0, 1, 0), 0.0)
    rec = check_orthogonality_obstruction(plane, measured=[0.2, 0.01, 1e-6])
    assert not rec.passed
    assert "out of scope" in rec.details["message"]


@pytest.mark.parametrize("normal", [LVector(0, 0, 1), LVector(0, 1, 0)], ids=["spacelike", "timelike"])
def test_obstruction_decides_at_the_tolerance_it_reports(normal):
    plane = Plane(normal, 0.0)
    below = check_orthogonality_obstruction(plane, measured=[0.5, 5e-4])
    above = check_orthogonality_obstruction(plane, measured=[0.5, 2e-3])
    assert not below.passed and above.passed
    assert below.tolerance == above.tolerance == 1e-3
    assert (below.max_residual, above.max_residual) == (5e-4, 2e-3)


@pytest.mark.parametrize("name", sorted(bench_configs()))
def test_the_obstruction_limit_is_the_contact_angle(name):
    cfg = SurfaceConfig.from_text(bench_configs()[name])
    rec = check_orthogonality_obstruction(cfg.plane, cfg.data)
    assert rec.passed and rec.details["limit"] == measure_contact(cfg.data, cfg.plane).c


def test_obstruction_lightlike_degenerate():
    dom = Domain(DomainKind.HALF_DISK, radius=0.7)
    data = WeierstrassData(parse("1"), parse("-1 + 0.01*i*z"), dom, 0.5j, LVector(0, 0, 0))
    rec = check_orthogonality_obstruction(Plane(LVector(1, 0, 1), 0.0), data)
    assert not rec.passed
    assert "X_u ^ X_v = 0" in rec.details["message"]


# ---------------------------------------------------------------------------
# cross product direction check

def test_cross_product_normal_plane_surface():
    rec = check_cross_product_normal(plane_fixture(), 0.2 + 0.1j, h=1e-4)
    assert rec.passed
    assert abs(rec.details["scale"] - 0.25) < 1e-6


def test_cross_product_normal_catenoid():
    rec = check_cross_product_normal(catenoid_data(), cmath.exp(-1), h=1e-4)
    assert rec.passed
    assert rec.max_residual <= 1e-6


def test_cross_product_residual_decays_quadratically():
    data = catenoid_data()
    r1 = check_cross_product_normal(data, 0.4 + 0.2j, h=2e-3).max_residual
    r2 = check_cross_product_normal(data, 0.4 + 0.2j, h=1e-3).max_residual
    assert 2.5 < r1 / r2 < 6.0


def test_path_independence_loops_around_the_catenoid_puncture():
    rec = full_diagnostics(catenoid_data())["path_independence"]
    assert rec.passed  # its period (0, 0, 2 pi i) is imaginary
    assert rec.details == {"loops": 1, "points": 2}


def test_path_independence_sees_a_real_period():
    # phi1 = i/(2z) has the real period -pi around 0; two nearby paths that
    # do not enclose the puncture between them cannot see it
    data = WeierstrassData(parse("i/z"), parse("0"), Domain(DomainKind.PUNCTURED_DISK), 0.5, LVector(0, 0, 0))
    rec = full_diagnostics(data)["path_independence"]
    assert not rec.passed
    assert abs(rec.max_residual - math.pi) < 1e-9


@pytest.mark.parametrize(
    "domain",
    [
        Domain(DomainKind.PUNCTURED_DISK, radius=2.0, punctures=(0.5, -0.7 + 0.1j)),
        Domain(DomainKind.HALF_DISK, punctures=(0.3 + 0.2j,)),
        Domain(DomainKind.ANNULUS, inner_radius=0.4, punctures=(0.6j,)),
        Domain(DomainKind.HALF_ANNULUS, inner_radius=0.4, punctures=(-0.5 + 0.1j, -0.6 + 0.3j)),
        Domain(DomainKind.PUNCTURED_DISK, punctures=(0.4 + 0.4j,)),  # the boundary is nearest along a diagonal
    ],
    ids=["two-punctures", "half-disk", "annulus", "half-annulus", "diagonal"],
)
def test_puncture_square_stays_inside_and_winds_once(domain):
    for p in domain.punctures:
        square = _puncture_square(domain, p)
        edges = [a + t * (b - a) for a, b in zip(square, square[1:] + square[:1]) for t in np.linspace(0, 1, 21)]
        assert all(domain.contains(w) for w in edges)
        inside = [o for o in domain.punctures if all(
            ((b - a) * (o - a).conjugate()).imag < 0 for a, b in zip(square, square[1:] + square[:1])
        )]
        assert inside == [p]


# sha256 of the complex128 bytes of _grid_points, recorded before it shared Domain.contains_many
_GRID_POINTS_SHA = {
    "disk": (Domain(DomainKind.DISK), "8d4869e1f7b3a42b", "9b6abf21e0fa8bfe"),
    "disk-punctured": (
        Domain(DomainKind.DISK, radius=2.0, punctures=(0.3 + 0.2j,)),
        "bce9b0e229f181ae",
        "e9b28e1e18302601",
    ),
    "half-disk": (
        Domain(DomainKind.HALF_DISK, radius=1.5, punctures=(0.2 + 0.5j,)),
        "acf9e651ebc4100a",
        "5be9fab3e7ae0749",
    ),
    "annulus": (
        Domain(DomainKind.ANNULUS, radius=1.0, inner_radius=0.3, punctures=(0.46 + 0.01j,)),
        "9c33e2dc5586720b",
        "da8150662128b984",
    ),
    "half-annulus": (
        Domain(DomainKind.HALF_ANNULUS, radius=2.0, inner_radius=0.5, punctures=(-1 + 0.6j,)),
        "f9b21bedea1fe188",
        "f85abfbc24e3f694",
    ),
    "punctured-disk": (
        Domain(DomainKind.PUNCTURED_DISK, punctures=(0.2 + 0.01j,)),
        "c8f86c46f7256bc6",
        "9b6abf21e0fa8bfe",
    ),
}


@pytest.mark.parametrize("name", sorted(_GRID_POINTS_SHA))
def test_grid_points_are_pinned_bit_for_bit(name):
    domain, default, small = _GRID_POINTS_SHA[name]
    for grid, sha in ((GridSpec(), default), (GridSpec(3, 5), small)):
        pts = np.array(_grid_points(domain, grid), dtype=complex)
        assert hashlib.sha256(pts.tobytes()).hexdigest()[:16] == sha


def all_tries_grid_points(domain, grid):
    """_grid_points as it drew every try at once: 100 * GRID_RANDOM tries, the first GRID_RANDOM kept."""
    lo = domain.inner_radius if domain.inner_radius > 0 else GRID_MARGIN * domain.radius
    lo = lo + GRID_MARGIN * (domain.radius - lo)
    hi = domain.radius * (1 - GRID_MARGIN)
    radii = np.linspace(lo, hi, grid.n_radial)[:, None]
    if domain.kind in (DomainKind.HALF_DISK, DomainKind.HALF_ANNULUS):
        angles = np.linspace(GRID_MARGIN * math.pi, math.pi * (1 - GRID_MARGIN), grid.n_angular)
    else:
        angles = np.linspace(-math.pi, math.pi, grid.n_angular, endpoint=False)
    lattice = radii * [math.cos(t) for t in angles] + 1j * (radii * [math.sin(t) for t in angles])
    R = domain.radius
    tries = np.random.default_rng(GRID_SEED).uniform(-R, R, size=(100 * GRID_RANDOM, 2)).view(complex)[:, 0]
    pts = np.concatenate((lattice.ravel(), tries[domain.contains_many(tries, spacing=0.05 * R)][:GRID_RANDOM]))
    return pts[domain.contains_many(pts, spacing=0.04 * R)].tolist()


_SPARSE_DOMAINS = {  # domains that keep few tries: several chunks, or all 6,000 tries without GRID_RANDOM kept
    "thin-half-annulus": Domain(DomainKind.HALF_ANNULUS, radius=1.0, inner_radius=0.9),
    "thin-annulus": Domain(DomainKind.ANNULUS, radius=1.0, inner_radius=0.995),
}


@pytest.mark.parametrize("name", sorted(_GRID_POINTS_SHA) + sorted(_SPARSE_DOMAINS))
def test_grid_points_drawn_in_chunks_are_those_of_all_tries_at_once(name):
    domain = _GRID_POINTS_SHA[name][0] if name in _GRID_POINTS_SHA else _SPARSE_DOMAINS[name]
    for grid in (GridSpec(), GridSpec(3, 5)):
        got = np.array(_grid_points(domain, grid), dtype=complex)
        assert got.tobytes() == np.array(all_tries_grid_points(domain, grid), dtype=complex).tobytes()
