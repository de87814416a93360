import cmath
import hashlib
import json
import math
from unittest.mock import patch

import numpy as np
from numpy.polynomial import polynomial as P
import pytest
from hypothesis import given, settings, strategies as st

from fixtures import (
    bench_configs,
    catenoid_extension_fixture,
    degenerate_lightlike_fixture,
    lower_sheet_config,
    near_orthogonal_fixture,
    orthogonal_band_config,
    plane_fixture,
    random_polynomial_data,
    spacelike_fixture,
    tangent_band_config,
    timelike_fixture,
)
from maxsurf import verify
from maxsurf.cli import SurfaceConfig, main
from maxsurf.expr import parse
from maxsurf.extension import (
    CircleOrLine,
    HypothesisViolationError,
    _lightlike_locus,
    _spacelike_locus,
    extend,
    measure_contact,
)
from maxsurf.minkowski import LVector
from maxsurf.verify import (
    GRID_MARGIN,
    GRID_RANDOM,
    GRID_SEED,
    GridSpec,
    _grid_points,
    _json_text,
    catenoid_data,
    catenoid_reference,
    _cross_product_residual,
    _stencil_panels,
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
# obstructions: the one rule of measure_contact

def test_obstruction_spacelike_impossible():
    # a Gauss map has |<N, n>| >= 1 against a spacelike plane, so the row refuses a smaller |c|
    with pytest.raises(HypothesisViolationError, match="impossible against a spacelike plane"):
        _spacelike_locus(1e-5, 1, [0.5 + 0j])


def test_a_report_has_no_check_of_an_unknown_name():
    with pytest.raises(KeyError, match="no_such_check"):
        full_diagnostics(catenoid_data(), GridSpec(3, 4))["no_such_check"]


def test_obstruction_spacelike_fine_for_real_contact():
    contact = measure_contact(*spacelike_fixture())
    assert abs(abs(contact.c) - 5 / 3) < 1e-9 and contact.theta > 0


def test_the_near_orthogonal_probe_is_measured_and_fails_matching():
    # c = 2e-4 is a timelike contact like any other; with f = 1 the probe's boundary does not lie in
    # a plane x2 = d, so the two sides do not match
    data, plane = near_orthogonal_fixture(1e-4)
    contact = measure_contact(data, plane)
    assert abs(contact.c - 2e-4 / (1 - 1e-8)) < 1e-12 and abs(contact.lam - 5e3) < 1e-4
    report = extend(data, plane).matching
    assert not report.passed and 3.9e-4 < report.max_gap < 4.1e-4


ORTHOGONAL_BAND = sorted({float(f"{m}e{k}") for k in range(-9, -3) for m in (1, 2, 5)} | {1e-3}
                         | {1e-10, 3e-9, 1.2e-8, 3e-8, 3e-7})


@pytest.mark.parametrize("eps", ORTHOGONAL_BAND)
def test_a_near_orthogonal_contact_reflects_through_the_timelike_form_of_c(eps):
    # c = 2 eps / (1 - eps^2): at every size of c the contact's one locus is the timelike form of c itself,
    # which is the line Im w = 0 at c = 0 only, and g reflected through it matches (ROADMAP item 7's band)
    cfg = SurfaceConfig.from_text(orthogonal_band_config(eps))
    ext = extend(cfg.data, cfg.plane)
    contact = ext.contact
    assert contact.locus == CircleOrLine(contact.c, 1j, -contact.c) and contact.lam == 1 / contact.c
    assert ext.matching.passed, ext.matching.max_gap


def _band_polynomials(e):
    """f, f g and f g^2 of the timelike band, f = (1 + i e z)^2 and g = (z + i e)/(1 + i e z), by coefficient."""
    a, b = (1, 1j * e), (1j * e, 1)
    return P.polymul(a, a), P.polymul(a, b), P.polymul(b, b)


def _tangent_polynomials(lam):
    """f, f g and f g^2 of the lightlike band, f = i (gamma (z+1.5) + 1)^2 and g = (i (z+1.5) + 1)/(gamma (z+1.5) + 1),
    with the gamma = -i lam/(lam+2) the config writes."""
    gamma = complex(0, -lam / (lam + 2))
    a, b = (1.5 * gamma + 1, gamma), (1.5j + 1, 1j)
    return 1j * P.polymul(a, a), 1j * P.polymul(a, b), 1j * P.polymul(b, b)


def _lower_sheet_polynomials(theta):
    """f, f g and f g^2 of f = k (1 - i z)^2 and g = m i (1 + i z)/(k (1 - i z)), with the k = 1 - cosh(theta) and
    m = -sinh(theta) the config writes (1 - cosh(theta) rounds, so the oracle takes the same k)."""
    k, m = 1 - math.cosh(theta), -math.sinh(theta)
    return k * P.polymul((1, -1j), (1, -1j)), 1j * m * np.array([1, 0, 1]), -m * m / k * P.polymul((1, 1j), (1, 1j))


def _closed_form_X(polynomials, z0, z):
    """X(z) from X(z0) = 0 for phi = (f (1 + g^2)/2, i f (1 - g^2)/2, f g), whose antiderivatives are polynomial."""
    f, fg, fg2 = polynomials
    phis = (P.polyadd(f, fg2) / 2, 0.5j * P.polysub(f, fg2), fg)
    return [(P.polyval(z, P.polyint(p)) - P.polyval(z0, P.polyint(p))).real for p in phis]


def _extends_to_its_closed_form(tmp_path, capsys, text, polynomials, z0):
    """extend exits 0 with matching passed, check of the written file passes, and eval on the reflected side is
    within 10 tol (1 + |X|) of the closed form, where the data is the continuation of itself."""
    cfg, out = tmp_path / "contact.cfg", tmp_path / "contact.ext.cfg"
    cfg.write_text(text)
    assert main(["extend", str(cfg), "-o", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["matching"]["passed"]
    assert main(["check", str(out)]) == 0, [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]
                                            if not c["passed"]]
    capsys.readouterr()
    tol = SurfaceConfig.from_text(text).tol
    for z in (0.2 - 0.3j, -0.35 - 0.15j):
        assert main(["eval", str(out), f"--at={z.real!r},{z.imag!r}"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        X = [float(x) for x in line.removeprefix("X = (").removesuffix(")").split(", ")]
        want = _closed_form_X(polynomials, z0, z)
        assert max(abs(a - b) for a, b in zip(X, want)) <= 10 * tol * (1 + math.hypot(*X)), (z, X, want)


_NEAR_LINE = [s * m for m in (1e-10, 3e-9, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6, 1e-4, 1e-2) for s in (1, -1)]
_LINE_ROWS = {  # row: its band's config and closed form, c = 2 e/(1 - e^2) and c = 1 + lam
    "timelike": (orthogonal_band_config, _band_polynomials),
    "lightlike": (tangent_band_config, _tangent_polynomials),
}


@pytest.mark.parametrize("row, p", [(row, p) for row in _LINE_ROWS for p in _NEAR_LINE])
def test_a_contact_near_a_line_locus_extends_to_its_closed_form(tmp_path, capsys, row, p):
    # g reflects through the row's one regular locus form, with no threshold where a circle turns into a line
    config, polynomials = _LINE_ROWS[row]
    _extends_to_its_closed_form(tmp_path, capsys, config(p), polynomials(p), 0.5j)


@pytest.mark.parametrize("theta", [3e-8, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5])
def test_a_lower_sheet_contact_near_c_1_extends_to_its_closed_form(tmp_path, capsys, theta):
    # |g| = coth(theta/2) is about 2/theta: the radius rule in cosh(theta) holds it where acosh would lose
    # half of c's digits
    _extends_to_its_closed_form(tmp_path, capsys, lower_sheet_config(theta), _lower_sheet_polynomials(theta), 0.3j)


THRESHOLDS = {  # each row's rule just below and just above its bound, and its refusal below it
    "spacelike": (lambda: _spacelike_locus(0.99999, 1, [0.5 + 0j]),
                  lambda: _spacelike_locus(1.00001, 1, [complex(math.tanh(math.acosh(1.00001) / 2))]),
                  HypothesisViolationError, r"\|<N,n>\| = 0\.999990 < 1 is impossible"),
    "lightlike": (lambda: _lightlike_locus(-44.0, 1, [-0.951 + 0j]), lambda: _lightlike_locus(-44.0, 1, [-0.949 + 0j]),
                  HypothesisViolationError, r"\(\|g \+ 1\| = 4\.900e-02 < 0\.05\)"),
}


@pytest.mark.parametrize("kind", list(THRESHOLDS))
def test_obstruction_decides_at_the_tolerance_it_reports(kind):
    below, above, error, message = THRESHOLDS[kind]
    with pytest.raises(error, match=message):
        below()
    above()


@pytest.mark.parametrize("name", sorted(bench_configs()))
def test_the_obstruction_limit_is_the_contact_angle(name):
    # the rule reads c, which check reports with angle_constancy
    cfg = SurfaceConfig.from_text(bench_configs()[name])
    contact = measure_contact(cfg.data, cfg.plane)
    assert math.isfinite(contact.locus.radius)  # none is near c = 0, where the timelike locus is a line
    assert full_diagnostics(extend(cfg.data, cfg.plane), GridSpec(3, 4))["angle_constancy"].details["c"] == contact.c


def test_obstruction_lightlike_degenerate():
    with pytest.raises(HypothesisViolationError) as exc:
        measure_contact(*degenerate_lightlike_fixture())
    assert str(exc.value) == "degenerate lightlike contact (|g + 1| = 4.444e-02 < 0.05): X_u ^ X_v = 0"


# ---------------------------------------------------------------------------
# cross product direction check

def test_cross_product_normal_plane_surface():
    rec = full_diagnostics(plane_fixture())["cross_product_normal"]
    assert rec.passed and rec.max_residual == 0.0
    assert rec.details == {"h": 2.5e-4, "points": 3}


def test_cross_product_normal_catenoid():
    rec = full_diagnostics(catenoid_data())["cross_product_normal"]
    assert rec.passed and rec.tolerance == 100 * 2.5e-4 * 2.5e-4
    assert rec.max_residual <= 1e-6


def test_cross_product_residual_decays_quadratically():
    data, z = catenoid_data(), 0.4 + 0.2j
    r1, r2 = (_cross_product_residual(_stencil_panels(data.field, z, h), data._g_fn(z)) for h in (2e-3, 1e-3))
    assert 2.5 < r1 / r2 < 6.0


_SAMPLE = verify._sample


def _conjugated_at_the_centres(sides):
    samples = _SAMPLE(sides)
    for _, g, _ in samples:
        centres = verify._stencil_centres(g)  # a view of the sample's g
        centres[:] = centres.conj()
    return samples


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_conjugated_gauss_map_fails_cross_product_normal(seed):
    data = random_polynomial_data(np.random.default_rng(seed))
    assert full_diagnostics(data)["cross_product_normal"].passed
    with patch.object(verify, "_sample", _conjugated_at_the_centres):
        report = full_diagnostics(data)
    assert [c.name for c in report.checks if not c.passed] == ["cross_product_normal"]


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


# report payloads: every JSON type, strings with escapes and non-ASCII, the float edges json spells
# out, and the float and int subclasses json writes by float.__repr__ and int.__repr__
_texts = st.one_of(st.text(), st.sampled_from(["", "\"", "\\", "\n\t\r\x00\x1f\x7f", "é", "☃", "\U0001f600", "\ud800"]))
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), _texts,
    st.sampled_from([-0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf, 5e-324]),
    st.floats().map(np.float64), st.integers(-10, 10).map(lambda n: type("Int", (int,), {})(n)),
)
_payloads = st.recursive(_scalars, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple), st.dictionaries(_texts, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(payload=_payloads)
def test_the_report_writer_is_json_dumps_byte_for_byte(payload):
    assert _json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("key", [None, True, 2, -0.5], ids=repr)
def test_the_report_writer_refuses_a_key_that_is_not_a_str(key):
    with pytest.raises(TypeError):  # json would write it as text; no report has such a key
        _json_text({"a": {key: [1]}})


# A bare object() gets a fixed id: its repr carries a memory address, so the test name would change every run.
@pytest.mark.parametrize(
    "value",
    [np.int64(3), np.bool_(True), 1j, {1, 2}, pytest.param(object(), id="object()"), {(1, 2): 3}],
    ids=repr,
)
def test_the_report_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _json_text(value)
