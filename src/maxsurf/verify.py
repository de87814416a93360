"""Quantitative diagnostics for Weierstrass data and extended surfaces.

Every check produces a record with its tolerance and worst residual, and the
whole report serializes to JSON with a stable layout, so identical inputs
give byte-identical reports.  The built-in reference surface is the
Lorentzian catenoid patch f = 1/z^2, g = z on the punctured unit disk, whose
closed form is (sinh u cos v, sinh u sin v, u) under z = e^(u+iv).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .expr import EvalError, compile_fn, evaluate, parse
from .minkowski import CausalClass, LVector, Plane, lorentz_cross, lorentz_inner, plane_class
from .weierstrass import (
    DegenerateMetricError,
    Domain,
    DomainKind,
    PhiTriple,
    QuadratureConfig,
    WeierstrassData,
    _gk15,
    gauss_from_g,
    integrate_path,
    loop_periods,
    phi,
    stereo_inverse,
    surface_path,
)
from .extension import CASES, ExtendedSurface, boundary_samples

__all__ = [
    "CheckRecord",
    "DiagnosticsReport",
    "GridSpec",
    "catenoid_data",
    "catenoid_reference",
    "check_cross_product_normal",
    "check_orthogonality_obstruction",
    "eq_zero_residual",
    "estimate_order",
    "full_diagnostics",
    "harmonicity_order",
    "laplacian_residuals",
]


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "details": self.details,
        }


@dataclass
class DiagnosticsReport:
    checks: list[CheckRecord]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckRecord:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> str:
        payload = {
            "format": "maxsurf-diagnostics/1",
            "passed": self.passed,
            "checks": [c.as_dict() for c in sorted(self.checks, key=lambda c: c.name)],
        }
        return json.dumps(payload, sort_keys=True, indent=2)


# The diagnostic grid beyond its lattice size, and the checks' own thresholds.
GRID_MARGIN = 0.1
"""The share of the radius (and of the half-plane angle) the lattice keeps off the boundary."""
GRID_RANDOM = 60
"""Seeded random points added to the lattice."""
GRID_SEED = 7
"""The seed of those points."""
HARMONIC_FLOOR = 1e-9
"""Discrete Laplacian residuals at or below this are harmonic to rounding."""
ORDER_RADII = (1e-2, 3e-3, 1e-3)
"""The circle radii over which estimate_order fits its log-log slope."""
OBSTRUCTION_TOL = 1e-3
"""|<N, n>| below this at the boundary flags a spacelike or timelike contact as obstructed."""


@dataclass(frozen=True)
class GridSpec:
    """Deterministic sample grid: polar lattice plus GRID_RANDOM seeded random points."""

    n_radial: int = 7
    n_angular: int = 12


def _grid_points(domain: Domain, grid: GridSpec) -> list[complex]:
    lo = domain.inner_radius if domain.inner_radius > 0 else GRID_MARGIN * domain.radius
    lo = lo + GRID_MARGIN * (domain.radius - lo)
    hi = domain.radius * (1 - GRID_MARGIN)
    radii = np.linspace(lo, hi, grid.n_radial)
    if domain.kind in (DomainKind.HALF_DISK, DomainKind.HALF_ANNULUS):
        angles = np.linspace(GRID_MARGIN * math.pi, math.pi * (1 - GRID_MARGIN), grid.n_angular)
    else:
        angles = np.linspace(-math.pi, math.pi, grid.n_angular, endpoint=False)
    pts = [complex(r * math.cos(t), r * math.sin(t)) for r in radii for t in angles]
    rng = np.random.default_rng(GRID_SEED)
    tries = 0
    added = 0
    while added < GRID_RANDOM and tries < 100 * GRID_RANDOM:
        tries += 1
        z = complex(rng.uniform(-domain.radius, domain.radius), rng.uniform(-domain.radius, domain.radius))
        if domain.contains(z) and all(abs(z - p) > 0.05 * domain.radius for p in domain.punctures):
            pts.append(z)
            added += 1
    return [z for z in pts if domain.contains(z) and all(abs(z - p) > 0.04 * domain.radius for p in domain.punctures)]


# ---------------------------------------------------------------------------
# elementary residuals

def eq_zero_residual(p: PhiTriple) -> float:
    """Relative residual of phi1^2 + phi2^2 - phi3^2 = 0."""
    num = abs(p.phi1 * p.phi1 + p.phi2 * p.phi2 - p.phi3 * p.phi3)
    den = abs(p.phi1) ** 2 + abs(p.phi2) ** 2 + abs(p.phi3) ** 2
    if den == 0:
        return 0.0
    return num / den


def laplacian_residuals(phi_fn: Callable, z: complex, h: float) -> tuple[float, float, float]:
    """Five-point discrete Laplacian of X per coordinate, via exact
    center-to-neighbor integrals of the phi field (so quadrature noise does
    not swamp the O(h^2) signal)."""
    z = complex(z)
    tot = [0j, 0j, 0j]
    for d in (h, -h, 1j * h, -1j * h):
        vals, _ = _gk15(phi_fn, z, z + d)
        for k in range(3):
            tot[k] += vals[k]
    return tuple(abs(t.real) / (h * h) for t in tot)


def harmonicity_order(
    phi_fn: Callable,
    z: complex,
    hs: Sequence[float] = (1e-3, 5e-4, 2.5e-4),
) -> tuple[float | None, tuple[float, ...]]:
    """Fitted decay order of the discrete Laplacian under h refinement.

    Returns (order, residuals); order is None when the residuals sit at the
    noise floor (already harmonic to rounding), which counts as a pass.
    """
    res = [max(laplacian_residuals(phi_fn, z, h)) for h in hs]
    if max(res) <= HARMONIC_FLOOR:
        return None, tuple(res)
    slope = np.polyfit(np.log(hs), np.log(np.maximum(res, 1e-300)), 1)[0]
    return float(slope), tuple(res)


def estimate_order(e, p: complex) -> float:
    """Estimated order of growth of an expression at p: the log-log slope of
    |e| along shrinking circles (negative for poles, positive for zeros)."""
    fn = compile_fn(e)
    logs = []
    for r in ORDER_RADII:
        vals = []
        for k in range(8):
            w = p + r * cmath.exp(2j * math.pi * (k + 0.5) / 8)
            try:
                v = abs(fn(w))
            except EvalError:
                continue
            if v > 0 and math.isfinite(v):
                vals.append(math.log(v))
        if not vals:
            return math.nan
        logs.append(sum(vals) / len(vals))
    slope = np.polyfit(np.log(ORDER_RADII), logs, 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# reference surface

def catenoid_reference(u: float, v: float) -> LVector:
    """The rotational maximal surface (sinh u cos v, sinh u sin v, u); its
    vertex at u = 0 is the model conelike singularity."""
    return LVector(math.sinh(u) * math.cos(v), math.sinh(u) * math.sin(v), u)


def catenoid_data(boundary_circle: float | None = None) -> WeierstrassData:
    """Built-in fixture: f = 1/z^2, g = z on the punctured unit disk, anchored
    so that z = e^(u+iv) with u < 0 reproduces catenoid_reference."""
    dom = Domain(
        DomainKind.PUNCTURED_DISK,
        radius=1.0,
        punctures=(0j,),
        boundary_circle=boundary_circle,
    )
    return WeierstrassData(
        f=parse("1/z^2"),
        g=parse("z"),
        domain=dom,
        z0=1.0 + 0j,
        X0=LVector(0, 0, 0),
    )


# ---------------------------------------------------------------------------
# individual checks

def check_orthogonality_obstruction(
    plane: Plane,
    data: WeierstrassData | None = None,
    *,
    measured: Sequence[float] | None = None,
) -> CheckRecord:
    """Flag contacts that are impossible or degenerate when <N, n> -> 0.

    ``measured`` may inject a precomputed sequence of <N(z), n> values
    approaching the boundary; otherwise they are computed from the data.
    A genuine Gauss map always has |<N, n>| >= 1 against a spacelike plane,
    so a vanishing limit means the data cannot be a spacelike surface at all.
    """
    kind = plane_class(plane)
    g_limit = None
    if measured is None:
        if data is None:
            raise ValueError("need either data or measured values")
        unit_n, _ = CASES[kind].normalize(plane)
        gfun = compile_fn(data.g)
        ordered = sorted(boundary_samples(data.domain), key=lambda z: -abs(z.imag))
        gs = [gfun(z) for z in ordered]
        measured = []
        for gv in gs:
            try:
                measured.append(lorentz_inner(gauss_from_g(gv), unit_n))
            except DegenerateMetricError:
                measured.append(math.inf)
        g_limit = gs[-1]
    finite = [m for m in measured if math.isfinite(m)]
    limit = finite[-1] if finite else math.inf
    details: dict = {"limit": limit, "plane_kind": kind.value}
    if kind is not CausalClass.LIGHTLIKE:
        passed = abs(limit) >= OBSTRUCTION_TOL
        if not passed:
            details["message"] = (
                "impossible contact: <N,n> -> 0 against a spacelike plane would force 1+|g|^2 = 0"
                if kind is CausalClass.SPACELIKE
                else "orthogonal contact: symmetric-reflection case, out of scope"
            )
        return CheckRecord("orthogonality_obstruction", passed, abs(limit), OBSTRUCTION_TOL, details)
    # lightlike: degenerate when g -> -1 on the boundary (|g| -> 1 there)
    if g_limit is not None and abs(g_limit + 1) < 0.05:
        return CheckRecord(
            "orthogonality_obstruction",
            False,
            abs(g_limit + 1),
            0.05,
            {**details, "message": "degenerate: X_u ^ X_v = 0 (g -> -1 along the contact)"},
        )
    return CheckRecord("orthogonality_obstruction", True, 0.0, 0.05, details)


def check_cross_product_normal(
    data: WeierstrassData,
    z: complex,
    h: float = 1e-4,
) -> CheckRecord:
    """Compare the finite-difference X_u ^ X_v with the closed-form direction
    |f|^2 (1-|g|^2) (2 Re g, 2 Im g, 1+|g|^2), fitting the overall scalar;
    the residual passes at 100 h^2."""
    q = QuadratureConfig()
    tol = 100 * h * h
    field = data.field
    z = complex(z)

    def diff(delta: complex) -> LVector:
        (i1, i2, i3), _ = integrate_path(lambda a, b: field, (z - delta, z + delta), q)
        return LVector(i1.real / (2 * abs(delta)), i2.real / (2 * abs(delta)), i3.real / (2 * abs(delta)))

    Xu = diff(h + 0j)
    Xv = diff(1j * h)
    cross = lorentz_cross(Xu, Xv)
    gv = evaluate(data.g, z)
    fv = evaluate(data.f, z)
    w = abs(fv) ** 2 * (1 - abs(gv) ** 2)
    W = LVector(w * 2 * gv.real, w * 2 * gv.imag, w * (1 + abs(gv) ** 2))
    ww = W.x1 * W.x1 + W.x2 * W.x2 + W.x3 * W.x3
    cw = cross.x1 * W.x1 + cross.x2 * W.x2 + cross.x3 * W.x3
    s = cw / ww if ww > 0 else 0.0
    gap = math.sqrt(
        (cross.x1 - s * W.x1) ** 2 + (cross.x2 - s * W.x2) ** 2 + (cross.x3 - s * W.x3) ** 2
    )
    norm = math.sqrt(cross.x1 ** 2 + cross.x2 ** 2 + cross.x3 ** 2)
    resid = gap / norm if norm > 0 else gap
    return CheckRecord(
        "cross_product_normal",
        resid <= tol,
        resid,
        tol,
        {"scale": s, "h": h, "z": [z.real, z.imag]},
    )


# ---------------------------------------------------------------------------
# the full suite

def _phi_values(data: WeierstrassData, pts: Sequence[complex]) -> list[PhiTriple]:
    out = []
    for z in pts:
        try:
            out.append(phi(data, z))
        except EvalError:
            continue
    return out


def _data_checks(data: WeierstrassData, pts: Sequence[complex], q: QuadratureConfig, tag: str = "") -> list[CheckRecord]:
    checks: list[CheckRecord] = []
    phis = _phi_values(data, pts)
    res21 = max((eq_zero_residual(p) for p in phis), default=0.0)
    checks.append(CheckRecord(tag + "quadratic_identity", res21 <= 1e-12, res21, 1e-12, {"points": len(phis)}))

    factors = [p.density() for p in phis]
    live = [f for f in factors if f > 1e-18]
    min_factor = min(live) if live else 0.0
    checks.append(
        CheckRecord(
            tag + "metric_positivity",
            bool(live) and min(factors) > 0,
            -min(factors) if factors else 0.0,
            0.0,
            {"min_factor": min_factor, "degenerate_points": len(factors) - len(live)},
        )
    )

    gfun = compile_fn(data.g)
    sheet_vals = []
    hyp_res = 0.0
    stereo_res = 0.0
    stereo_pts = 0
    for z in pts:
        try:
            gv = gfun(complex(z))
            N = gauss_from_g(gv)
        except (DegenerateMetricError, EvalError):
            continue
        hyp_res = max(hyp_res, abs(lorentz_inner(N, N) + 1))
        sheet_vals.append(1 if N.x3 > 0 else -1)
        if N.x3 > 0:
            stereo_res = max(stereo_res, abs(stereo_inverse(N) - gv))
            stereo_pts += 1
    one_sheet = len(set(sheet_vals)) <= 1
    checks.append(
        CheckRecord(
            tag + "gauss_hyperboloid",
            hyp_res <= 1e-10 and one_sheet,
            hyp_res,
            1e-10,
            {"sheet": sheet_vals[0] if sheet_vals else 0, "one_sheet": one_sheet},
        )
    )
    checks.append(
        CheckRecord(
            tag + "stereo_roundtrip",
            stereo_res <= 1e-10,
            stereo_res,
            1e-10,
            {"points": stereo_pts, "skipped_lower_sheet": stereo_pts == 0},
        )
    )

    hs = (1e-3, 5e-4, 2.5e-4)
    orders = []
    residuals = []
    constants = []
    for z in pts[:: max(len(pts) // 3, 1)][:3]:
        order, res = harmonicity_order(data.field, z, hs)
        orders.append(order)
        residuals.append(max(res))
        constants.append(max(res) / hs[0] ** 2)  # |Lap X| <= C h^2
    fitted = [o for o in orders if o is not None]
    harm_ok = all(o >= 1.8 for o in fitted) if fitted else True
    checks.append(
        CheckRecord(
            tag + "harmonicity",
            harm_ok,
            max(residuals) if residuals else 0.0,
            1.8,
            {
                "fitted_orders": fitted,
                "noise_floor_points": orders.count(None),
                "constant": max(constants) if constants else 0.0,
            },
        )
    )
    return checks


def _path_independence_check(data: WeierstrassData, pts: Sequence[complex], q: QuadratureConfig) -> CheckRecord:
    worst = 0.0
    used = 0
    for z in pts[:: max(len(pts) // 2, 1)][:2]:
        z = complex(z)
        if abs(z - data.z0) < 1e-9:
            continue
        direct = surface_path(data, z, q)
        mid = 0.5 * (data.z0 + z)
        offset = 0.15j * (z - data.z0)
        alt = None
        for w in (mid + offset, mid - offset):
            if data.domain.contains(w) and all(
                abs(w - p) > q.clearance for p in data.domain.punctures
            ):
                alt = w
                break
        if alt is None:
            continue
        leg1 = surface_path(data, alt, q)
        shifted = WeierstrassData(data.f, data.g, data.domain, alt, leg1.value, data.g_poles)
        leg2 = surface_path(shifted, z, q)
        gap = max(
            abs(direct.value.x1 - leg2.value.x1),
            abs(direct.value.x2 - leg2.value.x2),
            abs(direct.value.x3 - leg2.value.x3),
        )
        worst = max(worst, gap)
        used += 1
    # two paths that do not enclose a puncture between them cannot see a
    # period, so also integrate once around each puncture
    for p in data.domain.punctures:
        periods = loop_periods(data, _puncture_square(data.domain, p), q)
        worst = max(worst, *(abs(w.real) for w in periods))
    return CheckRecord(
        "path_independence",
        worst <= 10 * q.tol,
        worst,
        10 * q.tol,
        {"loops": len(data.domain.punctures), "points": used},
    )


def _puncture_square(domain: Domain, p: complex) -> list[complex]:
    """A square centred on the puncture p whose corners lie at 0.7 of the
    distance from p to the domain's boundary and to its other punctures, so
    the square stays inside the domain and winds once around p alone."""
    r = abs(p)
    room = [domain.radius - r] + [abs(p - o) for o in domain.punctures if o != p]
    if domain.kind in (DomainKind.ANNULUS, DomainKind.HALF_ANNULUS):
        room.append(r - domain.inner_radius)
    if domain.kind in (DomainKind.HALF_DISK, DomainKind.HALF_ANNULUS):
        room.append(p.imag)
    half = 0.5 * min(room)
    return [p + half * c for c in (1 - 1j, 1 + 1j, -1 + 1j, -1 - 1j)]


def _pole_zero_check(data: WeierstrassData) -> CheckRecord:
    if not data.g_poles:
        return CheckRecord("pole_zero_orders", True, 0.0, 0.25, {"declared": 0})
    worst = 0.0
    detail = []
    ok = True
    for p, m in data.g_poles:
        og = estimate_order(data.g, p)
        of = estimate_order(data.f, p)
        gap = max(abs(og + m), abs(of - 2 * m))
        worst = max(worst, gap)
        good = gap <= 0.25
        ok = ok and good
        detail.append({"pole": [p.real, p.imag], "order": m, "g_slope": og, "f_slope": of})
    return CheckRecord("pole_zero_orders", ok, worst, 0.25, {"poles": detail})


def full_diagnostics(
    obj: WeierstrassData | ExtendedSurface,
    grid: GridSpec | None = None,
    q: QuadratureConfig | None = None,
) -> DiagnosticsReport:
    """Run every applicable check; failures are report entries, not raises."""
    grid = grid or GridSpec()
    q = q or QuadratureConfig()
    if isinstance(obj, ExtendedSurface):
        return _diagnose_extended(obj, grid, q)
    pts = _grid_points(obj.domain, grid)
    checks = _data_checks(obj, pts, q)
    checks.append(_path_independence_check(obj, pts, q))
    checks.append(_pole_zero_check(obj))
    return DiagnosticsReport(checks)


def _diagnose_extended(ext: ExtendedSurface, grid: GridSpec, q: QuadratureConfig) -> DiagnosticsReport:
    data = ext.original
    pts = _grid_points(data.domain, grid)
    pts = [z for z in pts if ext.on_original_side(z)]
    checks = _data_checks(data, pts, q)
    checks.append(_path_independence_check(data, pts, q))
    checks.append(_pole_zero_check(data))

    # The continuation is spacelike in a band around the arc; far from it the
    # metric may legitimately degenerate (|g| -> 1), so the minus-side sheet
    # and positivity checks sample reflections of a shallow approach band.
    band = boundary_samples(data.domain, depths=(0.1, 0.05, 0.02, 0.012, 0.004))
    minus_pts = [ext.reflect(z) for z in band]
    checks.extend(_data_checks(ext.minus, minus_pts, q, tag="minus_"))

    contact = ext.contact
    checks.append(
        CheckRecord(
            "angle_constancy",
            contact.deviation <= 1e-6,
            contact.deviation,
            1e-6,
            {"c": contact.c, "sheet": contact.sheet},
        )
    )

    gm = compile_fn(ext.g_minus)
    locus_res = 0.0
    for u in ext.matching.points:
        locus_res = max(locus_res, contact.locus.distance(gm(complex(u))))
    radius = contact.locus.radius or 1.0
    checks.append(
        CheckRecord(
            "boundary_locus",
            locus_res <= 1e-8 * (1 + radius),
            locus_res,
            1e-8 * (1 + radius),
            {"locus": contact.locus.describe(), "mismatch_vs_closed_form": contact.locus_mismatch},
        )
    )

    checks.append(
        CheckRecord(
            "c1_matching",
            ext.matching.passed,
            ext.matching.max_gap,
            ext.matching.tol,
            {"gaps": dict(sorted(ext.matching.gaps.items()))},
        )
    )

    n_hat, d = contact.unit_normal, contact.offset
    contain = 0.0
    for u in ext.matching.points[:5]:
        X = ext.evaluate(u, q)
        contain = max(contain, abs(lorentz_inner(X, n_hat) - d))
    checks.append(
        CheckRecord("plane_containment", contain <= 10 * q.tol, contain, 10 * q.tol, {})
    )

    sym = 0.0
    sym_pts = 0
    for z in pts[:: max(len(pts) // 3, 1)][:3]:
        z = complex(z)
        if not data.domain.contains(z):
            continue
        a = ext.reflected_value(ext.evaluate(z, q))
        b = ext.reflected_value(ext.evaluate(ext.reflect(z), q))
        sym = max(sym, abs(a + b))
        sym_pts += 1
    sym_tol = max(1e-7, 20 * q.tol)
    checks.append(
        CheckRecord(
            "reflection_symmetry",
            sym <= sym_tol,
            sym,
            sym_tol,
            {"coordinate": ext.reflected, "points": sym_pts},
        )
    )
    return DiagnosticsReport(checks)
