"""Quantitative diagnostics for Weierstrass data and extended surfaces.

Every check produces a record with its tolerance and worst residual, and the
whole report serializes to JSON with a stable layout, so identical inputs
give byte-identical reports.  The built-in reference surface is the
Lorentzian catenoid patch f = 1/z^2, g = z on the punctured unit disk, whose
closed form is (sinh u cos v, sinh u sin v, u) under z = e^(u+iv).

The suite declares its points first (per side, where phi and g are checked
and the harmonicity panels, whose smallest step the cross-product normal
reads too; the paths of path independence and of the containment and
symmetry points), evaluates them in batches on arrays, and makes the
records from the results in a fixed order.  The scalar phi, gauss_from_g,
laplacian_residuals' panels and integrate_path decide every non-finite
value and failure, so reports and errors are those of checking point by
point, with floats moved only at round-off.  No record repeats the
obstruction rule: an extended config loads through measure_contact.

The suite takes a patch or an extended surface alike and asks it one
question, whether it has a contact, before it adds the reflected side's
data checks and the extension records.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence

from .expr import EvalError, _LazyNumpy, compile_fn, parse
from .minkowski import LVector
from .weierstrass import (
    CLEARANCE,
    DegenerateMetricError,
    Domain,
    DomainKind,
    PhiTriple,
    QuadratureConfig,
    SurfaceError,
    WeierstrassData,
    _HALF_KINDS,
    _RING_KINDS,
    _gauss_arrays,
    _gk15,
    _gk15_panels,
    _loop_path,
    _phi_values,
    gauss_from_g,
    integrate_paths,
)
from .extension import ANGLE_TOL, LOCUS_TOL, ExtendedSurface, _nan_max, boundary_points, boundary_samples

np = _LazyNumpy(globals())

__all__ = [
    "CheckRecord",
    "DiagnosticsReport",
    "GridSpec",
    "catenoid_data",
    "catenoid_reference",
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
        return dict(vars(self))


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
        return _json_text(payload)


def _json_text(o, indent: str = "\n") -> str:
    """json.dumps(o, sort_keys=True, indent=2), byte for byte, without the pure-Python encoder that
    json falls back to for an indent: str through json's (C) ASCII escaper, int and float subclasses
    through int.__repr__ and float.__repr__, NaN and +-inf as NaN and +-Infinity, dicts with sorted
    str keys, lists and tuples; anything else, a key that is not a str too, is a TypeError.  A container
    writes its scalar items itself, by their exact type."""
    scalar = _JSON_SCALARS.get(type(o))
    if scalar is not None:
        return scalar(o)
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _json_float(o)
    inner = indent + "  "
    if isinstance(o, (list, tuple)):
        items = [s(v) if (s := _JSON_SCALARS.get(type(v))) else _json_text(v, inner) for v in o]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if o else "[]"
    if isinstance(o, dict):
        items = [f"{encode_basestring_ascii(k)}: "
                 f"{s(v) if (s := _JSON_SCALARS.get(type(v))) else _json_text(v, inner)}" for k, v in sorted(o.items())]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if o else "{}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_float(o: float) -> str:
    return float.__repr__(o) if math.isfinite(o) else "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"


# the JSON text of each scalar type, by exact type; a subclass of str, int or float takes _json_text's tests
_JSON_SCALARS = {str: encode_basestring_ascii, float: _json_float, int: int.__repr__,
                 bool: lambda o: "true" if o else "false", type(None): lambda o: "null"}


# The diagnostic grid beyond its lattice size, and the checks' own thresholds.
GRID_MARGIN = 0.1
"""The share of the radius (and of the half-plane angle) the lattice keeps off the boundary."""
GRID_RANDOM = 60
"""Seeded random points added to the lattice."""
GRID_SEED = 7
"""The seed of those points."""
HARMONIC_FLOOR = 1e-9
"""Discrete Laplacian residuals at or below this are harmonic to rounding."""
HARMONIC_STEPS = (1e-3, 5e-4, 2.5e-4)
"""The steps h of the discrete Laplacian whose decay harmonicity_order fits."""
ORDER_RADII = (1e-2, 3e-3, 1e-3)
"""The circle radii over which estimate_order fits its log-log slope."""


@dataclass(frozen=True)
class GridSpec:
    """Deterministic sample grid: polar lattice plus GRID_RANDOM seeded random points."""

    n_radial: int = 7
    n_angular: int = 12


def _grid_points(domain: Domain, grid: GridSpec) -> list[complex]:
    lo = domain.inner_radius if domain.inner_radius > 0 else GRID_MARGIN * domain.radius
    lo = lo + GRID_MARGIN * (domain.radius - lo)
    hi = domain.radius * (1 - GRID_MARGIN)
    radii = np.linspace(lo, hi, grid.n_radial)[:, None]
    if domain.kind in _HALF_KINDS:
        angles = np.linspace(GRID_MARGIN * math.pi, math.pi * (1 - GRID_MARGIN), grid.n_angular)
    else:
        angles = np.linspace(-math.pi, math.pi, grid.n_angular, endpoint=False)
    lattice = radii * [math.cos(t) for t in angles] + 1j * (radii * [math.sin(t) for t in angles])
    # GRID_RANDOM random points, one (re, im) pair per try, drawn in chunks until as many are kept
    # or 100 * GRID_RANDOM are drawn; the generator fills sequentially, so a chunk continues the draws
    rng, R, kept = np.random.default_rng(GRID_SEED), domain.radius, []
    for _ in range(25):  # chunks of 4 * GRID_RANDOM tries
        tries = rng.uniform(-R, R, size=(4 * GRID_RANDOM, 2)).view(complex)[:, 0]
        kept.append(tries[domain.contains_many(tries, spacing=0.05 * R)])
        if sum(map(len, kept)) >= GRID_RANDOM:
            break
    pts = np.concatenate((lattice.ravel(), *kept))[: lattice.size + GRID_RANDOM]
    return pts[domain.contains_many(pts, spacing=0.04 * R)].tolist()


# ---------------------------------------------------------------------------
# elementary residuals

def eq_zero_residual(p: PhiTriple):
    """Relative residual |phi1^2 + phi2^2 - phi3^2| / (|phi1|^2 + |phi2|^2 + |phi3|^2), of numbers or of
    arrays; 0 where the triple is 0.  The ratio is scale-free: where a finite triple's squares overflow
    it is that of phi / m, m the largest |phi_k|, the rule of PhiTriple.density."""

    def terms(u, v, w):
        a, b, c = abs(u), abs(v), abs(w)
        return abs(u * u + v * v - w * w), a * a + b * b + c * c

    with np.errstate(all="ignore"):
        num, den = terms(p.phi1, p.phi2, p.phi3)
        m = np.maximum(np.maximum(abs(p.phi1), abs(p.phi2)), abs(p.phi3))
        lost = ~(np.isfinite(num) & np.isfinite(den)) & (m < math.inf)
        if np.any(lost):
            num, den = np.where(lost, terms(p.phi1 / m, p.phi2 / m, p.phi3 / m), (num, den))
        return np.where(den == 0, 0.0, num / den)[()]


def laplacian_residuals(phi_fn: Callable, z: complex, h: float) -> tuple[float, float, float]:
    """Five-point discrete Laplacian of X per coordinate, via exact
    center-to-neighbor integrals of the phi field (so quadrature noise does
    not swamp the O(h^2) signal)."""
    return _laplacian(_stencil_panels(phi_fn, complex(z), h), h)


def _stencil_panels(phi_fn: Callable, z: complex, h: float) -> list[list[float]]:
    """The differences of X from z to z + h, z - h, z + ih and z - ih, one GK15 panel each."""
    return [[v.real for v in _gk15(phi_fn, z, z + d)[0]] for d in (h, -h, 1j * h, -1j * h)]


def _laplacian(panels: list[list[float]], h: float) -> tuple[float, float, float]:
    """laplacian_residuals from the four stencil panels: per coordinate, |their sum| / h^2."""
    return tuple(abs(a + b + c + d) / (h * h) for a, b, c, d in zip(*panels))


def _cross_product_residual(panels: list[list[float]], g: complex) -> float:
    """The relative gap between X_u ^ X_v, by central differences over the four stencil panels, and its
    least-squares multiple of (2 Re g, 2 Im g, 1 + |g|^2), the direction of N; NaN where not finite.  Each
    difference is scaled to a largest component of 1 first, the gap being scale-free; float arithmetic
    overflows to inf rather than raise."""
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3), (d1, d2, d3) = panels
    u1, u2, u3, v1, v2, v3 = a1 - b1, a2 - b2, a3 - b3, c1 - d1, c2 - d2, c3 - d3  # 2h X_u and 2h X_v
    su, sv = max(abs(u1), abs(u2), abs(u3)) or 1.0, max(abs(v1), abs(v2), abs(v3)) or 1.0
    u1, u2, u3, v1, v2, v3 = u1 / su, u2 / su, u3 / su, v1 / sv, v2 / sv, v3 / sv
    x1, x2, x3 = u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u2 * v1 - u1 * v2  # lorentz_cross
    w1, w2, w3 = 2 * g.real, 2 * g.imag, 1 + g.real * g.real + g.imag * g.imag
    k = (x1 * w1 + x2 * w2 + x3 * w3) / (w1 * w1 + w2 * w2 + w3 * w3)
    e1, e2, e3 = x1 - k * w1, x2 - k * w2, x3 - k * w3
    gap, norm = math.sqrt(e1 * e1 + e2 * e2 + e3 * e3), math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    r = gap / norm if norm > 0 else gap
    return r if r < math.inf else math.nan


def harmonicity_order(
    phi_fn: Callable, z: complex, hs: Sequence[float] = HARMONIC_STEPS
) -> tuple[float | None, tuple[float, ...]]:
    """Fitted decay order of the discrete Laplacian under h refinement.

    Returns (order, residuals); order is None when the residuals sit at the
    noise floor (already harmonic to rounding), which counts as a pass.
    """
    return _fit_order(hs, [max(laplacian_residuals(phi_fn, z, h)) for h in hs])


def _fit_order(hs: Sequence[float], res: list[float]) -> tuple[float | None, tuple[float, ...]]:
    if max(res) <= HARMONIC_FLOOR:
        return None, tuple(res)
    # the least-squares slope of log res against log h
    x, y = [math.log(h) for h in hs], [math.log(max(r, 1e-300)) for r in res]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x), tuple(res)


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
# the full suite

def _stencil_centres(pts: Sequence[complex]) -> Sequence[complex]:
    """The three points of a point set whose harmonicity is fitted."""
    return pts[:: max(len(pts) // 3, 1)][:3]


def _sample(sides: Sequence[tuple[WeierstrassData, Sequence[complex]]]) -> list[tuple]:
    """The array pass of the suite's (side, points): per side, phi (3, n) and g (n) at its points from one
    fg_array call, and at its stencil centres the real parts of laplacian_residuals' panels as lists (centre,
    step, panel, coordinate), those of every side from one _gk15_panels call; NaN where not finite."""
    hs = HARMONIC_STEPS
    steps = np.outer(hs, (1, -1, 1j, -1j)).ravel()  # laplacian_residuals' four panels per h, in its order
    centres = [_stencil_centres(pts) for _, pts in sides]
    a = np.repeat(np.array([z for each in centres for z in each], dtype=complex), len(steps))
    side = np.repeat(np.arange(len(sides)), [len(steps) * len(each) for each in centres])
    with np.errstate(all="ignore"):
        fgs = [patch.fg_array for patch, _ in sides]
        panels, estimates = _gk15_panels(fgs, a, a + np.tile(steps, len(a) // len(steps)), side)
        panels = np.where(np.isfinite(estimates), panels.real, np.nan).reshape(3, -1, len(hs), 4).transpose(1, 2, 3, 0)
        out, at = [], 0
        for (patch, pts), each in zip(sides, centres):
            f, g = patch.fg_array(np.array(pts, dtype=complex))
            out.append((np.array(_phi_values(f, g)), g, panels[at : at + len(each)].tolist()))
            at += len(each)
    return out


def _data_checks(data: WeierstrassData, pts: Sequence[complex], sample, tag: str = "") -> list[CheckRecord]:
    """The identities of the data at pts from the side's array pass; where a
    value is not finite the scalar code decides, in point order."""
    phi, g, panels = sample
    keep = np.ones(len(pts), dtype=bool)
    for k in np.flatnonzero(~np.isfinite(phi).all(axis=0)):
        try:
            phi[:, k] = data.field(complex(pts[k]))
        except EvalError:
            keep[k] = False
    p = PhiTriple(*phi[:, keep])
    res = eq_zero_residual(p).tolist()
    with np.errstate(all="ignore"):
        factors = p.density().tolist()
    live = [f for f in factors if f > 1e-18]
    details = {"min_factor": min(live) if live else 0.0, "degenerate_points": len(factors) - len(live)}
    worst = -min(factors) if factors else 0.0
    checks = [
        _bound(tag + "quadratic_identity", max(res, default=0.0), 1e-12, {"points": len(res)}),
        CheckRecord(tag + "metric_positivity", bool(live) and min(factors) > 0, worst, 0.0, details),
    ]

    N, degenerate = _gauss_arrays(g)
    defined = ~degenerate
    for k in np.flatnonzero(defined & ~np.isfinite(N).all(axis=1)):
        try:
            g[k] = data._g_fn(complex(pts[k]))
            gauss_from_g(g[k])
        except (DegenerateMetricError, EvalError):
            defined[k] = False
    centre_g = _stencil_centres(g).tolist()
    (x1, x2, x3), g = _gauss_arrays(g)[0][defined].T, g[defined]
    upper = x3 > 0
    with np.errstate(all="ignore"):
        hyp_res = max([0.0] + np.abs(x1 * x1 + x2 * x2 - x3 * x3 + 1).tolist())
        stereo = np.hypot(x1 / (1 + x3) - g.real, x2 / (1 + x3) - g.imag)[upper].tolist()
    sheets = np.where(upper, 1, -1).tolist()
    one_sheet = len(set(sheets)) <= 1
    details = {"sheet": sheets[0] if sheets else 0, "one_sheet": one_sheet}
    checks.append(CheckRecord(tag + "gauss_hyperboloid", hyp_res <= 1e-10 and one_sheet, hyp_res, 1e-10, details))
    details = {"points": len(stereo), "skipped_lower_sheet": not stereo}
    checks.append(_bound(tag + "stereo_roundtrip", max([0.0] + stereo), 1e-10, details))

    hs, h = HARMONIC_STEPS, HARMONIC_STEPS[-1]
    orders, residuals, normal = [], [], []
    for centre, z, gz in zip(panels, _stencil_centres(pts), centre_g):
        each = []
        for P, step in zip(centre, hs):
            lap = _laplacian(P, step)
            if not sum(lap) < math.inf:  # NaN or inf where a panel is not finite: the scalar code redoes the four
                P = _stencil_panels(data.field, z, step)
                lap = _laplacian(P, step)
            each.append(lap)
        order, res = _fit_order(hs, [max(r) for r in each])
        orders.append(order)
        residuals.append(max(res))
        normal.append(_cross_product_residual(P, gz))  # the panels of the last step
    fitted = [o for o in orders if o is not None]
    worst = max(residuals) if residuals else 0.0
    details = {"fitted_orders": fitted, "noise_floor_points": orders.count(None), "constant": worst / hs[0] ** 2,
               "max_laplacian": worst}
    checks.append(_bound(tag + "harmonicity", _nan_max([0.0] + [1.8 - o for o in fitted]), 0.0, details))
    details = {"h": h, "points": len(normal)}
    checks.append(_bound(tag + "cross_product_normal", _nan_max([0.0] + normal), 100 * h * h, details))
    return checks


def _bound(name: str, residual: float, tolerance: float, details: dict) -> CheckRecord:
    """The record of a check that passes when its residual is at most its tolerance."""
    return CheckRecord(name, residual <= tolerance, residual, tolerance, details)


def _path_independence_check(data: WeierstrassData, pts: list, q: QuadratureConfig, surface, zs: list) -> tuple:
    """A straight path against one bent beside it, to two grid points, and a
    loop around each puncture, in one batch with the paths of ``surface`` to
    ``zs``, whose values X it returns too.  After a failure it integrates
    its own paths alone, and when they pass it returns the batch's exception
    as X, for the check that reads X to raise in its turn."""
    punctures = data.domain.punctures
    legs = []
    for z in map(complex, pts[:: max(len(pts) // 2, 1)][:2]):
        if abs(z - data.z0) < 1e-9:
            continue
        mid, offset = 0.5 * (data.z0 + z), 0.15j * (z - data.z0)
        bends = [w for w in (mid + offset, mid - offset) if data.domain.contains(w)]
        legs.append((z, [w for w in bends if all(abs(w - p) > CLEARANCE for p in punctures)][:1]))

    def paths():
        for z, bend in legs:
            yield data, data.path(data.z0, z)
            for alt in bend:
                yield data, data.path(data.z0, alt)
                yield data, data.path(alt, z)
        # two paths that do not enclose a puncture between them cannot see a
        # period, so also integrate once around each puncture
        for p in punctures:
            yield data, _loop_path(data, _puncture_square(data.domain, p))

    try:
        sums, failed = integrate_paths(chain(paths(), ((surface, surface.path(data.z0, z)) for z in zs)), q), None
    except (SurfaceError, EvalError) as exc:
        sums, failed = integrate_paths(paths(), q), exc
    sums = sums.real.T
    rows = iter(sums.tolist())
    worst, used = 0.0, 0
    for z, bend in legs:
        direct = data.X0 + LVector(*next(rows))
        if bend:
            leg2 = data.X0 + LVector(*next(rows)) + LVector(*next(rows))
            worst = max(worst, abs(direct.x1 - leg2.x1), abs(direct.x2 - leg2.x2), abs(direct.x3 - leg2.x3))
            used += 1
    for _ in punctures:
        worst = max(worst, *map(abs, next(rows)))
    record = _bound("path_independence", worst, 10 * q.tol, {"loops": len(punctures), "points": used})
    return record, failed or np.array(data.X0.as_tuple()) + sums[len(sums) - len(zs) :]


def _puncture_square(domain: Domain, p: complex) -> list[complex]:
    """A square centred on the puncture p whose corners lie at 0.7 of the
    distance from p to the domain's boundary and to its other punctures, so
    the square stays inside the domain and winds once around p alone."""
    r = abs(p)
    room = [domain.radius - r] + [abs(p - o) for o in domain.punctures if o != p]
    if domain.kind in _RING_KINDS:
        room.append(r - domain.inner_radius)
    if domain.kind in _HALF_KINDS:
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


def full_diagnostics(surface: WeierstrassData | ExtendedSurface, grid: GridSpec = GridSpec(),
                     q: QuadratureConfig = QuadratureConfig()) -> DiagnosticsReport:
    """Run every applicable check on a patch or an extended surface; failures are report entries, not raises.
    With a contact, the data checks take the grid's original side and the reflected approach band too."""
    data = surface.original
    pts, arc, pairs = _grid_points(data.domain, grid), [], []
    sides = [(data, pts)]
    if surface.contact is not None:
        band = boundary_samples(data.domain, depths=(0.1, 0.05, 0.02, 0.012, 0.004))
        pts = np.array(pts)[surface.contact.boundary.on_original_side(np.array(pts))].tolist()
        sides = [(data, pts), (surface.minus, [surface.reflect(w) for w in band])]
        arc, pairs = boundary_points(data.domain)[:5], list(_stencil_centres(pts))  # grid points lie in the domain
    samples = _sample(sides)
    checks = _data_checks(data, pts, samples[0])
    zs = arc + [w for z in pairs for w in (z, surface.reflect(z))]
    record, X = _path_independence_check(data, pts, q, surface, zs)
    checks += [record, _pole_zero_check(data)]
    if surface.contact is not None:
        checks.extend(_data_checks(*sides[1], samples[1], tag="minus_"))
        checks.extend(_extension_checks(surface, zs, len(arc), X, q))
    return DiagnosticsReport(checks)


def _extension_checks(ext: ExtendedSurface, zs: list, n_arc: int, X, q: QuadratureConfig) -> list[CheckRecord]:
    contact, matching = ext.contact, ext.matching
    checks = [_bound("angle_constancy", contact.deviation, ANGLE_TOL, {"c": contact.c, "sheet": contact.sheet})]
    gm = ext.minus._g_fn
    locus_res = _nan_max([contact.locus.mismatch(gm(complex(u))) for u in matching.points])
    details = {"locus": contact.locus.describe(), "mismatch_vs_closed_form": contact.locus_mismatch}
    checks.append(_bound("boundary_locus", locus_res, LOCUS_TOL, details))
    details = {"gaps": dict(sorted(matching.gaps.items()))}
    checks.append(CheckRecord("c1_matching", matching.passed, matching.max_gap, matching.tol, details))

    # plane containment at the arc points zs[:n_arc], then reflection symmetry of the pairs after them
    if isinstance(X, Exception):  # the batch failed on a path of the extended surface
        raise X
    X = [LVector(*row) for row in X.tolist()]
    contain = max([0.0] + [abs(ext.reflected_value(x)) for x in X[:n_arc]])  # the plane equation residual
    checks.append(_bound("plane_containment", contain, 10 * q.tol, {}))
    reflected = zip(X[n_arc::2], X[n_arc + 1 :: 2])
    sym = max([0.0] + [abs(ext.reflected_value(a) + ext.reflected_value(b)) for a, b in reflected])
    details = {"coordinate": ext.reflected, "points": (len(zs) - n_arc) // 2}
    checks.append(_bound("reflection_symmetry", sym, max(1e-7, 20 * q.tol), details))
    return checks
