"""Analytic extension of a maximal surface across a planar boundary.

Given Weierstrass data on the upper half disk whose boundary values meet a
plane at a constant angle c = lim <N, n> != 0, the Gauss map sends the
boundary arc into a circle or line, so both g and the reflected harmonic
coordinate continue by Schwarz reflection and f is recovered algebraically.
The continuation formulas depend on the causal class of the plane:

  spacelike  (n ~ (0,0,1)):  g(D0) on |w| = r,  g_minus = r^2 / sconj(g),
              x3 reflects oddly, phi3_minus = -sconj(phi3), f = phi3/g.
  timelike   (n ~ (0,1,0)):  g(D0) on the circle centered -i*lam of radius
              sqrt(1+lam^2) with lam = 1/c; x2 reflects oddly and
              f = 2 phi2 / (i (1 - g^2)).
  lightlike  (n ~ (1,0,1)):  lam = c - 1; for lam = 0 the locus is the
              line Re w = 1 and g_minus = 2 - sconj(g); otherwise the circle
              centered -1/lam of radius |1 + 1/lam|.  psi = x1 - x3 reflects
              oddly and f = 2 (phi1 - phi3) / (1 - g)^2, using the identity
              phi1 - phi3 = f (1 - g)^2 / 2.

A circular variant replaces the domain reflection z -> conj(z) by the
inversion z -> rho^2 / conj(z) across a circle |z| = rho, which extends
annular data (rings around a conelike vertex) across the contact circle.

The reflection radius/circle is always the one FITTED from boundary samples
of g and cross-checked against the closed form implied by the measured c;
a disagreement aborts rather than trusting either side silently.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .expr import (
    Add,
    Const,
    Div,
    EvalError,
    Expr,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    compile_fn,
    differentiate,
    sconj,
    substitute,
)
from .minkowski import CausalClass, LVector, Plane, lorentz_inner, plane_class
from .weierstrass import (
    Domain,
    DomainKind,
    PhiTriple,
    QuadratureConfig,
    WeierstrassData,
    _build_path,
    gauss_from_g,
    integrate_path,
    phi,
    phi_exprs,
)

__all__ = [
    "BoundaryArc",
    "CircleOrLine",
    "ContactData",
    "DegenerateContactWarning",
    "ExtendedSurface",
    "ExtensionError",
    "GeometryMismatchError",
    "HypothesisViolationError",
    "MatchReport",
    "OrthogonalContactError",
    "REFLECTED_COORD",
    "SingularReconstructionError",
    "assemble",
    "boundary_points",
    "boundary_samples",
    "extend",
    "extend_circular",
    "extend_lightlike",
    "extend_spacelike",
    "extend_timelike",
    "fit_circle_or_line",
    "measure_contact",
    "reflect_circular_g",
    "reflect_lightlike_g",
    "reflect_spacelike_g",
    "reflect_timelike_g",
]


class ExtensionError(Exception):
    pass


class OrthogonalContactError(ExtensionError):
    """c = 0: the plane meets the surface orthogonally; the constant-angle
    construction excludes this case (it belongs to symmetric reflection)."""


class HypothesisViolationError(ExtensionError):
    """The measured contact angle is not constant along the boundary."""


class GeometryMismatchError(ExtensionError):
    """Fitted boundary locus disagrees with the one implied by the angle,
    or the plane is not in its case-normal position."""


class SingularReconstructionError(ExtensionError):
    """The f-reconstruction denominator vanishes on the reflected side."""


class DegenerateContactWarning(UserWarning):
    """|g| approaches 1 along the contact: the induced metric degenerates."""


@dataclass(frozen=True)
class BoundaryArc:
    """The arc carrying the boundary curve: the real diameter or |z| = rho."""

    kind: str  # "segment" | "circle"
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in ("segment", "circle"):
            raise ValueError("boundary kind must be 'segment' or 'circle'")
        if self.kind == "circle" and (self.rho is None or self.rho <= 0):
            raise ValueError("circle boundary needs rho > 0")


@dataclass(frozen=True)
class CircleOrLine:
    """Fitted locus of boundary Gauss values: a circle or a straight line."""

    kind: str  # "circle" | "line"
    center: complex | None = None
    radius: float | None = None
    point: complex | None = None
    direction: complex | None = None
    residual: float = 0.0

    def distance(self, w: complex) -> float:
        if self.kind == "circle":
            return abs(abs(w - self.center) - self.radius)
        return abs((((w - self.point)) * self.direction.conjugate()).imag)

    def describe(self) -> str:
        if self.kind == "circle":
            return f"circle(center={self.center}, radius={self.radius})"
        return f"line(point={self.point}, direction={self.direction})"


def fit_circle_or_line(points: Sequence[complex], curvature_tol: float = 1e-6) -> CircleOrLine:
    """Least-squares circle through the points; degrades to a line when the
    points are collinear or the fitted curvature drops below curvature_tol."""
    pts = [complex(p) for p in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a locus")
    xs = np.array([p.real for p in pts])
    ys = np.array([p.imag for p in pts])
    cx, cy = xs.mean(), ys.mean()
    M = np.column_stack([xs - cx, ys - cy])
    sing = np.linalg.svd(M, compute_uv=False)
    scale = max(sing[0], 1e-30)

    def line_fit() -> CircleOrLine:
        _, _, vt = np.linalg.svd(M)
        d = complex(vt[0, 0], vt[0, 1])
        if d.real < 0 or (d.real == 0 and d.imag < 0):
            d = -d
        point = complex(cx, cy)
        resid = max(abs(((p - point) * d.conjugate()).imag) for p in pts)
        return CircleOrLine("line", point=point, direction=d, residual=resid)

    if sing[1] <= 1e-8 * scale:
        return line_fit()
    A = np.column_stack([xs, ys, np.ones_like(xs)])
    b = -(xs * xs + ys * ys)
    (a1, a2, a3), *_ = np.linalg.lstsq(A, b, rcond=None)
    center = complex(-a1 / 2, -a2 / 2)
    r2 = abs(center) ** 2 - a3
    if r2 <= 0:
        return line_fit()
    radius = math.sqrt(r2)
    if radius > 1.0 / curvature_tol:
        return line_fit()
    resid = max(abs(abs(p - center) - radius) for p in pts)
    return CircleOrLine("circle", center=center, radius=radius, residual=resid)


@dataclass(frozen=True)
class ContactData:
    """Measured contact of a surface patch with a plane.

    ``c`` is the extrapolated limit of <N, n_hat> along the boundary with
    n_hat the case-normalized plane normal; ``theta`` (spacelike, via
    cosh(theta) = |c|) or ``lam`` (timelike c = 1/lam, lightlike c = 1+lam)
    is the case parameter; ``locus`` is the fitted image of the boundary
    under g and ``locus_mismatch`` its gap to the closed form implied by c.
    """

    plane: Plane
    unit_normal: LVector
    offset: float
    plane_kind: CausalClass
    c: float
    deviation: float
    sheet: int
    locus: CircleOrLine
    locus_mismatch: float
    boundary: BoundaryArc
    theta: float | None = None
    lam: float | None = None


# ---------------------------------------------------------------------------
# sampling and extrapolation

_DEPTH_FRACTIONS = (0.016, 0.012, 0.009, 0.006, 0.004, 0.0025, 0.0015)


def boundary_points(domain: Domain, n: int = 9, span: float = 0.7) -> list[complex]:
    """Points on the boundary arc itself (v = 0, or |z| = rho)."""
    if domain.boundary_circle is not None:
        rho = domain.boundary_circle
        return [rho * cmath.exp(1j * t) for t in np.linspace(-math.pi, math.pi, n, endpoint=False)]
    if domain.kind is DomainKind.HALF_ANNULUS:
        lo, hi = domain.inner_radius, domain.radius
        mid, half = 0.5 * (lo + hi), 0.5 * span * (hi - lo)
        us = np.concatenate(
            [np.linspace(-mid - half, -mid + half, max(n // 2, 2)),
             np.linspace(mid - half, mid + half, max(n - n // 2, 2))]
        )
        return [complex(u, 0.0) for u in us]
    return [complex(u, 0.0) for u in np.linspace(-span * domain.radius, span * domain.radius, n)]


def boundary_samples(
    domain: Domain,
    n_arc: int = 9,
    depths: Sequence[float] = _DEPTH_FRACTIONS,
    span: float = 0.7,
) -> list[complex]:
    """Interior points approaching the boundary arc, grouped by arc position.

    For each of ``n_arc`` positions along the arc the sample set contains a
    tail of points at the given depth fractions of the domain scale, suited
    to polynomial extrapolation of boundary limits.
    """
    base = boundary_points(domain, n_arc, span)
    out: list[complex] = []
    if domain.boundary_circle is not None:
        rho = domain.boundary_circle
        for zb in base:
            unit = zb / abs(zb)
            for d in depths:
                out.append((rho * (1 + d)) * unit)
    else:
        scale = domain.radius
        for zb in base:
            for d in depths:
                out.append(complex(zb.real, d * scale))
    return out


def _neville(ts: Sequence[float], vals: Sequence[complex], t0: float = 0.0) -> complex:
    n = len(ts)
    p = list(vals)
    for k in range(1, n):
        for j in range(n - k):
            p[j] = ((t0 - ts[j + k]) * p[j] - (t0 - ts[j]) * p[j + 1]) / (ts[j] - ts[j + k])
    return p[0]


def _group_samples(samples: Sequence[complex], boundary: BoundaryArc):
    groups: dict[float, list[complex]] = {}
    for z in samples:
        z = complex(z)
        if boundary.kind == "segment":
            key = round(z.real, 9)
        else:
            key = round(cmath.phase(z), 9)
        groups.setdefault(key, []).append(z)
    return [groups[k] for k in sorted(groups)]


def _approach_parameter(z: complex, boundary: BoundaryArc) -> float:
    if boundary.kind == "segment":
        return z.imag
    return abs(z) - boundary.rho


def _canonical_normal(plane: Plane) -> tuple[LVector, float, CausalClass]:
    """Scale the normal to its case-normal form (0,0,1)/(0,1,0)/(1,0,1).

    Only translations and rescalings are applied; a normal that is not
    axis-aligned must be brought to normal form by the caller's own frame.
    """
    n = plane.n
    kind = plane_class(plane)
    scale_ref = max(abs(n.x1), abs(n.x2), abs(n.x3))
    tol = 1e-9 * scale_ref
    if kind is CausalClass.SPACELIKE:
        if abs(n.x1) > tol or abs(n.x2) > tol:
            raise GeometryMismatchError(
                "spacelike plane normal must be along (0,0,1); apply your own frame first"
            )
        s = n.x3
        return LVector(0, 0, 1), plane.d / s, kind
    if kind is CausalClass.TIMELIKE:
        if abs(n.x1) > tol or abs(n.x3) > tol:
            raise GeometryMismatchError(
                "timelike plane normal must be along (0,1,0); apply your own frame first"
            )
        s = n.x2
        return LVector(0, 1, 0), plane.d / s, kind
    # lightlike: require n proportional to (1, 0, 1)
    if abs(n.x2) > tol or abs(n.x1 - n.x3) > tol:
        raise GeometryMismatchError(
            "lightlike plane normal must be along (1,0,1); apply your own frame first"
        )
    s = n.x1
    return LVector(1, 0, 1), plane.d / s, kind


def _locus_mismatch(fitted: CircleOrLine, expected: CircleOrLine) -> float:
    if fitted.kind != expected.kind:
        return math.inf
    if fitted.kind == "circle":
        return max(abs(fitted.center - expected.center), abs(fitted.radius - expected.radius))
    align = abs((fitted.direction * expected.direction.conjugate()).imag)
    return max(align, expected.distance(fitted.point))


def measure_contact(
    data: WeierstrassData,
    plane: Plane,
    samples: Sequence[complex] | None = None,
    *,
    angle_tol: float = 1e-6,
    c_tol: float = 1e-6,
    locus_tol: float = 1e-6,
    lam_zero_tol: float = 1e-6,
) -> ContactData:
    """Extrapolate <N, n> and g to the boundary and classify the contact.

    Raises HypothesisViolationError when the angle is not constant,
    OrthogonalContactError when |c| < c_tol, and GeometryMismatchError when
    the fitted Gauss locus disagrees with the one implied by c.
    """
    domain = data.domain
    if domain.boundary_circle is not None:
        boundary = BoundaryArc("circle", domain.boundary_circle)
    else:
        boundary = BoundaryArc("segment")
    unit_n, offset, kind = _canonical_normal(plane)
    if samples is None:
        samples = boundary_samples(domain)
    groups = _group_samples(samples, boundary)
    if len(groups) < 3:
        raise ValueError("need samples at 3 or more boundary positions")

    gfun = compile_fn(data.g)
    c_limits: list[float] = []
    g_limits: list[complex] = []
    for grp in groups:
        ts = [_approach_parameter(z, boundary) for z in grp]
        gs = [gfun(z) for z in grp]
        cs = [lorentz_inner(gauss_from_g(gv), unit_n) for gv in gs]
        if len(grp) == 1:
            g_limits.append(gs[0])
            c_limits.append(cs[0])
        else:
            g_limits.append(_neville(ts, gs))
            c_limits.append(_neville(ts, [complex(c) for c in cs]).real)

    c = float(np.mean(c_limits))
    deviation = max(abs(ci - c) for ci in c_limits)
    if deviation > angle_tol:
        raise HypothesisViolationError(
            f"constant-angle hypothesis violated: <N,n> varies by {deviation:.3e} "
            f"about {c:.6f}"
        )
    if abs(c) < c_tol:
        raise OrthogonalContactError(
            "orthogonal contact (c = 0): excluded here; such boundaries extend by "
            "symmetric reflection across the plane, which this engine does not provide"
        )
    mods = [abs(gv) for gv in g_limits]
    if all(m < 1 for m in mods):
        sheet = 1
    elif all(m > 1 for m in mods):
        sheet = -1
    else:
        raise HypothesisViolationError("boundary Gauss values straddle |g| = 1")

    locus = fit_circle_or_line(g_limits)

    theta: float | None = None
    lam: float | None = None
    if kind is CausalClass.SPACELIKE:
        if abs(c) < 1 - 1e-9:
            raise HypothesisViolationError(
                f"|<N,n>| = {abs(c):.6f} < 1 is impossible against a spacelike plane"
            )
        theta = math.acosh(max(abs(c), 1.0))
        r_exp = math.tanh(theta / 2) if sheet > 0 else 1.0 / math.tanh(theta / 2)
        expected = CircleOrLine("circle", center=0j, radius=r_exp)
    elif kind is CausalClass.TIMELIKE:
        lam = 1.0 / c
        expected = CircleOrLine("circle", center=-1j * lam, radius=math.sqrt(1 + lam * lam))
    else:
        lam = c - 1.0
        if abs(lam) < lam_zero_tol:
            lam = 0.0
            expected = CircleOrLine("line", point=1 + 0j, direction=1j)
            degeneracy = min(abs(1 - m * m) for m in mods)
            if degeneracy < 0.05:
                warnings.warn(
                    "lightlike tangential contact with |g| -> 1: induced metric "
                    "degenerates along the boundary",
                    DegenerateContactWarning,
                    stacklevel=2,
                )
        else:
            inv = 1.0 / lam
            expected = CircleOrLine("circle", center=complex(-inv, 0), radius=abs(1 + inv))

    mismatch = _locus_mismatch(locus, expected)
    if mismatch > locus_tol * (1 + (locus.radius or 1.0)):
        raise GeometryMismatchError(
            f"fitted boundary locus {locus.describe()} disagrees with "
            f"{expected.describe()} implied by c = {c:.9f} (gap {mismatch:.3e})"
        )
    return ContactData(
        plane=plane,
        unit_normal=unit_n,
        offset=offset,
        plane_kind=kind,
        c=c,
        deviation=deviation,
        sheet=sheet,
        locus=locus,
        locus_mismatch=mismatch,
        boundary=boundary,
        theta=theta,
        lam=lam,
    )


# ---------------------------------------------------------------------------
# reflection formulas for g

def reflect_spacelike_g(g: Expr, radius: float) -> Expr:
    """Inversion in the circle |w| = radius composed with domain conjugation."""
    return Div(Const(radius * radius), sconj(g))


def reflect_timelike_g(g: Expr, lam: float) -> Expr:
    """Inversion in the circle centered -i*lam of radius sqrt(1 + lam^2)."""
    return Add(
        Const(-1j * lam),
        Div(Const(1 + lam * lam), Sub(sconj(g), Const(1j * lam))),
    )


def reflect_lightlike_g(g: Expr, lam: float) -> Expr:
    """Reflection in the line Re w = 1 (lam = 0) or inversion in the circle
    centered -1/lam of radius |1 + 1/lam|."""
    if lam == 0:
        return Sub(Const(2), sconj(g))
    inv = 1.0 / lam
    return Add(
        Const(complex(-inv)),
        Div(Const((1 + inv) ** 2), Add(sconj(g), Const(complex(inv)))),
    )


def _circle_conj(e: Expr, rho: float) -> Expr:
    """Schwarz conjugation across the domain circle |z| = rho:
    z -> conj(e(rho^2 / conj(z)))."""
    return substitute(sconj(e), Div(Const(rho * rho), Var()))


def reflect_circular_g(g: Expr, radius: float, rho: float) -> Expr:
    """Spacelike reflection with the domain inversion z -> rho^2 / conj(z)."""
    return Div(Const(radius * radius), _circle_conj(g, rho))


# ---------------------------------------------------------------------------
# extended surfaces

@dataclass(frozen=True)
class MatchReport:
    """Gaps between the two sides' formulas on the boundary arc.

    Gaps are normalized as |a - b| / (1 + |a|) and cover f, g, the phi
    triple and all first derivatives.
    """

    gaps: dict
    tol: float
    points: tuple[complex, ...]

    @property
    def max_gap(self) -> float:
        return max(self.gaps.values())

    @property
    def passed(self) -> bool:
        return self.max_gap <= self.tol


def _match_report(data, f_minus, g_minus, tol, n=9) -> MatchReport:
    pts = boundary_points(data.domain, n)
    plus = {"f": data.f, "g": data.g}
    minus = {"f": f_minus, "g": g_minus}
    for name, ep, em in zip(("phi1", "phi2", "phi3"), phi_exprs(data.f, data.g), phi_exprs(f_minus, g_minus)):
        plus[name] = ep
        minus[name] = em
    gaps: dict[str, float] = {}
    for name in list(plus):
        plus["d" + name] = differentiate(plus[name])
        minus["d" + name] = differentiate(minus[name])
    for name in plus:
        fp = compile_fn(plus[name])
        fm = compile_fn(minus[name])
        worst = 0.0
        for z in pts:
            a = fp(z)
            b = fm(z)
            worst = max(worst, abs(a - b) / (1 + abs(a)))
        gaps[name] = worst
    return MatchReport(gaps=gaps, tol=tol, points=tuple(pts))


# the coordinate that reflects oddly across a plane of each causal class
REFLECTED_COORD = {
    CausalClass.SPACELIKE: "x3",
    CausalClass.TIMELIKE: "x2",
    CausalClass.LIGHTLIKE: "psi",
}


@dataclass(frozen=True)
class ExtendedSurface:
    """Piecewise Weierstrass data: the original patch plus reflected formulas.

    The two sides agree to first order on the boundary arc (see
    ``matching``); evaluation integrates the side-appropriate triple along a
    path split at the arc, so the assembled X is continuous across it.
    ``shift`` is the translation taking the contact plane to its case-normal
    position; the reflected coordinate is odd in the shifted frame.
    """

    original: WeierstrassData
    contact: ContactData
    g_minus: Expr
    f_minus: Expr
    reflected: str
    shift: LVector
    matching: MatchReport

    def reflect(self, z: complex) -> complex:
        z = complex(z)
        if self.contact.boundary.kind == "segment":
            return z.conjugate()
        if z == 0:
            return complex(math.inf)  # the inversion sends the center to infinity
        rho = self.contact.boundary.rho
        return rho * rho / z.conjugate()

    def on_original_side(self, z: complex) -> bool:
        z = complex(z)
        if self.contact.boundary.kind == "segment":
            return z.imag >= 0
        return abs(z) >= self.contact.boundary.rho

    @cached_property
    def minus(self) -> WeierstrassData:
        """The reflected-side formulas as a patch on the original domain's chart."""
        data = self.original
        return WeierstrassData(self.f_minus, self.g_minus, data.domain, data.z0, data.X0)

    def reflected_value(self, X: LVector) -> float:
        """The coordinate of X that reflects oddly, measured from the contact plane."""
        d = X - self.shift
        return d.x1 - d.x3 if self.reflected == "psi" else getattr(d, self.reflected)

    def side(self, z: complex) -> WeierstrassData:
        """The Weierstrass data that holds at z: the original or the reflected side."""
        return self.original if self.on_original_side(z) else self.minus

    @cached_property
    def _punctures(self) -> tuple[complex, ...]:
        pts = list(self.original.domain.punctures)
        for p in self.original.domain.punctures:
            q = self.reflect(p)
            if abs(q) < 1e12 and all(abs(q - r) > 1e-12 for r in pts):
                pts.append(q)
        if self.contact.boundary.kind == "circle" and all(abs(p) > 1e-12 for p in pts):
            pts.append(0j)  # the inversion z -> rho^2/z is singular at 0
        return tuple(pts)

    def phi_plus(self, z: complex) -> PhiTriple:
        return phi(self.original, z)

    def phi_minus(self, z: complex) -> PhiTriple:
        return phi(self.minus, z)

    def _crossings(self, a: complex, b: complex) -> list[complex]:
        if self.contact.boundary.kind == "segment":
            if (a.imag > 0) == (b.imag > 0) or a.imag == b.imag:
                return []
            t = a.imag / (a.imag - b.imag)
            if 1e-12 < t < 1 - 1e-12:
                return [a + t * (b - a)]
            return []
        rho = self.contact.boundary.rho
        d = b - a
        aa = (d * d.conjugate()).real
        if aa == 0:
            return []
        bb = 2 * (a * d.conjugate()).real
        cc = (a * a.conjugate()).real - rho * rho
        disc = bb * bb - 4 * aa * cc
        if disc <= 0:
            return []
        root = math.sqrt(disc)
        out = []
        for t in ((-bb - root) / (2 * aa), (-bb + root) / (2 * aa)):
            if 1e-12 < t < 1 - 1e-12:
                out.append(a + t * d)
        return out

    def evaluate(self, z: complex, q: QuadratureConfig | None = None) -> LVector:
        """X(z) on the assembled domain, anchored at the original basepoint."""
        q = q or QuadratureConfig()
        z = complex(z)
        data = self.original
        points = _build_path(data.z0, z, self._punctures, q)
        knots = [points[0]]
        for a, b in zip(points, points[1:]):
            knots += sorted(self._crossings(a, b), key=lambda w: abs(w - a))
            knots.append(b)
        (t1, t2, t3), _ = integrate_path(
            lambda a, b: self.side(0.5 * (a + b)).field, knots, q
        )
        return LVector(data.X0.x1 + t1.real, data.X0.x2 + t2.real, data.X0.x3 + t3.real)


def _check_reconstruction_singular(g_minus: Expr, pts: Sequence[complex], offsets: Sequence[complex], tol: float = 1e-8):
    """Reject when g_minus hits any of the given values on the sample grid."""
    fn = compile_fn(g_minus)
    for z in pts:
        try:
            gv = fn(complex(z))
        except EvalError:
            continue
        for w in offsets:
            if abs(gv - w) < tol:
                raise SingularReconstructionError(
                    f"extended g takes the singular value {w} near z = {z}"
                )


def _minus_grid(domain: Domain, reflect, n: int = 40) -> list[complex]:
    pts = []
    rng = np.random.default_rng(2)
    tries = 0
    while len(pts) < n and tries < 50 * n:
        tries += 1
        re = rng.uniform(-domain.radius, domain.radius)
        im = rng.uniform(0, domain.radius)
        z = complex(re, im)
        if domain.contains(z) and z.imag > 1e-3 * domain.radius:
            pts.append(reflect(z))
    return pts


def _case_shift(kind: CausalClass, offset: float) -> LVector:
    # a point of the normalized plane: <p, n_hat> = offset
    if kind is CausalClass.SPACELIKE:
        return LVector(0, 0, -offset)
    if kind is CausalClass.TIMELIKE:
        return LVector(0, offset, 0)
    return LVector(offset, 0, 0)


def assemble(
    data: WeierstrassData,
    contact: ContactData,
    f_minus: Expr,
    g_minus: Expr,
    *,
    match_tol: float = 1e-7,
) -> ExtendedSurface:
    """The extended surface for given reflected-side formulas.

    The reflected coordinate and the frame shift follow from the plane's
    causal class; the matching report measures the two sides on the arc.
    """
    return ExtendedSurface(
        original=data,
        contact=contact,
        g_minus=g_minus,
        f_minus=f_minus,
        reflected=REFLECTED_COORD[contact.plane_kind],
        shift=_case_shift(contact.plane_kind, contact.offset),
        matching=_match_report(data, f_minus, g_minus, match_tol),
    )


def extend_spacelike(
    data: WeierstrassData, contact: ContactData, *, match_tol: float = 1e-7
) -> ExtendedSurface:
    """Extension across a spacelike plane met along the real diameter."""
    if contact.plane_kind is not CausalClass.SPACELIKE:
        raise ValueError("contact is not with a spacelike plane")
    if contact.boundary.kind != "segment":
        raise ValueError("use extend_circular for a circular boundary arc")
    if contact.locus.kind != "circle":
        raise GeometryMismatchError("spacelike contact requires a circular Gauss locus")
    g_minus = reflect_spacelike_g(data.g, contact.locus.radius)
    phi3_minus = Neg(sconj(Mul(data.f, data.g)))
    return assemble(data, contact, Div(phi3_minus, g_minus), g_minus, match_tol=match_tol)


def extend_timelike(
    data: WeierstrassData, contact: ContactData, *, match_tol: float = 1e-7
) -> ExtendedSurface:
    """Extension across a timelike plane; x2 reflects oddly."""
    if contact.plane_kind is not CausalClass.TIMELIKE:
        raise ValueError("contact is not with a timelike plane")
    g_minus = reflect_timelike_g(data.g, contact.lam)
    _, phi2, _ = phi_exprs(data.f, data.g)
    phi2_minus = Neg(sconj(phi2))
    # phi2 = i f (1 - g^2) / 2 inverts to f = 2 phi2 / (i (1 - g^2))
    f_minus = Div(
        Mul(Const(2), phi2_minus), Mul(Const(1j), Sub(Const(1), Pow(g_minus, 2)))
    )
    _check_reconstruction_singular(
        g_minus, _minus_grid(data.domain, lambda z: z.conjugate()), (1 + 0j, -1 + 0j)
    )
    return assemble(data, contact, f_minus, g_minus, match_tol=match_tol)


def extend_lightlike(
    data: WeierstrassData, contact: ContactData, *, match_tol: float = 1e-7
) -> ExtendedSurface:
    """Extension across a lightlike plane; psi = x1 - x3 reflects oddly."""
    if contact.plane_kind is not CausalClass.LIGHTLIKE:
        raise ValueError("contact is not with a lightlike plane")
    g_minus = reflect_lightlike_g(data.g, contact.lam)
    # phi1 - phi3 = f (1 - g)^2 / 2
    p13 = Mul(Const(0.5), Mul(data.f, Pow(Sub(Const(1), data.g), 2)))
    p13_minus = Neg(sconj(p13))
    f_minus = Div(Mul(Const(2), p13_minus), Pow(Sub(Const(1), g_minus), 2))
    _check_reconstruction_singular(
        g_minus, _minus_grid(data.domain, lambda z: z.conjugate()), (1 + 0j,)
    )
    return assemble(data, contact, f_minus, g_minus, match_tol=match_tol)


def extend_circular(
    data: WeierstrassData,
    contact: ContactData,
    *,
    match_tol: float = 1e-7,
) -> ExtendedSurface:
    """Spacelike extension across a circle |z| = rho in an annular domain.

    Same reflection as the segment case with the domain conjugation replaced
    by the inversion z -> rho^2 / conj(z); the outer side counts as the
    original and the formulas extend it inward.
    """
    if contact.plane_kind is not CausalClass.SPACELIKE:
        raise ValueError("circular extension handles spacelike planes only")
    if contact.boundary.kind != "circle":
        raise ValueError("contact boundary is not a circle")
    rho = contact.boundary.rho
    g_minus = reflect_circular_g(data.g, contact.locus.radius, rho)
    _, _, phi3 = phi_exprs(data.f, data.g)
    # dx3 odd across the circle: phi3_minus(z) = -sconj(phi3)(rho^2/z) * d(rho^2/z)/dz
    phi3_minus = Mul(_circle_conj(phi3, rho), Div(Const(rho * rho), Pow(Var(), 2)))
    return assemble(data, contact, Div(phi3_minus, g_minus), g_minus, match_tol=match_tol)


def extend(
    data: WeierstrassData,
    plane: Plane,
    samples: Sequence[complex] | None = None,
    *,
    match_tol: float = 1e-7,
) -> ExtendedSurface:
    """Measure the contact and dispatch to the case-specific extension."""
    contact = measure_contact(data, plane, samples)
    if contact.boundary.kind == "circle":
        return extend_circular(data, contact, match_tol=match_tol)
    if contact.plane_kind is CausalClass.SPACELIKE:
        return extend_spacelike(data, contact, match_tol=match_tol)
    if contact.plane_kind is CausalClass.TIMELIKE:
        return extend_timelike(data, contact, match_tol=match_tol)
    return extend_lightlike(data, contact, match_tol=match_tol)
