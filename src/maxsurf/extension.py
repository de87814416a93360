"""Analytic extension of a maximal surface across a planar boundary.

Given Weierstrass data whose boundary values meet a plane at a constant
angle c = lim <N, n>, the Gauss map sends the boundary arc into a
circle or line, so both g and the one linear functional L of the phi triple
that is odd across the plane continue by Schwarz reflection, and f is
recovered algebraically from L and the reflected g.  Every case is that one
construction; two independent axes supply its parameters.

The causal class of the plane is a row of ``CASES``.  Each row's locus is
one generalized circle a|w|^2 + 2 Re(conj(b) w) + c' = 0, built from c:

  spacelike  (n ~ (0,0,1)):  c = +-cosh(theta); (1, 0, -r^2), the circle
              |w| = r, g_minus = r^2 / conj(g); x3 is odd, L = phi3 = f g.
  timelike   (n ~ (0,1,0)):  (c, i, -c), g_minus = (w + ic)/(1 + icw) with
              w = conj(g), exactly conj(g) at c = 0 (orthogonal contact, the
              line Im w = 0); x2 is odd, L = phi2 = i f (1 - g^2) / 2.
  lightlike  (n ~ (1,0,1)):  c = 1 + lam; (lam, 1, -lam - 2), g_minus =
              (2 + lam - w)/(1 + lam w), 2 - conj(g) at lam = 0 (the line
              Re w = 1); psi = x1 - x3 is odd, L = phi1 - phi3 = f (1 - g)^2 / 2.

The boundary arc is a ``CircleOrLine`` too: the real diameter 2 Im z = 0,
whose domain reflection is sigma(z) = conj(z), or a circle |z| = rho, whose
inversion sigma(z) = rho^2 / conj(z) extends annular data (rings around a
conelike vertex) across the contact circle.  One formula of the form serves
both: the conjugation conj(e(sigma(z))) is sconj(e) composed with the
holomorphic conj o sigma, the odd pull-back of L is L_minus =
-conj(L(sigma(z))) (conj o sigma)'(z), and the sign of the form tells the
sides apart; the row supplies the locus, whose own reflection maps the
conjugated g, and the recovery f_minus = L_minus / h(g_minus).
Only spacelike planes are supported across a circle; measure_contact refuses others.

<N, n> and g are measured on the arc itself, at its ARC_POSITIONS
``boundary_points``, where the formulas take their boundary limits as
values; c is the mean of the <N, n> values.  The locus g is reflected
through is the row's closed form from c; a spacelike radius is the mean |g|
of the boundary limits, whose (1 + r^2)/|1 - r^2| must be |c| to ANGLE_TOL.
One form holds circles and lines, so no threshold turns one into the other.
A boundary limit w of g farther than LOCUS_TOL (times 1 + min(|w|, radius))
from that locus aborts rather than reflecting through a locus the boundary
does not lie on.

An ``ExtendedSurface`` is the surface of two sides, as a ``WeierstrassData``
patch is the surface of one: both answer ``original``, ``side(z)``,
``path(a, b)`` (a polyline whose every segment lies on one side),
``contains(z)``, ``contact`` and ``region``, and on arrays ``bent(a, b)`` and
``sides(z)``.  Every integrator takes a segment on the side at its midpoint,
so one ``evaluate_surface`` integrates either, ``full_diagnostics`` checks
either and ``cli.build_mesh`` meshes either.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .expr import (
    Const,
    Div,
    EvalError,
    Expr,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    _add,
    _derivative,
    _div,
    _mul,
    _NormalForm,
    _readable,
    compile_fn,
    sconj,
    substitute,
)
from .minkowski import CausalClass, LVector, Plane, lorentz_inner, plane_class
from .weierstrass import (
    Domain,
    DomainKind,
    WeierstrassData,
    _HALF_KINDS,
    _build_path,
    _phi_values,
    evaluate_surface,
    gauss_from_g,
    phi_exprs,
)

__all__ = [
    "CASES",
    "Case",
    "CircleOrLine",
    "ContactData",
    "DegenerateContactWarning",
    "ExtendedSurface",
    "ExtensionError",
    "GeometryMismatchError",
    "HypothesisViolationError",
    "MatchReport",
    "SingularReconstructionError",
    "boundary_points",
    "boundary_samples",
    "extend",
    "measure_contact",
    "reflect_g",
]


# Thresholds of the contact measurement and the matching report.
ANGLE_TOL = 1e-6
"""The most <N, n> may vary along the boundary for the angle to count as constant."""
LOCUS_TOL = 1e-8
"""How far a value w of g on the arc may lie from the closed-form Gauss locus, relative to 1 + min(|w|, radius):
the contact holds g to it, and check's boundary_locus the reflected g."""
MATCH_TOL = 1e-7
"""The largest normalized gap between the two sides on the arc that matches."""
SINGULAR_TOL = 1e-8
"""How close g_minus may come to a value where the recovery of f divides by zero."""

# Where the contact, the matching and the reconstruction are sampled.
ARC_POSITIONS = 9
"""Positions along the boundary arc."""
ARC_SPAN = 0.7
"""The share of a segment arc they cover (of each half, on a half annulus);
a circle arc is covered whole."""
MINUS_POINTS = 40
"""Reflected-side points checked for a singular reconstruction."""


class ExtensionError(Exception):
    pass


class HypothesisViolationError(ExtensionError):
    """The measured contact angle is not constant along the boundary."""


class GeometryMismatchError(ExtensionError):
    """The boundary limits of g miss the locus implied by the angle,
    or the plane is not in its case-normal position."""


class SingularReconstructionError(ExtensionError):
    """The f-reconstruction denominator vanishes on the reflected side."""


class DegenerateContactWarning(UserWarning):
    """|g| approaches 1 along the contact: the induced metric degenerates."""


@dataclass(frozen=True)
class CircleOrLine:
    """The generalized circle a|w|^2 + 2 Re(conj(b) w) + c = 0, with a and c real: the Gauss locus of a
    contact, and the boundary arc of the domain.  It is the circle about -b/a of radius
    sqrt(|b|^2 - a c)/|a|, or a line where a = 0; the one form holds both, and a circle that grows into a
    line passes through no threshold.

    As the arc it fixes the domain reflection sigma, its own inversion: z -> conj(z) across the real
    diameter (0, i, 0), which is 2 Im z = 0, and z -> rho^2 / conj(z) across |z| = rho, (1, 0, -rho^2).
    The side where the form is positive or zero (Im z >= 0, |z| >= rho) is the original.
    """

    a: float
    b: complex
    c: float

    @property
    def radius(self) -> float:
        """sqrt(|b|^2 - a c)/|a|, infinite for a line."""
        return math.sqrt(abs(self.b) ** 2 - self.a * self.c) / abs(self.a) if self.a else math.inf

    def distance(self, w: complex) -> float:
        """The distance of w from the locus, exact for a circle and a line alike:
        |a|w|^2 + 2 Re(conj(b) w) + c| / (|a w + b| + sqrt(|b|^2 - a c))."""
        a, b, c = self.a, self.b, self.c
        value = a * abs(w) ** 2 + 2 * (b.conjugate() * w).real + c
        return abs(value) / (abs(a * w + b) + math.sqrt(abs(b) ** 2 - a * c))

    def mismatch(self, w: complex) -> float:
        """The distance of w relative to 1 + min(|w|, radius), the one scale a value of g is held to."""
        return self.distance(w) / (1 + min(abs(w), self.radius))

    def reflect(self, w: Expr) -> Expr:
        """The reflection of w through the locus, -(b w + c)/(a w + conj(b)), divided through by conj(b),
        or by a where b = 0, with its zero terms and unit factors left out; each constant reads back
        from its printed form bit for bit."""
        a, b, c = self.a, self.b, self.c
        d = b.conjugate() if b else a
        num = _add(Const(_readable(-c / d)), _mul(Const(_readable(-b / d)), w))
        return _div(num, _add(Const(_readable(b.conjugate() / d)), _mul(Const(_readable(a / d)), w)))

    def describe(self) -> str:
        return f"generalized circle (a, b, c) = ({self.a!r}, {self.b!r}, {self.c!r})"

    def _value(self, z):
        """The form at a number or at each point of an array.  A line's value leaves a|z|^2 out, so its
        sign holds where |z|^2 overflows, which would make 0 * inf a NaN."""
        linear = 2 * (self.b.real * z.real + self.b.imag * z.imag) + self.c
        return self.a * (z.real * z.real + z.imag * z.imag) + linear if self.a else linear

    def _conj_sigma(self) -> Expr:
        """conj(sigma(z)), which is holomorphic: the conjugate form's reflection of z, so z across the
        real diameter and rho^2/z across |z| = rho."""
        return CircleOrLine(self.a, self.b.conjugate(), self.c).reflect(Var())

    def conj(self, e: Expr) -> Expr:
        """Schwarz conjugation across the arc: z -> conj(e(sigma(z)))."""
        return substitute(sconj(e), self._conj_sigma())

    def pullback(self, L: Expr) -> Expr:
        """Odd reflection of the form L dz across the arc: -conj(L(sigma(z))) (conj o sigma)'(z)."""
        return Neg(_mul(self.conj(L), _derivative(self._conj_sigma(), {})))

    def mirror(self, z: complex | np.ndarray) -> complex | np.ndarray:
        """sigma(z) = -(b conj(z) + c)/(a conj(z) + conj(b)) at a number or at each point of an array.  On
        a number the centre of a circle maps to complex(inf); in an array, to a value that is not finite."""
        w = z.conjugate()
        num, den = -(self.b * w + self.c), self.a * w + self.b.conjugate()
        if isinstance(z, complex):
            return num / den if den else complex(math.inf)
        with np.errstate(all="ignore"):
            return num / den

    @property
    def poles(self) -> tuple[complex, ...]:
        """Where sigma itself is singular: the centre of a circle, 0j - b/a, so that it is 0j, not -0j."""
        return (0j - self.b / self.a,) if self.a else ()

    def on_original_side(self, z: complex | np.ndarray) -> bool | np.ndarray:
        """Whether z (a number or an array) lies on the original side or on the arc: the form is >= 0, where
        in an array a square past the float range is inf."""
        if isinstance(z, complex):
            return self._value(z) >= 0
        with np.errstate(over="ignore", invalid="ignore"):
            return self._value(z) >= 0

    def crossings(self, p: complex, q: complex) -> list[complex]:
        """Interior points where the segment from p to q crosses the arc: the roots in t of the form at
        p + t (q - p), a quadratic A t^2 + B t + C, or B t + C where a = 0."""
        d, C = q - p, self._value(p)
        if self.a:
            A = self.a * (d * d.conjugate()).real
            B = 2 * (self.a * (p * d.conjugate()).real + (self.b.conjugate() * d).real)
            disc = B * B - 4 * A * C
            if A == 0 or disc <= 0:
                ts = []
            else:
                root = math.sqrt(disc)
                ts = [(-B - root) / (2 * A), (-B + root) / (2 * A)]
        else:
            B = 2 * (self.b.real * d.real + self.b.imag * d.imag)
            ts = [-C / B] if B else []
        return [p + t * d for t in ts if 1e-12 < t < 1 - 1e-12]


@dataclass(frozen=True)
class ContactData:
    """Measured contact of a surface patch with a plane.

    ``c`` is the mean of <N, n_hat> over the arc's ``boundary_points`` with
    n_hat the case-normalized plane normal; ``theta`` (spacelike, via
    cosh(theta) = |c|) or ``lam`` (timelike 1/c, None whenever c is exactly 0, as it
    is for data real on the axis; lightlike c - 1) reports the case parameter;
    ``locus`` is the row's closed-form image of the boundary under g, built from c,
    and ``locus_mismatch`` the largest ``locus.mismatch`` of a boundary limit of g.
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
    boundary: CircleOrLine
    theta: float | None = None
    lam: float | None = None


# ---------------------------------------------------------------------------
# the case table

@dataclass(frozen=True)
class Case:
    """Everything the extension takes from the causal class of the plane.

    ``normal`` is the case-normal plane normal and ``reflected`` names the
    coordinate that reflects oddly, <X, normal> up to sign.  ``odd(f, g)`` is the
    functional L of the phi triple that reflects oddly and ``recover(L, g)`` solves it
    for f, dividing by zero where g takes a value in ``singular``.
    ``locus(c, sheet, gs)`` is the closed-form locus implied by c and the
    boundary limits gs of g, whose own reflection continues the conjugated g,
    with theta and lam, and refuses a contact the row cannot extend.
    """

    kind: CausalClass
    normal: LVector
    reflected: str
    odd: Callable[[Expr, Expr], Expr]
    recover: Callable[[Expr, Expr], Expr]
    singular: tuple[complex, ...]
    locus: Callable[..., tuple[CircleOrLine, float | None, float | None]]

    def normalize(self, plane: Plane) -> tuple[LVector, float]:
        """The case-normal normal and the plane's offset along it.

        Only rescalings are applied; a normal that is not along ``normal``
        must be brought to normal form by the caller's own frame.
        """
        n, m = plane.n.as_tuple(), self.normal.as_tuple()
        s = next(a for a, b in zip(n, m) if b)
        tol = 1e-9 * max(abs(a) for a in n)
        if any(abs(a - s * b) > tol for a, b in zip(n, m)):
            axis = ",".join(f"{b:g}" for b in m)
            raise GeometryMismatchError(
                f"{self.kind.value} plane normal must be along ({axis}); apply your own frame first"
            )
        return self.normal, plane.d / s


def _spacelike_locus(c, sheet, gs):
    if abs(c) < 1 - 1e-9:
        raise HypothesisViolationError(
            f"|<N,n>| = {abs(c):.6f} < 1 is impossible against a spacelike plane"
        )
    theta = math.acosh(max(abs(c), 1.0))
    if theta == 0 and sheet < 0:
        raise GeometryMismatchError(f"|<N,n>| = {abs(c):.6f} on the lower sheet puts the Gauss locus at |g| = infinity")
    r = sum(map(abs, gs)) / len(gs)
    cosh = (1 + r * r) / abs(1 - r * r)  # cosh(theta) of the radius tanh(theta/2)^(+-1), in c's own unit
    if not abs(cosh - abs(c)) <= ANGLE_TOL:
        raise GeometryMismatchError(f"boundary |g| = {r:.9f} gives (1 + |g|^2)/|1 - |g|^2| = {cosh:.9f}, "
                                    f"which misses |c| = {abs(c):.9f}")
    return CircleOrLine(1.0, 0j, -r * r), theta, None


def _timelike_locus(c, sheet, gs):
    # c |w|^2 + 2 Im w - c = 0: about -i/c, of radius sqrt(1 + 1/c^2), and the line Im w = 0 at c = 0
    return CircleOrLine(c, 1j, -c), None, 1.0 / c if c else None


def _lightlike_locus(c, sheet, gs):
    gap = min(abs(g + 1) for g in gs)
    if gap < 0.05:
        raise HypothesisViolationError(f"degenerate lightlike contact (|g + 1| = {gap:.3e} < 0.05): X_u ^ X_v = 0")
    lam = c - 1.0
    # tangential, as far as c is known: within ANGLE_TOL of 1
    if abs(lam) <= ANGLE_TOL and min(abs(1 - abs(g) * abs(g)) for g in gs) < 0.05:
        warnings.warn(
            "lightlike tangential contact with |g| -> 1: induced metric "
            "degenerates along the boundary",
            DegenerateContactWarning,
            stacklevel=3,
        )
    # lam |w|^2 + 2 Re w - lam - 2 = 0: about -1/lam, of radius |1 + 1/lam|, and the line Re w = 1 at lam = 0
    return CircleOrLine(lam, 1 + 0j, -lam - 2), None, lam


CASES: dict[CausalClass, Case] = {
    CausalClass.SPACELIKE: Case(
        CausalClass.SPACELIKE, LVector(0, 0, 1), "x3",
        odd=lambda f, g: Mul(f, g),
        recover=lambda L, g: Div(L, g),
        singular=(), locus=_spacelike_locus,
    ),
    CausalClass.TIMELIKE: Case(
        CausalClass.TIMELIKE, LVector(0, 1, 0), "x2",
        odd=lambda f, g: phi_exprs(f, g)[1],
        recover=lambda L, g: Div(Mul(Const(2), L), Mul(Const(1j), Sub(Const(1), Pow(g, 2)))),
        singular=(1 + 0j, -1 + 0j), locus=_timelike_locus,
    ),
    CausalClass.LIGHTLIKE: Case(
        CausalClass.LIGHTLIKE, LVector(1, 0, 1), "psi",
        odd=lambda f, g: Mul(Const(0.5), Mul(f, Pow(Sub(Const(1), g), 2))),
        recover=lambda L, g: Div(Mul(Const(2), L), Pow(Sub(Const(1), g), 2)),
        singular=(1 + 0j,), locus=_lightlike_locus,
    ),
}


# ---------------------------------------------------------------------------
# sampling

def boundary_points(domain: Domain) -> list[complex]:
    """ARC_POSITIONS points on the boundary arc itself (v = 0, or |z| = rho)."""
    n, span = ARC_POSITIONS, ARC_SPAN
    if domain.boundary_circle is not None:
        rho = domain.boundary_circle
        return [rho * cmath.exp(1j * t) for t in np.linspace(-math.pi, math.pi, n, endpoint=False)]
    if domain.kind is DomainKind.HALF_ANNULUS:
        lo, hi = domain.inner_radius, domain.radius
        mid, half = 0.5 * (lo + hi), 0.5 * span * (hi - lo)
        us = np.concatenate(
            [np.linspace(-mid - half, -mid + half, n // 2),
             np.linspace(mid - half, mid + half, n - n // 2)]
        )
        return [complex(u, 0.0) for u in us]
    return [complex(u, 0.0) for u in np.linspace(-span * domain.radius, span * domain.radius, n)]


def boundary_samples(domain: Domain, depths: Sequence[float]) -> list[complex]:
    """Interior points approaching the boundary arc, grouped by arc position: for each of the
    ``boundary_points``, in arc order, one point at each of the depth fractions of the domain scale,
    in the order given."""
    base, d = np.array(boundary_points(domain))[:, None], np.asarray(depths, dtype=float)
    out = np.empty((len(base), len(d)), dtype=complex)
    if domain.boundary_circle is not None:  # (rho (1 + d)) * (zb / |zb|), by parts as complex arithmetic rounds it
        r, s = np.hypot(base.real, base.imag), domain.boundary_circle * (1 + d)
        out.real, out.imag = s * (base.real / r), s * (base.imag / r)
    else:
        out.real, out.imag = base.real, d * domain.radius
    return out.ravel().tolist()


def _boundary_limits(data: WeierstrassData, unit_n: LVector) -> tuple[CircleOrLine, float, list[float], list[complex]]:
    """The boundary arc (the real diameter, or the domain's boundary circle), c, and the values of
    <N, unit_n> and of g at its ``boundary_points``; c is the mean of the <N, unit_n> values.  Each point is
    read through the patch's closures (``_g_fn``, gauss_from_g, lorentz_inner), in point order, so the first
    fault raises what they raise there."""
    rho = data.domain.boundary_circle
    boundary = CircleOrLine(0.0, 1j, 0.0) if rho is None else CircleOrLine(1.0, 0j, -rho * rho)
    cs, gs = [], []
    for z in boundary_points(data.domain):
        gs.append(data._g_fn(z))
        cs.append(lorentz_inner(gauss_from_g(gs[-1]), unit_n))
    return boundary, float(np.mean(cs)), cs, gs


def measure_contact(data: WeierstrassData, plane: Plane) -> ContactData:
    """Measure <N, n> and g on the boundary arc and classify the contact.

    The one obstruction rule: raises HypothesisViolationError when the
    angle varies by more than ANGLE_TOL, when |c| < 1 against a spacelike
    plane, or when g tends to -1 against a lightlike one (X_u ^ X_v = 0);
    and GeometryMismatchError when a boundary limit w of g lies farther than
    LOCUS_TOL (times 1 + min(|w|, radius)) from the locus the row builds from c,
    or at a NaN distance, or when the cosh(theta) of a spacelike radius misses |c|
    by more than ANGLE_TOL; last, ExtensionError for a circle arc against a plane that
    is not spacelike.  An orthogonal contact (c = 0) is the timelike locus at c = 0, Im w = 0.
    """
    case = CASES[plane_class(plane)]
    unit_n, offset = case.normalize(plane)
    boundary, c, c_limits, g_limits = _boundary_limits(data, unit_n)
    deviation = max(abs(ci - c) for ci in c_limits)
    if deviation > ANGLE_TOL:
        raise HypothesisViolationError(f"constant-angle hypothesis violated: <N,n> varies by {deviation:.3e} about {c:.6f}")
    mods = [abs(gv) for gv in g_limits]
    sheet = 1 if all(m < 1 for m in mods) else -1 if all(m > 1 for m in mods) else 0
    if not sheet:
        raise HypothesisViolationError("boundary Gauss values straddle |g| = 1")

    locus, theta, lam = case.locus(c, sheet, g_limits)
    mismatch = float(np.max([locus.mismatch(gv) for gv in g_limits]))  # NaN when any distance is
    if not mismatch <= LOCUS_TOL:
        raise GeometryMismatchError(f"boundary g lies {mismatch:.3e} (relative) off {locus.describe()} "
                                    f"implied by c = {c:.9f}")
    if boundary.a and case.kind is not CausalClass.SPACELIKE:
        raise ExtensionError(f"circular extension handles spacelike planes only, not {case.kind.value}")
    return ContactData(
        plane=plane,
        unit_normal=unit_n,
        offset=offset,
        plane_kind=case.kind,
        c=c,
        deviation=deviation,
        sheet=sheet,
        locus=locus,
        locus_mismatch=mismatch,
        boundary=boundary,
        theta=theta,
        lam=lam,
    )


def reflect_g(g: Expr, locus: CircleOrLine, arc: CircleOrLine) -> Expr:
    """The Schwarz reflection of g through its boundary locus across the arc: the locus's own
    reflection of the conjugated g (r^2/conj(g) on a circle about 0, conj(g) on the line Im w = 0)."""
    return locus.reflect(arc.conj(g))


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
        """The largest gap, NaN when any gap is NaN."""
        return float(np.max(list(self.gaps.values())))

    @property
    def passed(self) -> bool:
        """Every gap within tol; a NaN gap fails."""
        return all(gap <= self.tol for gap in self.gaps.values())


_MATCHED = ("f", "g", "phi1", "phi2", "phi3")


def _match_values(f, g, df, dg) -> np.ndarray:
    """f, g, the phi triple and the derivatives of all five, in _MATCHED order,
    from the values of f, g, f' and g' by the product rule."""
    with np.errstate(all="ignore"):
        fdg, (p1, p2, p3) = f * dg, _phi_values(df, g)  # the f' terms of d(phi)
        return np.array([f, g, *_phi_values(f, g), df, dg, p1 + fdg * g, p2 - 1j * fdg * g, p3 + fdg])


def _match_report(plus: WeierstrassData, minus: WeierstrassData) -> MatchReport:
    """The gaps from f, g, f' and g' of each side at the arc points, from one run of each side's program
    (``_fgd_array``).  Where a value is not finite, scalar closures redo the point; the first fault
    raises, in the order f, g, phi (its g^2), f', g' of the report's formulas, then point by point, the
    original side first."""
    pts = boundary_points(plus.domain)
    z = np.array(pts)
    fgd = np.array([side._fgd_array(z) for side in (plus, minus)])  # (side, f g f' g', point)
    values = _match_values(*fgd.swapaxes(0, 1))
    redo = np.flatnonzero(~np.isfinite(values).all(axis=(0, 1))).tolist()
    if redo:
        memo = {}  # one derivative memo: f_minus holds g_minus, so f_minus' holds g_minus'
        closures = [[compile_fn(e) for e in (p.f, p.g, _derivative(p.f, memo), _derivative(p.g, memo), Pow(p.g, 2))]
                    for p in (plus, minus)]
        for j, k, s in product((0, 1, 4, 2, 3), redo, (0, 1)):
            value = closures[s][j](pts[k])
            if j < 4:  # 4 is phi's g^2, evaluated for its overflow
                fgd[s, j, k] = value
        values = _match_values(*fgd.swapaxes(0, 1))
    plus_values, minus_values = values.swapaxes(0, 1)
    with np.errstate(all="ignore"):  # NaN at any point makes the gap NaN
        gap = np.max(np.abs(plus_values - minus_values) / (1 + np.abs(plus_values)), axis=1)
    names = _MATCHED + tuple("d" + name for name in _MATCHED)
    return MatchReport(gaps=dict(zip(names, gap.tolist())), tol=MATCH_TOL, points=tuple(pts))


@dataclass(frozen=True)
class ExtendedSurface:
    """Piecewise Weierstrass data: the original patch plus reflected formulas.

    The two sides agree to first order on the boundary arc (see
    ``matching``, measured on first use, so evaluation alone never builds
    it); evaluation integrates along ``path(z0, z)``, split at the arc, each
    segment on the triple of ``side`` at its midpoint, so the assembled X is
    continuous across it.  A patch is the surface of one side, so
    ``evaluate_surface`` takes either.
    """

    original: WeierstrassData
    contact: ContactData
    g_minus: Expr
    f_minus: Expr
    region = "assembled domain"
    evaluate = evaluate_surface

    @cached_property
    def matching(self) -> MatchReport:
        """The gaps between the two sides' formulas on the arc, against MATCH_TOL."""
        return _match_report(self.original, self.minus)

    @property
    def case(self) -> Case:
        return CASES[self.contact.plane_kind]

    @property
    def reflected(self) -> str:
        return self.case.reflected

    def reflect(self, z: complex) -> complex:
        return self.contact.boundary.mirror(complex(z))

    @cached_property
    def minus(self) -> WeierstrassData:
        """The reflected-side formulas as a patch on the original domain's chart."""
        data = self.original
        return WeierstrassData(self.f_minus, self.g_minus, data.domain, data.z0, data.X0)

    def reflected_value(self, X: LVector) -> float:
        """The coordinate of X that reflects oddly, measured from the contact plane:
        the signed residual <X, n> - offset of the plane's equation."""
        return lorentz_inner(X, self.contact.unit_normal) - self.contact.offset

    def side(self, z: complex) -> WeierstrassData:
        """The Weierstrass data that holds at z: the original or the reflected side."""
        return self.original if self.contact.boundary.on_original_side(complex(z)) else self.minus

    def contains(self, z: complex) -> bool:
        """The assembled domain: the domain, its reflection, and a half kind's diameter (the arc) inside its radii;
        across a circle, also points off the surface (|z| >= R on the original side, |z| <= rho^2/R beyond)."""
        z, dom = complex(z), self.original.domain
        on_arc = z.imag == 0 and dom.kind in _HALF_KINDS and dom._in_region(abs(z.real), 1.0)
        return dom.contains(z) or dom.contains(self.reflect(z)) or on_arc

    def sides(self, z: np.ndarray) -> list[tuple[WeierstrassData, np.ndarray]]:
        """Each side with the mask of the points of an array where it holds, in the closure of contains."""
        arc, dom = self.contact.boundary, self.original.domain
        here = arc.on_original_side(z)
        inside = dom.contains_many(z, closed=True) | dom.contains_many(arc.mirror(z), closed=True)
        return [(self.original, inside & here), (self.minus, inside & ~here)]

    @cached_property
    def _punctures(self) -> tuple[complex, ...]:
        punctures = self.original.domain.punctures
        pts = list(punctures)
        for q in [self.reflect(p) for p in punctures] + list(self.contact.boundary.poles):
            if abs(q) < 1e12 and all(abs(q - r) > 1e-12 for r in pts):
                pts.append(q)
        return tuple(pts)

    def path(self, a: complex, b: complex) -> list[complex]:
        """The polyline from a to b, around the punctures and with a knot wherever
        it crosses the arc, so that each segment lies on one side: the side at its midpoint."""
        points = _build_path(a, b, self._punctures)
        arc = self.contact.boundary
        knots = [points[0]]
        for a, b in zip(points, points[1:]):
            knots += sorted(arc.crossings(a, b), key=lambda w: abs(w - a)) + [b]
        return knots

    def bent(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Every path: only path(a, b), which splits an edge at the arc, tells which stay on the original side."""
        return np.ones(len(a), dtype=bool)


def _check_reconstruction_singular(minus: WeierstrassData, pts: Sequence[complex], offsets: Sequence[complex]):
    """Reject when the patch's g (its ``_g_fn`` closure) hits any of the given values on the sample grid,
    in point order, skipping points where it faults."""
    for z in pts:
        try:
            gv = minus._g_fn(complex(z))
        except EvalError:
            continue
        for w in offsets:
            if abs(gv - w) < SINGULAR_TOL:
                raise SingularReconstructionError(f"extended g takes the singular value {w} near z = {z}")


@lru_cache(maxsize=64)
def _minus_grid(domain: Domain, arc: CircleOrLine) -> tuple[complex, ...]:
    """The reflected side's sample grid: the arc's images of seeded points of the domain's upper half;
    it depends only on the domain and the arc, so each pair draws it once per process."""
    R = domain.radius
    z = np.random.default_rng(2).uniform((-R, 0), R, size=(50 * MINUS_POINTS, 2)).view(complex)[:, 0]
    return tuple(arc.mirror(w) for w in z[domain.contains_many(z) & (z.imag > 1e-3 * R)][:MINUS_POINTS].tolist())


def extend(data: WeierstrassData, plane: Plane) -> ExtendedSurface:
    """Measure the contact and build the reflected side from its case row and arc, its formulas in
    the normal form of ``expr._NormalForm``."""
    contact = measure_contact(data, plane)
    case, arc = CASES[contact.plane_kind], contact.boundary
    g_minus = reflect_g(data.g, contact.locus, arc)
    f_minus = case.recover(arc.pullback(case.odd(data.f, data.g)), g_minus)
    normal = _NormalForm()  # one memo, so f_minus keeps sharing g_minus
    ext = ExtendedSurface(data, contact, normal(g_minus), normal(f_minus))
    if case.singular:  # on the reflected patch, whose g closure its field reuses
        _check_reconstruction_singular(ext.minus, _minus_grid(data.domain, arc), case.singular)
    return ext
