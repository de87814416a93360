"""Weierstrass data for maximal surfaces and its numerical evaluation.

A surface patch is encoded by a holomorphic f, a meromorphic g, a domain,
and an anchor value X0 at the basepoint z0:

    phi1 = f (1 + g^2) / 2
    phi2 = i f (1 - g^2) / 2
    phi3 = f g
    X(z) = X0 + Re Integral_{z0}^{z} (phi1, phi2, phi3) dw

The components phi_k satisfy phi1^2 + phi2^2 - phi3^2 = 0 identically and
|phi1|^2 + |phi2|^2 - |phi3|^2 = |f|^2 (1 - |g|^2)^2 / 2 > 0 away from
|g| = 1 (the degenerate, conelike locus).  Path integrals use adaptive
Gauss-Kronrod quadrature along polylines that detour around declared
punctures; the result is path independent as long as the data has no real
periods, which is the caller's responsibility to ensure (a loop diagnostic
lives in the verify module).  Data objects are immutable and evaluation is
pure, so surfaces may be sampled point-parallel without coordination.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .expr import Add, Const, Expr, Mul, Pow, Sub, compile_array, compile_fn
from .minkowski import LVector

__all__ = [
    "DegenerateMetricError",
    "Domain",
    "DomainKind",
    "PathError",
    "PhiTriple",
    "QuadratureConfig",
    "SurfaceError",
    "SurfaceValue",
    "ToleranceError",
    "WeierstrassData",
    "conformal_factor",
    "evaluate_surface",
    "gauss_from_g",
    "gauss_map",
    "integrate_path",
    "integrate_paths",
    "loop_periods",
    "phi",
    "phi_exprs",
    "stereo_inverse",
    "surface_path",
    "surface_tree",
]


class SurfaceError(Exception):
    pass


class PathError(SurfaceError):
    """Integration path cannot be constructed (endpoint on a puncture)."""


class ToleranceError(SurfaceError):
    """Quadrature did not reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


class DegenerateMetricError(SurfaceError):
    """|g| = 1 within tolerance; the induced metric degenerates."""


class DomainKind(str, Enum):
    DISK = "disk"
    HALF_DISK = "upper-half-disk"
    ANNULUS = "annulus"
    HALF_ANNULUS = "half-annulus"
    PUNCTURED_DISK = "punctured-disk"


_HALF_KINDS = (DomainKind.HALF_DISK, DomainKind.HALF_ANNULUS)
_RING_KINDS = (DomainKind.ANNULUS, DomainKind.HALF_ANNULUS)


@dataclass(frozen=True)
class Domain:
    """Planar parameter domains: disks, half disks, annuli, punctured disks.

    ``boundary_circle`` marks a circle |z| = rho inside the domain as the
    arc across which an extension is to be performed; when absent the arc
    is the real diameter (for the half kinds).
    """

    kind: DomainKind
    radius: float = 1.0
    inner_radius: float = 0.0
    punctures: tuple[complex, ...] = ()
    boundary_circle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", DomainKind(self.kind))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "inner_radius", float(self.inner_radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if not math.isfinite(2 * self.radius):
            raise ValueError(f"radius {self.radius} is too large: its diameter overflows")
        if self.kind in _RING_KINDS:
            if not 0 < self.inner_radius < self.radius:
                raise ValueError("annulus needs 0 < inner_radius < radius")
        elif self.inner_radius != 0:
            raise ValueError(f"inner_radius not meaningful for {self.kind.value}")
        punctures = tuple(complex(p) for p in self.punctures)
        if self.kind is DomainKind.PUNCTURED_DISK and 0 not in punctures:
            punctures = (0j,) + punctures
        object.__setattr__(self, "punctures", punctures)
        for p in punctures:
            if not self._in_region(abs(p), p.imag):
                raise ValueError(f"puncture {p} outside the domain")
        if self.boundary_circle is not None:
            bc = float(self.boundary_circle)
            object.__setattr__(self, "boundary_circle", bc)
            if self.kind in _HALF_KINDS:
                raise ValueError("boundary_circle only applies to full kinds")
            if not self.inner_radius < bc < self.radius:
                raise ValueError("boundary_circle must lie inside the domain")

    def _in_region(self, r, imag, tol: float = 0.0):
        """The radius, ring and half-plane rules on |z| and Im z, floats or arrays; NaN or inf fails the first."""
        ok = r < self.radius + tol
        if self.kind in _RING_KINDS:
            ok = ok & (r > self.inner_radius - tol)
        if self.kind in _HALF_KINDS:
            ok = ok & (imag > -tol)
        return ok

    def contains(self, z: complex, closed: bool = False) -> bool:
        """Strict interior membership; ``closed`` admits the closure within 1e-12."""
        z, eps = complex(z), 1e-12 * max(self.radius, 1.0)
        return self._in_region(abs(z), z.imag, eps if closed else 0.0) and all(abs(z - p) > eps for p in self.punctures)

    def contains_many(self, z: np.ndarray, closed: bool = False, spacing: float = 0.0) -> np.ndarray:
        """``contains`` elementwise on a complex array, also keeping more than ``spacing`` from every puncture;
        |z| is np.hypot, which rounds as the scalar abs does, so each point is decided as ``contains`` decides it."""
        eps = 1e-12 * max(self.radius, 1.0)
        tol, gap = (eps if closed else 0.0), max(spacing, eps)
        ok = self._in_region(np.hypot(z.real, z.imag), z.imag, tol)
        for p in self.punctures:
            w = z - p
            ok &= np.hypot(w.real, w.imag) > gap
        return ok


@dataclass(frozen=True)
class PhiTriple:
    phi1: complex
    phi2: complex
    phi3: complex

    def density(self) -> float:
        """|phi1|^2 + |phi2|^2 - |phi3|^2, the induced metric density; of numbers or of arrays, each
        square a product x * x, which rounds alike in both.  Where finite magnitudes square past the largest
        float, it is m * (m * ((a/m)^2 + (b/m)^2 - (c/m)^2)), m the largest of them: inf where that overflows,
        never the NaN of inf - inf."""
        a, b, c = abs(self.phi1), abs(self.phi2), abs(self.phi3)
        d = a * a + b * b - c * c
        lost = d - d != 0  # where d is not finite; a number pays no numpy call to learn it
        if lost if isinstance(d, float) else lost.any():
            m = np.maximum(np.maximum(a, b), c)
            with np.errstate(all="ignore"):
                u, v, w = a / m, b / m, c / m
                d = np.where(lost & (m < math.inf), m * (m * (u * u + v * v - w * w)), d)[()]
        return d


@dataclass(frozen=True)
class QuadratureConfig:
    """The one setting of path integration: ``tol``, positive and finite, the error estimate a path
    integral must meet.  The bisection depth and the puncture clearance are MAX_DEPTH and CLEARANCE."""

    tol: float = 1e-10

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True)
class WeierstrassData:
    """(f, g, domain, basepoint, base value): a complete surface patch.

    ``g_poles`` declares poles of g among the domain punctures as
    (location, order) pairs; at a pole of order m of g, f must carry a zero
    of order 2m for the patch to be regular, which the verify module checks
    numerically.
    """

    f: Expr
    g: Expr
    domain: Domain
    z0: complex
    X0: LVector
    g_poles: tuple[tuple[complex, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "z0", complex(self.z0))
        if not self.domain.contains(self.z0, closed=True):
            raise ValueError(f"basepoint {self.z0} outside the domain closure")
        poles = tuple((complex(p), int(m)) for p, m in self.g_poles)
        object.__setattr__(self, "g_poles", poles)
        for p, m in poles:
            if m < 1:
                raise ValueError("pole order must be >= 1")
            if not any(abs(p - q) <= 1e-9 for q in self.domain.punctures):
                raise ValueError(f"declared pole {p} is not a domain puncture")

    @cached_property
    def field(self) -> Callable[[complex], tuple[complex, complex, complex]]:
        """The phi triple as a compiled function of z, built once per patch."""
        ff, gg = compile_fn(self.f), self._g_fn
        return lambda z: _phi_values(ff(z), gg(z))

    @cached_property
    def _g_fn(self) -> Callable[[complex], complex]:
        """g as the compile_fn closure of ``field``, built once per patch."""
        return compile_fn(self.g)

    @cached_property
    def fg_array(self) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """f and g on a complex array, as one ``expr.compile_array`` program built once per patch."""
        return compile_array(self.f, self.g)


# ---------------------------------------------------------------------------
# pointwise quantities

def phi(data: WeierstrassData, z: complex) -> PhiTriple:
    """The holomorphic triple at z; raises EvalError at punctures."""
    return PhiTriple(*data.field(complex(z)))


def phi_exprs(f: Expr, g: Expr) -> tuple[Expr, Expr, Expr]:
    """Symbolic phi triple, for differentiation and reflection formulas."""
    g2 = Pow(g, 2)
    return (
        Mul(Const(0.5), Mul(f, Add(Const(1), g2))),
        Mul(Const(0.5j), Mul(f, Sub(Const(1), g2))),
        Mul(f, g),
    )


def _phi_values(fv, gv):
    """The phi triple from values of f and g, numbers or arrays."""
    g2 = gv * gv
    return (0.5 * fv * (1 + g2), 0.5j * fv * (1 - g2), fv * gv)


GAUSS_EPS = 1e-12
"""The Gauss normal is degenerate where |1 - |g|^2| < GAUSS_EPS (|g| = 1, the conelike locus)."""
STEREO_TOL = 1e-9
"""The most <N, N> may differ from -1 for stereo_inverse to accept N."""


def gauss_from_g(w: complex) -> LVector:
    """Unit timelike normal on the hyperboloid <N,N> = -1, from a Gauss value."""
    w = complex(w)
    ww = w.real * w.real + w.imag * w.imag
    den = 1.0 - ww
    if abs(den) < GAUSS_EPS:
        raise DegenerateMetricError(f"|g| = 1 within {GAUSS_EPS} at g = {w}")
    if not math.isfinite(ww):
        raise SurfaceError(f"|g|^2 = {ww} is not finite at g = {w}")
    return LVector(2 * w.real / den, 2 * w.imag / den, (1 + ww) / den)


def _gauss_arrays(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gauss_from_g's arithmetic elementwise: N (n, 3), and where it degenerates."""
    with np.errstate(all="ignore"):
        ww = w.real * w.real + w.imag * w.imag
        den = 1.0 - ww
        return np.stack((2 * w.real / den, 2 * w.imag / den, (1 + ww) / den), axis=1), np.abs(den) < GAUSS_EPS


def gauss_map(data: WeierstrassData, z: complex) -> LVector:
    """N = (2 Re g, 2 Im g, 1 + |g|^2) / (1 - |g|^2); lands on one hyperboloid sheet."""
    return gauss_from_g(data._g_fn(complex(z)))


def stereo_inverse(N: LVector) -> complex:
    """Stereographic projection from (0,0,-1); inverts gauss_from_g on the upper sheet."""
    q = N.x1 * N.x1 + N.x2 * N.x2 - N.x3 * N.x3
    if abs(q + 1) > STEREO_TOL:
        raise ValueError(f"not on the unit hyperboloid: <N,N> = {q}")
    if N.x3 < 0:
        raise ValueError("lower hyperboloid sheet is outside the projection chart")
    return complex(N.x1, N.x2) / (1 + N.x3)


def conformal_factor(data: WeierstrassData, z: complex) -> float:
    """|phi1|^2 + |phi2|^2 - |phi3|^2, the induced metric density; 0 iff |g| = 1."""
    return phi(data, z).density()


# ---------------------------------------------------------------------------
# quadrature: 15-point Gauss-Kronrod with adaptive bisection

_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299785,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
)
_WGK_CENTER = 0.2094821410847278
_WG = (0.1294849661688697, 0.2797053914892767, 0.3818300505051189)
_WG_CENTER = 0.4179591836734694
MAX_DEPTH = 26
"""The most times a path segment's GK15 panels are halved before the segment counts as not converged."""
CLEARANCE = 0.05
"""The closest a straight path may pass a puncture before _build_path replaces it by a two-segment detour."""


def _worst(a: float, b: float, c: float) -> float:
    """max(a, b, c), but NaN when any of them is; the builtin drops a NaN after the first."""
    return max(a, b, c) if a == a and b == b and c == c else math.nan


def _gk15(fn, a: complex, b: complex):
    """One Gauss-Kronrod panel of the complex line integral of a 3-tuple field."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    f0 = fn(c)
    k1 = _WGK_CENTER * f0[0]
    k2 = _WGK_CENTER * f0[1]
    k3 = _WGK_CENTER * f0[2]
    g1 = _WG_CENTER * f0[0]
    g2 = _WG_CENTER * f0[1]
    g3 = _WG_CENTER * f0[2]
    for j, x in enumerate(_XGK):
        dz = h * x
        fa = fn(c - dz)
        fb = fn(c + dz)
        w = _WGK[j]
        k1 += w * (fa[0] + fb[0])
        k2 += w * (fa[1] + fb[1])
        k3 += w * (fa[2] + fb[2])
        if j % 2 == 1:
            wg = _WG[j // 2]
            g1 += wg * (fa[0] + fb[0])
            g2 += wg * (fa[1] + fb[1])
            g3 += wg * (fa[2] + fb[2])
    scale = abs(h)
    err = scale * _worst(abs(k1 - g1), abs(k2 - g2), abs(k3 - g3))
    return (h * k1, h * k2, h * k3), err


def _stop(err, tol, mag, depth):
    """(done, converged) of GK15 panels, on floats or arrays alike: a panel converges when its estimate
    is finite and meets its tolerance or 1e-15 of its largest component; it is done when it converges,
    at depth 0, or when its estimate is NaN or inf, which bisecting does not mend."""
    good = ((err <= tol) | (err <= 1e-15 * mag)) & (err < math.inf)
    return good | (depth <= 0) | (err != err) | (err == math.inf), good


def _integrate_segment(fn, a, b, tol, depth):
    """Adaptive bisection; returns (triple, error estimate, converged)."""
    (i1, i2, i3), err = _gk15(fn, a, b)
    done, good = _stop(err, tol, _worst(abs(i1), abs(i2), abs(i3)), depth)
    if done:
        return (i1, i2, i3), err, good
    m = 0.5 * (a + b)
    left, el, okl = _integrate_segment(fn, a, m, 0.5 * tol, depth - 1)
    right, er, okr = _integrate_segment(fn, m, b, 0.5 * tol, depth - 1)
    total = (left[0] + right[0], left[1] + right[1], left[2] + right[2])
    return total, el + er, okl and okr


def _detour_point(s: complex, t: complex, p: complex) -> complex | None:
    d = t - s
    l2 = (d * d.conjugate()).real
    if l2 == 0:
        return None
    tt = ((p - s) * d.conjugate()).real / l2
    if tt <= 0 or tt >= 1:
        return None
    q = s + tt * d
    dist = abs(q - p)
    if dist >= CLEARANCE:
        return None
    if dist < 1e-15:
        n = 1j * d / abs(d)
        return p + n * CLEARANCE
    return p + (q - p) * (CLEARANCE / dist)


def _build_path(z0: complex, z1: complex, punctures) -> list[complex]:
    """The polyline from z0 to z1: the straight segment, with one detour point CLEARANCE from each
    puncture it passes closer than that; PathError when an endpoint is not finite or on a puncture."""
    a, b = complex(z0), complex(z1)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise PathError(f"path endpoints {a} and {b} must be finite")
    for p in punctures:
        if abs(a - p) < 1e-12 or abs(b - p) < 1e-12:
            raise PathError(f"path endpoint coincides with puncture {p}")
    points = [a, b]
    for p in punctures:
        rebuilt = [points[0]]
        for s, t in zip(points, points[1:]):
            w = _detour_point(s, t, p)
            if w is not None:
                rebuilt.append(w)
            rebuilt.append(t)
        points = rebuilt
    return points


@dataclass(frozen=True)
class SurfaceValue:
    value: LVector
    waypoints: tuple[complex, ...]
    error: float


def integrate_path(
    points: Sequence[complex], side_for: Callable, q: QuadratureConfig
) -> tuple[tuple[complex, complex, complex], float]:
    """Integral of a phi field along a polyline: (triple, error estimate).

    ``(points, side_for)`` is the polyline form of every path integral:
    ``side_for(a, b)`` is the patch whose ``field`` holds from a to b.  The
    tolerance is split evenly over the segments; when any segment misses its
    share within MAX_DEPTH halvings, ToleranceError reports the estimate for
    the path.
    """
    tol_each = q.tol / max(len(points) - 1, 1)
    tot1 = tot2 = tot3 = 0j
    err = 0.0
    ok = True
    for a, b in zip(points, points[1:]):
        if a == b:
            continue
        (i1, i2, i3), e, good = _integrate_segment(side_for(a, b).field, a, b, tol_each, MAX_DEPTH)
        tot1 += i1
        tot2 += i2
        tot3 += i3
        err += e
        ok = ok and good
    if not ok:
        raise ToleranceError(f"quadrature did not converge on path to {points[-1]}", err)
    return (tot1, tot2, tot3), err


def surface_path(data: WeierstrassData, z: complex, q: QuadratureConfig = QuadratureConfig()) -> SurfaceValue:
    """Evaluate X(z) and report the integration path and achieved error estimate."""
    points = _build_path(data.z0, complex(z), data.domain.punctures)
    (t1, t2, t3), err = integrate_path(points, lambda a, b: data, q)
    X = LVector(data.X0.x1 + t1.real, data.X0.x2 + t2.real, data.X0.x3 + t3.real)
    return SurfaceValue(X, tuple(points), err)


def evaluate_surface(data: WeierstrassData, z: complex, q: QuadratureConfig = QuadratureConfig()) -> LVector:
    """X(z) = X0 + Re Integral of (phi1, phi2, phi3) from z0 to z."""
    return surface_path(data, z, q).value


def _needs_path(s: np.ndarray, t: np.ndarray, punctures) -> np.ndarray:
    """Where _build_path(s, t) raises (an endpoint not finite or within 1e-12 of a puncture) or detours:
    its and _detour_point's arithmetic elementwise, on the real and imaginary parts, so the flags are exact."""
    flag = ~(np.isfinite(s) & np.isfinite(t))
    with np.errstate(all="ignore"):
        dr, di = t.real - s.real, t.imag - s.imag
        l2 = dr * dr + di * di
        for p in punctures:
            er, ei = p.real - s.real, p.imag - s.imag
            tt = (er * dr + ei * di) / l2
            dist = np.hypot(s.real + tt * dr - p.real, s.imag + tt * di - p.imag)
            flag |= (np.hypot(er, ei) < 1e-12) | (np.hypot(t.real - p.real, t.imag - p.imag) < 1e-12)
            flag |= (l2 != 0) & ~((tt <= 0) | (tt >= 1) | (dist >= CLEARANCE))  # NaN detours, as there
    return flag


def surface_tree(data: WeierstrassData, points: Sequence[complex], parents: Sequence[int],
                 q: QuadratureConfig = QuadratureConfig()) -> np.ndarray:
    """X at every point as an (n, 3) array, accumulated down a spanning
    forest of short edges.

    ``parents[k]`` is the index of the point that point k is integrated
    from and must be smaller than k; -1 marks a root, integrated from z0.
    Every edge (a root's path from z0 counts as one) gets the tolerance
    tol / (depth + 1), with depth the most edges below any root, so each
    summed value meets tol just as evaluate_surface does.  A forest closes
    no loop, so the values agree with evaluate_surface for data without
    real periods, the assumption evaluation already makes.

    Each edge is a straight segment, or where ``_needs_path`` flags it, the
    polyline of ``_build_path`` (puncture detours apply); one ``_integrate_batch``
    takes them all.  Its estimates round otherwise than integrate_path's, so a
    panel at the edge of its tolerance may split otherwise.  A failing forest
    raises what evaluate_surface raises on the first failing edge.
    """
    z, up = np.asarray(points, dtype=complex), np.asarray(parents, dtype=np.intp)
    if len(z) != len(up):
        raise ValueError("points and parents must have the same length")
    bad = np.flatnonzero((up < -1) | (up >= np.arange(len(up))))
    if len(bad):
        raise ValueError(f"parent {up[bad[0]]} of point {bad[0]} must be -1 (a root) or come before it")
    depth, above = (up >= 0).astype(np.intp), up.copy()
    while (live := above >= 0).any():  # pointer jumping: depth counts the edges up to ``above``
        depth[live] += depth[above[live]]
        above[live] = above[above[live]]
    deepest = int(depth.max(initial=0))
    q_edge = QuadratureConfig(q.tol / (deepest + 1))
    starts = np.where(up < 0, data.z0, z[up])
    bent, unbuilt = {}, None
    for k in np.flatnonzero(_needs_path(starts, z, data.domain.punctures)).tolist():
        try:
            bent[k] = (_build_path(starts[k], z[k], data.domain.punctures), lambda x, y: data)
        except PathError as exc:  # raised once the edges before it are integrated
            unbuilt, z = exc, z[:k]
            break
    sums = _integrate_batch([data], starts[: len(z)], z, bent, q_edge)
    if unbuilt is not None:
        raise unbuilt
    X = sums.real.T.copy()
    levels = np.argsort(depth, kind="stable")
    for at in np.split(levels, depth[levels].searchsorted(np.arange(1, deepest + 1)))[1:]:  # level by level
        X[at] += X[up[at]]
    return np.array(data.X0.as_tuple()) + X


def integrate_paths(paths: Iterable[tuple[Sequence[complex], Callable]], q: QuadratureConfig) -> np.ndarray:
    """integrate_path on many polylines at once: the integrals, (3, n), of one ``_integrate_batch``.

    ``paths`` yields (points, side_for); ``side_for(a, b)`` is the patch whose field holds from a to b.
    A PathError raised while building them is raised after the paths built before it are integrated."""
    built, unbuilt = [], None
    try:
        built.extend(paths)
    except PathError as exc:
        unbuilt = exc
    sums = _integrate_batch([], *np.zeros((2, len(built)), dtype=complex), dict(enumerate(built)), q)
    if unbuilt is not None:
        raise unbuilt
    return sums


def _integrate_batch(sides: Sequence[WeierstrassData], a: np.ndarray, b: np.ndarray, bent: dict,
                     q: QuadratureConfig) -> np.ndarray:
    """The integrals (3, n) of n = len(a) paths: path k runs straight from a[k] to b[k] on sides[0], or
    where ``bent`` holds k, along the polyline bent[k] = (points, side_for) of integrate_path, its sides
    numbered after ``sides`` in the order met.  A path's segments share q.tol evenly, and one
    _integrate_segments call takes every side's segments, each on its patch's cached ``fg_array``.  A path's
    segment sums are added side by side, in side order; a path with a segment that did not converge is
    integrated again by integrate_path along its polyline, in path order, for its value or its error."""
    counts, on = np.ones(len(a), dtype=np.intp), np.zeros(len(a), dtype=bool)
    index = {id(patch): (k, patch) for k, patch in enumerate(sides)}  # each side's number, in the order met
    rows = []  # the bent paths' segments as (start, end, side), in path order
    for k in sorted(bent):
        points, side_for = bent[k]
        for x, y in zip(points, points[1:]):
            patch = side_for(x, y) if x != y else None  # a segment of length 0 is dropped below
            rows.append((x, y, index.setdefault(id(patch), (len(index), patch))[0] if x != y else 0))
        counts[k], on[k] = len(points) - 1, True
    owner = np.repeat(np.arange(len(a)), counts)
    sa, sb, side = a[owner], b[owner], np.zeros(len(owner), dtype=np.intp)
    if rows:
        at = on[owner]
        sa[at], sb[at], side[at] = zip(*rows)
    moves = sa != sb
    side, owner = side[moves], owner[moves]
    fgs = [patch.fg_array for _, patch in index.values()]
    seg_sum, ok = _integrate_segments(fgs, side, sa[moves], sb[moves], q.tol / counts[owner], MAX_DEPTH)
    sums, failed = np.zeros((3, len(a)), dtype=complex), np.zeros(len(a), dtype=bool)
    by_side = np.argsort(side, kind="stable")
    for c in range(3):
        np.add.at(sums[c], owner[by_side], seg_sum[c, by_side])
    failed[owner[~ok]] = True
    for k in np.flatnonzero(failed).tolist():
        polyline = bent[k] if k in bent else ([complex(a[k]), complex(b[k])], lambda x, y: sides[0])
        sums[:, k] = integrate_path(*polyline, q)[0]
    return sums


_CHUNK = 512
"""Panels per array call in _gk15_panels.  A chunk's phi takes 3 x 15 x 512 complex numbers (369 kB),
its unweighted sums about half as much, and each side's array program makes f and g, and each step, a
(15, 512) array (123 kB each), holding only the steps it still reads, so memory stays flat on any mesh.
On the two sides of the timelike extension, as check reads it back, both sides' f and g on a (15, 512)
grid peak at 0.86 MB for their 0.49 MB, and a chunk of 256 panels of each side at 0.96 MB (tracemalloc),
where one program of both sides that kept every step to the end of its run took 6.41 and 6.57 MB."""

# The 15 Kronrod nodes of a panel on [-1, 1]: the centre, the seven -x, then the seven +x, so each
# pair's two values lie in two contiguous blocks.  Nodes and weights are complex (x + 0j, as numpy
# would cast them), so that no product casts through a buffer.
_NODES = np.array([0.0] + [-x for x in _XGK] + list(_XGK), dtype=complex)[:, None]
_KRONROD = np.array((_WGK_CENTER,) + _WGK, dtype=complex)[:, None, None]  # of the centre and the seven pairs
_GAUSS = np.array((_WG_CENTER,) + _WG, dtype=complex)[:, None, None]  # of the centre and pairs 1, 3 and 5


def _gk15_panels(fgs: Sequence[Callable], a: np.ndarray, b: np.ndarray, side: np.ndarray):
    """_gk15 on many panels at once, of the phi field of array values of f and g.

    ``fgs[k](z)`` gives f and g of side k, as its patch's ``fg_array`` does.  Panel i is of side side[i],
    where ``side`` is sorted, so that each side's program runs once per chunk, on the nodes of its own
    panels alone.  The nodes lie node-major on a (15, m) grid, and each phi component on one such grid of
    a (3, 15, m) array.  Returns (integrals of shape (3, m), error estimates).  The estimate is NaN for a
    panel with a non-finite phi value on any of its nodes.
    """
    m = len(a)
    out = np.empty((3, m), dtype=complex)
    err = np.empty(m)
    for s in range(0, m, _CHUNK):
        ca, cb = a[s : s + _CHUNK], b[s : s + _CHUNK]
        c = 0.5 * (ca + cb)
        h = 0.5 * (cb - ca)
        if len(fgs) == 1:
            f, g = fgs[0](c + _NODES * h)
        else:  # each side's program on its own run of panels, whose nodes it computes as the grid has them
            f, g = np.empty((15, len(c)), dtype=complex), np.empty((15, len(c)), dtype=complex)
            ends = np.searchsorted(side[s : s + _CHUNK], np.arange(len(fgs) + 1)).tolist()
            for k, fg in enumerate(fgs):
                lo, hi = ends[k], ends[k + 1]
                if lo < hi:
                    f[:, lo:hi], g[:, lo:hi] = fg(c[lo:hi] + _NODES * h[lo:hi])
        # _phi_values' products, in its operand order, each in place in its component's contiguous grid:
        # numpy buffers a strided operand, and its complex product of strided operands rounds otherwise
        phi = np.empty((3,) + f.shape, dtype=complex)
        p1, p2, p3 = phi
        np.multiply(g, g, out=p3)
        np.add(1, p3, out=p1)
        np.subtract(1, p3, out=p2)
        np.multiply(np.multiply(0.5, f, out=p3), p1, out=p1)
        np.multiply(np.multiply(0.5j, f, out=p3), p2, out=p2)
        np.multiply(f, g, out=p3)
        del f, g  # freed before the sums are made, which keeps a chunk's peak at phi and its sums
        sums = np.empty((8, 3, len(c)), dtype=complex)  # the centre value and the seven pair sums
        sums[0] = phi[:, 0]
        np.add(phi[:, 1:8], phi[:, 8:], out=sums[1:].transpose(1, 0, 2))
        gauss = np.take(sums, (0, 2, 4, 6), axis=0)
        # weighted, then added in order along the leading axis, as _gk15 adds
        k = np.add.reduce(np.multiply(_KRONROD, sums, out=sums))
        gauss = np.add.reduce(np.multiply(_GAUSS, gauss, out=gauss))
        out[:, s : s + _CHUNK] = h * k
        finite = np.isfinite(phi).all(axis=(0, 1))
        err[s : s + _CHUNK] = np.where(finite, np.abs(h) * np.abs(k - gauss).max(axis=0), np.nan)
    return out, err


def _integrate_segments(fgs: Sequence[Callable], side: np.ndarray, a: np.ndarray, b: np.ndarray, tol: np.ndarray,
                        max_depth: int):
    """_integrate_segment on every segment [a[i], b[i]] of side side[i] at once, level by level.

    Each level evaluates all pending panels of all sides in one _gk15_panels call on ``fgs``, sorted by
    side stably, so each segment's panels keep their order and their sums add as they did.  A panel
    stops where _stop says it is done, as in _integrate_segment; the others are halved with half the
    tolerance.  Returns the integrals (3, n) and the converged flags.
    """
    n = len(a)
    sums = np.zeros((3, n), dtype=complex)
    ok = np.ones(n, dtype=bool)
    seg = np.arange(n)
    depth = max_depth
    with np.errstate(all="ignore"):
        while len(a):
            at = side[seg]
            if len(fgs) > 1:
                order = np.argsort(at, kind="stable")
                a, b, tol, seg, at = a[order], b[order], tol[order], seg[order], at[order]
            out, e = _gk15_panels(fgs, a, b, at)
            done, good = _stop(e, tol, np.abs(out).max(axis=0), depth)
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


def loop_periods(data: WeierstrassData, loop: Sequence[complex],
                 q: QuadratureConfig = QuadratureConfig()) -> tuple[complex, complex, complex]:
    """Periods of the phi triple around a closed polyline.

    The surface is single valued only when the real parts vanish for every
    loop in the domain; declare the loops to test (the polyline is closed
    automatically).  The catenoid's loop around the puncture, for instance,
    has periods (0, 0, 2 pi i): purely imaginary, so X stays well defined.
    """
    return integrate_path(_loop_path(data, loop), lambda a, b: data, q)[0]


def _loop_path(data: WeierstrassData, loop: Sequence[complex]) -> list[complex]:
    """The closed polyline through the loop's waypoints, detouring around the punctures."""
    pts = [complex(w) for w in loop]
    if len(pts) < 3:
        raise ValueError("a loop needs at least 3 waypoints")
    if pts[0] != pts[-1]:
        pts.append(pts[0])
    path = [pts[0]]
    for a, b in zip(pts, pts[1:]):
        path += _build_path(a, b, data.domain.punctures)[1:]
    return path
