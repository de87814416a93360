"""Shared surface fixtures.

Each case fixture is self-symmetric: the data is globally defined, satisfies
the planar-boundary and constant-angle hypotheses exactly, and reproduces
itself under its reflection formula, so every extension quantity has a
closed-form oracle (the original data itself).
"""

import cmath
import contextlib
import functools
import importlib.util
import itertools
import math
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np

from maxsurf import weierstrass
from maxsurf.expr import parse
from maxsurf.minkowski import LVector, Plane
from maxsurf.verify import catenoid_data
from maxsurf.weierstrass import Domain, DomainKind, WeierstrassData, _phi_values


def phi_array(data, z):
    """The phi triple (3, n) on a complex array, from the patch's fg_array; NaN where compile_array's f or g is."""
    with np.errstate(all="ignore"):
        return np.array(_phi_values(*data.fg_array(np.asarray(z, dtype=complex))))


def with_formulas(data, f, g):
    """The patch of data with the formulas f and g, as ExtendedSurface.minus holds a reflected side."""
    return WeierstrassData(f, g, data.domain, data.z0, data.X0)


def patch_of_g(g):
    """A unit-disk patch with the formula g, for checks that read only a patch's g."""
    return WeierstrassData(parse("1"), g, Domain(DomainKind.DISK), 0j, LVector(0, 0, 0))


@contextlib.contextmanager
def quadrature_constants(max_depth=weierstrass.MAX_DEPTH, clearance=weierstrass.CLEARANCE):
    """weierstrass.MAX_DEPTH and CLEARANCE set for a with block, which the quadrature reads at each call.
    A context manager rather than a fixture, since hypothesis rejects function-scoped fixtures: a property
    test enters it inside each example."""
    with patch.object(weierstrass, "MAX_DEPTH", max_depth), patch.object(weierstrass, "CLEARANCE", clearance):
        yield


def plane_fixture():
    """Flat surface X = (u/2, -v/2, 0)."""
    dom = Domain(DomainKind.DISK, radius=1.0)
    return WeierstrassData(parse("1"), parse("0"), dom, 0j, LVector(0, 0, 0))


def spacelike_fixture():
    """f = i e^{-iz}, g = e^{iz}/2; boundary in the plane x3 = 1/4, c = -5/3.

    Oracle antiderivatives: Phi1 = -e^{-iz}/2 + e^{iz}/8,
    Phi2 = -(i/2)(e^{-iz} + e^{iz}/4), Phi3 = iz/2.
    """
    dom = Domain(DomainKind.HALF_DISK, radius=0.9)
    data = WeierstrassData(
        parse("i*exp(-i*z)"), parse("exp(i*z)/2"), dom, 0.5j, LVector(0, 0, 0)
    )
    plane = Plane(LVector(0, 0, 1), -0.25)  # <x,(0,0,1)> = -x3 = -1/4
    return data, plane


def timelike_fixture():
    """f = e^{-iz}, g = -i + sqrt(2) i e^{iz}; x2 = 2 sinh(1/2) - sqrt(2)/2, lam = 1."""
    dom = Domain(DomainKind.HALF_DISK, radius=0.7)
    data = WeierstrassData(
        parse("exp(-i*z)"),
        parse("-i + sqrt(2)*i*exp(i*z)"),
        dom,
        0.5j,
        LVector(0, 0, 0),
    )
    d = 2 * math.sinh(0.5) - math.sqrt(2) / 2
    plane = Plane(LVector(0, 1, 0), d)
    return data, plane


def lightlike_fixture():
    """f = e^{-iz}, g = (1 + i e^{iz})/2; x1 - x3 = -1/8, c = -1, lam = -2."""
    dom = Domain(DomainKind.HALF_DISK, radius=0.7)
    data = WeierstrassData(
        parse("exp(-i*z)"), parse("(1 + i*exp(i*z))/2"), dom, 0.5j, LVector(0, 0, 0)
    )
    plane = Plane(LVector(1, 0, 1), -0.125)
    return data, plane


def lightlike_tangent_fixture():
    """f = i, g = 1 + i(1 + z/4); Re g = 1 on the axis, c = 1, lam = 0.

    Gauss values sit on the lower hyperboloid sheet (|g| > 1 throughout).
    """
    dom = Domain(DomainKind.HALF_DISK, radius=1.0)
    data = WeierstrassData(parse("i"), parse("1 + i*(1 + z/4)"), dom, 0.5j, LVector(0, 0, 0))
    d = -(2.0 / 3.0) * ((1 + 0.125j) ** 3).imag
    plane = Plane(LVector(1, 0, 1), d)
    return data, plane


def catenoid_extension_fixture(b: float = -0.7):
    """Catenoid with the spacelike plane x3 = b and its contact circle |z| = e^b."""
    data = catenoid_data(boundary_circle=math.exp(b))
    plane = Plane(LVector(0, 0, 1), -b)
    return data, plane


def near_orthogonal_fixture(eps: float):
    """f = 1, g = (z + eps i)/(1 + eps i z) against the timelike plane x2 = 0: <N, (0,1,0)> = 2 eps / (1 - eps^2)
    along the axis, so the contact nears orthogonal as eps -> 0."""
    dom = Domain(DomainKind.HALF_DISK, radius=0.7)
    data = WeierstrassData(parse("1"), parse(f"(z+{eps!r}*i)/(1+{eps!r}*i*z)"), dom, 0.5j, LVector(0, 0, 0))
    return data, Plane(LVector(0, 1, 0), 0.0)


# (kind, inner radius, boundary_circle, message): a circle on a half kind, whose arc is its diameter, and on a
# full kind one that is not strictly between the inner radius (0 on a disk) and the radius 1
BOUNDARY_CIRCLE_REFUSALS = [
    *[(kind, inner, 0.5, "boundary_circle only applies to full kinds")
      for kind, inner in (("upper-half-disk", 0.0), ("half-annulus", 0.2))],
    *[(kind, inner, rho, "boundary_circle must lie inside the domain")
      for kind, inner, rho in (("disk", 0.0, 0.0), ("disk", 0.0, -0.3), ("disk", 0.0, 1.0), ("disk", 0.0, 1.5),
                               ("annulus", 0.2, 0.2), ("annulus", 0.2, 0.1))],
]


def boundary_circle_config(kind: str, inner: float, rho: float) -> str:
    ring = f"inner_radius = {inner!r}\n" if inner else ""
    return f"f = 1\ng = z\ndomain = {kind}\nradius = 1\n{ring}boundary_circle = {rho!r}\nz0 = 0.6*i\n"


@functools.cache
def tree_height(e) -> int:
    """The operations on the longest path from the root of a tree to a leaf, counted without recursion."""
    best, stack = 0, [(e, 0)]
    while stack:
        node, h = stack.pop()
        best = max(best, h)
        stack += [(getattr(node, name), h + 1) for name in ("arg", "left", "right", "base") if hasattr(node, name)]
    return best


def bracket_depth(text: str) -> int:
    """The most brackets a text holds open at once."""
    return max(itertools.accumulate((c == "(") - (c == ")") for c in text), default=0)


def tool(name: str):
    """``tools/NAME.py`` as a module, with sys.path as it was before its import put src/ (and perfbench/)
    on it."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module, before = importlib.util.module_from_spec(spec), list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = before
    return module


def capture_tool():
    """``tools/capture_outputs.py`` as a module."""
    return tool("capture_outputs")


def orthogonal_band_config(e: float) -> str:
    """The capture tool's near-orthogonal band contact: f = (1 + i e z)^2, g = (z + i e)/(1 + i e z) on the
    radius-0.7 upper half disk against the plane x2 = x2 of X(0), with c = 2 e / (1 - e^2)."""
    return capture_tool().orthogonal_band(e)


def tangent_band_config(lam: float) -> str:
    """The capture tool's near-tangential lightlike contact: f = i (gamma (z+1.5) + 1)^2,
    g = (i (z+1.5) + 1)/(gamma (z+1.5) + 1) with gamma = -i lam/(lam+2), against the plane x1 - x3 = x1 - x3 of
    X(0), with c = 1 + lam."""
    return capture_tool().tangent_band(lam)


def lower_sheet_config(theta: float) -> str:
    """The capture tool's spacelike contact on the lower sheet: f = k (1 - i z)^2, g = m i (1 + i z)/(k (1 - i z))
    with k = 1 - cosh(theta), m = -sinh(theta), against the plane x3 = x3 of X(0), with |c| = cosh(theta)."""
    return capture_tool().lower_sheet(theta)


def degenerate_lightlike_fixture():
    """f = e^{-iz}, g = 1/45 - (44/45) e^{iz} against the lightlike plane x1 = x3: c is about -44 and the
    boundary limit of g at z = 0 lies 2/45 from -1, the value at which X_u ^ X_v = 0."""
    dom = Domain(DomainKind.HALF_DISK, radius=0.7)
    g = parse("0.022222222222222223 + 0.9777777777777777*exp(i*(z+3.141592653589793))")
    return WeierstrassData(parse("exp(-i*z)"), g, dom, 0.5j, LVector(0, 0, 0)), Plane(LVector(1, 0, 1), 0.0)


def catenoid_oracle(z: complex) -> tuple[float, float, float]:
    """Closed-form X for f = 1/z^2, g = z anchored at z0 = 1:
    antiderivatives (z - 1/z)/2, (i/2)(2 - z - 1/z), log z."""
    z = complex(z)
    p1 = 0.5 * (z - 1 / z)
    p2 = 0.5j * (2 - z - 1 / z)
    p3 = cmath.log(z)
    return (p1.real, p2.real, p3.real)


def random_polynomial_data(rng):
    """Random-coefficient polynomial (f, g) with |g| < 1 on the unit disk."""
    from maxsurf.expr import Add, Const, Mul, Pow, Var

    def poly(coeffs):
        e = Const(coeffs[0])
        for k, c in enumerate(coeffs[1:], 1):
            e = Add(e, Mul(Const(c), Pow(Var(), k)))
        return e

    def cvals(n, scale):
        return [complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(n)]

    f = poly(cvals(4, 1.0))
    g = poly(cvals(3, 0.2))  # |g| <= 0.6 < 1 on |z| <= 1
    dom = Domain(DomainKind.DISK, radius=1.0)
    return WeierstrassData(f, g, dom, 0j, LVector(0, 0, 0))


# The reflected formulas (f_minus, g_minus) that extended configs carried
# while the expression tree kept Schwarz conjugates of function calls as
# sconj(...) wrappers.  Such configs still load: the parser folds sconj.
SCONJ_FORMULAS = {
    "spacelike_fixture": (
        "-(-i*sconj(exp(-i*z))*(sconj(exp(i*z))/2))/(0.2500000000000018/(sconj(exp(i*z))/2))",
        "0.2500000000000018/(sconj(exp(i*z))/2)",
    ),
    "timelike_fixture": (
        "2*-(-0.5*i*(sconj(exp(-i*z))*(1-(i+sconj(sqrt(2))*-i*sconj(exp(i*z)))^2)))/(i*(1-(-0.9999999999999996*i+1.9999999999999991/(i+sconj(sqrt(2))*-i*sconj(exp(i*z))-0.9999999999999996*i))^2))",
        "-0.9999999999999996*i+1.9999999999999991/(i+sconj(sqrt(2))*-i*sconj(exp(i*z))-0.9999999999999996*i)",
    ),
    "lightlike_fixture": (
        "2*-(0.5*(sconj(exp(-i*z))*(1-(1+-i*sconj(exp(i*z)))/2)^2))/(1-(0.5000000000000044+0.24999999999999556/((1+-i*sconj(exp(i*z)))/2+-0.5000000000000044)))^2",
        "0.5000000000000044+0.24999999999999556/((1+-i*sconj(exp(i*z)))/2+-0.5000000000000044)",
    ),
    "lightlike_tangent_fixture": (
        "2*-(0.5*(-i*(1-(1+-i*(1+z/4)))^2))/(1-(2-(1+-i*(1+z/4))))^2",
        "2-(1+-i*(1+z/4))",
    ),
    "catenoid_extension_fixture": (
        "1/(0.2465969639416065/z)^2*(0.2465969639416065/z)*(0.2465969639416065/z^2)/(0.2465969639416066/(0.2465969639416065/z))",
        "0.2465969639416066/(0.2465969639416065/z)",
    ),
}


# The reflected formulas (f_minus, g_minus) that extended configs carried
# before extend wrote them in normal form: the trees the case formulas
# build, printed unreduced.  Each parses to the tree its SCONJ_FORMULAS
# entry parses to, and such configs still load and pass check.  The timelike
# pair carries the constants its form -i lam + (1 + lam^2)/(w - i lam) takes
# from the c measured on the arc (lam = 1/c), so it differs from the emitted
# pair by the normal form alone.
UNREDUCED_FORMULAS = {
    "spacelike_fixture": (
        "-(-i*exp(i*z)*(exp(-i*z)/2))/(0.2500000000000018/(exp(-i*z)/2))",
        "0.2500000000000018/(exp(-i*z)/2)",
    ),
    "timelike_fixture": (
        "2*-(-0.5*i*(exp(i*z)*(1-(i+sqrt(2)*-i*exp(-i*z))^2)))/(i*(1-(-0.9999999999999996*i+1.9999999999999991/(i+sqrt(2)*-i*exp(-i*z)-0.9999999999999996*i))^2))",
        "-0.9999999999999996*i+1.9999999999999991/(i+sqrt(2)*-i*exp(-i*z)-0.9999999999999996*i)",
    ),
    "lightlike_fixture": (
        "2*-(0.5*(exp(i*z)*(1-(1+-i*exp(-i*z))/2)^2))/(1-(0.5000000000000044+0.24999999999999556/((1+-i*exp(-i*z))/2+-0.5000000000000044)))^2",
        "0.5000000000000044+0.24999999999999556/((1+-i*exp(-i*z))/2+-0.5000000000000044)",
    ),
    "lightlike_tangent_fixture": (
        "2*-(0.5*(-i*(1-(1+-i*(1+z/4)))^2))/(1-(2-(1+-i*(1+z/4))))^2",
        "2-(1+-i*(1+z/4))",
    ),
    "catenoid_extension_fixture": (
        "1/(0.2465969639416065/z)^2*(0.2465969639416065/z)*(0.2465969639416065/z^2)/(0.2465969639416066/(0.2465969639416065/z))",
        "0.2465969639416066/(0.2465969639416065/z)",
    ),
}


def _workloads():
    """``perfbench/workloads.py``, imported read-only."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    return workloads


def bench_configs() -> dict[str, str]:
    """The benchmark's base configs that carry a plane (``perfbench/workloads.py``), by name."""
    w = _workloads()
    return {name: w.BASE_CONFIGS[name] for name in w.EXTENDABLE}


def bench_oracles() -> dict:
    """The closed forms of the benchmark's surfaces (``perfbench/workloads.py``), by surface name."""
    return _workloads().ORACLES
