"""The scalar hot path of a one-point eval is bit for bit its plain reference formulas.

``WeierstrassData.field`` writes the phi triple out in one frame, ``_gk15`` walks a table of node pairs,
and ``extension._boundary_limits`` works <N, n> out in plain float arithmetic; the contact's arc points,
their mean and its worst locus mismatch are numpy's linspace, mean and max written in floats, so that
eval imports no numpy.  Each is checked here against the reference it replaced, kept below as it was
written: the same bits on every draw, and the same exception, type and message, where the reference raises.
"""

import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fixtures import bench_configs
from maxsurf import extension, weierstrass
from maxsurf.cli import CATENOID_CONFIG, SurfaceConfig
from maxsurf.expr import compile_fn, parse
from maxsurf.minkowski import LVector, lorentz_inner
from maxsurf.weierstrass import GAUSS_EPS, Domain, DomainKind, WeierstrassData, _phi_values, gauss_from_g

_DRAWS = settings(max_examples=120, deadline=None, derandomize=True, database=None)
_NONFINITE = (complex(math.inf, 0), complex(-math.inf, 1), complex(math.nan, 0), complex(0, math.nan),
              complex(math.inf, math.inf), complex(1e200, 0), complex(1e154, 1e154))


def bits(values) -> tuple:
    """Each complex or float of a sequence as the hex of its parts: -0.0 and 0.0 differ, every NaN is one."""
    return tuple((float(v.real).hex(), float(v.imag).hex()) for v in values)


def outcome(fn, *args):
    """("value", result) or ("raised", exception type, message) of one call."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - any exception must be matched by type and message
        return "raised", type(exc), str(exc)


# ---------------------------------------------------------------------------
# the field: f's and g's closures and the phi triple of their values


@functools.cache
def bench_sides() -> dict[str, tuple[WeierstrassData, ...]]:
    """The five benchmark surfaces by name: the catenoid's one patch, and each extension's two sides."""
    sides = {"catenoid": (SurfaceConfig.from_text(CATENOID_CONFIG).data,)}
    for name, text in bench_configs().items():
        cfg = SurfaceConfig.from_text(text)
        ext = extension.extend(cfg.data, cfg.plane)
        sides[name + ".ext"] = (ext.original, ext.minus)
    return sides


def reference_field(data: WeierstrassData):
    """The field as it was: a lambda over fresh closures of f and g, whose values _phi_values combines."""
    ff, gg = compile_fn(data.f), compile_fn(data.g)
    return lambda z: _phi_values(ff(z), gg(z))


def check_field(data: WeierstrassData, z: complex):
    got, expected = outcome(data.field, z), outcome(reference_field(data), z)
    if expected[0] == "value" and got[0] == "value":
        assert bits(got[1]) == bits(expected[1]), z
    else:
        assert got == expected, z


@pytest.mark.parametrize("name", ["catenoid", "catenoid-b07.ext", "spacelike.ext", "timelike.ext", "lightlike.ext"])
@_DRAWS
@given(z=st.one_of(st.complex_numbers(max_magnitude=1.2, allow_nan=False, allow_infinity=False),
                   st.sampled_from([0j, -0j, 0.2j, -0.2j, 0.5, -0.5, 1e-160 + 0j, 1e-160j])))
def test_the_field_is_the_phi_values_of_f_and_g_on_each_side(name, z):
    """z is drawn on both sides of the arc; the field of each side is read there, whichever side holds it."""
    for data in bench_sides()[name]:
        check_field(data, z)


def test_a_point_where_f_and_g_both_fault_raises_f_s_fault():
    data = WeierstrassData(parse("1/z"), parse("log(z)"), Domain(DomainKind.DISK), 0.5, LVector(0, 0, 0))
    with pytest.raises(Exception) as caught:
        data.field(0j)
    assert outcome(reference_field(data), 0j) == ("raised", type(caught.value), str(caught.value))
    assert "1/z" in str(caught.value)
    g_only = WeierstrassData(parse("1"), parse("log(z)"), Domain(DomainKind.DISK), 0.5, LVector(0, 0, 0))
    check_field(g_only, 0j)  # and where only g faults, g's fault


# ---------------------------------------------------------------------------
# one GK15 panel


def reference_gk15(fn, a, b):
    """_gk15 as it was: an enumerate loop over _XGK that forms each pair sum for each weight."""
    w = weierstrass
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    f0 = fn(c)
    k1 = w._WGK_CENTER * f0[0]
    k2 = w._WGK_CENTER * f0[1]
    k3 = w._WGK_CENTER * f0[2]
    g1 = w._WG_CENTER * f0[0]
    g2 = w._WG_CENTER * f0[1]
    g3 = w._WG_CENTER * f0[2]
    for j, x in enumerate(w._XGK):
        dz = h * x
        fa = fn(c - dz)
        fb = fn(c + dz)
        wk = w._WGK[j]
        k1 += wk * (fa[0] + fb[0])
        k2 += wk * (fa[1] + fb[1])
        k3 += wk * (fa[2] + fb[2])
        if j % 2 == 1:
            wg = w._WG[j // 2]
            g1 += wg * (fa[0] + fb[0])
            g2 += wg * (fa[1] + fb[1])
            g3 += wg * (fa[2] + fb[2])
    scale = abs(h)
    err = scale * w._worst(abs(k1 - g1), abs(k2 - g2), abs(k3 - g3))
    return (h * k1, h * k2, h * k3), err


class DrawnField:
    """A field of three drawn polynomials in z that returns ``poison`` in one component at one call (by call
    number), and raises at another, if drawn; it records the points it is read at."""

    def __init__(self, coefficients, poison, poison_at, component, raise_at):
        self.coefficients, self.poison, self.poison_at = coefficients, poison, poison_at
        self.component, self.raise_at, self.calls = component, raise_at, []

    def __call__(self, z):
        k = len(self.calls)
        self.calls.append(z)
        if k == self.raise_at:
            raise ZeroDivisionError(f"drawn fault at call {k}")
        c0, c1, c2 = self.coefficients
        values = [c0 + c1 * z, c1 * z * z - c2, c2 * z + c0 * z * z]
        if k == self.poison_at:
            values[self.component] = self.poison
        return tuple(values)


_coefficient = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@_DRAWS
@given(a=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
       b=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
       coefficients=st.tuples(_coefficient, _coefficient, _coefficient),
       poison=st.sampled_from((None, -0j, complex(-0.0, -0.0)) + _NONFINITE),
       poison_at=st.integers(0, 14), component=st.integers(0, 2),
       raise_at=st.one_of(st.none(), st.integers(0, 14)))
def test_a_panel_is_the_enumerate_loop_s_panel(a, b, coefficients, poison, poison_at, component, raise_at):
    """The same field values at the same points in the same order, and the same sums to the bit, also where
    a value is inf or NaN (a NaN estimate) or a signed zero, and the same fault where the field raises."""
    runs = [DrawnField(coefficients, poison, poison_at if poison is not None else -1, component, raise_at)
            for _ in range(2)]
    got, expected = outcome(weierstrass._gk15, runs[0], a, b), outcome(reference_gk15, runs[1], a, b)
    assert bits(runs[0].calls) == bits(runs[1].calls)
    if expected[0] == "value" and got[0] == "value":
        (triple, err), (ref_triple, ref_err) = got[1], expected[1]
        assert bits(triple) == bits(ref_triple) and bits([err]) == bits([ref_err])
    else:
        assert got == expected


@_DRAWS
@given(a=st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0, allow_nan=False, allow_infinity=False),
       b=st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0, allow_nan=False, allow_infinity=False))
def test_a_panel_of_a_bench_field_is_the_enumerate_loop_s_panel(a, b):
    for data in bench_sides()["timelike.ext"] + bench_sides()["catenoid"]:
        got, expected = outcome(weierstrass._gk15, data.field, a, b), outcome(reference_gk15, data.field, a, b)
        if expected[0] == "value" and got[0] == "value":
            assert bits(got[1][0]) == bits(expected[1][0]) and bits([got[1][1]]) == bits([expected[1][1]])
        else:
            assert got == expected


# ---------------------------------------------------------------------------
# the contact's <N, n> at the arc points


def reference_boundary_limits(data, unit_n):
    """_boundary_limits as it was: lorentz_inner(gauss_from_g(g), unit_n) at each arc point, in point order."""
    rho = data.domain.boundary_circle
    boundary = extension.CircleOrLine(0.0, 1j, 0.0) if rho is None else extension.CircleOrLine(1.0, 0j, -rho * rho)
    cs, gs = [], []
    for z in extension.boundary_points(data.domain):
        gs.append(data._g_fn(z))
        cs.append(lorentz_inner(gauss_from_g(gs[-1]), unit_n))
    return boundary, float(np.mean(cs)), cs, gs


def patch_reading(values, domain):
    """A patch whose g closure gives the drawn values at the arc points, in point order."""
    data = WeierstrassData(parse("1"), parse("z"), domain, domain.radius * 0.5j if domain.kind is DomainKind.HALF_DISK
                           else 0.5 * (domain.radius + domain.boundary_circle), LVector(0, 0, 0))
    at = {z: w for z, w in zip(extension.boundary_points(domain), values)}
    data.__dict__["_g_fn"] = at.__getitem__  # the cached_property's slot, filled before its first read
    return data


def _near_unit(draw):
    theta = draw(st.floats(-math.pi, math.pi))
    return cmath.rect(1 + draw(st.floats(-2 * GAUSS_EPS, 2 * GAUSS_EPS)), theta)


_g_value = st.one_of(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=1e150, max_magnitude=1e160, allow_nan=False, allow_infinity=False),
    st.composite(_near_unit)(),
    st.sampled_from((1 + 0j, -1 + 0j, 1j, 1 + GAUSS_EPS, 1 - GAUSS_EPS, 0j, -0j) + _NONFINITE),
)
_normal = st.one_of(st.sampled_from([LVector(0, 0, 1), LVector(0, 1, 0), LVector(1, 0, 1)]),
                    st.builds(LVector, *[st.floats(-5, 5, allow_nan=False)] * 3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.one_of(st.lists(_g_value, min_size=9, max_size=9),
                        st.lists(st.composite(_near_unit)(), min_size=9, max_size=9)),
       unit_n=_normal, circle=st.booleans())
def test_the_contact_s_values_are_lorentz_inner_of_gauss_from_g(values, unit_n, circle):
    domain = Domain(DomainKind.DISK, boundary_circle=0.5) if circle else Domain(DomainKind.HALF_DISK, radius=0.9)
    data = patch_reading(values, domain)
    got, expected = outcome(extension._boundary_limits, data, unit_n), outcome(reference_boundary_limits, data, unit_n)
    if expected[0] == "value" and got[0] == "value":
        (arc, c, cs, gs), (ref_arc, ref_c, ref_cs, ref_gs) = got[1], expected[1]
        assert arc == ref_arc and bits([c] + cs) == bits([ref_c] + ref_cs) and bits(gs) == bits(ref_gs)
    else:
        assert got == expected


# ---------------------------------------------------------------------------
# the contact's arc points, their mean and its worst locus mismatch, in floats


def reference_boundary_points(domain):
    """boundary_points as it was: np.linspace's points."""
    n, span = extension.ARC_POSITIONS, extension.ARC_SPAN
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


_radius = st.floats(-300, 300).map(lambda e: 10.0**e)  # log-uniform in [1e-300, 1e300]
_share = st.one_of(st.floats(1e-12, 1, exclude_max=True), st.just(None))  # None: the float next below the radius


def _domain(draw):
    kind, radius, share = draw(st.sampled_from(["diameter", "half-annulus", "circle"])), draw(_radius), draw(_share)
    inner = math.nextafter(radius, 0) if share is None else radius * share
    if kind == "diameter":
        return Domain(DomainKind.HALF_DISK, radius=radius)
    if kind == "half-annulus":
        return Domain(DomainKind.HALF_ANNULUS, radius=radius, inner_radius=inner)
    assume(inner < radius)
    return Domain(DomainKind.DISK, radius=radius, boundary_circle=inner)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(domain=st.composite(_domain)())
def test_the_arc_points_are_numpy_s_linspace_points(domain):
    assert bits(extension.boundary_points(domain)) == bits(reference_boundary_points(domain))


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(start=_finite, stop=_finite, n=st.integers(2, 24), endpoint=st.booleans())
@example(start=0.0, stop=5e-324, n=9, endpoint=True)  # the step underflows to 0: numpy's (k / div) * delta,
@example(start=0.0, stop=2.5e-323, n=21, endpoint=True)  # which here rounds apart from (k * delta) / div
@example(start=-1e-323, stop=1e-323, n=9, endpoint=False)
def test_linspace_is_numpy_s_linspace(start, stop, n, endpoint):
    with np.errstate(all="ignore"):  # a span past the float range makes 0 * inf
        want = np.linspace(start, stop, n, endpoint=endpoint).tolist()
    assert bits(extension._linspace(start, stop, n, endpoint)) == bits(want)


_summand = st.one_of(st.floats(), st.floats(-1e3, 1e3), st.floats(1e307, 1.7976931348623157e308),
                     st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.7976931348623157e308,
                                      -1.7976931348623157e308, 5e-324, -5e-324]))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(x=st.lists(_summand, min_size=9, max_size=9))
@example(x=[-0.0] * 9)  # numpy's sum starts from 0.0, so nine -0.0 give 0.0
@example(x=[1e308, 1e308, -1e308, -1e308, 0.0, 0.0, 0.0, 0.0, 0.0])  # the pairs' order decides an overflow
@example(x=[1.0, 1e16, -1e16, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
def test_the_mean_of_nine_is_np_mean(x):
    with np.errstate(all="ignore"):  # inf - inf in numpy's sum
        want = float(np.mean(x))
    assert bits([extension._mean9(x)]) == bits([want])


_mismatch = st.one_of(st.floats(0), st.sampled_from([0.0, math.inf, math.nan, 1e-300, 1e300]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=st.lists(_mismatch, min_size=9, max_size=9))
@example(x=[0.0] * 8 + [math.nan])
@example(x=[math.nan] + [math.inf] * 8)
def test_the_worst_mismatch_is_np_max(x):
    """Over what a mismatch may be: a float >= 0 (never -0.0, being a ratio of absolute values), inf or NaN."""
    assert bits([extension._nan_max(x)]) == bits([float(np.max(x))])
