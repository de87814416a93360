"""The batched diagnostic suite against the point-wise one.

Under ``point_wise`` every array evaluation is NaN, so every point, panel
and path of ``full_diagnostics`` goes through the scalar phi,
gauss_from_g, laplacian_residuals and integrate_path: the suite as it runs
one point at a time.  The batched suite must give the same records, with
floats moved only at round-off.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fixtures import (
    catenoid_extension_fixture,
    lightlike_fixture,
    lightlike_tangent_fixture,
    phi_array,
    plane_fixture,
    random_polynomial_data,
    spacelike_fixture,
    timelike_fixture,
)
from maxsurf import extension, verify, weierstrass
from maxsurf.cli import SurfaceConfig, main
from maxsurf.expr import EvalError, parse
from maxsurf.extension import extend
from maxsurf.minkowski import LVector
from maxsurf.verify import GridSpec, catenoid_data, full_diagnostics, laplacian_residuals
from maxsurf.weierstrass import Domain, DomainKind, PathError, WeierstrassData

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# GK15 panels of one check on each benchmark surface, as the point-wise suite counts them
PANELS = {"catenoid": 196, "catenoid-b07.ext": 415, "spacelike.ext": 92, "timelike.ext": 92, "lightlike.ext": 92}


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """The benchmark's configs, with the four extensions written by ``extend``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import BASE_CONFIGS, EXTENDABLE
    finally:
        sys.path.remove(str(PERFBENCH))
    out = tmp_path_factory.mktemp("bench")
    for name, text in BASE_CONFIGS.items():
        (out / f"{name}.cfg").write_text(text)
    for name in EXTENDABLE:
        assert main(["extend", str(out / f"{name}.cfg"), "-o", str(out / f"{name}.ext.cfg")]) == 0
    return out


def _surface(path: Path):
    cfg = SurfaceConfig.from_file(str(path))
    return cfg.extended_surface() or cfg.data


def _point_wise(monkeypatch):
    nan = lambda z: np.full(np.shape(z), complex("nan+nanj"))  # noqa: E731
    monkeypatch.setattr(weierstrass, "compile_array", lambda *trees: lambda z: tuple(nan(z) for _ in trees))


def _assert_same_report(batched, point_wise):
    """Flags, names, tolerances and integer details equal; floats at round-off:
    quadrature residuals within 1e-3 of the tolerance, harmonicity within
    1e-2 relative or both at the noise floor (orders within 0.01), the
    metric factor within 1e-9."""
    assert batched.passed == point_wise.passed
    assert [c.name for c in batched.checks] == [c.name for c in point_wise.checks]
    for a, b in zip(batched.checks, point_wise.checks):
        assert (a.passed, a.tolerance, a.details.keys()) == (b.passed, b.tolerance, b.details.keys()), a.name
        if a.name.endswith("harmonicity"):
            floor = verify.HARMONIC_FLOOR
            assert math.isclose(a.max_residual, b.max_residual, rel_tol=1e-2, abs_tol=floor)
            scale = verify.HARMONIC_STEPS[0] ** 2
            assert math.isclose(a.details["constant"], b.details["constant"], rel_tol=1e-2, abs_tol=floor / scale)
            assert len(a.details["fitted_orders"]) == len(b.details["fitted_orders"])
            assert all(abs(x - y) <= 0.01 for x, y in zip(a.details["fitted_orders"], b.details["fitted_orders"]))
            assert a.details["noise_floor_points"] == b.details["noise_floor_points"]
        elif a.name.endswith("metric_positivity"):
            assert math.isclose(a.max_residual, b.max_residual, rel_tol=1e-9, abs_tol=1e-300)
            assert math.isclose(a.details["min_factor"], b.details["min_factor"], rel_tol=1e-9)
            assert a.details["degenerate_points"] == b.details["degenerate_points"]
        else:
            assert abs(a.max_residual - b.max_residual) <= 1e-3 * a.tolerance, a.name
            assert a.details == b.details, a.name


def _fixture_surfaces():
    out = [("plane", plane_fixture), ("catenoid", catenoid_data)]
    for name, fixture in (
        ("spacelike", spacelike_fixture),
        ("timelike", timelike_fixture),
        ("lightlike", lightlike_fixture),
        ("lightlike-tangent", lightlike_tangent_fixture),
        ("catenoid-b07", catenoid_extension_fixture),
    ):
        out.append((name, lambda fixture=fixture: fixture()[0]))
        out.append((name + "-extended", lambda fixture=fixture: extend(*fixture())))
    out += [(f"polynomial-{seed}", lambda seed=seed: random_polynomial_data(np.random.default_rng(seed))) for seed in (1, 2)]
    return out


@pytest.mark.parametrize("name", list(PANELS))
def test_bench_reports_match_the_point_wise_suite(bench, monkeypatch, name):
    batched = full_diagnostics(_surface(bench / f"{name}.cfg"))
    _point_wise(monkeypatch)
    _assert_same_report(batched, full_diagnostics(_surface(bench / f"{name}.cfg")))


@pytest.mark.parametrize("name, build", _fixture_surfaces(), ids=[n for n, _ in _fixture_surfaces()])
def test_fixture_reports_match_the_point_wise_suite(monkeypatch, name, build):
    batched = full_diagnostics(build(), GridSpec(4, 6))
    _point_wise(monkeypatch)
    _assert_same_report(batched, full_diagnostics(build(), GridSpec(4, 6)))


@pytest.mark.parametrize("name", list(PANELS))
def test_check_integrates_the_point_wise_panels_in_batches(bench, monkeypatch, capsys, name):
    panels, scalar = [], []
    batch = weierstrass._gk15_panels

    def counted_batch(fg, a, b, side):
        panels.append(len(a))
        return batch(fg, a, b, side)

    def counted(module, attr):
        original = getattr(module, attr)

        def call(*args):
            scalar.append(attr)
            return original(*args)

        monkeypatch.setattr(module, attr, call)

    for module in (weierstrass, verify):
        monkeypatch.setattr(module, "_gk15_panels", counted_batch)
        counted(module, "_gk15")
    for module in (weierstrass, extension, verify):
        counted(module, "integrate_path")
    assert main(["check", str(bench / f"{name}.cfg")]) == 0
    assert sum(panels) == PANELS[name]
    assert scalar == []



def test_a_two_sided_check_runs_one_kernel_call_per_level(bench, monkeypatch, capsys):
    # the extended catenoid's path batch bisects 7 levels over both sides at once (a loop per side made 14),
    # and the harmonicity panels of both sides take one call (one per side made 2)
    calls = {weierstrass: 0, verify: 0}
    batch = weierstrass._gk15_panels

    for module in calls:
        def counted_batch(fg, a, b, side, module=module):
            calls[module] += 1
            return batch(fg, a, b, side)

        monkeypatch.setattr(module, "_gk15_panels", counted_batch)
    assert main(["check", str(bench / "catenoid-b07.ext.cfg")]) == 0
    assert calls == {weierstrass: 7, verify: 1}


@pytest.mark.parametrize("argv", [["mesh", "catenoid.cfg", "--grid", "65x65", "-o", "catenoid-65.obj"],
                                  ["check", "timelike.ext.cfg"]])
def test_a_mesh_and_a_check_integrate_their_paths_in_one_batch(bench, monkeypatch, capsys, argv):
    calls = []
    batch = weierstrass._integrate_batch

    def counted(*args):
        calls.append(len(args[1]))
        return batch(*args)

    monkeypatch.setattr(weierstrass, "_integrate_batch", counted)
    monkeypatch.chdir(bench)
    assert main(argv) == 0
    assert len(calls) == 1 and calls[0] > 0  # one batch, of all the command's paths


def test_points_where_only_the_array_field_is_nan_get_the_scalar_values(monkeypatch):
    # z*1e154*1e154 overflows where |Re z| or |Im z| passes 1.797: NaN on arrays,
    # while scalar arithmetic divides by the infinity and gives f = 0 inside this disk
    def build():
        dom = Domain(DomainKind.DISK, radius=2.4)
        return WeierstrassData(parse("1/(z*1e154*1e154)+1"), parse("z/3"), dom, 0j, LVector(0, 0, 0))

    data = build()
    pts = verify._grid_points(data.domain, GridSpec())
    nan = np.isnan(phi_array(data, pts)).any(axis=0)
    assert 0 < nan.sum() < len(pts)
    assert all(np.isfinite(data.field(z)).all() for z in np.array(pts)[nan].tolist())
    batched = full_diagnostics(data)
    _point_wise(monkeypatch)
    point_wise = full_diagnostics(build())
    _assert_same_report(batched, point_wise)
    assert batched["quadratic_identity"].details["points"] == len(pts)  # the scalar path kept every NaN point


def test_a_faulting_field_exits_2_with_the_scalar_error(tmp_path, capsys):
    # a pole on the centre node of the first harmonicity panel, [z, z + 1e-3] at the first grid point
    z = verify._grid_points(Domain(DomainKind.DISK), GridSpec())[0]
    c = 0.5 * (z + (z + 1e-3))
    f = f"1/(z-({c.real!r})-({c.imag!r})*i)"
    data = WeierstrassData(parse(f), parse("z/3"), Domain(DomainKind.DISK), 0j, LVector(0, 0, 0))
    with pytest.raises(EvalError) as scalar:
        laplacian_residuals(data.field, z, 1e-3)
    path = tmp_path / "fault.cfg"
    path.write_text(f"f = {f}\ng = z/3\ndomain = disk\nz0 = 0\n")
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {scalar.value}\n")


def test_a_failing_evaluation_raises_in_the_turn_of_its_check(monkeypatch):
    # the suite integrates the paths of path independence and of the containment
    # and symmetry points in one batch; a failure there must not preempt a check
    # that runs before containment
    ext = extend(*timelike_fixture())
    path = type(ext)._path

    def no_path_below_the_arc(self, z):
        if z.imag < 0:
            raise PathError("no path to the reflected side")
        return path(self, z)

    monkeypatch.setattr(type(ext), "_path", no_path_below_the_arc)
    with pytest.raises(PathError, match="reflected side"):
        full_diagnostics(ext)
    monkeypatch.setattr(type(ext), "matching", property(lambda self: 1 / 0))
    with pytest.raises(ZeroDivisionError):
        full_diagnostics(ext)


@pytest.mark.parametrize("fault", ["path", "field"])
def test_a_failing_batch_builds_each_extension_path_once(monkeypatch, fault):
    # the batch's exception is kept and raised in containment's turn, after c1_matching reads the
    # matching; no path is built or integrated a second time to raise it again
    ext = extend(*timelike_fixture())
    data, path, matching = ext.original, type(ext)._path, type(ext).matching
    faulting = WeierstrassData(parse("1/(z-z)"), data.g, data.domain, data.z0, data.X0)
    built, read = [], []

    def faulting_below_the_arc(self, z):
        built.append(z)
        if z.imag < 0 and fault == "path":
            raise PathError("no path to the reflected side")
        knots, side_for = path(self, z)
        return knots, lambda a, b: faulting if (a + b).imag < 0 else side_for(a, b)

    monkeypatch.setattr(type(ext), "_path", faulting_below_the_arc)
    monkeypatch.setattr(type(ext), "matching", property(lambda self: read.append(self) or matching.func(self)))
    with pytest.raises((PathError, EvalError)) as raised:
        full_diagnostics(ext)
    assert read == [ext] and len(built) == len(set(built)) == (7 if fault == "path" else 11)
    with pytest.raises(type(raised.value)) as alone:
        ext.evaluate(next(z for z in built if z.imag < 0))
    assert str(alone.value) == str(raised.value)
