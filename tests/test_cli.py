import argparse
import cmath
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fixtures import (
    BOUNDARY_CIRCLE_REFUSALS,
    SCONJ_FORMULAS,
    UNREDUCED_FORMULAS,
    bench_configs,
    bench_oracles,
    boundary_circle_config,
    bracket_depth,
    capture_tool,
)
from maxsurf import cli, extension, verify
from maxsurf.cli import CATENOID_CONFIG, SurfaceConfig, main
from maxsurf.expr import _HEIGHT, _NESTING, Mul, compile_fn, differentiate, evaluate, format_expr, parse, substitute
from maxsurf.minkowski import LVector, lorentz_inner
from maxsurf.weierstrass import _HALF_KINDS, QuadratureConfig

PLANE_CONFIG = """\
f = 1
g = 0
domain = disk
radius = 1
z0 = 0
X0 = 0,0,0
tol = 1e-10
"""

TIMELIKE_CONFIG = """\
f = exp(-i*z)
g = -i + sqrt(2)*i*exp(i*z)
domain = upper-half-disk
radius = 0.7
z0 = 0.5*i
X0 = 0,0,0
tol = 1e-10
plane = 0,1,0,{d}
""".format(d=repr(2 * math.sinh(0.5) - math.sqrt(2) / 2))


@pytest.fixture
def plane_cfg(tmp_path):
    p = tmp_path / "plane.cfg"
    p.write_text(PLANE_CONFIG)
    return str(p)


@pytest.fixture
def catenoid_cfg(tmp_path):
    p = tmp_path / "catenoid.cfg"
    p.write_text(CATENOID_CONFIG)
    return str(p)


@pytest.fixture
def timelike_cfg(tmp_path):
    p = tmp_path / "timelike.cfg"
    p.write_text(TIMELIKE_CONFIG)
    return str(p)


def test_catenoid_command_prints_fixture(capsys):
    assert main(["catenoid"]) == 0
    out = capsys.readouterr().out
    assert "f = 1/z^2" in out
    assert "g = z" in out
    assert SurfaceConfig.from_text(out) is not None


def test_check_catenoid_passes(catenoid_cfg, capsys):
    assert main(["check", catenoid_cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "quadratic_identity" in names and "harmonicity" in names


def test_check_deterministic_output(catenoid_cfg, capsys):
    main(["check", catenoid_cfg])
    first = capsys.readouterr().out
    main(["check", catenoid_cfg])
    second = capsys.readouterr().out
    assert first == second


def test_check_missing_field_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("g = z\ndomain = disk\nz0 = 0\n")
    assert main(["check", str(p)]) == 2
    assert "'f'" in capsys.readouterr().err


@pytest.mark.parametrize("kind, inner, rho, message", BOUNDARY_CIRCLE_REFUSALS)
def test_eval_refuses_a_boundary_circle_off_a_full_domain_in_one_line(tmp_path, capsys, kind, inner, rho, message):
    p = tmp_path / "circle.cfg"
    p.write_text(boundary_circle_config(kind, inner, rho))
    assert main(["eval", str(p), "--at=0.5,0.5"]) == 2
    assert capsys.readouterr().err == f"config error: field 'domain': {message}\n"


def test_check_unknown_key_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(PLANE_CONFIG + "wibble = 3\n")
    assert main(["check", str(p)]) == 2
    assert "wibble" in capsys.readouterr().err


def test_check_bad_expression_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("f = (z\ng = z\ndomain = disk\nz0 = 0\n")
    assert main(["check", str(p)]) == 2
    assert "'f'" in capsys.readouterr().err


def test_check_missing_file_exits_2(tmp_path):
    assert main(["check", str(tmp_path / "nope.cfg")]) == 2


def test_check_duplicate_key_exits_2(tmp_path, capsys):
    p = tmp_path / "dup.cfg"
    p.write_text(PLANE_CONFIG + "f = z\n")
    assert main(["check", str(p)]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_check_garbage_line_exits_2(tmp_path, capsys):
    p = tmp_path / "garbage.cfg"
    p.write_text("f 1\n")
    assert main(["check", str(p)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_check_pole_order_mismatch_exits_1(tmp_path, capsys):
    p = tmp_path / "pole.cfg"
    p.write_text(
        "f = 1/z\ng = z\ndomain = disk\nradius = 0.8\npunctures = 0\n"
        "g_poles = 0:1\nz0 = 0.4\ntol = 1e-10\n"
    )
    assert main(["check", str(p)]) == 1
    report = json.loads(capsys.readouterr().out)
    entry = [c for c in report["checks"] if c["name"] == "pole_zero_orders"][0]
    assert entry["passed"] is False


def test_eval_plane_point(plane_cfg, capsys):
    assert main(["eval", plane_cfg, "--at", "0.2,0.1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("X = (")
    xs = [float(t) for t in lines[0][5:-1].split(",")]
    assert abs(xs[0] - 0.1) < 1e-12
    assert abs(xs[1] + 0.05) < 1e-12
    assert abs(xs[2]) < 1e-12
    assert "N = (0, 0, 1)" in out
    assert "conformal_factor = 0.5" in out


def test_eval_catenoid_point(catenoid_cfg, capsys):
    z = math.exp(-1)
    assert main(["eval", catenoid_cfg, "--at", f"{z!r},0"]) == 0
    out = capsys.readouterr().out
    xs = [float(t) for t in out.splitlines()[0][5:-1].split(",")]
    assert abs(xs[0] + math.sinh(1)) < 1e-9
    assert abs(xs[1]) < 1e-9
    assert abs(xs[2] + 1) < 1e-9


def test_eval_out_of_domain_exits_1(catenoid_cfg, capsys):
    assert main(["eval", catenoid_cfg, "--at", "2,0"]) == 1
    assert "outside" in capsys.readouterr().err


def test_extend_timelike_roundtrip(timelike_cfg, tmp_path, capsys):
    out_path = str(tmp_path / "timelike.extended")
    assert main(["extend", timelike_cfg, "-o", out_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matching"]["passed"] is True
    assert max(report["matching"]["gaps"].values()) < 1e-7
    text = Path(out_path).read_text()
    assert "sconj(" not in text  # the parser folds Schwarz conjugates into the constants
    assert "g_minus" in text
    # the emitted config reloads into an assembled surface
    cfg = SurfaceConfig.from_file(out_path)
    ext = cfg.extended_surface()
    assert ext.contact is not None  # the extension, not the plain patch
    from maxsurf.weierstrass import evaluate_surface

    z = complex(0.2, -0.3)
    oracle = evaluate_surface(cfg.data, z)  # fixture formulas are global
    got = ext.evaluate(z)
    assert max(abs(a - b) for a, b in zip(oracle.as_tuple(), got.as_tuple())) < 1e-7


def _with_minus_formulas(path, formulas, out):
    """The extended config at path with its f_minus and g_minus lines replaced by formulas, written to out."""
    f_minus, g_minus = formulas
    lines = [
        f"f_minus = {f_minus}" if line.startswith("f_minus = ")
        else f"g_minus = {g_minus}" if line.startswith("g_minus = ")
        else line
        for line in path.read_text().splitlines()
    ]
    out.write_text("\n".join(lines) + "\n")
    return out


_EVAL_POINTS = ("0.2,0.3", "-0.35,0.15", "0.05,0.55", "0.2,-0.3", "-0.35,-0.15", "0.05,-0.55")


def _check_and_evals(path, capsys):
    runs = [(main(["check", str(path)]), capsys.readouterr())]
    for at in _EVAL_POINTS:
        runs.append((main(["eval", str(path), "--at", at]), capsys.readouterr()))
    return runs


def test_config_with_sconj_formulas_reads_the_same(timelike_cfg, tmp_path, capsys):
    # as the config written before the normal form, with the formulas that sconj(...) folds to
    new = tmp_path / "new.extended"
    assert main(["extend", timelike_cfg, "-o", str(new)]) == 0
    capsys.readouterr()
    old = _with_minus_formulas(new, SCONJ_FORMULAS["timelike_fixture"], tmp_path / "old.extended")
    unreduced = _with_minus_formulas(new, UNREDUCED_FORMULAS["timelike_fixture"], tmp_path / "unreduced.extended")
    assert "sconj(" in old.read_text() and "sconj(" not in unreduced.read_text()

    runs = _check_and_evals(old, capsys)
    assert [rc for rc, _ in runs] == [0] * 7
    assert runs == _check_and_evals(unreduced, capsys)


def _eval_values(out: str) -> list[float]:
    """X, N and the conformal factor that eval prints."""
    return [float(t) for line in out.splitlines() for t in line.split(" = ")[1].strip("()").split(",")]


def test_extend_on_a_tiny_domain_keeps_its_arc_positions_apart(tmp_path, capsys):
    # arc positions closer than 1e-9 must not merge into one tail of samples; the boundary lies in
    # x3 = 2.5e-12, where the spacelike fixture's would lie at this scale
    p, out = tmp_path / "tiny.cfg", str(tmp_path / "tiny.extended")
    p.write_text(
        "f = i*exp(-i*z)\ng = exp(i*z)/2\ndomain = upper-half-disk\nradius = 1e-11\n"
        "z0 = 0.5e-11*i\nX0 = 0,0,0\ntol = 1e-10\nplane = 0,0,1,-2.5e-12\n"
    )
    assert main(["extend", str(p), "-o", out]) == 0
    assert json.loads(capsys.readouterr().out)["matching"]["passed"] is True
    assert main(["check", out]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_extend_catenoid_slice_check(tmp_path, capsys):
    b, a = -0.7, -1.2
    rho = math.exp(b)
    p = tmp_path / "cat_ext.cfg"
    p.write_text(
        "f = 1/z^2\ng = z\ndomain = punctured-disk\nradius = 1\npunctures = 0\n"
        f"z0 = 1\nX0 = 0,0,0\ntol = 1e-10\nplane = 0,0,1,{-b!r}\n"
        f"boundary_circle = {rho!r}\n"
    )
    out_path = str(tmp_path / "cat.extended")
    assert main(["extend", str(p), "-o", out_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matching"]["passed"] is True
    # the emitted config's reflected formulas map the slice x3=a to x3=2b-a
    cfg = SurfaceConfig.from_file(out_path)
    ext = cfg.extended_surface()
    import cmath

    for k in range(6):
        zk = math.exp(a) * cmath.exp(1j * (2 * math.pi * k / 6 + 0.05))
        Xm = ext.evaluate(zk)
        Xp = ext.evaluate(ext.reflect(zk))
        assert abs(Xm.x3 - a) < 1e-7
        assert abs(Xp.x3 - (2 * b - a)) < 1e-7


# ---------------------------------------------------------------------------
# a Möbius change of the parameter, z = T(w): (f(T) T', g(T)) with the punctures and z0 moved by T^-1 is the
# same surface, X and N at w those at T(w), which runs the detours and the arc through another chart

def _mobius_gap(path, z, want, capsys) -> float:
    """The gap of X and N that eval prints at z from want's, relative to 1 + |X|."""
    assert main(["eval", str(path), f"--at={z.real!r},{z.imag!r}"]) == 0
    got = _eval_values(capsys.readouterr().out)[:6]
    return math.dist(got, want) / (1 + math.hypot(*want[:3]))


def test_the_catenoid_in_a_moved_chart_is_the_catenoid(tmp_path, capsys):
    # T(w) = (w+0.3)/(1+0.3w) fixes z0 = 1 and moves the puncture to -0.3
    p, q = tmp_path / "catenoid.cfg", tmp_path / "moved.cfg"
    p.write_text(CATENOID_CONFIG)
    q.write_text("f = 0.91/(z+0.3)^2\ng = (z+0.3)/(1+0.3*z)\ndomain = punctured-disk\nradius = 1\npunctures = -0.3\n"
                 "z0 = 1\nX0 = 0,0,0\ntol = 1e-10\n")
    for w in (0.5 + 0.3j, -0.4 + 0.2j, 0.1 - 0.6j, -0.2 - 0.25j):
        z = (w + 0.3) / (1 + 0.3 * w)
        assert main(["eval", str(p), f"--at={z.real!r},{z.imag!r}"]) == 0
        assert _mobius_gap(q, w, _eval_values(capsys.readouterr().out)[:6], capsys) <= 1e-12
    assert main(["check", str(q)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_the_timelike_extension_in_a_moved_chart_is_the_same_surface(tmp_path, capsys):
    # the real T(w) = (w+0.2)/(1+0.2w/0.49) keeps the upper half disk of radius 0.7 and its diameter
    T = parse("(z+0.2)/(1+0.2*z/0.49)")
    base = bench_configs()["timelike"]
    data = SurfaceConfig.from_text(base).data
    moved = (base.replace("f = exp(-i*z)", f"f = {format_expr(Mul(substitute(data.f, T), differentiate(T)))}")
             .replace("g = -i + sqrt(2)*i*exp(i*z)", f"g = {format_expr(substitute(data.g, T))}")
             .replace("z0 = 0.5*i", "z0 = (0.5*i-0.2)/(1-0.2*0.5*i/0.49)"))
    paths = {}
    for name, text in (("timelike", base), ("moved", moved)):
        (tmp_path / f"{name}.cfg").write_text(text)
        paths[name] = tmp_path / f"{name}.ext.cfg"
        assert main(["extend", str(tmp_path / f"{name}.cfg"), "-o", str(paths[name])]) == 0
        assert json.loads(capsys.readouterr().out)["matching"]["passed"] is True
        assert main(["check", str(paths[name])]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
    for z in (0.1 + 0.2j, 0.3 + 0.1j, 0.1 - 0.2j, 0.3 - 0.1j):  # both sides of the arc
        assert main(["eval", str(paths["timelike"]), f"--at={z.real!r},{z.imag!r}"]) == 0
        want = _eval_values(capsys.readouterr().out)[:6]
        w = (z - 0.2) / (1 - 0.2 * z / 0.49)
        assert _mobius_gap(paths["moved"], w, want, capsys) <= 1e-12


def test_eval_extended_config_minus_side(timelike_cfg, tmp_path, capsys):
    out_path = str(tmp_path / "timelike.extended")
    assert main(["extend", timelike_cfg, "-o", out_path]) == 0
    capsys.readouterr()
    assert main(["eval", out_path, "--at", "0.2,-0.3"]) == 0
    out = capsys.readouterr().out
    xs = [float(t) for t in out.splitlines()[0][5:-1].split(",")]
    from maxsurf.weierstrass import evaluate_surface

    cfg = SurfaceConfig.from_file(timelike_cfg)
    oracle = evaluate_surface(cfg.data, complex(0.2, -0.3))
    assert max(abs(a - b) for a, b in zip(xs, oracle.as_tuple())) < 1e-7


def test_extend_without_plane_exits_2(plane_cfg):
    assert main(["extend", plane_cfg]) == 2


def test_extend_varying_angle_exits_1(tmp_path, capsys):
    p = tmp_path / "varying.cfg"
    p.write_text(
        "f = 1\ng = 0.3+0.2*z\ndomain = upper-half-disk\nradius = 0.9\n"
        "z0 = 0.5*i\ntol = 1e-10\nplane = 0,0,1,0\n"
    )
    assert main(["extend", str(p)]) == 1
    assert "constant-angle" in capsys.readouterr().err


def test_extend_orthogonal_exits_0_and_its_check_passes(tmp_path, capsys):
    # g real on the axis: c = 0 against the plane x2 = d that the boundary lies in, measured to
    # round-off, and lam reports 1/c (null only at c = 0 exactly)
    p, out = tmp_path / "orth.cfg", tmp_path / "orth.ext.cfg"
    p.write_text(
        "f = 1\ng = 0.3*cos(z)\ndomain = upper-half-disk\nradius = 0.7\n"
        "z0 = 0.5*i\ntol = 1e-10\nplane = 0,1,0,0.22552898657150722\n"
    )
    assert main(["extend", str(p), "-o", str(out)]) == 0
    contact = json.loads(capsys.readouterr().out)["contact"]
    assert abs(contact["c"]) < 1e-15 and contact["lam"] == (1 / contact["c"] if contact["c"] else None)
    assert main(["check", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_extend_circular_timelike_exits_1(tmp_path, capsys):
    # on |z| = 0.5, g lies on the timelike locus of lam = 1, so the contact
    # is measured; only spacelike planes are supported across a circle
    p = tmp_path / "ring.cfg"
    p.write_text(
        "f = 1\ng = -i + sqrt(2)*i*exp(0.1*i*(z/0.5 + 0.5/z))\ndomain = annulus\n"
        "radius = 1\ninner_radius = 0.2\nboundary_circle = 0.5\nz0 = 0.8\nplane = 0,1,0,0\n"
    )
    assert main(["extend", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("extension failed: circular extension handles spacelike planes only")


def test_mesh_plane_2x2(plane_cfg, tmp_path, capsys):
    out = str(tmp_path / "plane.obj")
    assert main(["mesh", plane_cfg, "--grid", "2x2", "-o", out]) == 0
    lines = Path(out).read_text().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == 4
    assert len(fs) == 2
    assert all(l.split()[3] == "0" for l in vs)  # coplanar: x3 = 0
    sidecar = json.loads(Path(out + ".attrs.json").read_text())
    assert len(sidecar["vertices"]) == 4


def test_mesh_catenoid_masks_cone_circle(catenoid_cfg, tmp_path):
    out = str(tmp_path / "cat.obj")
    assert main(["mesh", catenoid_cfg, "--grid", "5x9", "-o", out]) == 0
    lines = Path(out).read_text().splitlines()
    fs = [l for l in lines if l.startswith("f ")]
    # 4x8 cells minus the 8 adjacent to |z| = 1, two triangles each
    assert len(fs) == 2 * (4 * 8 - 8)


def test_mesh_byte_identical_reruns(catenoid_cfg, tmp_path):
    out1 = str(tmp_path / "a.obj")
    out2 = str(tmp_path / "b.obj")
    assert main(["mesh", catenoid_cfg, "--grid", "5x9", "-o", out1]) == 0
    assert main(["mesh", catenoid_cfg, "--grid", "5x9", "-o", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    assert Path(out1 + ".attrs.json").read_bytes() == Path(out2 + ".attrs.json").read_bytes()


def test_mesh_unwritable_path_exits_2(plane_cfg, tmp_path):
    assert main(["mesh", plane_cfg, "--grid", "2x2", "-o", str(tmp_path)]) == 2


def test_mesh_bad_grid_exits_2(plane_cfg, tmp_path):
    assert main(["mesh", plane_cfg, "--grid", "1x5", "-o", str(tmp_path / "x.obj")]) == 2


@pytest.mark.parametrize(
    "command, grid",
    [
        ("check", "-3x4"),
        ("check", "0x5"),
        ("check", "513x2"),
        ("check", "7by7"),
        ("mesh", "1x5"),
        ("mesh", "100000x100000"),
        ("mesh", "2x513"),
    ],
)
def test_grid_out_of_range_exits_2_before_any_work(command, grid, tmp_path, capsys):
    out = tmp_path / "x.obj"
    argv = [command, str(tmp_path / "no-such.cfg"), f"--grid={grid}"]
    assert main(argv + (["-o", str(out)] if command == "mesh" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("config error: field '--grid'")
    assert not out.exists()


@pytest.mark.parametrize("command, grid", [("check", "1x1"), ("mesh", "2x2")])
def test_smallest_grid_is_accepted(command, grid, plane_cfg, tmp_path):
    extra = ["-o", str(tmp_path / "x.obj")] if command == "mesh" else []
    assert main([command, plane_cfg, f"--grid={grid}"] + extra) == 0


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def _extend_to(cfg_path, out_path, capsys):
    assert main(["extend", cfg_path, "-o", out_path]) == 0
    capsys.readouterr()
    return Path(out_path).read_text()


def test_check_derives_reflected_from_plane(timelike_cfg, tmp_path, capsys):
    text = _extend_to(timelike_cfg, str(tmp_path / "timelike.extended"), capsys)
    assert "reflected = x2\n" in text
    p = tmp_path / "derived.cfg"
    p.write_text(text.replace("reflected = x2\n", ""))
    assert main(["check", str(p)]) == 0
    report = json.loads(capsys.readouterr().out)
    entry = [c for c in report["checks"] if c["name"] == "reflection_symmetry"][0]
    assert entry["passed"] is True
    assert entry["details"]["coordinate"] == "x2"


@pytest.mark.parametrize("command", [["check"], ["eval", "--at", "0.2,-0.3"]])
def test_reflected_disagreeing_with_plane_exits_2(timelike_cfg, tmp_path, capsys, command):
    text = _extend_to(timelike_cfg, str(tmp_path / "timelike.extended"), capsys)
    for wrong in ("x3", "bogus"):
        p = tmp_path / f"{wrong}.cfg"
        p.write_text(text.replace("reflected = x2", f"reflected = {wrong}"))
        assert main([command[0], str(p), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "'reflected'" in captured.err and wrong in captured.err


def _with_line(config: str, key: str, value: str) -> str:
    kept = [line for line in config.splitlines() if not line.startswith(key + " ")]
    return "\n".join(kept + [f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize(
    "key,value",
    [
        ("tol", "nan"),
        ("tol", "inf"),
        ("radius", "inf"),
        ("mask_eps", "nan"),
        ("X0", "0,nan,0"),
        ("plane", "0,0,1,inf"),
        ("mesh_range", "0.1,1,nan,3"),
    ],
)
def test_non_finite_config_number_exits_2(tmp_path, capsys, key, value):
    p = tmp_path / "nonfinite.cfg"
    p.write_text(_with_line(PLANE_CONFIG, key, value))
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"'{key}'" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", ["check", "eval", "mesh"])
def test_tol_flag_must_be_positive_and_finite(plane_cfg, tmp_path, capsys, command, tol):
    extra = {"check": [], "eval": ["--at", "0.1,0.1"], "mesh": ["-o", str(tmp_path / "m.obj")]}
    assert main([command, plane_cfg, f"--tol={tol}", *extra[command]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'--tol'" in captured.err


def test_eval_at_nan_exits_2(plane_cfg, capsys):
    assert main(["eval", plane_cfg, "--at", "nan,0"]) == 2
    assert "'--at'" in capsys.readouterr().err


def test_eval_negative_u_parses_like_the_equals_form(plane_cfg, capsys):
    assert main(["eval", plane_cfg, "--at", "-0.1,0.2"]) == 0
    spaced = capsys.readouterr().out
    assert main(["eval", plane_cfg, "--at=-0.1,0.2"]) == 0
    assert capsys.readouterr().out == spaced
    xs = [float(t) for t in spaced.splitlines()[0][5:-1].split(",")]
    assert abs(xs[0] + 0.05) < 1e-12  # x1 = Re z / 2 on the plane fixture


@pytest.mark.parametrize("ats", [["--at=0.5,0.3", "--at=0.4,0.2"], ["--at", "0.5,0.3", "--at", "-0.4,0.2"],
                                 ["--at", "-0.5,0.3", "--at=-0.5,0.3"]], ids=["equals", "spaced", "same-point"])
def test_a_repeated_at_exits_2_without_dropping_a_point(catenoid_cfg, capsys, ats):
    assert main(["eval", catenoid_cfg, *ats]) == 2
    assert capsys.readouterr() == ("", "config error: field '--at': given 2 times; eval takes one point\n")


def _parent_eval_rule(cfg, ext, z: complex) -> bool:
    """eval's membership rule as cmd_eval wrote it before surfaces answered ``contains``: the domain, and on
    an extended config (``ext`` not None) the domain's reflection and a half kind's diameter inside its radii."""
    u, v = z.real, z.imag
    dom, r = cfg.data.domain, abs(u)
    on_arc = v == 0 and dom.kind in _HALF_KINDS and r < dom.radius and (r > dom.inner_radius or not dom.inner_radius)
    return dom.contains(z) or ext is not None and (dom.contains(ext.reflect(z)) or on_arc)


@pytest.fixture(scope="module")
def membership_configs(tmp_path_factory):
    """The five bench surfaces and the extended half annulus with a pole of g, as config files by name."""
    tool, out = capture_tool(), tmp_path_factory.mktemp("membership")
    for name, text in {**tool.BASE_CONFIGS, "half-annulus-poles": tool.HALF_ANNULUS_POLES}.items():
        (out / f"{name}.cfg").write_text(text)
        if name != "catenoid":
            assert main(["extend", str(out / f"{name}.cfg"), "-o", str(out / f"{name}.ext.cfg")]) == 0
    return out


@pytest.mark.parametrize("name", ["catenoid", "catenoid-b07.ext", "spacelike.ext", "timelike.ext", "lightlike.ext",
                                  "half-annulus-poles.ext"])
def test_a_surface_contains_what_eval_accepted(membership_configs, capsys, name):
    capsys.readouterr()
    cfg = SurfaceConfig.from_file(str(membership_configs / f"{name}.cfg"))
    surface, dom = cfg.extended_surface(), cfg.data.domain
    reflect = complex.conjugate if surface.contact is None else surface.reflect  # the plain catenoid's mirror points
    R, r0 = dom.radius, dom.inner_radius
    edges = [R, r0, math.nextafter(R, 0), math.nextafter(r0, R), math.nextafter(r0, 0)]
    diameter = [s * u for u in [*edges, *np.linspace(0, R, 9)[1:-1].tolist()] for s in (1, -1)]
    grid = verify._grid_points(dom, verify.GridSpec())
    rho = dom.boundary_circle or 0.5
    points = (
        [complex(u) for u in diameter]
        + [complex(0, s * u) for u in edges for s in (1, -1)]
        + [p for q in dom.punctures for p in (q, q.conjugate(), reflect(q))]
        + grid + [reflect(z) for z in grid]
        + [rho * cmath.exp(1j * t) for t in np.linspace(0, 2 * math.pi, 8, endpoint=False).tolist()]
        + [0j, complex(2 * R, 0), complex(0, -2 * R)]
    )
    got = [surface.contains(z) for z in points]
    assert got == [_parent_eval_rule(cfg, None if surface.contact is None else surface, z) for z in points]
    assert True in got and False in got
    assert surface.region == ("domain" if name == "catenoid" else "assembled domain")


def test_eval_extended_catenoid_center_is_outside(tmp_path, capsys):
    p = tmp_path / "cat_ext.cfg"
    p.write_text(
        CATENOID_CONFIG + f"plane = 0,0,1,0.7\nboundary_circle = {math.exp(-0.7)!r}\n"
    )
    out_path = str(tmp_path / "cat.extended")
    _extend_to(str(p), out_path, capsys)
    assert main(["eval", out_path, "--at", "0,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: point 0j outside the assembled domain\n"


@pytest.mark.parametrize("u", [0.1, -0.3])
@pytest.mark.parametrize("name", ["spacelike", "timelike", "lightlike"])
def test_eval_on_the_arc_of_an_extended_config(tmp_path, capsys, name, u):
    src, out = tmp_path / f"{name}.cfg", str(tmp_path / f"{name}.ext.cfg")
    src.write_text(bench_configs()[name])
    _extend_to(str(src), out, capsys)
    assert main(["eval", out, f"--at={u},0"]) == 0
    X = [float(t) for t in capsys.readouterr().out.splitlines()[0][5:-1].split(",")]
    cfg = SurfaceConfig.from_file(out)
    assert abs(lorentz_inner(LVector(*X), cfg.plane.n) - cfg.plane.d) <= 10 * cfg.tol
    assert max(abs(a - b) for a, b in zip(X, bench_oracles()[f"{name}.ext"].X(complex(u)))) <= 1e-9


@pytest.mark.parametrize(
    "name, at, point",
    [("timelike", "0.7,0", "(0.7+0j)"), ("timelike", "-0.7,0", "(-0.7+0j)"), ("half-annulus", "0.1,0", "(0.1+0j)")],
    ids=["arc-end", "other-arc-end", "hole"],
)
def test_eval_refuses_the_ends_of_the_arc_and_the_hole(tmp_path, capsys, name, at, point):
    src, out = tmp_path / f"{name}.cfg", str(tmp_path / f"{name}.ext.cfg")
    src.write_text(_HALF_ANNULUS if name == "half-annulus" else bench_configs()[name])
    _extend_to(str(src), out, capsys)
    assert main(["eval", out, "--at", at]) == 1
    assert capsys.readouterr() == ("", f"error: point {point} outside the assembled domain\n")


def test_eval_on_the_arc_of_an_extended_half_annulus(tmp_path, capsys):
    src, out = tmp_path / "ring.cfg", str(tmp_path / "ring.ext.cfg")
    src.write_text(_HALF_ANNULUS)
    _extend_to(str(src), out, capsys)
    assert main(["eval", out, "--at=0.5,0"]) == 0
    X = [float(t) for t in capsys.readouterr().out.splitlines()[0][5:-1].split(",")]
    ext = SurfaceConfig.from_file(out).extended_surface()
    assert X == list(ext.evaluate(0.5).as_tuple())


def test_eval_overflow_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "overflow.cfg"
    p.write_text("f = exp(1000*z)\ng = 0\ndomain = disk\nradius = 1\nz0 = 0\ntol = 1e-10\n")
    assert main(["eval", str(p), "--at", "0.9,0"]) == 2
    assert capsys.readouterr().err == "error: math range error in 'exp(1000*z)'\n"


@pytest.mark.parametrize("plane", ["0,0,1,nan", "0,0,1", "a,b,c,d", "0,0,0,1"])
def test_extend_bad_plane_flag_exits_2(timelike_cfg, capsys, plane):
    assert main(["extend", timelike_cfg, "--plane", plane]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "'--plane'" in err


def test_check_fails_on_a_real_period(tmp_path, capsys):
    p = tmp_path / "period.cfg"
    p.write_text("f = i/z\ng = 0\ndomain = punctured-disk\nradius = 1\npunctures = 0\nz0 = 0.5\n")
    assert main(["check", str(p)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["path_independence"]


@pytest.mark.parametrize(
    "lines, err",
    [
        ("g_poles = 0:0\nz0 = 0.5\n", "config error: field 'g_poles': pole order must be >= 1\n"),
        ("g_poles = 0.3:1\nz0 = 0.5\n", "config error: field 'g_poles': declared pole (0.3+0j) is not a domain puncture\n"),
        ("g_poles = 0:1\nz0 = 2\n", "config error: field 'z0': basepoint (2+0j) outside the domain closure\n"),
        ("z0 = 0.3+z\n", "config error: field 'z0': not a complex constant: '0.3+z' depends on z\n"),
        ("z0 = z-z\n", "config error: field 'z0': not a complex constant: 'z-z' depends on z\n"),
        ("punctures = 0, z/4\nz0 = 0.5\n", "config error: field 'punctures': not a complex constant: 'z/4' depends on z\n"),
        ("g_poles = z:1\nz0 = 0.5\n", "config error: field 'g_poles': not a complex constant: 'z' depends on z\n"),
        # both operands fault: the left one's fault, as in every compiled evaluation
        ("z0 = log(0)/0\n", "config error: field 'z0': not a complex constant: log of zero in 'log(0)'\n"),
        ("g_poles = 0\nz0 = 0.5\n", "config error: field 'g_poles': entries must be 'location:order'\n"),
        ("g_poles = 0:x\nz0 = 0.5\n", "config error: field 'g_poles': order must be an integer\n"),
        ("", "config error: field 'z0': missing\n"),
        ("z0 = 0.5\ntol = -1\n", "config error: field 'tol': must be positive\n"),
    ],
)
def test_config_error_names_the_field_at_fault(tmp_path, capsys, lines, err):
    p = tmp_path / "poles.cfg"
    p.write_text("f = 1\ng = 1/z\ndomain = punctured-disk\nradius = 1\n" + lines)
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "text, err",
    [
        # the domain is checked before the basepoint is read, and before tol
        ("domain = disk\nradius = -1\n", "field 'domain': radius must be positive"),
        ("domain = disk\nradius = -1\nz0 = 0\ntol = 0\n", "field 'domain': radius must be positive"),
        ("domain = disk\ninner_radius = 0.3\nz0 = 2\n", "field 'domain': inner_radius not meaningful for disk"),
        # the missing one of f_minus and g_minus is named at its own place, before g_minus is read
        ("domain = upper-half-disk\nz0 = 0.5*i\nplane = 0,0,1,0\ng_minus = (\n", "field 'f_minus': missing"),
        # X0 is read before the basepoint is checked against the domain
        ("domain = disk\nz0 = 2\nX0 = 0,0\n", "field 'X0': expected x1,x2,x3"),
    ],
    ids=["domain-before-z0", "domain-before-tol", "inner-radius-before-z0", "f_minus-before-g_minus",
         "X0-before-basepoint"],
)
def test_a_config_with_several_faults_reports_the_first_in_key_order(tmp_path, capsys, text, err):
    p = tmp_path / "faults.cfg"
    p.write_text("f = 1\ng = z/2\n" + text)
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr() == ("", f"config error: {err}\n")


def test_the_readme_config_block_lists_the_key_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config format", 1)[1].split("```\n", 2)[1]
    assert [line.split(" = ", 1)[0] for line in block.splitlines()] == list(cli._KEYS)


@pytest.mark.parametrize("f, offset", [("²", 0), ("①", 0), ("²/z", 0), ("z+²", 2)])
def test_a_digit_that_is_not_decimal_is_a_config_error(tmp_path, capsys, f, offset):
    p = tmp_path / "digit.cfg"
    p.write_text(f"f = {f}\ng = z/2\ndomain = disk\nz0 = 0.5\n")
    assert main(["eval", str(p), "--at", "0.1,0.2"]) == 2
    assert capsys.readouterr() == ("", f"config error: field 'f': at offset {offset}: expected operand\n")


def test_the_deepest_nesting_the_parser_accepts_formats_compiles_and_evaluates(tmp_path, capsys):
    deepest = "sin(" * _NESTING + "z" + ")" * _NESTING
    g = parse(deepest)
    assert format_expr(g) == deepest and compile_fn(g)(0.1 + 0.2j) == evaluate(g, 0.1 + 0.2j)
    p = tmp_path / "nested.cfg"
    p.write_text(f"f = 1\ng = {deepest}\ndomain = disk\nradius = 0.5\nz0 = 0\n")
    assert main(["eval", str(p), "--at", "0.1,0.2"]) == 0
    assert capsys.readouterr().out.startswith("X = (")


@pytest.mark.parametrize("opener", ["(", "sin(", "sconj( "])
def test_nesting_past_the_bound_is_one_config_error_line(tmp_path, capsys, opener):
    g = opener * (_NESTING + 1) + "z" + ")" * (_NESTING + 1)
    p = tmp_path / "nested.cfg"
    p.write_text(f"f = 1\ng = {g}\ndomain = disk\nradius = 0.5\nz0 = 0\n")
    assert main(["eval", str(p), "--at", "0.1,0.2"]) == 2
    offset = len(opener) * _NESTING + opener.index("(")
    assert capsys.readouterr() == ("", f"config error: field 'g': at offset {offset}: expected at most "
                                       f"{_NESTING} nested brackets\n")


def test_a_decimal_digit_of_another_script_reads_as_its_value(tmp_path, capsys):
    outputs = []
    for three in ("3", "٣"):
        p = tmp_path / "digit.cfg"
        p.write_text(f"f = {three}*z\ng = z/2\ndomain = disk\nz0 = 0.5\n")
        assert main(["eval", str(p), "--at", "0.1,0.2"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


_POLE = "(z-(-0.2+0.6*i))"  # a pole of g at the puncture, where f has a double zero; |g| = 1/2 on the axis
_HALF_ANNULUS = f"""\
f = i*exp(-i*z)*{_POLE}^2
g = exp(i*z)/2*(z-(-0.2-0.6*i))/{_POLE}
domain = half-annulus
radius = 0.9
inner_radius = 0.2
punctures = -0.2+0.6*i
g_poles = -0.2+0.6*i:1
z0 = 0.3+0.5*i
X0 = 0.1,-0.2,0.3
tol = 1e-9
plane = 0,0,1,-0.25
"""


def test_an_emitted_config_reloads_the_domain_and_basepoint_it_was_extended_on(tmp_path, capsys):
    # the emitted text writes inner_radius, g_poles and a basepoint with both parts
    src, out = tmp_path / "ring.cfg", tmp_path / "ring.ext.cfg"
    src.write_text(_HALF_ANNULUS)
    assert main(["extend", str(src), "-o", str(out)]) == 0
    capsys.readouterr()
    cfg, emitted = SurfaceConfig.from_file(str(src)), SurfaceConfig.from_file(str(out))
    assert "z0 = 0.29999999999999999+0.5*i" in out.read_text().splitlines()
    for key in ("domain", "z0", "g_poles", "X0"):
        assert getattr(emitted.data, key) == getattr(cfg.data, key), key
    assert (emitted.tol, emitted.plane) == (cfg.tol, cfg.plane)
    ext, reloaded, q = extension.extend(cfg.data, cfg.plane), emitted.extended_surface(), cli._quadrature(None, cfg)
    for z in (0.5 + 0.3j, -0.6 + 0.1j, 0.4 - 0.5j, -0.3 - 0.6j):
        assert reloaded.evaluate(z, q) == ext.evaluate(z, q), z


_HUGE_DISK = "f = 1\ng = z\ndomain = disk\nradius = 1e100\nz0 = 0\n"  # |phi|^2 overflows far out


def test_a_conformal_factor_that_overflows_is_inf(tmp_path, capsys):
    p = tmp_path / "huge.cfg"
    p.write_text(_HUGE_DISK)
    assert main(["eval", str(p), "--at", "1e99,0"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("\nconformal_factor = inf\n")
    assert main(["mesh", str(p), "--grid", "5x5", "-o", str(tmp_path / "huge.obj")]) == 0
    attrs = json.loads((tmp_path / "huge.obj.attrs.json").read_text())
    factors = [v["conformal_factor"] for v in attrs["vertices"]]
    assert math.inf in factors and all(lam == math.inf or math.isfinite(lam) for lam in factors)


def test_a_conformal_factor_whose_squares_overflow_is_inf_not_nan(tmp_path, capsys):
    # every |phi_k|^2 overflows, so their sum was inf - inf = NaN; |f|^2 (1 - |g|^2)^2 / 2 overflows too
    p = tmp_path / "squares.cfg"
    p.write_text("f = ((1e-30)^-3)^2\ng = sin(0.5)\ndomain = upper-half-disk\nradius = 10\nz0 = 5*i\n")
    assert main(["eval", str(p), "--at", "2,1"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("\nconformal_factor = inf\n")
    assert main(["mesh", str(p), "--grid", "5x5", "-o", str(tmp_path / "squares.obj")]) == 0
    attrs = json.loads((tmp_path / "squares.obj.attrs.json").read_text())
    assert [v["conformal_factor"] for v in attrs["vertices"]] == [math.inf] * 25


@pytest.mark.parametrize("command", [["check"], ["extend", "-o", "out.cfg"], ["eval", "--at", "0.1,0.5"]])
def test_a_radius_whose_diameter_overflows_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "huge.cfg"
    p.write_text(_with_line(TIMELIKE_CONFIG, "radius", "1e308"))
    assert main([command[0], str(p), *command[1:]]) == 2
    err = "config error: field 'domain': radius 1e+308 is too large: its diameter overflows\n"
    assert capsys.readouterr() == ("", err)


_OVERFLOWING = {  # g squares past the largest float at a sample point
    "g": "f = 1\ng = 1e200*z\ndomain = disk\nz0 = 0\n",
    "radius": "f = 1\ng = z\ndomain = disk\nradius = 1e160\nz0 = 0\n",
    "half-disk": "f = 1\ng = z\ndomain = upper-half-disk\nradius = 1e200\nz0 = 0.5*i\nplane = 0,0,1,0\n",
}


@pytest.mark.parametrize("name, command", [("g", ["check"]), ("radius", ["check"]), ("half-disk", ["check"]),
                                           ("half-disk", ["extend", "-o", "out.cfg"])])
def test_a_g_whose_square_overflows_fails_in_one_line(tmp_path, capsys, monkeypatch, name, command):
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "overflow.cfg"
    p.write_text(_OVERFLOWING[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning raises here instead of printing
        assert main([command[0], str(p), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: |g|^2 = inf is not finite at g = (")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [["extend", "-o", "out.cfg"], ["eval", "--at", "0.3,0.2"]])
def test_an_infinite_literal_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    configs = {  # 1e999 reads as inf, which the parser refuses
        "extend": _with_line(_EXTENDABLE["spacelike"], "f", "1e999*i*exp(-i*z)"),
        "eval": "f = 1e999\ng = z/2\ndomain = disk\nz0 = 0\n",
    }
    p = tmp_path / "literal.cfg"
    p.write_text(configs[command[0]])
    assert main([command[0], str(p), *command[1:]]) == 2
    assert capsys.readouterr() == ("", "config error: field 'f': at offset 0: expected finite number\n")
    assert not (tmp_path / "out.cfg").exists()


# ---------------------------------------------------------------------------
# an extended config builds its matching report only where it is read


_EXTENDABLE = bench_configs()
# one point on each side of the arc: |z| = rho = e^-0.7 for the catenoid, v = 0 otherwise
_SIDES = {"catenoid-b07": ("0.6,0.3", "0.3,0.2")}
_FIXTURE_OF = {"catenoid-b07": "catenoid_extension_fixture", "spacelike": "spacelike_fixture",
               "timelike": "timelike_fixture", "lightlike": "lightlike_fixture"}


@pytest.mark.parametrize("name", sorted(_EXTENDABLE))
def test_a_config_with_unreduced_formulas_still_passes(name, tmp_path, capsys):
    # an extended config written before extend emitted the normal form still passes check, and its
    # evals agree with those of the config extend writes now within 1e-12, on both sides of the arc
    base = tmp_path / f"{name}.cfg"
    base.write_text(_EXTENDABLE[name])
    new = tmp_path / f"{name}.ext.cfg"
    assert main(["extend", str(base), "-o", str(new)]) == 0
    old = _with_minus_formulas(new, UNREDUCED_FORMULAS[_FIXTURE_OF[name]], tmp_path / f"{name}.old.cfg")
    assert old.read_text() != new.read_text()
    capsys.readouterr()
    assert main(["check", str(old)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    for at in _SIDES.get(name, ("0.2,0.3", "0.2,-0.3", "-0.35,-0.15")):
        runs = []
        for path in (old, new):
            assert main(["eval", str(path), "--at", at]) == 0
            runs.append(_eval_values(capsys.readouterr().out))
        assert len(runs[0]) == len(runs[1]) == 7
        assert max(abs(a - b) for a, b in zip(*runs)) <= 1e-12, (at, runs)


@pytest.mark.parametrize("name", sorted(_EXTENDABLE))
def test_only_check_and_extend_build_the_matching_report(name, tmp_path, capsys, monkeypatch):
    base = tmp_path / f"{name}.cfg"
    base.write_text(_EXTENDABLE[name])
    ext_path = str(tmp_path / f"{name}.ext.cfg")
    built = []
    report = extension._match_report

    def counted(*args):
        built.append(args)
        return report(*args)

    def refused(*args):
        raise AssertionError("eval built the matching report")

    monkeypatch.setattr(extension, "_match_report", counted)
    assert main(["extend", str(base), "-o", ext_path]) == 0
    assert len(built) == 1
    assert main(["check", ext_path]) == 0
    assert len(built) == 2
    capsys.readouterr()
    for at in _SIDES.get(name, ("0.2,0.3", "0.2,-0.3")):
        monkeypatch.setattr(extension, "_match_report", counted)
        assert main(["eval", ext_path, f"--at={at}"]) == 0
        expected = capsys.readouterr()
        monkeypatch.setattr(extension, "_match_report", refused)
        assert main(["eval", ext_path, f"--at={at}"]) == 0
        assert capsys.readouterr() == expected
    assert len(built) == 2


def test_matching_fault_fails_check_but_not_eval(tmp_path, capsys):
    # f_minus = 1/z faults at the arc point 0 that the matching report samples
    base = tmp_path / "spacelike.cfg"
    base.write_text(_EXTENDABLE["spacelike"])
    text = _extend_to(str(base), str(tmp_path / "spacelike.ext.cfg"), capsys)
    bad = tmp_path / "bad.cfg"
    bad.write_text("".join("f_minus = 1/z\n" if line.startswith("f_minus") else line for line in text.splitlines(True)))
    assert main(["check", str(bad)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: division by zero in '1/z'\n")
    # on the original side the reflected formulas take no part
    assert main(["eval", str(tmp_path / "spacelike.ext.cfg"), "--at=0.2,0.3"]) == 0
    expected = capsys.readouterr()
    assert main(["eval", str(bad), "--at=0.2,0.3"]) == 0
    assert capsys.readouterr() == expected


_NAN = "((1e308+1e308)-(1e308+1e308))"  # NaN in scalar arithmetic as well, without a fault


def test_a_nan_matching_gap_fails_extend_and_check(tmp_path, capsys):
    # a NaN in f carries into the reflected f, so every f gap is NaN
    base = tmp_path / "spacelike.cfg"
    base.write_text(_EXTENDABLE["spacelike"].replace("f = i*exp(-i*z)\n", f"f = i*exp(-i*z) + {_NAN}\n"))
    assert main(["extend", str(base), "-o", str(tmp_path / "nan.ext.cfg")]) == 1
    matching = json.loads(capsys.readouterr().out)["matching"]
    assert matching["passed"] is False and math.isnan(matching["gaps"]["f"])
    # a reflected f that is NaN on the arc and 0 below it: only the matching sees it
    base.write_text(_EXTENDABLE["spacelike"])
    text = _extend_to(str(base), str(tmp_path / "spacelike.ext.cfg"), capsys)
    odd = tmp_path / "odd.cfg"
    odd.write_text(text.replace("\ng_minus", " + exp((1e308+1e308)*(-i*z))\ng_minus"))
    assert main(["check", str(odd)]) == 1
    failed = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["c1_matching"]
    assert math.isnan(failed[0]["max_residual"]) and math.isnan(failed[0]["details"]["gaps"]["f"])


# ---------------------------------------------------------------------------
# main builds its parser on the first call and reuses it


def test_the_reused_parser_carries_no_state_between_calls(catenoid_cfg, tmp_path, capsys, monkeypatch):
    mesh = str(tmp_path / "mesh.obj")
    sequence = [
        ["eval", catenoid_cfg],  # no --at: usage line
        ["frobnicate"],
        ["check", catenoid_cfg, "--grid", "3x3"],
        ["check", catenoid_cfg],  # the default grid again
        ["mesh", catenoid_cfg, "-o", mesh],  # the default 17x17
        ["eval", catenoid_cfg, "--at", "-0.1,0.2"],
        ["--help"],
    ]

    def run(argv):
        rc = main(argv)
        return (rc, *capsys.readouterr())

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    run(["catenoid"])
    before = len(built)
    reused = [run(argv) for argv in sequence]
    assert len(built) == before  # no call after the first builds a parser
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert len(built) > before  # the count sees a build
    for argv, got, expected in zip(sequence, reused, fresh):
        assert got == expected, argv
    (eval_rc, _, eval_err), (unknown_rc, *_), grid3, default, (_, mesh_out, _), negative, (help_rc, help_out, _) = reused
    assert (eval_rc, unknown_rc, help_rc) == (2, 2, 0)
    assert "maxsurf eval: error: the following arguments are required: --at\n" in eval_err
    assert default[0] == 0 and default[1] != grid3[1]  # the 3x3 grid did not stay
    assert mesh_out.startswith(f"wrote {mesh}: 289 vertices")
    assert negative == run(["eval", catenoid_cfg, "--at=-0.1,0.2"]) and negative[0] == 0
    assert help_out.startswith("usage: maxsurf ")


# ---------------------------------------------------------------------------
# exit paths pinned line for line


def test_eval_on_the_degenerate_locus_prints_no_normal(tmp_path, capsys):
    p = tmp_path / "poly.cfg"
    p.write_text("f = 1\ng = z\ndomain = disk\nradius = 2\nz0 = 0\n")
    assert main(["eval", str(p), "--at=1,0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    X = [float(t) for t in lines[0][5:-1].split(",")]
    assert max(abs(a - b) for a, b in zip(X, (2 / 3, 0, 0.5))) < 1e-12  # Re(z/2 + z^3/6, ., z^2/2) at z = 1
    assert lines[1:] == ["N = degenerate (|g| = 1)", "conformal_factor = 0"]


def _spacelike_extended(tmp_path, capsys, plane):
    """The emitted spacelike config without its reflected line, with plane replaced (or dropped if None)."""
    base = tmp_path / "spacelike.cfg"
    base.write_text(_EXTENDABLE["spacelike"])
    text = _extend_to(str(base), str(tmp_path / "spacelike.ext.cfg"), capsys)
    kept = [line for line in text.splitlines(True) if not line.startswith(("reflected", "plane"))]
    p = tmp_path / "edited.cfg"
    p.write_text("".join(kept) + ("" if plane is None else f"plane = {plane}\n"))
    return str(p)


@pytest.mark.parametrize("command", [["check"], ["eval", "--at=0.2,0.3"]])
def test_extended_config_off_the_contact_plane_exits_1(tmp_path, capsys, command):
    cfg = _spacelike_extended(tmp_path, capsys, "0,1,0,0.1")
    assert main([command[0], cfg, *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: constant-angle hypothesis violated: <N,n> varies by 7.855e-01 about 0.000000\n"


@pytest.mark.parametrize("command", [["check"], ["eval", "--at=0.2,0.3"]])
def test_extended_config_without_plane_exits_2(tmp_path, capsys, command):
    cfg = _spacelike_extended(tmp_path, capsys, None)
    assert main([command[0], cfg, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: field 'plane': extended config needs the plane\n"


def test_extend_into_a_missing_directory_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("spacelike.cfg").write_text(_EXTENDABLE["spacelike"])
    assert main(["extend", "spacelike.cfg", "-o", "missing/out.cfg"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: cannot write missing/out.cfg: [Errno 2] No such file or directory: 'missing/out.cfg'\n"
    assert out == ""  # no report of an extension that was not written


def test_a_fault_while_formatting_leaves_the_earlier_extension(tmp_path, capsys, monkeypatch):
    # extend builds the config text before it opens (and so truncates) the output
    monkeypatch.chdir(tmp_path)
    Path("spacelike.cfg").write_text(_EXTENDABLE["spacelike"])
    assert main(["extend", "spacelike.cfg", "-o", "out.cfg"]) == 0
    earlier = Path("out.cfg").read_bytes()
    capsys.readouterr()

    def fault(cfg, ext):
        raise OverflowError("formatting fault")

    monkeypatch.setattr(cli, "_extended_config_text", fault)
    with pytest.raises(OverflowError, match="formatting fault"):
        main(["extend", "spacelike.cfg", "-o", "out.cfg"])
    assert Path("out.cfg").read_bytes() == earlier
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# configs that ended in a traceback or wrote non-finite vertices, and one whose extension failed check

_FAULTS = {
    # the GK15 estimate overflows to inf toward the far edge, where 1e-15 of the integral is inf too
    "overflow": "f = (log(1e200+z))^-1\ng = z\ndomain = upper-half-disk\nradius = 1e150\nz0 = 0.9\n",
    # N leaves the hyperboloid by more than stereo_inverse accepts at points of the check grid
    "off-hyperboloid": "f = z\ng = (tanh(z))^-3\ndomain = disk\nradius = 100\nz0 = 0.1\n",
    # |g| is huge on the arc but cosh(1) at u = 0, so the angle varies along it
    "lower-sheet-tangent": "f = sin(z^-400)\ng = z + cosh(z^0)\ndomain = annulus\nradius = 1e150\n"
    "inner_radius = 0.5\nz0 = 1\nplane = 0,0,1,0.3\n",
}


@pytest.mark.parametrize("command", [["check"], ["mesh", "--grid", "5x5", "-o", "overflow.obj"]])
def test_an_overflowed_quadrature_estimate_fails_in_one_line(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    Path("overflow.cfg").write_text(_FAULTS["overflow"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning raises here instead of printing
        assert main([command[0], "overflow.cfg", *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: quadrature did not converge on path to ")
    assert err.endswith(" (achieved error estimate inf)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["overflow.cfg"]  # no OBJ, no sidecar


def test_a_normal_off_the_hyperboloid_fails_check_without_a_traceback(tmp_path, capsys):
    p = tmp_path / "off.cfg"
    p.write_text(_FAULTS["off-hyperboloid"])
    assert main(["check", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_a_lower_sheet_tangent_contact_fails_extend_in_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("tangent.cfg").write_text(_FAULTS["lower-sheet-tangent"])
    assert main(["extend", "tangent.cfg", "-o", "out.cfg"]) == 1
    err = "extension failed: constant-angle hypothesis violated: <N,n> varies by 1.287e+00 about 1.160903\n"
    assert capsys.readouterr() == ("", err)
    assert not Path("out.cfg").exists()


def test_a_constant_on_a_branch_cut_reflects_to_a_config_that_passes_check(tmp_path, capsys, monkeypatch):
    # log(-1) reads as log(-1-0j) = -pi*i; its reflection log(-1+0j) = pi*i folds to a constant
    # that reads back, where the text log(-1) would read back on the other side of the cut
    monkeypatch.chdir(tmp_path)
    g = "exp(i*z)/2*log(-1)*i/3.141592653589793"
    Path("cut.cfg").write_text(_with_line(_EXTENDABLE["spacelike"], "g", g))
    assert main(["extend", "cut.cfg", "-o", "cut.ext.cfg"]) == 0
    lines = dict(line.split(" = ", 1) for line in Path("cut.ext.cfg").read_text().splitlines() if " = " in line)
    assert "log" not in lines["f_minus"] + lines["g_minus"], lines
    capsys.readouterr()
    assert main(["check", "cut.ext.cfg"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_a_tangential_lightlike_contact_warns_in_one_line(tmp_path, capsys, monkeypatch):
    # g -> 1 + 0.18i on the real axis: a tangential lightlike contact whose |g| -> 1; extend, and check
    # and eval of the config it writes, each print the warning as one stderr line, exit codes unchanged
    monkeypatch.chdir(tmp_path)
    Path("tangent.cfg").write_text(
        "f = i\ng = 1 + i*(0.18 + 0.05*z)\ndomain = upper-half-disk\nradius = 0.7\nz0 = 0.5*i\nplane = 1,0,1,0\n"
    )
    line = "warning: lightlike tangential contact with |g| -> 1: induced metric degenerates along the boundary\n"
    shown = warnings.showwarning
    runs = [(["extend", "tangent.cfg", "-o", "tangent.ext.cfg"], 0), (["check", "tangent.ext.cfg"], 1),
            (["eval", "tangent.ext.cfg", "--at", "0.1,0.2"], 0)]
    for argv, code in runs:
        assert main(argv) == code
        assert capsys.readouterr().err == line, argv
        assert warnings.showwarning is shown  # main restores it for library callers


class _ClosedStdout:
    """A stdout whose reader has gone: its write, or with ``at = "flush"`` its flush, raises as a closed pipe does."""

    def __init__(self, at):
        self.at = at

    def write(self, text):
        if self.at == "write":
            raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        if self.at == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("at", ["write", "flush"])
def test_a_closed_stdout_ends_in_one_line(tmp_path, capsys, monkeypatch, at):
    cfg = tmp_path / "catenoid.cfg"
    cfg.write_text(CATENOID_CONFIG)
    monkeypatch.setattr(sys, "stdout", _ClosedStdout(at))
    assert main(["eval", str(cfg), "--at", "0.5,0.3"]) == 2
    assert sys.stdout.name == os.devnull  # so the interpreter's last flush has nothing to fail on
    sys.stdout.close()
    assert capsys.readouterr().err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_a_pipe_closed_before_eval_writes_ends_in_one_line(tmp_path):
    cfg = tmp_path / "catenoid.cfg"
    cfg.write_text(CATENOID_CONFIG)
    read, write = os.pipe()
    os.close(read)  # closed before the child starts, so its first write to stdout fails
    try:
        child = subprocess.run(
            [sys.executable, "-c", "import sys; from maxsurf.cli import main; sys.exit(main())",
             "eval", str(cfg), "--at=0.5,0.3"],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
    finally:
        os.close(write)
    assert child.returncode == 2
    assert child.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", ["catenoid", "eval", "check"])
def test_a_full_stdout_ends_in_one_line(tmp_path, command):
    cfg = tmp_path / "catenoid.cfg"
    cfg.write_text(CATENOID_CONFIG)
    args = {"catenoid": [], "eval": [str(cfg), "--at=0.5,0.3"], "check": [str(cfg), "--grid=3x4"]}[command]
    with open("/dev/full", "w") as full:
        child = subprocess.run(
            [sys.executable, "-c", "import sys; from maxsurf.cli import main; sys.exit(main())", command, *args],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
    assert child.returncode == 2
    assert child.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


# ---------------------------------------------------------------------------
# user-facing branches of config reading, mesh, extend and check


@pytest.mark.parametrize(
    "domain, err",
    [("", "missing"),
     ("domain = square\n", "must be one of: disk, upper-half-disk, annulus, half-annulus, punctured-disk")],
    ids=["no-domain", "unknown-domain"],
)
def test_a_config_without_a_known_domain_exits_2_in_one_line(tmp_path, capsys, domain, err):
    p = tmp_path / "bad.cfg"
    p.write_text(f"f = 1\ng = z/2\n{domain}z0 = 0\n")
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr() == ("", f"config error: field 'domain': {err}\n")


def test_mesh_of_an_extended_config_exits_0(timelike_cfg, tmp_path, capsys):
    # the extended surface, on both sides of the plane x2 = d: the half disk's window mirrored across its arc
    _extend_to(timelike_cfg, str(tmp_path / "timelike.ext.cfg"), capsys)
    out = tmp_path / "x.obj"
    assert main(["mesh", str(tmp_path / "timelike.ext.cfg"), "-o", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote {out}: 289 vertices, 512 triangles, 0 masked cells\n", "")
    d = 2 * math.sinh(0.5) - math.sqrt(2) / 2
    x2 = [float(line.split()[2]) for line in out.read_text().splitlines() if line.startswith("v ")]
    assert min(x2) < d - 0.1 and max(x2) > d + 0.1 and (tmp_path / "x.obj.attrs.json").exists()


def test_extend_writes_the_mesh_keys_that_a_mesh_of_its_config_reads(timelike_cfg, tmp_path, capsys):
    # the source's window and a mask off the default reach the extended config; the default mask is not written
    plain = cli.parse_config_text(_extend_to(timelike_cfg, str(tmp_path / "plain.ext.cfg"), capsys))
    assert "mesh_range" not in plain and "mask_eps" not in plain
    window, source = (-0.5, 0.5, -0.4, 0.4), tmp_path / "keyed.cfg"
    source.write_text(Path(timelike_cfg).read_text() + "mesh_range = -0.5,0.5,-0.4,0.4\nmask_eps = 1e-6\n")
    text = _extend_to(str(source), str(tmp_path / "keyed.ext.cfg"), capsys)
    assert text.endswith("reflected = x2\nmesh_range = -0.5,0.5,-0.40000000000000002,0.40000000000000002\n"
                         "mask_eps = 9.9999999999999995e-07\n")
    cfg = SurfaceConfig.from_file(str(tmp_path / "keyed.ext.cfg"))
    assert cfg.mesh_range == window and cfg.mask_eps == 1e-6
    out = tmp_path / "keyed.obj"
    assert main(["mesh", str(tmp_path / "keyed.ext.cfg"), "--grid", "5x5", "-o", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote {out}: 25 vertices, 32 triangles, 0 masked cells\n", "")
    lines = out.read_text().splitlines()
    assert lines[2] == "# grid 5x5 mask_eps 9.9999999999999995e-07"
    want = cli.build_mesh(cfg.extended_surface(), 5, 5, 1e-6, QuadratureConfig(cfg.tol), window).vertices
    assert [list(map(float, line.split()[1:])) for line in lines if line.startswith("v ")] == want.tolist()


@pytest.mark.parametrize("radius", ["1.3", "2.0"])
def test_an_arc_past_the_unit_gauss_values_does_not_extend(tmp_path, capsys, radius):
    # the timelike data has g = +-1 at u = +-pi/4, so samples of a larger upper half disk's boundary
    # reach both sides of |g| = 1
    base = bench_configs()["timelike"]
    p = tmp_path / "wide.cfg"
    p.write_text(base.replace("radius = 0.7\n", f"radius = {radius}\n"))
    assert p.read_text() != base
    assert main(["extend", str(p), "-o", str(tmp_path / "wide.ext.cfg")]) == 1
    assert capsys.readouterr() == ("", "extension failed: boundary Gauss values straddle |g| = 1\n")
    assert not (tmp_path / "wide.ext.cfg").exists()


_ON_GRID = "(z-(0.2670244995002019+-0.15416666666666673*i))"  # a point of check's 12x12 diagnostic grid


@pytest.mark.parametrize(
    "f, g, code, failed",
    [(f"1/{_ON_GRID}", "z/3", 0, []), (f"{_ON_GRID}^2", f"1/{_ON_GRID}", 1, ["gauss_hyperboloid"])],
    ids=["pole-of-f", "pole-of-g"],
)
def test_check_skips_a_grid_point_where_the_data_has_a_pole(tmp_path, capsys, f, g, code, failed):
    # the array pass is not finite at the pole and the scalar closures raise there, so the point is left
    # out of the identities; with the pole in g, the Gauss map takes both sheets around it
    p = tmp_path / "pole.cfg"
    p.write_text(f"f = {f}\ng = {g}\ndomain = disk\nz0 = 0\n")
    assert main(["check", str(p)]) == code
    report = json.loads(capsys.readouterr().out)
    records = {c["name"]: c for c in report["checks"]}
    assert records["quadratic_identity"]["details"] == {"points": 143}
    assert [name for name, c in records.items() if not c["passed"]] == failed
    gauss = records["gauss_hyperboloid"]
    assert math.isfinite(gauss["max_residual"])
    assert gauss["details"] == ({"one_sheet": False, "sheet": -1} if failed else {"one_sheet": True, "sheet": 1})


# ---------------------------------------------------------------------------
# one rule set for extended configs: what extend writes, the loader and check read alike

_G_SHIFT_BASES = ("spacelike", "timelike", "lightlike")  # the bench bases on a half disk


def _shifted_g(base: str, tail: str) -> str:
    config = bench_configs()[base]
    g = next(line for line in config.splitlines() if line.startswith("g = "))
    return config.replace(g, g + tail)


def _run(argv, capsys):
    return (main(argv), *capsys.readouterr())


@settings(max_examples=24, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(_G_SHIFT_BASES), exponent=st.floats(-10, -5), unit=st.sampled_from(("+", "-", "+i*", "-i*")))
def test_a_file_extend_writes_passes_boundary_locus_and_a_refusal_is_one_line(tmp_path, capsys, base, exponent, unit):
    # g moved by delta*u, delta log-uniform in [1e-10, 1e-5] and u one of 1, -1, i and -i
    src, out = tmp_path / "shifted.cfg", tmp_path / "shifted.ext.cfg"
    src.write_text(_shifted_g(base, f"{unit}{10 ** exponent!r}"))
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code, stdout, stderr = _run(["extend", str(src), "-o", str(out)], capsys)
    if code == 0:
        code, stdout, _ = _run(["check", str(out)], capsys)
        locus = next(c for c in json.loads(stdout)["checks"] if c["name"] == "boundary_locus")
        assert locus["passed"] and locus["tolerance"] == extension.LOCUS_TOL
    elif not out.exists():  # a refusal; a failed matching report writes the file and exits 1 too
        assert code == 1 and stdout == "" and stderr.count("\n") == 1 and stderr.startswith("extension failed: ")


@pytest.mark.parametrize("base, tail, mismatch", [
    ("spacelike", "+3.1622776601683795e-08*i", "1.242e-08"), ("spacelike", "-3.1622776601683795e-08*i", "1.242e-08"),
    ("timelike", "+5.623413251903491e-08", "1.547e-08"), ("timelike", "-5.623413251903491e-08", "1.547e-08"),
    ("timelike", "+1e-07", "2.752e-08"), ("timelike", "-1e-07", "2.752e-08"),
    ("lightlike", "+3.1622776601683795e-08", "1.344e-08"), ("lightlike", "-3.1622776601683795e-08", "1.344e-08"),
    ("lightlike", "+3.1622776601683795e-08*i", "1.408e-08"), ("lightlike", "-3.1622776601683795e-08*i", "1.408e-08"),
])
def test_a_boundary_that_check_would_fail_on_its_locus_is_refused_by_extend(tmp_path, capsys, base, tail, mismatch):
    # these extended with exit 0 while the contact held g to 1e-6, and check failed boundary_locus on the file
    src, out = tmp_path / "shifted.cfg", tmp_path / "shifted.ext.cfg"
    src.write_text(_shifted_g(base, tail))
    code, stdout, stderr = _run(["extend", str(src), "-o", str(out)], capsys)
    assert (code, stdout) == (1, "") and not out.exists()
    assert stderr.startswith(f"extension failed: boundary g lies {mismatch} (relative) off ") and stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [["eval", "--at=0.3,0.1"], ["check"], ["mesh", "--grid", "9x9", "-o", "ring.obj"]])
def test_a_circle_arc_against_a_timelike_plane_is_refused_on_load(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("ring.ext.cfg").write_text(capture_tool().ARC_RULE)
    command, *args = argv
    assert _run([command, "ring.ext.cfg", *args], capsys) == (
        1, "", "error: circular extension handles spacelike planes only, not timelike\n")
    assert not Path("ring.obj").exists()


def test_extend_writes_no_reflected_formula_that_the_parser_would_refuse(tmp_path, capsys, monkeypatch):
    # g in 48 pairs of exp(log(...)) writes an f_minus of 100 nested brackets; one pair more writes 102
    monkeypatch.chdir(tmp_path)
    for name, text in capture_tool().PAIRS.items():
        Path(f"{name}.cfg").write_text(text)
    assert _run(["extend", "pairs-49.cfg", "-o", "pairs-49.ext.cfg"], capsys) == (
        1, "", "extension failed: f_minus would not read back: at offset 944: expected at most 100 nested brackets\n")
    assert not Path("pairs-49.ext.cfg").exists()
    assert _run(["extend", "pairs-48.cfg", "-o", "pairs-48.ext.cfg"], capsys)[0] == 0
    f_minus = format_expr(SurfaceConfig.from_file("pairs-48.ext.cfg").minus_exprs[0])
    assert bracket_depth(f_minus) == _NESTING
    code, stdout, stderr = _run(["eval", "pairs-48.ext.cfg", "--at=0.2,-0.3"], capsys)
    assert code == 0 and stdout.startswith("X = (") and stderr == ""


def test_the_read_back_check_parses_only_a_text_with_more_operators_than_the_bounds(monkeypatch):
    parsed = []
    monkeypatch.setattr(cli, "parse", lambda text: parsed.append(text))
    short, long = "+".join(["z"] * (min(_NESTING, _HEIGHT) + 1)), "+".join(["z"] * (min(_NESTING, _HEIGHT) + 2))
    assert cli._read_back(short, "f_minus") == short and parsed == []
    assert cli._read_back(long, "f_minus") == long and parsed == [long]


_EVERY_COMMAND = """\
import contextlib, io, sys
from maxsurf.cli import main

for name in sys.argv[1:]:
    for argv in (["eval", "--at=0.3,0.1"], ["check"], ["mesh", "--grid", "9x9", "-o", name + ".obj"],
                 ["extend", "-o", name + ".ext.cfg"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([argv[0], name + ".cfg", *argv[1:]])
        print(name, argv[0], code, err.getvalue().count("\\n"), err.getvalue().strip())
"""


def test_the_deepest_formula_of_each_shape_runs_every_command_at_the_default_recursion_limit(tmp_path):
    # in a fresh interpreter: f of the timelike base as high, or as deeply bracketed, as the parser allows
    f, pairs = "exp(-i*z)", (_NESTING - 2) // 2  # f is two operations high and one bracket deep
    configs = {name: text for name, text in capture_tool().SHAPES.items() if name.endswith(f"-{_HEIGHT}")}
    calls = "sqrt(" + "exp(log(" * pairs + f + "))" * pairs + ")^2"
    configs["calls"] = bench_configs()["timelike"].replace(f"f = {f}", f"f = {calls}")
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", _EVERY_COMMAND, *configs], cwd=tmp_path, capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, text=True, timeout=300)
    assert done.returncode == 0 and done.stderr == ""
    outcomes = {tuple(line.split(" ", 2)[:2]): line.split(" ", 2)[2] for line in done.stdout.splitlines()}
    assert len(outcomes) == 16
    for (name, command), outcome in outcomes.items():
        if (name, command) == (f"sum-{_HEIGHT}", "extend"):  # its f_minus holds f two operations down
            assert outcome == (f"1 1 extension failed: f_minus would not read back: at offset 406: expected at most "
                               f"{_HEIGHT} nested operations"), name
        else:
            assert outcome == "0 0 ", (name, command)


@pytest.mark.parametrize("shape, offset", [("sum", 2 * _HEIGHT + 5), ("product", 2 * _HEIGHT + 5), ("signs", 0)])
def test_one_operation_past_the_deepest_formula_is_one_config_error_line(tmp_path, capsys, shape, offset):
    p = tmp_path / "past.cfg"
    p.write_text(capture_tool().SHAPES[f"{shape}-{_HEIGHT + 1}"])
    for argv in (["eval", str(p), "--at=0.3,0.1"], ["check", str(p)], ["extend", str(p), "-o", str(p) + ".ext"]):
        assert _run(argv, capsys) == (
            2, "", f"config error: field 'f': at offset {offset}: expected at most {_HEIGHT} nested operations\n")
