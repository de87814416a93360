"""Capture the CLI's outputs on the benchmark's inputs, one file per command.

    python3 tools/capture_outputs.py OUTDIR
    python3 tools/capture_outputs.py --against REV OUTDIR

Writes the base configs of ``perfbench/workloads.py`` into OUTDIR, then runs
``maxsurf.cli.main`` in this checkout on them:

  - ``extend`` on the four configs that carry a plane, writing ``NAME.ext.cfg``;
  - ``check`` on the five surfaces (the catenoid and the four extensions);
  - ``eval`` at 20 seeded points per surface, 10 on each side of the arc;
  - argparse's fault lines (exit 2): an unknown command, ``eval`` without
    ``--at`` and ``mesh`` without ``-o``; then ``eval --at`` with a negative
    u in the space form.  They run before the meshes, so that every later
    command runs on a parser that has already failed;
  - ``mesh`` of the catenoid at 65x65 and 33x33;
  - ``mesh`` of the other domain shapes at small grids (a half disk, an
    annulus, a strip of a half annulus below its inner circle, a disk seen
    through a larger window), of a punctured disk whose edges and root
    path detour around a puncture, and of a punctured disk through its
    puncture (negative radii), so every domain kind, the detour branch of
    the mesh front end and forests of two components (the strip's and this
    one) are compared too;
  - commands that fail or degenerate, so that their error lines are compared
    too: ``mesh`` with a pole of f on a quadrature node (9x9, exit 2) and
    near one (17x17, exit 1), ``mesh`` of an f that overflows (exit 1),
    ``eval`` on |g| = 1 (no normal), and ``check`` of those three configs
    (the pole passes, the overflow fails on a NaN error estimate, and
    |g| = 1 inside the disk fails gauss_hyperboloid);
  - extensions that the contact or the reconstruction refuses (exit 1):
    ``extend`` of an orthogonal contact, of a contact angle that varies
    along the arc, and of a g whose reflection takes the singular value 1
    at a point of the reflected side's sample grid; and ``check`` and
    ``extend`` of the extended spacelike config with ``f_minus = 1/z``,
    which faults at an arc point of the matching report (check exits 2;
    extend rebuilds the reflected side and exits 0);
  - configs that must end in one line: ``check`` with a basepoint whose
    operands both fault (``z0 = log(0)/0``) and with one that depends on z
    (exit 2), ``check`` of a g whose square overflows (exit 1), ``check``
    and ``extend`` of a half disk whose diameter overflows (exit 2), and
    ``check`` of an f that starts with a digit that is not decimal
    (``f = ²/z``, exit 2);
  - ``eval`` and ``mesh`` (5x5) far out on a disk of radius 1e100, where the
    conformal factor overflows to inf;
  - a literal that reads as inf (``1e999``) in f, which the parser refuses
    (exit 2): ``extend`` of the spacelike config and ``eval`` on a disk;
  - ``extend`` of the extended catenoid's reflected side back across the same
    plane: ``catenoid-b07-reflected.cfg`` is the emitted
    ``catenoid-b07.ext.cfg`` with its ``f_minus`` and ``g_minus`` as f and g,
    so the formulas it writes are the catenoid's again, at round-off;
  - configs that must end in one line (exit 1) where they once ended in a
    traceback or wrote non-finite vertices: ``check`` and ``mesh`` (5x5) of an
    f whose quadrature estimate overflows to inf, ``check`` of a g whose normal
    leaves the hyperboloid, and ``extend`` of a contact with |c| = 1 on the
    lower sheet; then ``extend`` of the spacelike config with g's constant
    on log's branch cut (``log(-1)``) and ``check`` of the config it writes,
    which passes;
  - ``eval`` and ``mesh`` (5x5) of an f of size 1e180, where every |phi_k|^2
    overflows and their sum, once inf - inf = NaN, reads inf as the closed
    form |f|^2 (1 - |g|^2)^2 / 2 does; then ``check`` of it (exit 1), whose
    quadratic identity passes, being scale-free, while path independence
    fails on its absolute tolerance;
  - ``extend`` of a lightlike contact that is tangential with |g| -> 1
    (exit 0), then ``check`` (exit 1) and ``eval`` (exit 0) of the config it
    writes: each warns that the metric degenerates along the boundary, in
    one stderr line;
  - ``eval`` on the real-diameter arc of the three extensions across it, at
    u = 0.1 and u = -0.3 (exit 0), and at its end u = 0.7 on ``timelike.ext``
    (exit 1);
  - ``extend`` of the timelike config across the plane x2 = 5, which its
    boundary (in x2 = 0.335) does not lie in (exit 0), then ``check`` of the
    config it writes, which fails plane_containment and reflection_symmetry
    (exit 1).

An exception that escapes ``main`` is recorded as ``exit uncaught``, with its
type and message as the last line of stderr, so that a checkout that ends
such a command in a traceback can still be captured and compared.

Each command leaves ``NNN-COMMAND-TARGET.txt`` with its exit code, stdout and
stderr; the configs, OBJ files and sidecars stay next to them.  Commands run
inside OUTDIR with relative paths, so the files depend only on the code.

``--against REV`` compares this checkout with the git revision REV: it extracts
REV with ``git archive`` into a temporary directory (removed afterwards), so
nothing is written under ``.git``, runs REV's copy of this script into
``OUTDIR/base`` and this checkout's into ``OUTDIR/change``, and prints each
file that differs, was added or went missing, then a count of the identical
ones.  It exits 1 when a file that both captures wrote differs, else 0.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from maxsurf.cli import main  # noqa: E402
from workloads import BASE_CONFIGS, EXTENDABLE, RHO, SURFACES, sample_point  # noqa: E402

EVAL_POINTS = 10  # per side of the arc
MESH_SIZES = (65, 33)
_ENTIRE = "f = exp(z/2)\ng = z/2\nX0 = 0.1,-0.2,0.3\nradius = 1\n"
DOMAIN_MESHES = {  # name: (config, grid)
    "half-disk": ("f = i*exp(-i*z)\ng = exp(i*z)/2\ndomain = upper-half-disk\nradius = 0.9\nz0 = 0.5*i\n", "9x13"),
    "annulus": (_ENTIRE + "domain = annulus\ninner_radius = 0.3\nz0 = 0.6\n", "9x25"),
    "strip": (
        _ENTIRE + "domain = half-annulus\ninner_radius = 0.3\nz0 = 0.6*i\nmesh_range = -0.9,0.9,0.05,0.25\n",
        "19x5",
    ),
    "window": ("f = 1 + z\ng = z/3\ndomain = disk\nz0 = 0.2\nmesh_range = -1.3,0.9,-0.8,1.2\n", "14x11"),
    "detour": (_ENTIRE + "domain = punctured-disk\npunctures = 0.31+0.17*i\nz0 = 0.33+0.2*i\n", "13x21"),
    # radii from -0.9 to 0.9: the middle row is the puncture, which splits the valid vertices in two
    "split": (_ENTIRE + "domain = punctured-disk\npunctures = 0\nz0 = 0.6\nmesh_range = -0.9,0.9,-0.3,0.3\n", "19x5"),
}
FAULT_CONFIGS = {
    "pole": "f = 1/(z+0.0625*i)\ng = z/3\ndomain = disk\nz0 = 0\nmesh_range = -0.5,0.5,-0.5,0.5\n",
    "overflow": "f = 1/(z*1e300*1e300)\ng = z/3\ndomain = disk\nz0 = 0\n",
    "poly": "f = 1\ng = z\ndomain = disk\nradius = 2\nz0 = 0\n",
}
# a point of the reflected side's sample grid on the unit half disk, and its conjugate
_ROOT, _ROOT_CONJ = "0.2888725384110351-0.40654239767553646*i", "0.2888725384110351+0.40654239767553646*i"
EXTENSION_FAULTS = {
    "orthogonal": "f = 1\ng = 0.3*cos(z)\ndomain = upper-half-disk\nradius = 0.7\nz0 = 0.5*i\nplane = 0,1,0,0\n",
    "varying": "f = 1\ng = 0.3+0.2*z\ndomain = upper-half-disk\nradius = 0.9\nz0 = 0.5*i\nplane = 0,0,1,0\n",
    # Re g = 1 on the axis (lightlike, lam = 0), and the reflected g is 1 at _ROOT
    "singular": f"f = i\ng = 1 + 3*i*((z-({_ROOT}))*(z-({_ROOT_CONJ})))\ndomain = upper-half-disk\nradius = 1\n"
    "z0 = 0.5*i\nplane = 1,0,1,0\n",
    "matching-fault": BASE_CONFIGS["spacelike"] + "f_minus = 1/z\ng_minus = 0.2500000000000018/(exp(-i*z)/2)\n"
    "reflected = x3\n",
}
INPUT_FAULTS = {  # name: (config, commands, each with its arguments after the config)
    "z0-log": ("f = 1\ng = z/2\ndomain = disk\nz0 = log(0)/0\n", [["check"]]),
    "z0-depends-on-z": ("f = 1\ng = z/2\ndomain = disk\nz0 = 0.3+z\n", [["check"]]),
    "g-overflow": ("f = 1\ng = 1e200*z\ndomain = disk\nz0 = 0\n", [["check"]]),
    "radius-overflow": (
        BASE_CONFIGS["spacelike"].replace("radius = 0.9", "radius = 1e308"),
        [["check"], ["extend", "-o", "radius-overflow.ext.cfg"]],
    ),
    "non-decimal-digit": ("f = ²/z\ng = z/2\ndomain = disk\nz0 = 0.5\n", [["check"]]),
    "density-overflow": (
        "f = 1\ng = z\ndomain = disk\nradius = 1e100\nz0 = 0\n",
        [["eval", "--at", "1e99,0"], ["mesh", "--grid", "5x5", "-o", "density-overflow.obj"]],
    ),
    "infinite-literal": (
        BASE_CONFIGS["spacelike"].replace("f = i*exp(-i*z)", "f = 1e999*i*exp(-i*z)"),
        [["extend", "-o", "infinite-literal.ext.cfg"]],
    ),
    "infinite-constant": ("f = 1e999\ng = z/2\ndomain = disk\nz0 = 0\n", [["eval", "--at", "0.3,0.2"]]),
}
ONE_LINE_FAULTS = {  # name: (config, commands), run last
    "estimate-overflow": (
        "f = (log(1e200+z))^-1\ng = z\ndomain = upper-half-disk\nradius = 1e150\nz0 = 0.9\n",
        [["check"], ["mesh", "--grid", "5x5", "-o", "estimate-overflow.obj"]],
    ),
    "off-hyperboloid": ("f = z\ng = (tanh(z))^-3\ndomain = disk\nradius = 100\nz0 = 0.1\n", [["check"]]),
    "lower-sheet-tangent": (
        "f = sin(z^-400)\ng = z + cosh(z^0)\ndomain = annulus\nradius = 1e150\ninner_radius = 0.5\nz0 = 1\n"
        "plane = 0,0,1,0.3\n",
        [["extend", "-o", "lower-sheet-tangent.ext.cfg"]],
    ),
    "branch-cut": (
        BASE_CONFIGS["spacelike"].replace("g = exp(i*z)/2", "g = exp(i*z)/2*log(-1)*i/3.141592653589793"),
        [["extend", "-o", "branch-cut.ext.cfg"]],
    ),
}

SQUARE_OVERFLOWS = {  # name: (config, commands), run after the rest
    "squares-overflow": (
        "f = ((1e-30)^-3)^2\ng = sin(0.5)\ndomain = upper-half-disk\nradius = 10\nz0 = 5*i\n",
        [["eval", "--at", "2,1"], ["mesh", "--grid", "5x5", "-o", "squares-overflow.obj"], ["check"]],
    ),
}

TANGENTIAL_CONTACT = (  # g -> 1 + 0.18i on the real axis: lightlike and tangential, with |g| -> 1
    "f = i\ng = 1 + i*(0.18 + 0.05*z)\ndomain = upper-half-disk\nradius = 0.7\nz0 = 0.5*i\nplane = 1,0,1,0\n"
)


def _original_side(surface: str, z: complex) -> bool:
    return abs(z) >= RHO if surface.startswith("catenoid") else z.imag >= 0


def eval_points(surface: str) -> list[complex]:
    """Seeded points of the surface's domain, EVAL_POINTS on each side of its arc."""
    rng = np.random.default_rng(SURFACES.index(surface))
    if surface == "catenoid":  # no arc
        return [sample_point(surface, rng) for _ in range(2 * EVAL_POINTS)]
    sides: dict[bool, list[complex]] = {True: [], False: []}
    while min(map(len, sides.values())) < EVAL_POINTS:
        z = sample_point(surface, rng)
        side = sides[_original_side(surface, z)]
        if len(side) < EVAL_POINTS:
            side.append(z)
    return sides[True] + sides[False]


def commands() -> list[tuple[str, list[str]]]:
    """(file stem, argv) of every command, in run order."""
    cmds = [(f"extend-{name}", ["extend", f"{name}.cfg", "-o", f"{name}.ext.cfg"]) for name in EXTENDABLE]
    cmds += [(f"check-{name}", ["check", f"{name}.cfg"]) for name in SURFACES]
    for name in SURFACES:
        for k, z in enumerate(eval_points(name)):
            cmds.append((f"eval-{name}-{k:02d}", ["eval", f"{name}.cfg", f"--at={z.real!r},{z.imag!r}"]))
    cmds += [
        ("usage-unknown-command", ["frobnicate", "catenoid.cfg"]),
        ("usage-eval-without-at", ["eval", "catenoid.cfg"]),
        ("usage-mesh-without-output", ["mesh", "catenoid.cfg"]),
        ("eval-catenoid-negative-u", ["eval", "catenoid.cfg", "--at", "-0.3,0.2"]),
    ]
    for n in MESH_SIZES:
        cmds.append((f"mesh-{n}", ["mesh", "catenoid.cfg", "--grid", f"{n}x{n}", "-o", f"catenoid-{n}.obj"]))
    for name, (_, grid) in DOMAIN_MESHES.items():
        cmds.append((f"mesh-{name}", ["mesh", f"{name}.cfg", "--grid", grid, "-o", f"{name}.obj"]))
    for name, n in (("pole", 9), ("pole", 17), ("overflow", 17)):
        cmds.append((f"mesh-{name}-{n}", ["mesh", f"{name}.cfg", "--grid", f"{n}x{n}", "-o", f"{name}-{n}.obj"]))
    cmds.append(("eval-poly-degenerate", ["eval", "poly.cfg", "--at=1,0"]))
    cmds += [(f"check-{name}", ["check", f"{name}.cfg"]) for name in FAULT_CONFIGS]
    for name in EXTENSION_FAULTS:
        if name == "matching-fault":
            cmds.append((f"check-{name}", ["check", f"{name}.cfg"]))
        cmds.append((f"extend-{name}", ["extend", f"{name}.cfg", "-o", f"{name}.ext.cfg"]))
    cmds += _fault_runs(INPUT_FAULTS)
    cmds.append(("extend-catenoid-b07-reflected",
                 ["extend", "catenoid-b07-reflected.cfg", "-o", "catenoid-b07-reflected.ext.cfg"]))
    cmds += _fault_runs(ONE_LINE_FAULTS) + [("check-branch-cut.ext", ["check", "branch-cut.ext.cfg"])]
    cmds += _fault_runs(SQUARE_OVERFLOWS)
    cmds += [
        ("extend-tangential-lightlike", ["extend", "tangential-lightlike.cfg", "-o", "tangential-lightlike.ext.cfg"]),
        ("check-tangential-lightlike.ext", ["check", "tangential-lightlike.ext.cfg"]),
        ("eval-tangential-lightlike.ext", ["eval", "tangential-lightlike.ext.cfg", "--at", "0.1,0.2"]),
    ]
    for name in ("spacelike.ext", "timelike.ext", "lightlike.ext"):  # on the arc, the real diameter
        cmds += [(f"eval-{name}-arc-u{u}", ["eval", f"{name}.cfg", f"--at={u},0"]) for u in ("0.1", "-0.3")]
    cmds.append(("eval-timelike.ext-arc-end", ["eval", "timelike.ext.cfg", "--at=0.7,0"]))
    cmds += [  # a plane that misses the boundary: extend accepts it, check refuses what it writes
        ("extend-wrong-plane", ["extend", "timelike.cfg", "--plane", "0,1,0,5", "-o", "wrong-plane.ext.cfg"]),
        ("check-wrong-plane.ext", ["check", "wrong-plane.ext.cfg"]),
    ]
    return cmds


def _fault_runs(faults: dict) -> list[tuple[str, list[str]]]:
    return [(f"{command}-{name}", [command, f"{name}.cfg", *args])
            for name, (_, runs) in faults.items() for command, *args in runs]


def reflected_side(text: str) -> str:
    """An emitted extended config as the plain config of its reflected side: f_minus and g_minus
    become f and g."""
    lines = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    out = []
    for line in text.splitlines():
        key = line.split(" = ", 1)[0]
        if key in ("f", "g"):
            out.append(f"{key} = {lines[key + '_minus']}")
        elif key not in ("f_minus", "g_minus", "reflected"):
            out.append(line)
    return "\n".join(out) + "\n"


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # noqa: BLE001 - recorded, so that one traceback does not end the capture
            rc = "uncaught"
            err.write(f"{type(exc).__name__}: {exc}\n")
    return f"$ maxsurf {' '.join(argv)}\nexit {rc}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def capture(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    meshes = {name: text for name, (text, _) in DOMAIN_MESHES.items()}
    inputs = {name: text for name, (text, _) in {**INPUT_FAULTS, **ONE_LINE_FAULTS, **SQUARE_OVERFLOWS}.items()}
    configs = {**BASE_CONFIGS, **meshes, **FAULT_CONFIGS, **EXTENSION_FAULTS, **inputs}
    for name, text in {**configs, "tangential-lightlike": TANGENTIAL_CONTACT}.items():
        Path(f"{name}.cfg").write_text(text, encoding="utf-8")
    for k, (stem, argv) in enumerate(commands()):
        if argv[1] == "catenoid-b07-reflected.cfg":  # made from what an earlier command wrote
            Path(argv[1]).write_text(reflected_side(Path("catenoid-b07.ext.cfg").read_text()), encoding="utf-8")
        Path(f"{k:03d}-{stem}.txt").write_text(run(argv))


def compare(base: Path, change: Path) -> tuple[list[str], list[str], list[str], int]:
    """How the capture in ``change`` differs from the one in ``base``: the relative paths of the files
    whose bytes differ, of those only ``change`` has (added) and of those only ``base`` has (missing),
    each sorted, and the number of identical files."""
    files = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()} for root in (base, change)]
    both = files[0] & files[1]
    differ = sorted(name for name in both if (base / name).read_bytes() != (change / name).read_bytes())
    return differ, sorted(files[1] - files[0]), sorted(files[0] - files[1]), len(both) - len(differ)


def against(rev: str, outdir: Path) -> int:
    """Capture REV into outdir/base and this checkout into outdir/change, print how they differ, and
    return 1 when a file both wrote differs."""
    base, change = outdir / "base", outdir / "change"
    for d in (base, change):
        if d.exists() and any(d.iterdir()):
            sys.exit(f"{d} is not empty")
    with tempfile.TemporaryDirectory() as tmp:
        tree = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
            tar.extractall(tmp, filter="data")
        subprocess.run([sys.executable, str(Path(tmp) / "tools" / "capture_outputs.py"), str(base)], check=True)
    capture(change)
    differ, added, missing, same = compare(base, change)
    for label, names in (("differs", differ), ("added", added), ("missing", missing)):
        for name in names:
            print(f"{label}: {name}")
    print(f"{same} identical, {len(differ)} differ, {len(added)} added, {len(missing)} missing")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--against":
        sys.exit(against(sys.argv[2], Path(sys.argv[3]).resolve()))
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    capture(Path(sys.argv[1]).resolve())
