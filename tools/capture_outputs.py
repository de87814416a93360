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
  - ``extend`` of an orthogonal contact (c = 0, exit 0); extensions that
    the contact or the reconstruction refuses (exit 1): ``extend`` of a
    contact angle that varies along the arc, and of a g whose reflection
    takes the singular value 1 at a point of the reflected side's sample
    grid; and ``check`` and ``extend`` of the extended spacelike config with
    ``f_minus = 1/z``, which faults at an arc point of the matching report
    (check exits 2; extend rebuilds the reflected side and exits 0);
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
    so the formulas it writes are the catenoid's again;
  - configs that must end in one line (exit 1) where they once ended in a
    traceback or wrote non-finite vertices: ``check`` and ``mesh`` (5x5) of an
    f whose quadrature estimate overflows to inf, ``check`` of a g whose normal
    leaves the hyperboloid, and ``extend`` of a lower-sheet contact whose
    |g| is huge on the arc but cosh(1) at its middle, so the angle varies;
    then ``extend`` of the spacelike config with g's constant on log's branch
    cut (``log(-1)``) and ``check`` of the config it writes, which passes;
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
    (exit 1);
  - ``extend`` of a timelike contact with c = 2e-4 whose boundary does not
    lie in a plane, which fails c1_matching (exit 1), and of a lightlike one
    whose g comes within 0.05 of -1 on the boundary, which the obstruction
    rule refuses in one line (exit 1);
  - three orthogonal contacts (c = 0, where g reflects through the real
    line): ``extend``, ``check`` of the config it writes, and ``eval`` at
    two points of the reflected side;
  - ``check`` of a half annulus with a pole of g at a puncture (``g_poles``),
    then ``extend`` across its diameter and ``check`` of what it writes; g
    crosses |g| = 1 about its pole, so both checks fail gauss_hyperboloid
    (exit 1);
  - ``extend`` and ``check`` of two nearly orthogonal timelike contacts,
    ``f = (1+i e z)^2``, ``g = (z+i e)/(1+i e z)`` at e = 3e-8 and 5e-7
    (c = 2e/(1-e^2)), whose g reflects through the timelike locus form of
    that c (all exit 0); then of a half disk of radius 1e-11, whose arc
    positions lie closer than 1e-9 (both exit 0);
  - ``eval`` of the catenoid with ``--at`` given twice (exit 2, no point
    dropped) and outside its domain (exit 1); then ``eval`` on the diameter of
    the extended half annulus, inside its radii at u = 0.5 and u = -0.5
    (exit 0) and at u = radius (exit 1);
  - contacts whose locus is nearly a line or, in the unit of c, nearly
    singular (each exit 0): ``extend`` of the timelike band at e = 1e-8 and
    ``eval`` on its reflected side; ``extend``, ``check`` and ``eval`` of
    the lightlike band ``tangent_band`` at lam = 1e-7 and 1e-8 (c = 1 + lam);
    ``extend`` and ``check`` of the spacelike contact ``lower_sheet`` at
    theta = 1e-6, where |g| = coth(theta/2) is about 2e6;
  - ``mesh`` (9x9) of the four extensions, the surface on both sides of its
    arc;
  - ``extend`` of the timelike config with a ``mesh_range`` and a
    ``mask_eps``, which it writes into the extended config, and ``mesh``
    (5x5) of that config, which reads both;
  - ``eval`` of a g nested in as many calls as the parser's bracket bound
    allows (exit 0) and in one more (exit 2, one line);
  - last, so that no earlier file is renumbered: ``extend`` of the timelike
    config with 1e-7 added to g, whose boundary misses its locus by more than
    LOCUS_TOL (exit 1, one line), and with 3e-8 added (exit 0), then ``check``
    of the config that writes (exit 1: it fails plane_containment alone);
    ``eval``, ``check`` and ``mesh`` of an extended config across a circle
    against a timelike plane, which the contact refuses on load (exit 1, one
    line); ``extend`` of the timelike config with g wrapped in 48 pairs of
    ``exp(log(...))`` (exit 0), whose reflected formulas nest 100 brackets,
    ``eval`` of the config it writes, and in 49 pairs (exit 1, one line: its
    f_minus would not read back); ``eval`` of the timelike config whose f
    is a sum, a product and a run of signs as high as the parser's bound on
    nested operations allows (exit 0), and one level higher (exit 2); and
    the catenoid on an annulus with no puncture at 0, extended across the
    circle where it meets x3 = -0.7 (``extend``, ``eval`` at five points on
    both sides and a 17x17 ``mesh``, all exit 0): the circle's centre is no
    puncture of the domain, so the path detours around it as the arc's pole.

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
ones.  Under each command log (``.txt``) that differs it prints an ``exit a -> b``
line when the exit code changed and a ``passed PATH: a -> b`` line for each JSON
record of stdout whose "passed" value changed, and before the count of files a
count of both.  Under each differing file whose text is the same once its
numbers are masked it prints ``numbers only: N changed, max rel R``, so that a
change at round-off reads apart from a change of text.  It exits 1 when a
file that both captures wrote differs or a file that REV wrote is missing (a
dropped command), else 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from maxsurf.cli import SurfaceConfig, main  # noqa: E402
from maxsurf.expr import _HEIGHT, _NESTING  # noqa: E402
from maxsurf.weierstrass import evaluate_surface  # noqa: E402
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
    # c = 0, which extends now; it keeps its place, so that later logs keep their numbers
    "orthogonal": "f = 1\ng = 0.3*cos(z)\ndomain = upper-half-disk\nradius = 0.7\nz0 = 0.5*i\n"
    "plane = 0,1,0,0.22552898657150722\n",
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
OBSTRUCTIONS = {  # name: config, each refused by extend
    "near-orthogonal": "f = 1\ng = (z+0.0001*i)/(1+0.0001*i*z)\ndomain = upper-half-disk\nradius = 0.7\nz0 = 0.5*i\n"
    "plane = 0,1,0,0.2708478967605986\n",
    "degenerate-lightlike": "f = exp(-i*z)\ng = 0.022222222222222223 + 0.9777777777777777*exp(i*(z+3.141592653589793))\n"
    "domain = upper-half-disk\nradius = 0.7\nz0 = 0.5*i\nplane = 1,0,1,0\n",
}
_HALF = "domain = upper-half-disk\nradius = 0.7\nz0 = 0.5*i\n"
ORTHOGONAL_CONTACTS = {  # name: config; g is real on the axis, and the plane is x2 = d where the boundary lies
    "orthogonal-identity": "f = 1\ng = z\n" + _HALF + "plane = 0,1,0,0.2708333333333333\n",
    "orthogonal-cosine": "f = 1+z^2\ng = 0.3*cos(z)\n" + _HALF + "plane = 0,1,0,0.2068690847387077\n",
    "orthogonal-moebius": "f = exp(z)\ng = (z+0.3)/(1+0.3*z)\n" + _HALF + "plane = 0,1,0,0.24278245556222022\n",
}
ORTHOGONAL_EVALS = ("0.2,-0.3", "-0.35,-0.15")  # on the reflected side
_POLE = "(z-(-0.2+0.6*i))"  # a pole of g at the puncture, where f has a double zero
HALF_ANNULUS_POLES = (  # the boundary lies in x3 = 0.43166666666666664
    f"f = i*exp(-i*z)*{_POLE}^2\ng = exp(i*z)/2*(z-(-0.2-0.6*i))/{_POLE}\ndomain = half-annulus\nradius = 0.9\n"
    "inner_radius = 0.2\npunctures = -0.2+0.6*i\ng_poles = -0.2+0.6*i:1\nz0 = 0.3+0.5*i\nX0 = 0.1,-0.2,0.3\n"
    "tol = 1e-9\nplane = 0,0,1,-0.43166666666666664\n"
)


def orthogonal_band(e: float) -> str:
    """f = (1 + i e z)^2, g = (z + i e)/(1 + i e z) on the radius-0.7 upper half disk, against the timelike
    plane x2 = d that its boundary lies in (d = x2 of X(0)): c = 2 e / (1 - e^2), near orthogonal as e -> 0."""
    head = f"f = (1+{e!r}*i*z)^2\ng = (z+{e!r}*i)/(1+{e!r}*i*z)\n" + _HALF
    return head + f"plane = 0,1,0,{evaluate_surface(SurfaceConfig.from_text(head).data, 0j).x2!r}\n"


def tangent_band(lam: float) -> str:
    """f = i (gamma (z+1.5) + 1)^2, g = (i (z+1.5) + 1)/(gamma (z+1.5) + 1) with gamma = -i lam/(lam+2) on the
    radius-0.7 upper half disk, against the lightlike plane x1 - x3 = d that its boundary lies in (d = x1 - x3
    of X(0)): g sends the axis into the locus of c = 1 + lam, tangential as lam -> 0."""
    gamma = f"{-lam / (lam + 2)!r}*i"
    head = f"f = i*({gamma}*(z+1.5)+1)^2\ng = (i*(z+1.5)+1)/({gamma}*(z+1.5)+1)\n" + _HALF
    X = evaluate_surface(SurfaceConfig.from_text(head).data, 0j)
    return head + f"plane = 1,0,1,{X.x1 - X.x3!r}\n"


def lower_sheet(theta: float) -> str:
    """f = k (1 - i z)^2, g = m i (1 + i z)/(k (1 - i z)) with k = 1 - cosh(theta) and m = -sinh(theta) on the
    radius-0.6 upper half disk, against the spacelike plane x3 = x3 of X(0): |g| = coth(theta/2) on the axis,
    the lower sheet's contact at |c| = cosh(theta), near |c| = 1 as theta -> 0."""
    k, m = 1 - math.cosh(theta), -math.sinh(theta)
    head = (f"f = {k!r}*(1-i*z)^2\ng = ({m!r}*i*(1+i*z))/({k!r}*(1-i*z))\n"
            "domain = upper-half-disk\nradius = 0.6\nz0 = 0.3*i\n")
    return head + f"plane = 0,0,1,{-evaluate_surface(SurfaceConfig.from_text(head).data, 0j).x3!r}\n"


LATE_CONTACTS = {  # name: config, each extended and its output checked after the rest
    "near-orthogonal-3e-08": orthogonal_band(3e-8),
    "near-orthogonal-5e-07": orthogonal_band(5e-7),
    # the config of tests/test_cli.py::test_extend_on_a_tiny_domain_keeps_its_arc_positions_apart
    "tiny-domain": "f = i*exp(-i*z)\ng = exp(i*z)/2\ndomain = upper-half-disk\nradius = 1e-11\nz0 = 0.5e-11*i\n"
    "X0 = 0,0,0\ntol = 1e-10\nplane = 0,0,1,-2.5e-12\n",
}

MESH_KEYS = BASE_CONFIGS["timelike"] + "mesh_range = -0.5,0.5,-0.4,0.4\nmask_eps = 1e-6\n"
NESTED = {f"nested-{n}": f"f = 1\ng = {'sin(' * n}z{')' * n}\ndomain = disk\nradius = 0.5\nz0 = 0\n"
          for n in (_NESTING, _NESTING + 1)}

_G = "g = -i + sqrt(2)*i*exp(i*z)"  # the timelike config's g
LOCUS_OFFSETS = {  # name: the timelike config with a constant added to g, off its locus by 2.75e-8 and 8.3e-9
    f"locus-{d}": BASE_CONFIGS["timelike"].replace(_G, f"{_G}+{d}") for d in ("1e-07", "3e-08")
}
ARC_RULE = (  # the plane is timelike: a circle arc extends across spacelike planes only
    "f = 1\ng = -i + sqrt(2)*i*exp(0.1*i*(z/0.5 + 0.5/z))\ndomain = annulus\nradius = 1\ninner_radius = 0.2\n"
    "boundary_circle = 0.5\nz0 = 0.8\nplane = 0,1,0,0\nf_minus = 1\ng_minus = -i + sqrt(2)*i*exp(0.1*i*(z/0.5 + 0.5/z))\n"
)
PAIRS = {f"pairs-{n}": BASE_CONFIGS["timelike"].replace(_G, f"g = {'exp(log(' * n}{_G[4:]}{'))' * n}") for n in (48, 49)}
_F = "exp(-i*z)"  # the timelike config's f, two operations high
SHAPES = {  # name: the timelike config with f as high as the parser allows, or one operation higher
    f"{shape}-{_HEIGHT + k}": BASE_CONFIGS["timelike"].replace(f"f = {_F}", f"f = {make(_HEIGHT - 2 + k)}")
    for shape, make in (("sum", lambda n: _F + "+0" * n), ("product", lambda n: _F + "*1" * n),
                        ("signs", lambda n: "-" * n + _F))
    for k in (0, 1)
}

ANNULUS_ARC = (  # the catenoid on an annulus: the arc's centre, 0, is not a puncture of the domain
    "f = 1/z^2\ng = z\ndomain = annulus\nradius = 1\ninner_radius = 0.2\nz0 = 1\nX0 = 0,0,0\ntol = 1e-10\n"
    f"plane = 0,0,1,0.7\nboundary_circle = {RHO!r}\n"
)
ANNULUS_ARC_EVALS = ("0.3,0.1", "-0.35,0.2", "0.7,-0.2", "-0.1,-0.45", "0.25,0.04")

_REFLECTED = "--at=0.2,-0.3"  # a point of the reflected side of the upper half disks
NEAR_LINE_CONTACTS = {  # name: (config, what runs on the config its extend writes), run last
    "near-orthogonal-1e-08": (orthogonal_band(1e-8), [["eval", _REFLECTED]]),
    "near-tangent-1e-07": (tangent_band(1e-7), [["check"], ["eval", _REFLECTED]]),
    "near-tangent-1e-08": (tangent_band(1e-8), [["check"], ["eval", _REFLECTED]]),
    "lower-sheet-1e-06": (lower_sheet(1e-6), [["check"]]),
}


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
    cmds += [(f"extend-{name}", ["extend", f"{name}.cfg", "-o", f"{name}.ext.cfg"]) for name in OBSTRUCTIONS]
    for name in ORTHOGONAL_CONTACTS:
        cmds += [(f"extend-{name}", ["extend", f"{name}.cfg", "-o", f"{name}.ext.cfg"]),
                 (f"check-{name}.ext", ["check", f"{name}.ext.cfg"])]
        cmds += [(f"eval-{name}.ext-{k}", ["eval", f"{name}.ext.cfg", f"--at={at}"])
                 for k, at in enumerate(ORTHOGONAL_EVALS)]
    cmds += [
        ("check-half-annulus-poles", ["check", "half-annulus-poles.cfg"]),
        ("extend-half-annulus-poles", ["extend", "half-annulus-poles.cfg", "-o", "half-annulus-poles.ext.cfg"]),
        ("check-half-annulus-poles.ext", ["check", "half-annulus-poles.ext.cfg"]),
    ]
    for name in LATE_CONTACTS:
        cmds += [(f"extend-{name}", ["extend", f"{name}.cfg", "-o", f"{name}.ext.cfg"]),
                 (f"check-{name}.ext", ["check", f"{name}.ext.cfg"])]
    cmds += [
        ("eval-catenoid-repeated-at", ["eval", "catenoid.cfg", "--at=0.5,0.3", "--at=0.4,0.2"]),
        ("eval-catenoid-outside", ["eval", "catenoid.cfg", "--at=2,0"]),
    ]
    arc = "half-annulus-poles.ext"  # its diameter: the two halves between the radii, then the outer end
    cmds += [(f"eval-{arc}-arc-u{u}", ["eval", f"{arc}.cfg", f"--at={u},0"]) for u in ("0.5", "-0.5")]
    cmds.append((f"eval-{arc}-arc-end", ["eval", f"{arc}.cfg", "--at=0.9,0"]))
    for name, (_, runs) in NEAR_LINE_CONTACTS.items():
        cmds.append((f"extend-{name}", ["extend", f"{name}.cfg", "-o", f"{name}.ext.cfg"]))
        cmds += [(f"{command}-{name}.ext", [command, f"{name}.ext.cfg", *args]) for command, *args in runs]
    cmds += [(f"mesh-{name}.ext", ["mesh", f"{name}.ext.cfg", "--grid", "9x9", "-o", f"{name}.ext.obj"])
             for name in EXTENDABLE]
    cmds += [("extend-mesh-keys", ["extend", "mesh-keys.cfg", "-o", "mesh-keys.ext.cfg"]),
             ("mesh-mesh-keys.ext", ["mesh", "mesh-keys.ext.cfg", "--grid", "5x5", "-o", "mesh-keys.ext.obj"])]
    cmds += [(f"eval-{name}", ["eval", f"{name}.cfg", "--at=0.1,0.2"]) for name in NESTED]
    cmds += [(f"extend-{name}", ["extend", f"{name}.cfg", "-o", f"{name}.ext.cfg"]) for name in LOCUS_OFFSETS]
    cmds.append(("check-locus-3e-08.ext", ["check", "locus-3e-08.ext.cfg"]))
    cmds += [(f"{command}-arc-rule.ext", [command, "arc-rule.ext.cfg", *args])
             for command, *args in (("eval", "--at=0.3,0.1"), ("check",), ("mesh", "--grid", "9x9", "-o", "arc-rule.obj"))]
    cmds += [(f"extend-{name}", ["extend", f"{name}.cfg", "-o", f"{name}.ext.cfg"]) for name in PAIRS]
    cmds.append(("eval-pairs-48.ext", ["eval", "pairs-48.ext.cfg", _REFLECTED]))
    cmds += [(f"eval-{name}", ["eval", f"{name}.cfg", "--at=0.3,0.1"]) for name in SHAPES]
    cmds.append(("extend-annulus-arc", ["extend", "annulus-arc.cfg", "-o", "annulus-arc.ext.cfg"]))
    cmds += [(f"eval-annulus-arc.ext-{k}", ["eval", "annulus-arc.ext.cfg", f"--at={at}"])
             for k, at in enumerate(ANNULUS_ARC_EVALS)]
    cmds.append(("mesh-annulus-arc.ext",
                 ["mesh", "annulus-arc.ext.cfg", "--grid", "17x17", "-o", "annulus-arc.ext.obj"]))
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
    inputs = {name: text for name, (text, _) in
              {**INPUT_FAULTS, **ONE_LINE_FAULTS, **SQUARE_OVERFLOWS, **NEAR_LINE_CONTACTS}.items()}
    configs = {**BASE_CONFIGS, **meshes, **FAULT_CONFIGS, **EXTENSION_FAULTS, **inputs, **OBSTRUCTIONS,
               **ORTHOGONAL_CONTACTS, "tangential-lightlike": TANGENTIAL_CONTACT, **LATE_CONTACTS, **NESTED,
               **LOCUS_OFFSETS, "arc-rule.ext": ARC_RULE, **PAIRS, **SHAPES, "annulus-arc": ANNULUS_ARC}
    configs["half-annulus-poles"], configs["mesh-keys"] = HALF_ANNULUS_POLES, MESH_KEYS
    for name, text in configs.items():
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


def verdicts(text: str) -> tuple[str | None, dict[str, bool]]:
    """A command log's exit code (None if the text is not a log) and the "passed" value of each JSON
    record on its stdout, by the record's path: "report" for the whole report, else its keys joined
    by "/", a list entry named by its "name" where it has one."""
    lines = text.split("\n", 2)
    if len(lines) < 3 or not lines[1].startswith("exit "):
        return None, {}
    stdout = text.partition("\n--- stdout\n")[2].partition("--- stderr\n")[0]
    try:
        report = json.loads(stdout)
    except ValueError:
        return lines[1][5:], {}
    found = {}

    def walk(node, path):
        if isinstance(node, list):
            for k, item in enumerate(node):
                label = item.get("name", k) if isinstance(item, dict) else k
                walk(item, f"{path}/{label}")
        elif isinstance(node, dict):
            if isinstance(node.get("passed"), bool):
                found[path or "report"] = node["passed"]
            for key, value in node.items():
                walk(value, f"{path}/{key}" if path else key)

    walk(report, "")
    return lines[1][5:], found


def verdict_changes(base: str, change: str) -> list[str]:
    """How two logs of one command part in what they decide: an "exit a -> b" line when the exit code
    changed, then one "passed PATH: a -> b" line per record in both whose "passed" value changed."""
    (code0, passed0), (code1, passed1) = verdicts(base), verdicts(change)
    out = [f"exit {code0} -> {code1}"] if code0 != code1 else []
    return out + [f"passed {path}: {json.dumps(passed0[path])} -> {json.dumps(passed1[path])}"
                  for path in passed0 if path in passed1 and passed0[path] != passed1[path]]


_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")  # unsigned: a sign stays in the text


def number_changes(base: str, change: str) -> str | None:
    """For two texts that are equal once every number is masked, a "numbers only: N changed, max rel R"
    line: how many numbers changed and the largest |a - b| / max(|a|, |b|) among them; else None."""
    if _NUMBER.sub("#", base) != _NUMBER.sub("#", change):
        return None
    pairs = [(float(a), float(b)) for a, b in zip(_NUMBER.findall(base), _NUMBER.findall(change)) if a != b]
    rel = max((abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0 for a, b in pairs), default=0.0)
    return f"numbers only: {len(pairs)} changed, max rel {rel:.1e}"


def extract(rev: str, dest: str) -> None:
    """Write the files of the git revision REV of this checkout into dest, through ``git archive``, so
    that nothing is written under ``.git``."""
    tree = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
        tar.extractall(dest, filter="data")


def against(rev: str, outdir: Path) -> int:
    """Capture REV into outdir/base and this checkout into outdir/change, print how they differ, and
    return 1 when a file both wrote differs or one REV wrote is missing."""
    base, change = outdir / "base", outdir / "change"
    for d in (base, change):
        if d.exists() and any(d.iterdir()):
            sys.exit(f"{d} is not empty")
    with tempfile.TemporaryDirectory() as tmp:
        extract(rev, tmp)
        subprocess.run([sys.executable, str(Path(tmp) / "tools" / "capture_outputs.py"), str(base)], check=True)
    capture(change)
    differ, added, missing, same = compare(base, change)
    changes = []
    for label, names in (("differs", differ), ("added", added), ("missing", missing)):
        for name in names:
            print(f"{label}: {name}")
            if label == "differs":
                texts = (base / name).read_text(), (change / name).read_text()
                lines = verdict_changes(*texts) if name.endswith(".txt") else []
                changes += lines
                numbers = number_changes(*texts)
                print("".join(f"  {line}\n" for line in lines + ([numbers] if numbers else [])), end="")
    exits = sum(line.startswith("exit ") for line in changes)
    print(f'{exits} exit-code changes, {len(changes) - exits} "passed" changes')
    print(f"{same} identical, {len(differ)} differ, {len(added)} added, {len(missing)} missing")
    return 1 if differ or missing else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--against":
        sys.exit(against(sys.argv[2], Path(sys.argv[3]).resolve()))
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    capture(Path(sys.argv[1]).resolve())
