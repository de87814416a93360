"""Command-line front end.

Commands (exit codes: 0 pass, 1 hypothesis or check failure, 2 input error):

    maxsurf check CONFIG            run the diagnostic suite, print JSON
    maxsurf eval CONFIG --at u,v    print X, N and the conformal factor
    maxsurf extend CONFIG -o OUT    extend across the configured plane
    maxsurf mesh CONFIG --grid NxM -o OUT.obj   triangulated export of the config's surface
    maxsurf catenoid                print the built-in reference config

Config files are flat key = value text, their keys declared once in ``_KEYS``;
see the README for the schema.
Expression values use the library's expression syntax, complex constants may
be written with that syntax too (e.g. ``z0 = 1+2*i``).  All outputs are
deterministic byte for byte for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .expr import _HEIGHT, _NESTING, Const, EvalError, ParseError, evaluate, format_expr, parse, substitute
from .extension import CASES, DegenerateContactWarning, ExtendedSurface, ExtensionError, extend, measure_contact
from .minkowski import LVector, Plane, plane_class
from .verify import GridSpec, _json_text, full_diagnostics
from .weierstrass import (
    DegenerateMetricError,
    Domain,
    DomainKind,
    PhiTriple,
    QuadratureConfig,
    SurfaceError,
    WeierstrassData,
    _HALF_KINDS,
    _gauss_arrays,
    _phi_values,
    conformal_factor,
    evaluate_surface,
    gauss_map,
    surface_tree,
)

__all__ = ["ConfigError", "SurfaceConfig", "SurfaceMesh", "build_mesh", "main"]


class ConfigError(Exception):
    def __init__(self, fieldname: str, message: str):
        super().__init__(f"field '{fieldname}': {message}")
        self.fieldname = fieldname


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(key, "unknown key")
        if key in out:
            raise ConfigError(key, "duplicate key")
        out[key] = value
    return out


def _expr(text: str, key: str):
    try:
        return parse(text)
    except ParseError as exc:
        raise ConfigError(key, str(exc)) from None


def _complex(text: str, key: str) -> complex:
    try:
        e = parse(text)
        if substitute(e, Const(0)) != e:  # a constant is a tree without z
            raise ConfigError(key, f"not a complex constant: {text!r} depends on z")
        return evaluate(e, 0j)
    except (ParseError, EvalError) as exc:
        raise ConfigError(key, f"not a complex constant: {exc}") from None


def _finite(text: str, key: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise ConfigError(key, "not a number") from None
    if not math.isfinite(x):
        raise ConfigError(key, f"must be finite, got {x}")
    return x


def _numbers(text: str, key: str, layout: str) -> tuple[float, ...]:
    """Comma-separated finite numbers laid out as ``layout``, e.g. "u,v"."""
    parts = text.split(",")
    if len(parts) != layout.count(",") + 1:
        raise ConfigError(key, f"expected {layout}")
    return tuple(_finite(p, key) for p in parts)


def _plane(text: str, key: str) -> Plane:
    nx, ny, nz, d = _numbers(text, key, "nx,ny,nz,d")
    try:
        return Plane(LVector(nx, ny, nz), d)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def _domain_kind(text: str, key: str) -> DomainKind:
    try:
        return DomainKind(text)
    except ValueError:
        raise ConfigError(key, f"must be one of: {', '.join(k.value for k in DomainKind)}") from None


def _pole(text: str, key: str) -> tuple[complex, int]:
    if ":" not in text:
        raise ConfigError(key, "entries must be 'location:order'")
    loc, order = text.rsplit(":", 1)
    try:
        return _complex(loc.strip(), key), int(order)
    except ValueError:
        raise ConfigError(key, "order must be an integer") from None


def _positive(text: str, key: str) -> float:
    x = _finite(text, key)
    if x <= 0:
        raise ConfigError(key, "must be positive")
    return x


def _listed(read):
    """A reader of comma-separated entries, each read by ``read``; an empty text is none."""
    return lambda text, key: tuple(read(part.strip(), key) for part in text.split(",")) if text else ()


_REQUIRED = object()
# The config keys in order, three runs of key -> (reader of its text, value when absent or _REQUIRED).
# A config reads them in this order, so it reports its first fault in it: the domain is built after
# the surface keys, the basepoint checked after X0.  ``extend`` writes its keys in this order too.
_SURFACE_KEYS = {
    "f": (_expr, _REQUIRED),
    "g": (_expr, _REQUIRED),
    "domain": (_domain_kind, _REQUIRED),
    "radius": (_finite, 1.0),
    "inner_radius": (_finite, 0.0),
    "boundary_circle": (_finite, None),
    "punctures": (_listed(_complex), ()),
    "g_poles": (_listed(_pole), ()),
}
_BASEPOINT_KEYS = {
    "z0": (_complex, _REQUIRED),
    "X0": (lambda text, key: LVector(*_numbers(text, key, "x1,x2,x3")), LVector(0, 0, 0)),
}
_MINUS_KEYS = ("f_minus", "g_minus")  # both or neither
_OTHER_KEYS = {
    "tol": (_positive, 1e-10),
    "plane": (_plane, None),
    "f_minus": (_expr, None),
    "g_minus": (_expr, None),
    "reflected": (lambda text, key: text, ""),
    "mesh_range": (lambda text, key: _numbers(text, key, "a0,a1,b0,b1"), None),
    "mask_eps": (_finite, 1e-8),
}
_KEYS = {**_SURFACE_KEYS, **_BASEPOINT_KEYS, **_OTHER_KEYS}


def _read(raw: dict[str, str], keys: dict, required=()) -> list:
    """The value of each of ``keys`` in order: its reader's on its text, else its value when absent;
    a key that is _REQUIRED or in ``required`` and absent is a ConfigError."""
    values = []
    for key, (read, absent) in keys.items():
        if key in raw:
            values.append(read(raw[key], key))
        elif absent is _REQUIRED or key in required:
            raise ConfigError(key, "missing")
        else:
            values.append(absent)
    return values


@dataclass
class SurfaceConfig:
    """Parsed configuration; builds the surface and optional plane/extension."""

    data: WeierstrassData
    tol: float
    plane: Plane | None = None
    mask_eps: float = 1e-8
    mesh_range: tuple[float, float, float, float] | None = None
    minus_exprs: tuple | None = None  # (f_minus, g_minus, reflected or "") for extended configs
    source_bytes: bytes = b""

    @classmethod
    def from_text(cls, text: str) -> "SurfaceConfig":
        raw = parse_config_text(text)
        f, g, kind, radius, inner_radius, boundary_circle, punctures, g_poles = _read(raw, _SURFACE_KEYS)
        try:
            domain = Domain(kind, radius, inner_radius, punctures, boundary_circle)
        except ValueError as exc:
            raise ConfigError("domain", str(exc)) from None
        z0, X0 = _read(raw, _BASEPOINT_KEYS)
        try:
            data = WeierstrassData(f, g, domain, z0, X0)
        except ValueError as exc:
            raise ConfigError("z0", str(exc)) from None
        try:
            data = replace(data, g_poles=g_poles)
        except ValueError as exc:
            raise ConfigError("g_poles", str(exc)) from None
        paired = _MINUS_KEYS if not raw.keys().isdisjoint(_MINUS_KEYS) else ()
        tol, plane, fm, gm, reflected, mesh_range, mask_eps = _read(raw, _OTHER_KEYS, paired)
        minus = None if fm is None else (fm, gm, reflected)
        return cls(data, tol, plane, mask_eps, mesh_range, minus, text.encode())

    @classmethod
    def from_file(cls, path: str) -> "SurfaceConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("config", str(exc)) from None
        return cls.from_text(text)

    def extended_surface(self) -> WeierstrassData | ExtendedSurface:
        """The config's one surface: its patch, or the extension its minus formulas and plane rebuild."""
        if self.minus_exprs is None:
            return self.data
        if self.plane is None:
            raise ConfigError("plane", "extended config needs the plane")
        fm, gm, reflected = self.minus_exprs
        case = CASES[plane_class(self.plane)]
        if reflected and reflected != case.reflected:
            raise ConfigError(
                "reflected",
                f"a {case.kind.value} plane reflects '{case.reflected}', not '{reflected}'",
            )
        return ExtendedSurface(self.data, measure_contact(self.data, self.plane), gm, fm)


def _f17(x: float) -> str:
    return f"{x:.17g}"


CATENOID_CONFIG = """\
# Lorentzian catenoid patch (inner sheet, |g| < 1)
f = 1/z^2
g = z
domain = punctured-disk
radius = 1
punctures = 0
z0 = 1
X0 = 0,0,0
tol = 1e-10
# A spacelike plane x3 = b (b < 0) meets this patch in the circle |z| = e^b.
# For an extension across it, add for example:
#   plane = 0,0,1,0.7
#   boundary_circle = 0.49658530379140951
"""


# ---------------------------------------------------------------------------
# meshes

@dataclass
class SurfaceMesh:
    """A triangulated grid as arrays, one row per vertex, triangle or cell.

    ``vertices`` (n, 3) holds X, zero outside the domain closure;
    ``conformal`` (n,) the conformal factor, 0.0 outside; ``gauss`` (n, 3)
    the Gauss normal, a NaN row outside or where it degenerates;
    ``triangles`` (m, 3) 0-based vertex indices; ``masked_cells`` (k, 2)
    the (i, j) of each cell without triangles.
    """

    vertices: np.ndarray
    gauss: np.ndarray
    conformal: np.ndarray
    triangles: np.ndarray
    masked_cells: np.ndarray
    shape: tuple[int, int]


def _mesh_parameters(surface, mesh_range):
    domain = surface.original.domain
    polar = domain.kind in (DomainKind.ANNULUS, DomainKind.PUNCTURED_DISK)
    if mesh_range is not None:
        return polar, mesh_range
    R = domain.radius
    if polar:
        r0 = domain.inner_radius if domain.inner_radius > 0 else 0.05 * R
        return True, (r0, R, -math.pi, math.pi)
    if domain.kind in _HALF_KINDS:  # mirrored where a contact reflects it below the diameter
        return False, (-0.7 * R, 0.7 * R, -0.7 * R if surface.contact is not None else 0.05 * R, 0.7 * R)
    s = 0.7 * R
    return False, (-s, s, -s, s)


def _grid_forest(points: np.ndarray, valid: np.ndarray, nv: int, z0: complex):
    """Breadth-first spanning forest of the valid vertices of a row-major grid.

    Edges join 4-neighbours, visited along the row (j) before across it
    (i).  Each component is rooted at its valid vertex nearest z0, the
    lowest index on ties.  Returns the vertex indices in visiting order
    and, for each, the position of its parent in that order (-1 for a root).
    On the grid padded with invalid vertices, one flag tests a neighbour."""
    inside = np.flatnonzero(valid)
    near = np.hypot(points.real[inside] - z0.real, points.imag[inside] - z0.imag)  # abs(points - z0), rounded alike
    w = nv + 2  # a padded row
    padded = np.zeros((len(points) // nv + 2, w), dtype=bool)
    padded[1:-1, 1:-1] = valid.reshape(-1, nv)
    open_ = padded.ravel().tolist()
    order: list[int] = []
    parents: list[int] = []
    for root in (inside + inside // nv * 2 + w + 1)[np.argsort(near, kind="stable")].tolist():
        if not open_[root]:
            continue
        open_[root] = False
        order.append(root)
        parents.append(-1)
        head = len(order) - 1
        while head < len(order):
            k = order[head]
            for m in (k - 1, k + 1, k - w, k + w):
                if open_[m]:
                    open_[m] = False
                    order.append(m)
                    parents.append(head)
            head += 1
    padded_order = np.array(order, dtype=np.intp)
    return padded_order - padded_order // w * 2 - nv - 1, parents


def build_mesh(
    surface: WeierstrassData | ExtendedSurface,
    nu: int,
    nv: int,
    mask_eps: float = 1e-8,
    q: QuadratureConfig = QuadratureConfig(),
    mesh_range=None,
) -> SurfaceMesh:
    """Evaluate an nu x nv parameter grid of a patch or an extended surface and triangulate unmasked cells.

    The grid is an outer product of rows and columns; its vertices in the
    closure of the surface's ``contains`` (``surface.sides``) are valid.  X
    is summed down a breadth-first spanning forest of grid edges between
    valid vertices: a root (the valid vertex of its component nearest z0)
    is integrated from z0, every other vertex from its parent along the grid
    edge between them, with tol / (forest depth + 1) per edge so each
    vertex still meets tol (``weierstrass.surface_tree``: all edges in one
    array batch and, where it fails, the failed edges one by one through
    integrate_path, so a failing mesh raises what its first failing edge
    raises).  The conformal factor and Gauss normal of the valid vertices
    come from one array evaluation of the field and of g per side, on the
    data of the side that holds there; a vertex with a non-finite value
    there is redone by conformal_factor and gauss_map.  The mesh holds
    arrays (see ``SurfaceMesh``).

    Cells touching a vertex with conformal factor below mask_eps (the
    degenerate locus |g| = 1) or an invalid vertex are masked and carry no
    triangles.
    """
    if nu < 2 or nv < 2:
        raise ValueError("grid must be at least 2x2")
    polar, (a0, a1, b0, b1) = _mesh_parameters(surface, mesh_range)
    a = a0 + (a1 - a0) * np.arange(nu)[:, None] / (nu - 1)
    b = b0 + (b1 - b0) * np.arange(nv) / (nv - 1)
    if polar:  # the radii times each column's cosine and sine
        a, b = a * [math.cos(t) for t in b.tolist()], a * [math.sin(t) for t in b.tolist()]
    z = np.empty((nu, nv), dtype=complex)
    z.real, z.imag = a, b
    z = z.ravel()
    sides = surface.sides(z)
    inside = np.logical_or.reduce([at for _, at in sides])
    order, parents = _grid_forest(z, inside, nv, surface.original.z0)
    vertices = np.zeros((len(z), 3))
    vertices[order] = surface_tree(surface, z[order], parents, q)
    conformal = np.zeros(len(z))
    gauss = np.full((len(z), 3), np.nan)
    for side, at in sides:
        conformal[at], gauss[at] = _vertex_attributes(side, z[at])
    # a cell is masked when a corner is outside or degenerate (a NaN factor is not below mask_eps)
    keep = (inside & ~(conformal < mask_eps)).reshape(nu, nv)
    cells = keep[:-1, :-1] & keep[:-1, 1:] & keep[1:, :-1] & keep[1:, 1:]
    k00 = np.flatnonzero(cells.ravel())
    k00 = k00 + k00 // (nv - 1)  # cell (i, j) -> vertex i * nv + j
    corners = np.stack((k00, k00 + 1, k00 + nv + 1, k00, k00 + nv + 1, k00 + nv), axis=1)
    return SurfaceMesh(vertices, gauss, conformal, corners.reshape(-1, 3), np.argwhere(~cells), (nu, nv))


def _vertex_attributes(data: WeierstrassData, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conformal factor (n,) and Gauss normal (n, 3), a NaN row where
    |1 - |g|^2| < GAUSS_EPS, at each point, from one fg_array call.  A
    point with a non-finite value is redone by conformal_factor and
    gauss_map, which give its value or raise as they would alone."""
    f, g = data.fg_array(z)
    with np.errstate(all="ignore"):
        lam = PhiTriple(*_phi_values(f, g)).density()
    normal, degenerate = _gauss_arrays(g)
    rerun = np.flatnonzero(~(np.isfinite(lam) & np.isfinite(normal).all(axis=1)))
    normal[degenerate] = np.nan
    for k in rerun.tolist():
        zk = complex(z[k])
        lam[k] = conformal_factor(data, zk)
        try:
            normal[k] = gauss_map(data, zk).as_tuple()
        except DegenerateMetricError:
            normal[k] = np.nan
    return lam, normal


def write_obj(mesh: SurfaceMesh, path: str, config_sha: str, mask_eps: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# maxsurf {__version__}\n# config sha256 {config_sha}\n")
        fh.write(f"# grid {mesh.shape[0]}x{mesh.shape[1]} mask_eps {_f17(mask_eps)}\n")
        fh.write("v %.17g %.17g %.17g\n" * len(mesh.vertices) % tuple(mesh.vertices.ravel().tolist()))
        fh.write("f %d %d %d\n" * len(mesh.triangles) % tuple((mesh.triangles + 1).ravel().tolist()))


_SIDECAR_BLOCK = 1024  # vertex rows formatted and written at a time
_ROW = ',\n    {\n      "conformal_factor": %s,\n      "gauss": '
_ROWS = (_ROW + "null\n    }", _ROW + "[\n        %s,\n        %s,\n        %s\n      ]\n    }")  # without, with a normal


def write_sidecar(mesh: SurfaceMesh, path: str, config_sha: str) -> None:
    """Per-vertex attributes as JSON, written directly: the bytes are those of
    json.dumps(payload, sort_keys=True, indent=2) + "\n" for the payload
    {config_sha256, format, note, vertices: [{conformal_factor, gauss}]}.
    A block of rows is one ``%`` over their values, the conformal factor and
    then the normal if any (a NaN row marks none): a finite float's repr is
    its JSON, and json's NaN, Infinity or -Infinity go in as text."""
    table = np.column_stack((mesh.conformal, mesh.gauss))
    normal = ~np.isnan(table[:, 1])
    keep = np.column_stack((np.ones_like(normal), normal, normal, normal))
    note = "vertices are listed in OBJ order (1-based index = position + 1)"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'{{\n  "config_sha256": {json.dumps(config_sha)},\n'
            f'  "format": {json.dumps("maxsurf-mesh-attributes/1")},\n'
            f'  "note": {json.dumps(note)},\n  "vertices": ['
        )
        for start in range(0, len(table), _SIDECAR_BLOCK):
            block = slice(start, start + _SIDECAR_BLOCK)
            flat = table[block][keep[block]]
            values = flat.tolist()
            for k in np.flatnonzero(~np.isfinite(flat)).tolist():
                values[k] = json.dumps(values[k])
            rows = "".join(map(_ROWS.__getitem__, normal[block].tolist()))
            fh.write((rows[1:] if start == 0 else rows) % tuple(values))  # no comma before the first row
        fh.write("\n  ]\n}\n" if len(table) else "]\n}\n")


# ---------------------------------------------------------------------------
# commands

def _config_sha(cfg: SurfaceConfig) -> str:
    return hashlib.sha256(cfg.source_bytes).hexdigest()


def _quadrature(tol: float | None, cfg: SurfaceConfig) -> QuadratureConfig:
    """The config's quadrature settings, with the --tol flag taking precedence; the config's tol
    is already positive and finite."""
    try:
        return QuadratureConfig(tol=cfg.tol if tol is None else tol)
    except ValueError as exc:
        raise ConfigError("--tol", f"{exc}, got {tol}") from None


GRID_MAX = 512
"""The largest side of a --grid that check and mesh accept (512x512 is 262,144 points)."""


def _parse_grid(text: str, minimum: int) -> tuple[int, int]:
    """NxM with both sides between ``minimum`` and GRID_MAX, else ConfigError."""
    try:
        n1, n2 = text.lower().split("x")
        n1, n2 = int(n1), int(n2)
    except ValueError:
        raise ConfigError("--grid", "expected NxM") from None
    if not (minimum <= n1 <= GRID_MAX and minimum <= n2 <= GRID_MAX):
        raise ConfigError("--grid", f"each side must be between {minimum} and {GRID_MAX}, got {text}")
    return n1, n2


def cmd_check(args) -> int:
    grid = GridSpec()
    if args.grid:
        n1, n2 = _parse_grid(args.grid, 1)
        grid = GridSpec(n_radial=n1, n_angular=n2)
    cfg = SurfaceConfig.from_file(args.config)
    q = _quadrature(args.tol, cfg)
    report = full_diagnostics(cfg.extended_surface(), grid, q)
    _stdout(report.to_json() + "\n")
    return 0 if report.passed else 1


def cmd_eval(args) -> int:
    cfg = SurfaceConfig.from_file(args.config)
    at, *more = args.at
    if more:
        raise ConfigError("--at", f"given {len(args.at)} times; eval takes one point")
    z = complex(*_numbers(at, "--at", "u,v"))
    q = _quadrature(args.tol, cfg)
    surface = cfg.extended_surface()
    if not surface.contains(z):
        sys.stderr.write(f"error: point {z} outside the {surface.region}\n")
        return 1
    X, side = evaluate_surface(surface, z, q), surface.side(z)
    _stdout(f"X = ({_f17(X.x1)}, {_f17(X.x2)}, {_f17(X.x3)})\n")
    lam = conformal_factor(side, z)
    try:
        N = gauss_map(side, z)
        _stdout(f"N = ({_f17(N.x1)}, {_f17(N.x2)}, {_f17(N.x3)})\n")
    except DegenerateMetricError:
        _stdout("N = degenerate (|g| = 1)\n")
    _stdout(f"conformal_factor = {_f17(lam)}\n")
    return 0


def _extended_config_text(cfg: SurfaceConfig, ext: ExtendedSurface) -> str:
    """The extended config: in table order, each key this map gives a text (so none of inner_radius,
    boundary_circle, punctures or g_poles that the domain lacks, and no mesh key the source left at its default)."""
    data, p = ext.original, ext.contact.plane
    dom = data.domain
    text = {
        "f": format_expr(data.f),
        "g": format_expr(data.g),
        "domain": dom.kind.value,
        "radius": _f17(dom.radius),
        "inner_radius": _f17(dom.inner_radius) if dom.inner_radius else "",
        "boundary_circle": "" if dom.boundary_circle is None else _f17(dom.boundary_circle),
        "punctures": ", ".join(_fmt_complex(z) for z in dom.punctures),
        "g_poles": ", ".join(f"{_fmt_complex(z)}:{m}" for z, m in data.g_poles),
        "z0": _fmt_complex(data.z0),
        "X0": f"{_f17(data.X0.x1)},{_f17(data.X0.x2)},{_f17(data.X0.x3)}",
        "tol": _f17(cfg.tol),
        "plane": f"{_f17(p.n.x1)},{_f17(p.n.x2)},{_f17(p.n.x3)},{_f17(p.d)}",
        "f_minus": _read_back(format_expr(ext.f_minus), "f_minus"),
        "g_minus": _read_back(format_expr(ext.g_minus), "g_minus"),
        "reflected": ext.reflected,
        "mesh_range": ",".join(map(_f17, cfg.mesh_range or ())),
        "mask_eps": "" if cfg.mask_eps == _OTHER_KEYS["mask_eps"][1] else _f17(cfg.mask_eps),
    }
    lines = [f"{key} = {text[key]}" for key in _KEYS if text.get(key)]
    return "# extended surface emitted by maxsurf extend\n" + "\n".join(lines) + "\n"


def _read_back(text: str, key: str) -> str:
    """A reflected formula's text, refused with an ExtensionError where the parser would refuse it when
    its file is read.  Each nested operation and each open bracket takes an operator character, so a
    text with no more of them than the parser's bounds needs no parse."""
    if sum(map(text.count, "+-*/^(")) > min(_NESTING, _HEIGHT):
        try:
            parse(text)
        except ParseError as exc:
            raise ExtensionError(f"{key} would not read back: {exc}") from None
    return text


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return _f17(z.real)
    if z.real == 0:
        return f"{_f17(z.imag)}*i"
    sign = "+" if z.imag > 0 else "-"
    return f"{_f17(z.real)}{sign}{_f17(abs(z.imag))}*i"


def _extend_report(ext: ExtendedSurface) -> dict:
    c = ext.contact
    return {
        "format": "maxsurf-extension/1",
        "contact": {
            "c": c.c,
            "deviation": c.deviation,
            "plane_kind": c.plane_kind.value,
            "theta": c.theta,
            "lam": c.lam,
            "sheet": c.sheet,
            "locus": c.locus.describe(),
            "locus_mismatch": c.locus_mismatch,
            "boundary": "circle" if c.boundary.a else "segment",
        },
        "matching": {
            "passed": ext.matching.passed,
            "tolerance": ext.matching.tol,
            "gaps": dict(sorted(ext.matching.gaps.items())),
        },
        "reflected_coordinate": ext.reflected,
    }


def cmd_extend(args) -> int:
    cfg = SurfaceConfig.from_file(args.config)
    plane = _plane(args.plane, "--plane") if args.plane else cfg.plane
    if plane is None:
        raise ConfigError("plane", "missing (config key or --plane)")
    try:
        ext = extend(cfg.data, plane)
        report = _json_text(_extend_report(ext)) + "\n"
        text = _extended_config_text(cfg, ext)
    except ExtensionError as exc:
        sys.stderr.write(f"extension failed: {exc}\n")
        return 1
    out = args.output or (args.config + ".extended")
    try:  # opened only once the text is built, so a fault while building it leaves an earlier file as it was
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {out}: {exc}\n")
        return 2
    _stdout(report)  # only once the extension is written
    return 0 if ext.matching.passed else 1


def cmd_mesh(args) -> int:
    nu, nv = _parse_grid(args.grid, 2)
    cfg = SurfaceConfig.from_file(args.config)
    q = _quadrature(args.tol, cfg)
    mesh = build_mesh(cfg.extended_surface(), nu, nv, cfg.mask_eps, q, cfg.mesh_range)
    sha = _config_sha(cfg)
    try:
        write_obj(mesh, args.output, sha, cfg.mask_eps)
        write_sidecar(mesh, args.output + ".attrs.json", sha)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {args.output}: {exc}\n")
        return 2
    _stdout(
        f"wrote {args.output}: {len(mesh.vertices)} vertices, "
        f"{len(mesh.triangles)} triangles, {len(mesh.masked_cells)} masked cells\n"
    )
    return 0


def cmd_catenoid(args) -> int:
    _stdout(CATENOID_CONFIG)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="maxsurf",
        description="Maximal surfaces in Lorentz-Minkowski 3-space from Weierstrass data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the diagnostic suite on a config")
    p_check.add_argument("config")
    p_check.add_argument("--tol", type=float, default=None)
    p_check.add_argument("--grid", default=None, help="diagnostic grid NxM")
    p_check.set_defaults(fn=cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate the surface at a point")
    p_eval.add_argument("config")
    p_eval.add_argument("--at", required=True, action="append", help="parameter point u,v")
    p_eval.add_argument("--tol", type=float, default=None)
    p_eval.set_defaults(fn=cmd_eval)

    p_ext = sub.add_parser("extend", help="extend across the configured plane")
    p_ext.add_argument("config")
    p_ext.add_argument("-o", "--output", default=None)
    p_ext.add_argument("--plane", default=None, help="override plane nx,ny,nz,d")
    p_ext.set_defaults(fn=cmd_extend)

    p_mesh = sub.add_parser("mesh", help="export a triangulated OBJ mesh")
    p_mesh.add_argument("config")
    p_mesh.add_argument("--grid", default="17x17", help="grid NxM")
    p_mesh.add_argument("-o", "--output", required=True)
    p_mesh.add_argument("--tol", type=float, default=None)
    p_mesh.set_defaults(fn=cmd_mesh)

    p_cat = sub.add_parser("catenoid", help="print the built-in reference config")
    p_cat.set_defaults(fn=cmd_catenoid)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse would read a negative u in "--at -0.1,0.2" as an option
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--at":
            argv[i : i + 2] = [f"--at={argv[i + 1]}"]
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    with warnings.catch_warnings():
        warnings.showwarning = functools.partial(_show_warning, warnings.showwarning)
        try:
            return args.fn(args)
        except _StdoutError as exc:
            sys.stdout = open(os.devnull, "w")  # so the interpreter's last flush fails on nothing
            sys.stderr.write(f"error: cannot write stdout: {exc}\n")
            return 2
        except ConfigError as exc:
            sys.stderr.write(f"config error: {exc}\n")
            return 2
        except (ParseError, EvalError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        except (ExtensionError, SurfaceError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1


class _StdoutError(Exception):
    """A write or flush of stdout failed (a closed pipe, a full disk); carries the OSError's text."""


def _stdout(text: str) -> None:
    """Write text to stdout and flush it, so that a fault shows here, not in the interpreter's last flush;
    an OSError of the stream is raised as a _StdoutError."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise _StdoutError(exc) from None


def _show_warning(show, message, category, *args, **kwargs):
    """A DegenerateContactWarning as one stderr line, ``warning: <message>``; any other warning by ``show``."""
    if issubclass(category, DegenerateContactWarning):
        sys.stderr.write(f"warning: {message}\n")
    else:
        show(message, category, *args, **kwargs)


if __name__ == "__main__":
    sys.exit(main())
