"""Inputs, op streams and output checks for the maxsurf CLI benchmark.

Every op is one ``maxsurf.cli.main(argv)`` call.  The configs below are the
catenoid and the self-symmetric fixtures of the test suite, written out as
config text; each one has a closed-form oracle (the antiderivatives of its
phi triple), so every op's output can be checked without trusting the
program.  For the four extended configs the reflected-side formulas
reproduce the original data, so the same closed form holds on both sides
of the arc.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

B_CATENOID = -0.7  # the catenoid is extended across the plane x3 = B_CATENOID
RHO = math.exp(B_CATENOID)  # ... which it meets along the arc |z| = RHO
SQRT2 = math.sqrt(2)

_CATENOID = """\
f = 1/z^2
g = z
domain = punctured-disk
radius = 1
punctures = 0
z0 = 1
X0 = 0,0,0
tol = 1e-10
"""

BASE_CONFIGS = {
    "catenoid": _CATENOID,
    "catenoid-b07": _CATENOID + f"plane = 0,0,1,{-B_CATENOID!r}\nboundary_circle = {RHO!r}\n",
    "spacelike": """\
f = i*exp(-i*z)
g = exp(i*z)/2
domain = upper-half-disk
radius = 0.9
z0 = 0.5*i
X0 = 0,0,0
tol = 1e-10
plane = 0,0,1,-0.25
""",
    "timelike": f"""\
f = exp(-i*z)
g = -i + sqrt(2)*i*exp(i*z)
domain = upper-half-disk
radius = 0.7
z0 = 0.5*i
X0 = 0,0,0
tol = 1e-10
plane = 0,1,0,{2 * math.sinh(0.5) - SQRT2 / 2!r}
""",
    "lightlike": """\
f = exp(-i*z)
g = (1 + i*exp(i*z))/2
domain = upper-half-disk
radius = 0.7
z0 = 0.5*i
X0 = 0,0,0
tol = 1e-10
plane = 1,0,1,-0.125
""",
}

# The four base configs that carry a plane, and the five configs that
# check/eval cycle over: the plain catenoid plus the four extensions.
EXTENDABLE = ("catenoid-b07", "spacelike", "timelike", "lightlike")
SURFACES = ("catenoid",) + tuple(name + ".ext" for name in EXTENDABLE)

# Tolerances of the tests that pin these oracles: the catenoid round trip
# (1e-8) for the plain patch, the extended catenoid slab (1e-7) for
# evaluation through an extension.
EVAL_TOL_PLAIN = 1e-8
EVAL_TOL_EXTENDED = 1e-7


def _catenoid_fg(z):
    return 1 / (z * z), z


def _catenoid_prim(z):
    return (0.5 * (z - 1 / z), 0.5j * (2 - z - 1 / z), cmath.log(z))


def _spacelike_fg(z):
    return 1j * cmath.exp(-1j * z), cmath.exp(1j * z) / 2


def _spacelike_prim(z):
    em, ep = cmath.exp(-1j * z), cmath.exp(1j * z)
    return (-em / 2 + ep / 8, -0.5j * (em + ep / 4), 0.5j * z)


def _timelike_fg(z):
    return cmath.exp(-1j * z), -1j + SQRT2 * 1j * cmath.exp(1j * z)


def _timelike_prim(z):
    em, ep = cmath.exp(-1j * z), cmath.exp(1j * z)
    return (SQRT2 * z + 1j * ep, -em - SQRT2 * 1j * z + ep, em + SQRT2 * 1j * z)


def _lightlike_fg(z):
    return cmath.exp(-1j * z), (1 + 1j * cmath.exp(1j * z)) / 2


def _lightlike_prim(z):
    em, ep = cmath.exp(-1j * z), cmath.exp(1j * z)
    return ((5j * em + 2j * z + 1j * ep) / 8, (-3 * em + 2 * z + ep) / 8, 0.5j * (em + z))


@dataclass(frozen=True)
class Oracle:
    """Closed form of one surface: f, g and a primitive of the phi triple."""

    fg: object
    prim: object
    z0: complex

    def X(self, z: complex) -> tuple[float, float, float]:
        a, b = self.prim(z), self.prim(self.z0)
        return (a[0] - b[0]).real, (a[1] - b[1]).real, (a[2] - b[2]).real

    def N(self, z: complex) -> tuple[float, float, float]:
        _, g = self.fg(z)
        gg = abs(g) ** 2
        return 2 * g.real / (1 - gg), 2 * g.imag / (1 - gg), (1 + gg) / (1 - gg)

    def conformal_factor(self, z: complex) -> float:
        f, g = self.fg(z)
        return abs(f) ** 2 * (1 - abs(g) ** 2) ** 2 / 2


_CATENOID_ORACLE = Oracle(_catenoid_fg, _catenoid_prim, 1 + 0j)
ORACLES = {
    "catenoid": _CATENOID_ORACLE,
    "catenoid-b07.ext": _CATENOID_ORACLE,
    "spacelike.ext": Oracle(_spacelike_fg, _spacelike_prim, 0.5j),
    "timelike.ext": Oracle(_timelike_fg, _timelike_prim, 0.5j),
    "lightlike.ext": Oracle(_lightlike_fg, _lightlike_prim, 0.5j),
}


def sample_point(surface: str, rng) -> complex:
    """A seeded point of the assembled domain, on either side of the arc.

    Points where |g| is within 1e-2 of 1 are redrawn: the Gauss map is not
    defined on that locus, so no output there can be checked.
    """
    while True:
        if surface.startswith("catenoid"):
            if surface == "catenoid" or rng.random() < 0.5:
                r = rng.uniform(0.2, 0.95)  # the plain patch / the original side
            else:
                r = rng.uniform(1.05 * RHO * RHO, RHO)  # reflected side, inside the arc
            z = cmath.rect(r, rng.uniform(-math.pi, math.pi))
        else:
            radius = 0.9 if surface.startswith("spacelike") else 0.7
            z = cmath.rect(radius * math.sqrt(rng.uniform(0.0, 0.9)), rng.uniform(-math.pi, math.pi))
        _, g = ORACLES[surface].fg(z)
        if abs(abs(g) - 1) > 1e-2:
            return z


# ---------------------------------------------------------------------------
# ops

@dataclass(frozen=True)
class Op:
    """One CLI call: its kind (the latency bucket) and its arguments."""

    kind: str  # mesh65 | mesh33 | check | eval | extend
    target: str  # the config it reads: one of SURFACES, EXTENDABLE or "catenoid"
    point: complex | None = None


def mesh_op(n: int) -> Op:
    return Op(f"mesh{n}", "catenoid")


class Files:
    """Paths of the generated inputs and outputs inside one work directory."""

    def __init__(self, root):
        self.root = root

    def config(self, name: str) -> str:
        return str(self.root / f"{name}.cfg")

    def mesh(self, n: int) -> str:
        return str(self.root / f"catenoid-{n}.obj")

    def argv(self, op: Op) -> list[str]:
        if op.kind.startswith("mesh"):
            n = int(op.kind[4:])
            return ["mesh", self.config("catenoid"), "--grid", f"{n}x{n}", "-o", self.mesh(n)]
        if op.kind == "check":
            return ["check", self.config(op.target)]
        if op.kind == "eval":
            # "--at=u,v": argparse reads "--at -0.1,0.2" as a missing value
            # followed by an option, and exits 2 (see NOTES.md).
            return ["eval", self.config(op.target), f"--at={op.point.real!r},{op.point.imag!r}"]
        if op.kind == "extend":
            return ["extend", self.config(op.target), "-o", self.config(op.target + ".ext")]
        raise ValueError(op.kind)


def _mesh_grid(n: int):
    """Parameter points of an n x n catenoid mesh, in OBJ vertex order."""
    r0, r1 = 0.05, 1.0  # the mesh window of a punctured unit disk
    pts = []
    for i in range(n):
        a = r0 + (r1 - r0) * i / (n - 1)
        for j in range(n):
            b = -math.pi + 2 * math.pi * j / (n - 1)
            pts.append(complex(a * math.cos(b), a * math.sin(b)))
    return pts


def _expected_mesh(n: int, mask_eps: float = 1e-8):
    """Closed-form vertices and the masked-cell count of an n x n mesh."""
    pts = _mesh_grid(n)
    lam = [ORACLES["catenoid"].conformal_factor(z) for z in pts]
    masked = 0
    for i in range(n - 1):
        for j in range(n - 1):
            k = i * n + j
            if min(lam[k], lam[k + 1], lam[k + n], lam[k + n + 1]) < mask_eps:
                masked += 1
    return [ORACLES["catenoid"].X(z) for z in pts], masked


class Checker:
    """Decides whether one op's output is right; keeps what repeats must match.

    * mesh: every vertex used by a triangle matches the catenoid closed form
      within 1e-8 * (1 + |X|), the masked-cell count matches the closed
      form's, and OBJ and sidecar bytes repeat exactly within a run.
    * check: exit 0, ``"passed": true``, stdout repeats exactly per config.
    * eval: X, N and the conformal factor match the closed form.
    * extend: exit 0 and the emitted config repeats the set-up one exactly;
      that one passed ``check`` during set-up.
    """

    def __init__(self, files: Files):
        self.files = files
        self.expected_mesh = {}
        self.first = {}  # (kind, target) -> bytes the op must repeat
        self.errors = []

    def remember(self, key, data: bytes) -> bool:
        return self.first.setdefault(key, data) == data

    def __call__(self, op: Op, rc: int, out: str) -> bool:
        try:
            problem = getattr(self, "_" + op.kind.rstrip("0123456789"))(op, rc, out)
        except (OSError, ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem and len(self.errors) < 20:
            self.errors.append(f"{op.kind} {op.target} {op.point}: {problem}")
        return not problem

    def _mesh(self, op: Op, rc: int, out: str):
        if rc != 0:
            return f"exit {rc}"
        n = int(op.kind[4:])
        if n not in self.expected_mesh:
            self.expected_mesh[n] = _expected_mesh(n)
        want, want_masked = self.expected_mesh[n]
        path = self.files.mesh(n)
        with open(path, "rb") as fh:
            obj = fh.read()
        with open(path + ".attrs.json", "rb") as fh:
            sidecar = fh.read()
        if not self.remember((op.kind, "obj"), hashlib.sha256(obj).digest()):
            return "OBJ bytes differ from this run's first mesh"
        if not self.remember((op.kind, "attrs"), hashlib.sha256(sidecar).digest()):
            return "sidecar bytes differ from this run's first mesh"
        if not out.endswith(f", {want_masked} masked cells\n"):
            return f"masked cells: {out.strip()!r}, want {want_masked}"
        verts, used = [], set()
        for line in obj.decode().splitlines():
            if line.startswith("v "):
                verts.append(tuple(float(t) for t in line[2:].split()))
            elif line.startswith("f "):
                used.update(int(t) - 1 for t in line[2:].split())
        if len(verts) != len(want):
            return f"{len(verts)} vertices, want {len(want)}"
        for k in used:
            got, ref = verts[k], want[k]
            size = math.sqrt(sum(x * x for x in ref))
            if max(abs(a - b) for a, b in zip(got, ref)) > 1e-8 * (1 + size):
                return f"vertex {k}: {got} vs closed form {ref}"
        return None

    def _check(self, op: Op, rc: int, out: str):
        if rc != 0:
            return f"exit {rc}"
        key = ("check", op.target)
        if key not in self.first and json.loads(out)["passed"] is not True:
            return "report not passed"
        if not self.remember(key, out.encode()):
            return "report differs from this run's first one"
        return None

    def _eval(self, op: Op, rc: int, out: str):
        if rc != 0:
            return f"exit {rc}"
        z = op.point
        oracle = ORACLES[op.target]
        tol = EVAL_TOL_PLAIN if op.target == "catenoid" else EVAL_TOL_EXTENDED
        lines = out.splitlines()
        X = [float(t) for t in lines[0].removeprefix("X = (").removesuffix(")").split(",")]
        N = [float(t) for t in lines[1].removeprefix("N = (").removesuffix(")").split(",")]
        lam = float(lines[2].removeprefix("conformal_factor = "))
        X_ref = oracle.X(z)
        N_ref, lam_ref = oracle.N(z), oracle.conformal_factor(z)
        if max(abs(a - b) for a, b in zip(X, X_ref)) > tol:
            return f"X = {X}, closed form {X_ref}"
        if max(abs(a - b) for a, b in zip(N, N_ref)) > tol * (1 + max(map(abs, N_ref))):
            return f"N = {N}, closed form {N_ref}"
        if abs(lam - lam_ref) > tol * (1 + lam_ref):
            return f"conformal factor {lam}, closed form {lam_ref}"
        return None

    def _extend(self, op: Op, rc: int, out: str):
        if rc != 0:
            return f"exit {rc}"
        with open(self.files.config(op.target + ".ext"), "rb") as fh:
            emitted = fh.read()
        if not self.remember(("extend", op.target), emitted + b"\0" + out.encode()):
            return "emitted config or report differs from the set-up one"
        return None


# ---------------------------------------------------------------------------
# workloads: the seeded op streams and the probes of the kinds a stream lacks

def _eval_op(rng) -> Op:
    surface = SURFACES[rng.integers(len(SURFACES))]
    return Op("eval", surface, sample_point(surface, rng))


def stream(workload: str, rng):
    """The workload's endless op stream, as a sequence of whole cycles.

    mesh-catenoid: (65x65, 33x33); check-fixtures: the five configs in a
    seeded order; query-mixed: ten ops, nine evals and one extend, in a
    seeded order.
    """
    while True:
        if workload == "mesh-catenoid":
            yield [mesh_op(65), mesh_op(33)]
        elif workload == "check-fixtures":
            yield [Op("check", SURFACES[k]) for k in rng.permutation(len(SURFACES))]
        elif workload == "query-mixed":
            cycle = [_eval_op(rng) for _ in range(9)]
            cycle.insert(int(rng.integers(10)), Op("extend", EXTENDABLE[rng.integers(len(EXTENDABLE))]))
            yield cycle
        else:
            raise ValueError(workload)


NATIVE_KINDS = {
    "mesh-catenoid": ("mesh65", "mesh33"),
    "check-fixtures": ("check",),
    "query-mixed": ("eval", "extend"),
}


def probe(workload: str, full: bool) -> list[Op]:
    """Fixed ops of every kind the workload's stream lacks.

    With ``full`` the probe gives each absent kind a stable latency median:
    8 meshes of each size, and the same number of checks, evals and extends
    per config, so that the mix, and with it the percentiles, stays put.
    The kinds are interleaved in a fixed shuffle, so that a drift in host
    speed over the probe touches them all alike.  Without ``full``, one
    small op per kind keeps every layer busy in a traced run.  The probe is
    the same for every seed: the seed varies the workload's own stream.
    """
    native = NATIVE_KINDS[workload]
    rng = np.random.default_rng(0)
    ops: list[Op] = []
    if "mesh65" not in native:
        ops += [mesh_op(65), mesh_op(33)] * 8 if full else [mesh_op(9)]
    if "check" not in native:
        ops += [Op("check", s) for s in SURFACES * 16] if full else [Op("check", "catenoid-b07.ext")]
    if "eval" not in native:
        ops += [Op("eval", s, sample_point(s, rng)) for s in SURFACES * (96 if full else 1)]
    if "extend" not in native:
        ops += [Op("extend", b) for b in EXTENDABLE * 20] if full else [Op("extend", "catenoid-b07")]
    return [ops[k] for k in rng.permutation(len(ops))] if full else ops
