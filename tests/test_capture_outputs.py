import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "capture_outputs.py"

EXTENDABLE = ("catenoid-b07", "spacelike", "timelike", "lightlike")
SURFACES = ("catenoid",) + tuple(name + ".ext" for name in EXTENDABLE)
DOMAIN_MESHES = ("half-disk", "annulus", "strip", "window", "detour", "split")
EXTENSION_FAULTS = ("orthogonal", "varying", "singular", "matching-fault")
INPUT_FAULTS = ("z0-log", "z0-depends-on-z", "g-overflow", "radius-overflow", "non-decimal-digit", "density-overflow",
                "infinite-literal", "infinite-constant")
ONE_LINE_FAULTS = ("estimate-overflow", "off-hyperboloid", "lower-sheet-tangent", "branch-cut")
SQUARE_OVERFLOWS = ("squares-overflow",)
USAGE_FAULTS = {  # argparse's fault lines, each with exit 2
    "usage-unknown-command": "maxsurf: error: argument command: invalid choice: 'frobnicate' (choose from 'check',",
    "usage-eval-without-at": "usage: maxsurf eval [-h] --at AT [--tol TOL] config\n"
    "maxsurf eval: error: the following arguments are required: --at\n",
    "usage-mesh-without-output": "maxsurf mesh: error: the following arguments are required: -o/--output\n",
}
TANGENTIAL_WARNING = ("warning: lightlike tangential contact with |g| -> 1: induced metric degenerates along the "
                      "boundary\n")


def test_capture_outputs_writes_one_file_per_command(tmp_path):
    subprocess.run([sys.executable, str(TOOL), str(tmp_path)], check=True, capture_output=True, timeout=300)
    names = sorted(p.name for p in tmp_path.iterdir())
    logs = [name for name in names if name.endswith(".txt")]
    # numbered in run order: extend first, since check and eval read what it writes
    assert [name[4:-4] for name in logs] == (
        [f"extend-{name}" for name in EXTENDABLE]
        + [f"check-{name}" for name in SURFACES]
        + [f"eval-{name}-{k:02d}" for name in SURFACES for k in range(20)]
        + list(USAGE_FAULTS) + ["eval-catenoid-negative-u"]
        + ["mesh-65", "mesh-33"]
        + [f"mesh-{name}" for name in DOMAIN_MESHES]
        + ["mesh-pole-9", "mesh-pole-17", "mesh-overflow-17", "eval-poly-degenerate"]
        + ["check-pole", "check-overflow", "check-poly"]
        + ["extend-orthogonal", "extend-varying", "extend-singular", "check-matching-fault", "extend-matching-fault"]
        + [f"check-{name}" for name in INPUT_FAULTS[:4]] + ["extend-radius-overflow", "check-non-decimal-digit"]
        + ["eval-density-overflow", "mesh-density-overflow", "extend-infinite-literal", "eval-infinite-constant"]
        + ["extend-catenoid-b07-reflected"]
        + ["check-estimate-overflow", "mesh-estimate-overflow", "check-off-hyperboloid", "extend-lower-sheet-tangent"]
        + ["extend-branch-cut", "check-branch-cut.ext"]
        + ["eval-squares-overflow", "mesh-squares-overflow", "check-squares-overflow"]
        + ["extend-tangential-lightlike", "check-tangential-lightlike.ext", "eval-tangential-lightlike.ext"]
        + [f"eval-{name}.ext-arc-u{u}" for name in EXTENDABLE[1:] for u in ("0.1", "-0.3")]
        + ["eval-timelike.ext-arc-end"]
        + ["extend-wrong-plane", "check-wrong-plane.ext"]
    )
    assert sorted(set(names) - set(logs)) == sorted(
        [f"{name}.cfg" for name in ("catenoid",) + EXTENDABLE + DOMAIN_MESHES + ("pole", "overflow", "poly")]
        + [f"{name}.cfg" for name in EXTENSION_FAULTS + INPUT_FAULTS + ONE_LINE_FAULTS + SQUARE_OVERFLOWS]
        + ["matching-fault.ext.cfg", "branch-cut.ext.cfg", "tangential-lightlike.cfg", "tangential-lightlike.ext.cfg"]
        + ["wrong-plane.ext.cfg"]
        + [f"{name}.cfg" for name in SURFACES[1:]] + ["catenoid-b07-reflected.cfg", "catenoid-b07-reflected.ext.cfg"]
        + [f"catenoid-{n}.obj{ext}" for n in (65, 33) for ext in ("", ".attrs.json")]
        + [f"{name}.obj{ext}" for name in DOMAIN_MESHES + ("density-overflow",) + SQUARE_OVERFLOWS
           for ext in ("", ".attrs.json")]
    )
    for name in logs:
        if name[4:-4] in USAGE_FAULTS:
            text = (tmp_path / name).read_text()
            assert "\nexit 2\n--- stdout\n--- stderr\n" in text and USAGE_FAULTS[name[4:-4]] in text, name
    negative_u = next(name for name in logs if name.endswith("-eval-catenoid-negative-u.txt"))
    assert (tmp_path / negative_u).read_text().startswith("$ maxsurf eval catenoid.cfg --at -0.3,0.2\nexit 0\n")
    failing = {
        "mesh-pole-9": (2, "error: division by zero in '1/(z+0.0625*i)'\n"),
        "mesh-pole-17": (1, "error: quadrature did not converge on path to -0.0625j"),
        "mesh-overflow-17": (1, "(achieved error estimate nan)\n"),
        "eval-poly-degenerate": (0, "N = degenerate (|g| = 1)\n"),
        "check-pole": (0, '\n  "passed": true\n}\n'),
        "check-overflow": (1, "error: quadrature did not converge on path to (-0.19-2.3268289183799712e-17j)"
                           " (achieved error estimate nan)\n"),
        "check-poly": (1, '"name": "gauss_hyperboloid",\n      "passed": false,'),
        "extend-orthogonal": (1, "extension failed: orthogonal contact (c = 0): excluded here;"),
        "extend-varying": (1, "extension failed: constant-angle hypothesis violated: <N,n> varies by 2.228e-01 about "
                           "-1.220594\n"),
        "extend-singular": (1, "extension failed: extended g takes the singular value (1+0j) near "
                            "z = (0.2888725384110351-0.40654239767553646j)\n"),
        "check-matching-fault": (2, "--- stdout\n--- stderr\nerror: division by zero in '1/z'\n"),
        "extend-matching-fault": (0, '"passed": true'),
        "check-z0-log": (2, "--- stderr\nconfig error: field 'z0': not a complex constant: log of zero in 'log(0)'\n"),
        "check-z0-depends-on-z": (2, "--- stderr\nconfig error: field 'z0': not a complex constant: '0.3+z' depends on z\n"),
        "check-g-overflow": (1, "--- stdout\n--- stderr\nerror: |g|^2 = inf is not finite at g = "
                             "(-1.9e+199-2.326828918379971e+183j)\n"),
        "check-radius-overflow": (2, "--- stderr\nconfig error: field 'domain': radius 1e+308 is too large: its diameter"
                                  " overflows\n"),
        "extend-radius-overflow": (2, "--- stdout\n--- stderr\nconfig error: field 'domain': radius 1e+308 is too large:"),
        "check-non-decimal-digit": (2, "--- stdout\n--- stderr\nconfig error: field 'f': at offset 0: expected operand\n"),
        "eval-density-overflow": (0, "\nconformal_factor = inf\n--- stderr\n"),
        "mesh-density-overflow": (0, "wrote density-overflow.obj: 25 vertices, 32 triangles, 0 masked cells\n--- stderr\n"),
        "extend-infinite-literal": (2, "--- stdout\n--- stderr\nconfig error: field 'f': at offset 0: expected finite number\n"),
        "eval-infinite-constant": (2, "--- stdout\n--- stderr\nconfig error: field 'f': at offset 0: expected finite number\n"),
        "check-estimate-overflow": (1, "--- stdout\n--- stderr\nerror: quadrature did not converge on path to "
                                    "(1.8070073809607918e+149+5.871322893124e+148j) (achieved error estimate inf)\n"),
        "mesh-estimate-overflow": (1, "--- stdout\n--- stderr\nerror: quadrature did not converge on path to 5e+148j"
                                   " (achieved error estimate inf)\n"),
        "check-off-hyperboloid": (1, "--- stdout\n--- stderr\nerror: quadrature did not converge on path to "
                                  "(-19-2.326828918379971e-15j) (achieved error estimate 3.158e+34)\n"),
        "extend-lower-sheet-tangent": (1, "--- stdout\n--- stderr\nextension failed: |<N,n>| = 1.000000 on the lower "
                                       "sheet puts the Gauss locus at |g| = infinity\n"),
        "extend-branch-cut": (0, '"passed": true'),
        "check-branch-cut.ext": (0, '\n  "passed": true\n}\n--- stderr\n'),
        "eval-squares-overflow": (0, "\nconformal_factor = inf\n--- stderr\n"),
        "mesh-squares-overflow": (0, "wrote squares-overflow.obj: 25 vertices, 32 triangles, 0 masked cells\n"
                                  "--- stderr\n"),
        "check-squares-overflow": (1, '"max_residual": 5.551115123125783e-17,\n      "name": "quadratic_identity",\n'
                                   '      "passed": true,'),
        "check-tangential-lightlike.ext": (1, f"\n--- stderr\n{TANGENTIAL_WARNING}"),
        "check-wrong-plane.ext": (1, '"max_residual": 4.664916170199053,\n      "name": "plane_containment",\n'
                                  '      "passed": false,'),
    }
    for stem in ("extend-tangential-lightlike", "eval-tangential-lightlike.ext"):  # exit 0, with the one warning line
        text = (tmp_path / next(name for name in logs if name.endswith(f"-{stem}.txt"))).read_text()
        assert "\nexit 0\n" in text and text.endswith(f"\n--- stderr\n{TANGENTIAL_WARNING}"), stem
    # each log by its command's name: a listed one against its entry, every other extend, check and
    # domain mesh with exit 0
    domain_meshes = [f"mesh-{m}" for m in DOMAIN_MESHES]
    for name in logs:
        stem, text = name[4:-4], (tmp_path / name).read_text()
        if stem in failing:
            code, line = failing[stem]
            assert f"\nexit {code}\n" in text and line in text, name
        elif stem.startswith(("extend-", "check-")) or stem in domain_meshes:
            assert "\nexit 0\n" in text, name
    # the reflected side of the extended catenoid reflects back to the catenoid's data, at round-off
    back = dict(line.split(" = ", 1) for line in (tmp_path / "catenoid-b07-reflected.ext.cfg").read_text().splitlines()
                if " = " in line)
    assert back["f_minus"].endswith("/z^2") and back["g_minus"].endswith("*z"), back
    assert abs(float(back["f_minus"][:-4]) - 1) < 1e-13 and abs(float(back["g_minus"][:-2]) - 1) < 1e-13


def _tool():
    """The tool as a module, with sys.path as it was before its import put src/ and perfbench/ on it."""
    spec = importlib.util.spec_from_file_location("capture_outputs", TOOL)
    module, path = importlib.util.module_from_spec(spec), list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def test_compare_lists_the_files_that_differ_were_added_and_went_missing(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    trees = {
        base: {"same.txt": "x", "differs.txt": "exit 0\n", "gone.cfg": "", "m/deep.obj": "v 0 0 0\n"},
        change: {"same.txt": "x", "differs.txt": "exit 1\n", "new.txt": "", "m/deep.obj": "v 0 0 0\n"},
    }
    for root, files in trees.items():
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
    compare = _tool().compare
    assert compare(base, change) == (["differs.txt"], ["new.txt"], ["gone.cfg"], 2)
    assert compare(base, base) == ([], [], [], 4)
