import json
import subprocess
import sys
from pathlib import Path

import pytest

from fixtures import capture_tool
from maxsurf.expr import _HEIGHT

TOOL = Path(__file__).resolve().parents[1] / "tools" / "capture_outputs.py"

EXTENDABLE = ("catenoid-b07", "spacelike", "timelike", "lightlike")
SURFACES = ("catenoid",) + tuple(name + ".ext" for name in EXTENDABLE)
DOMAIN_MESHES = ("half-disk", "annulus", "strip", "window", "detour", "split")
EXTENSION_FAULTS = ("orthogonal", "varying", "singular", "matching-fault")
INPUT_FAULTS = ("z0-log", "z0-depends-on-z", "g-overflow", "radius-overflow", "non-decimal-digit", "density-overflow",
                "infinite-literal", "infinite-constant")
ONE_LINE_FAULTS = ("estimate-overflow", "off-hyperboloid", "lower-sheet-tangent", "branch-cut")
SQUARE_OVERFLOWS = ("squares-overflow",)
OBSTRUCTIONS = ("near-orthogonal", "degenerate-lightlike")
ORTHOGONAL_CONTACTS = ("orthogonal-identity", "orthogonal-cosine", "orthogonal-moebius")
LATE_CONTACTS = ("near-orthogonal-3e-08", "near-orthogonal-5e-07", "tiny-domain")
NEAR_LINE_CONTACTS = {  # name: what runs on the config its extend writes
    "near-orthogonal-1e-08": ("eval",),
    "near-tangent-1e-07": ("check", "eval"),
    "near-tangent-1e-08": ("check", "eval"),
    "lower-sheet-1e-06": ("check",),
}
USAGE_FAULTS = {  # argparse's fault lines, each with exit 2
    "usage-unknown-command": "maxsurf: error: argument command: invalid choice: 'frobnicate' (choose from 'check',",
    "usage-eval-without-at": "usage: maxsurf eval [-h] --at AT [--tol TOL] config\n"
    "maxsurf eval: error: the following arguments are required: --at\n",
    "usage-mesh-without-output": "maxsurf mesh: error: the following arguments are required: -o/--output\n",
}
LOCUS_OFFSETS = ("locus-1e-07", "locus-3e-08")
PAIRS = ("pairs-48", "pairs-49")
SHAPES = tuple(f"{shape}-{n}" for shape in ("sum", "product", "signs") for n in (_HEIGHT, _HEIGHT + 1))
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
        + [f"extend-{name}" for name in OBSTRUCTIONS]
        + [f"{command}-{name}{suffix}" for name in ORTHOGONAL_CONTACTS
           for command, suffix in (("extend", ""), ("check", ".ext"), ("eval", ".ext-0"), ("eval", ".ext-1"))]
        + ["check-half-annulus-poles", "extend-half-annulus-poles", "check-half-annulus-poles.ext"]
        + [f"{command}-{name}{suffix}" for name in LATE_CONTACTS for command, suffix in (("extend", ""), ("check", ".ext"))]
        + ["eval-catenoid-repeated-at", "eval-catenoid-outside"]
        + [f"eval-half-annulus-poles.ext-arc-{at}" for at in ("u0.5", "u-0.5", "end")]
        + [stem for name, runs in NEAR_LINE_CONTACTS.items()
           for stem in [f"extend-{name}"] + [f"{command}-{name}.ext" for command in runs]]
        + [f"mesh-{name}" for name in SURFACES[1:]]
        + ["extend-mesh-keys", "mesh-mesh-keys.ext", "eval-nested-100", "eval-nested-101"]
        + [f"extend-{name}" for name in LOCUS_OFFSETS] + ["check-locus-3e-08.ext"]
        + [f"{command}-arc-rule.ext" for command in ("eval", "check", "mesh")]
        + [f"extend-{name}" for name in PAIRS] + ["eval-pairs-48.ext"] + [f"eval-{name}" for name in SHAPES]
        + ["extend-annulus-arc"] + [f"eval-annulus-arc.ext-{k}" for k in range(5)] + ["mesh-annulus-arc.ext"]
    )
    assert sorted(set(names) - set(logs)) == sorted(
        [f"{name}.cfg" for name in ("catenoid",) + EXTENDABLE + DOMAIN_MESHES + ("pole", "overflow", "poly")]
        + [f"{name}.cfg" for name in EXTENSION_FAULTS + INPUT_FAULTS + ONE_LINE_FAULTS + SQUARE_OVERFLOWS + OBSTRUCTIONS]
        + ["matching-fault.ext.cfg", "branch-cut.ext.cfg", "tangential-lightlike.cfg", "tangential-lightlike.ext.cfg"]
        + ["wrong-plane.ext.cfg", "orthogonal.ext.cfg", "near-orthogonal.ext.cfg"]
        + [f"{name}{ext}.cfg" for name in ORTHOGONAL_CONTACTS + ("half-annulus-poles",) + LATE_CONTACTS
           + tuple(NEAR_LINE_CONTACTS) for ext in ("", ".ext")]
        + [f"{name}.cfg" for name in SURFACES[1:]] + ["catenoid-b07-reflected.cfg", "catenoid-b07-reflected.ext.cfg"]
        + [f"catenoid-{n}.obj{ext}" for n in (65, 33) for ext in ("", ".attrs.json")]
        + [f"{name}.obj{ext}" for name in DOMAIN_MESHES + ("density-overflow",) + SQUARE_OVERFLOWS + SURFACES[1:]
           + ("mesh-keys.ext",) for ext in ("", ".attrs.json")]
        + ["mesh-keys.cfg", "mesh-keys.ext.cfg", "nested-100.cfg", "nested-101.cfg"]
        + [f"{name}.cfg" for name in LOCUS_OFFSETS + PAIRS + SHAPES]
        + ["locus-3e-08.ext.cfg", "arc-rule.ext.cfg", "pairs-48.ext.cfg"]
        + ["annulus-arc.cfg", "annulus-arc.ext.cfg", "annulus-arc.ext.obj", "annulus-arc.ext.obj.attrs.json"]
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
        "extend-orthogonal": (0, '"c": 0.0,\n    "deviation": 0.0,\n    "lam": null,'),  # g is real on the arc
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
        "extend-lower-sheet-tangent": (1, "--- stdout\n--- stderr\nextension failed: constant-angle hypothesis "
                                       "violated: <N,n> varies by 1.287e+00 about 1.160903\n"),
        "extend-branch-cut": (0, '"passed": true'),
        "check-branch-cut.ext": (0, '\n  "passed": true\n}\n--- stderr\n'),
        "eval-squares-overflow": (0, "\nconformal_factor = inf\n--- stderr\n"),
        "mesh-squares-overflow": (0, "wrote squares-overflow.obj: 25 vertices, 32 triangles, 0 masked cells\n"
                                  "--- stderr\n"),
        "check-squares-overflow": (1, '"max_residual": 5.551115123125783e-17,\n      "name": "quadratic_identity",\n'
                                   '      "passed": true,'),
        "check-tangential-lightlike.ext": (1, f"\n--- stderr\n{TANGENTIAL_WARNING}"),
        "extend-near-orthogonal": (1, '"lam": 4999.999949999999,'),  # (1 - e^2)/(2 e), e = 1e-4
        "extend-degenerate-lightlike": (1, "--- stdout\n--- stderr\nextension failed: degenerate lightlike contact "
                                        "(|g + 1| = 4.444e-02 < 0.05): X_u ^ X_v = 0\n"),
        "check-wrong-plane.ext": (1, '"max_residual": 4.664916170199053,\n      "name": "plane_containment",\n'
                                  '      "passed": false,'),
        # g crosses |g| = 1 about its pole, so the Gauss map leaves one sheet of the hyperboloid
        "check-half-annulus-poles": (1, '"name": "gauss_hyperboloid",\n      "passed": false,'),
        "check-half-annulus-poles.ext": (1, '"name": "gauss_hyperboloid",\n      "passed": false,'),
        # g reflects through the timelike locus of c itself, near the line Im w = 0 or not
        "extend-near-orthogonal-3e-08": (0, '"passed": true,\n    "tolerance": 1e-07'),
        "check-near-orthogonal-3e-08.ext": (0, '"name": "boundary_locus",\n      "passed": true,'),
        "check-near-orthogonal-5e-07.ext": (0, '"name": "minus_harmonicity",\n      "passed": true,'),
        "eval-catenoid-repeated-at": (2, "--- stdout\n--- stderr\nconfig error: field '--at': given 2 times; eval takes"
                                      " one point\n"),
        "eval-catenoid-outside": (1, "--- stdout\n--- stderr\nerror: point (2+0j) outside the domain\n"),
        "eval-half-annulus-poles.ext-arc-u0.5": (0, "\nconformal_factor = "),
        "eval-half-annulus-poles.ext-arc-u-0.5": (0, "\nconformal_factor = "),
        "eval-half-annulus-poles.ext-arc-end": (1, "--- stdout\n--- stderr\nerror: point (0.9+0j) outside the assembled "
                                                "domain\n"),
        "mesh-mesh-keys.ext": (0, "wrote mesh-keys.ext.obj: 25 vertices, 32 triangles, 0 masked cells\n--- stderr\n"),
        "eval-nested-100": (0, "\nconformal_factor = "),
        "eval-nested-101": (2, "--- stdout\n--- stderr\nconfig error: field 'g': at offset 403: expected at most 100 "
                            "nested brackets\n"),
        "extend-locus-1e-07": (1, "--- stdout\n--- stderr\nextension failed: boundary g lies 2.752e-08 (relative) off "),
        # g lies 8.3e-9 off its locus, within LOCUS_TOL; the plane misses the boundary by 6.7e-9 (ROADMAP item 12)
        "check-locus-3e-08.ext": (1, '"max_residual": 6.67016308852908e-09,\n      "name": "plane_containment",\n'
                                  '      "passed": false,'),
        **{f"{command}-arc-rule.ext": (1, "--- stdout\n--- stderr\nerror: circular extension handles spacelike planes "
                                          "only, not timelike\n") for command in ("eval", "check", "mesh")},
        "extend-pairs-49": (1, "--- stdout\n--- stderr\nextension failed: f_minus would not read back: at offset 944: "
                            "expected at most 100 nested brackets\n"),
        **{f"eval-{name}": (0, "\nconformal_factor = ") for name in SHAPES[::2]},
        **{f"eval-{name}": (2, f"--- stdout\n--- stderr\nconfig error: field 'f': at offset {offset}: expected at most "
                               f"{_HEIGHT} nested operations\n") for name, offset in zip(SHAPES[1::2], (405, 405, 0))},
    }
    for name in logs:  # the orthogonal and near-line contacts evaluate on the reflected side, without a warning
        if name[4:-4].startswith(("eval-orthogonal-", "eval-near-")):
            text = (tmp_path / name).read_text()
            assert "\nexit 0\n" in text and text.endswith("\n--- stderr\n"), name
    for name in ("half-annulus-poles", "half-annulus-poles.ext"):  # the declared pole pairs with f's double zero
        text = (tmp_path / next(log for log in logs if log.endswith(f"-check-{name}.txt"))).read_text()
        assert '"name": "pole_zero_orders",\n      "passed": true,' in text, name
    for stem in ("extend-tangential-lightlike", "eval-tangential-lightlike.ext"):  # exit 0, with the one warning line
        text = (tmp_path / next(name for name in logs if name.endswith(f"-{stem}.txt"))).read_text()
        assert "\nexit 0\n" in text and text.endswith(f"\n--- stderr\n{TANGENTIAL_WARNING}"), stem
    # each log by its command's name: a listed one against its entry, every other extend, check, domain
    # mesh and extended mesh with exit 0
    domain_meshes = [f"mesh-{m}" for m in DOMAIN_MESHES + SURFACES[1:]]
    for name in logs:
        stem, text = name[4:-4], (tmp_path / name).read_text()
        if stem in failing:
            code, line = failing[stem]
            assert f"\nexit {code}\n" in text and line in text, name
        elif stem.startswith(("extend-", "check-")) or stem in domain_meshes:
            assert "\nexit 0\n" in text, name
    # extend carries the source's mesh keys into the config that the last mesh reads
    assert (tmp_path / "mesh-keys.ext.cfg").read_text().endswith(
        "\nmesh_range = -0.5,0.5,-0.40000000000000002,0.40000000000000002\nmask_eps = 9.9999999999999995e-07\n")
    # the reflected side of the extended catenoid reflects back to the catenoid's data
    back = dict(line.split(" = ", 1) for line in (tmp_path / "catenoid-b07-reflected.ext.cfg").read_text().splitlines()
                if " = " in line)
    assert (back["f_minus"], back["g_minus"]) == ("z^-2", "z"), back


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
    compare = capture_tool().compare
    assert compare(base, change) == (["differs.txt"], ["new.txt"], ["gone.cfg"], 2)
    assert compare(base, base) == ([], [], [], 4)


@pytest.mark.parametrize("change, code, summary", [
    ({"same.txt": "x", "kept.txt": "y"}, 0, "2 identical, 0 differ, 0 added, 0 missing"),
    ({"same.txt": "x", "kept.txt": "y", "new.txt": ""}, 0, "2 identical, 0 differ, 1 added, 0 missing"),
    ({"same.txt": "x"}, 1, "1 identical, 0 differ, 0 added, 1 missing"),
    ({"same.txt": "x", "kept.txt": "z"}, 1, "1 identical, 1 differ, 0 added, 0 missing"),
], ids=["identical", "added", "missing", "differs"])
def test_against_exits_1_when_a_file_differs_or_went_missing(tmp_path, monkeypatch, capsys, change, code, summary):
    # a capture file that REV wrote and this checkout did not is a dropped command, not a pass
    tool = capture_tool()

    def extract(rev, dest):  # REV's copy of the tool writes the base capture
        script = Path(dest) / "tools" / "capture_outputs.py"
        script.parent.mkdir(parents=True)
        script.write_text("import pathlib, sys\nout = pathlib.Path(sys.argv[1])\nout.mkdir(parents=True)\n"
                          "(out / 'same.txt').write_text('x')\n(out / 'kept.txt').write_text('y')\n")

    def capture(outdir):
        outdir.mkdir(parents=True)
        for name, text in change.items():
            (outdir / name).write_text(text)

    monkeypatch.setattr(tool, "extract", extract)
    monkeypatch.setattr(tool, "capture", capture)
    assert tool.against("REV", tmp_path / "out") == code
    assert capsys.readouterr().out.endswith(summary + "\n")


def _log(code, stdout=""):
    return f"$ maxsurf check s.cfg\nexit {code}\n--- stdout\n{stdout}--- stderr\n"


def _report(matching, plane):
    checks = [{"name": "c1_matching", "passed": matching}, {"name": "plane_containment", "passed": plane}]
    return json.dumps({"checks": checks, "matching": {"passed": matching}, "passed": matching and plane}, indent=2) + "\n"


def test_against_prints_the_exit_codes_and_verdicts_that_changed(tmp_path, monkeypatch, capsys):
    # under each differing log, what it decides differently; the count of both comes before the file count
    tool = capture_tool()
    base = {"001-check-a.txt": _log(0, _report(True, True)), "002-check-b.txt": _log(1, _report(True, False)),
            "003-mesh-c.txt": _log(0, "wrote c.obj\n"), "c.obj": "v 0 0 0\n"}
    change = {"001-check-a.txt": _log(1, _report(False, True)), "002-check-b.txt": _log(1, _report(True, False) + " "),
              "003-mesh-c.txt": _log(2), "c.obj": "v 0 0 1\n"}

    def extract(rev, dest):
        script = Path(dest) / "tools" / "capture_outputs.py"
        script.parent.mkdir(parents=True)
        script.write_text(f"import pathlib, sys\nout = pathlib.Path(sys.argv[1])\nout.mkdir(parents=True)\n"
                          f"for name, text in {base!r}.items():\n    (out / name).write_text(text)\n")

    def capture(outdir):
        outdir.mkdir(parents=True)
        for name, text in change.items():
            (outdir / name).write_text(text)

    monkeypatch.setattr(tool, "extract", extract)
    monkeypatch.setattr(tool, "capture", capture)
    assert tool.against("REV", tmp_path / "out") == 1
    assert capsys.readouterr().out == (
        "differs: 001-check-a.txt\n"
        "  exit 0 -> 1\n"
        "  passed report: true -> false\n"
        "  passed checks/c1_matching: true -> false\n"
        "  passed matching: true -> false\n"
        "differs: 002-check-b.txt\n"
        "differs: 003-mesh-c.txt\n"
        "  exit 0 -> 2\n"
        "differs: c.obj\n"
        "  numbers only: 1 changed, max rel 1.0e+00\n"
        '2 exit-code changes, 3 "passed" changes\n'
        "0 identical, 4 differ, 0 added, 0 missing\n"
    )
    assert tool.verdicts("not a log") == (None, {})


def test_a_change_of_numbers_alone_prints_their_count_and_largest_relative_change():
    # a round-off change reads apart from a change of text; a sign is text, not part of a number
    numbers = capture_tool().number_changes
    base = "c = -1.666666666666667, deviation 2.2e-16, theta 1.0986122886681098, n 9\n"
    change = "c = -1.6666666666666667, deviation 0.0, theta 1.0986122886681096, n 9\n"
    assert numbers(base, change) == "numbers only: 3 changed, max rel 1.0e+00"
    assert numbers("x = 1.0, y = 2.0", "x = 1.0, y = 2.0000000000000004") == "numbers only: 1 changed, max rel 2.2e-16"
    assert numbers("v 0 0 1e-3", "v 0 0 0.001") == "numbers only: 1 changed, max rel 0.0e+00"
    assert numbers("x = 1.5", "x = -1.5") is None
    assert numbers("passed: true", "passed: false") is None
