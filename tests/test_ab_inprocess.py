"""tools/ab_inprocess.py: a one-round smoke run against a commit of a copy of this checkout, and the
loader that imports the two sides as two packages in one interpreter."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIG = "f = 1\ng = z\ndomain = disk\nradius = 0.5\nz0 = 0\nX0 = 0,0,0\n"


@pytest.mark.skipif(shutil.which("git") is None, reason="the tool extracts the revision with git archive")
def test_one_round_times_each_command_on_both_sides(tmp_path):
    repo = tmp_path / "repo"
    for part in ("src", "tools", "perfbench"):
        shutil.copytree(ROOT / part, repo / part, ignore=shutil.ignore_patterns("__pycache__", "work"))
    git = ["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "base"]):
        subprocess.run(git + args, check=True, capture_output=True)
    (tmp_path / "disk.cfg").write_text(CONFIG)
    argv = ["--against", "HEAD", "--rounds", "1", "--calls", "2", "--", "eval", "disk.cfg", "--at=0.1,0.2",
            "--", "check", "disk.cfg"]
    done = subprocess.run([sys.executable, str(repo / "tools" / "ab_inprocess.py"), *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [lines[0], lines[4]] == ["eval disk.cfg --at=0.1,0.2", "check disk.cfg"]
    for block in (lines[1:4], lines[5:8]):
        assert block[0].strip().startswith("HEAD: median") and block[1].strip().startswith("this checkout: median")
        assert block[0].endswith("exit [0]") and block[1].endswith("exit [0]")
        assert block[2].startswith("  paired ratio ") and block[2].endswith(" of 1 rounds")
    assert re.fullmatch(r"geometric mean of the paired ratios \d+\.\d{4} over 2 commands, "
                        r"this checkout faster in [012] of 2 commands", lines[8])
    assert len(lines) == 9


def test_the_summary_line_is_the_geometric_mean_and_the_count_of_faster_commands():
    summary = tool().summary
    assert summary([0.5, 2.0]) == ("geometric mean of the paired ratios 1.0000 over 2 commands, "
                                   "this checkout faster in 1 of 2 commands")
    assert summary([0.9, 0.9, 0.9]).startswith("geometric mean of the paired ratios 0.9000 over 3 commands, ")
    assert summary([1.0, 1.0, 0.25]).endswith("faster in 1 of 3 commands")  # a ratio of 1 is not faster
    assert summary([1.0, 1.0, 0.125]).startswith("geometric mean of the paired ratios 0.5000 ")


def test_without_a_command_it_prints_its_usage():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), "--against", "HEAD"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and "--against REV" in done.stderr


def tool():
    """This checkout's tools/ab_inprocess.py as a module."""
    spec = importlib.util.spec_from_file_location("ab_inprocess", ROOT / "tools" / "ab_inprocess.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_side_imports_its_own_copy_of_the_package(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    ab = tool()
    try:
        copy = ab.load_cli("maxsurf_ab_test_copy", tmp_path / "src")
        here = ab.load_cli("maxsurf_ab_test_here", ROOT / "src")
        for cli, src in ((copy, tmp_path / "src"), (here, ROOT / "src")):
            extension = sys.modules[cli.extend.__module__]
            assert Path(cli.__file__).parent == Path(extension.__file__).parent == src / "maxsurf"
        assert copy.extend is not here.extend and copy.ExtensionError is not here.ExtensionError
    finally:
        for name in [m for m in sys.modules if m.startswith("maxsurf_ab_test_")]:
            del sys.modules[name]
