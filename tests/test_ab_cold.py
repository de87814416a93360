"""tools/ab_cold.py: a one-round smoke run of fresh processes against a commit of a copy of this checkout."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIG = "f = 1\ng = z\ndomain = disk\nradius = 0.5\nz0 = 0\nX0 = 0,0,0\n"


@pytest.mark.skipif(shutil.which("git") is None, reason="the tool extracts the revision with git archive")
def test_one_round_times_the_import_and_each_command_on_both_sides(tmp_path):
    repo = tmp_path / "repo"
    for part in ("src", "tools", "perfbench"):
        shutil.copytree(ROOT / part, repo / part, ignore=shutil.ignore_patterns("__pycache__", "work"))
    git = ["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "base"]):
        subprocess.run(git + args, check=True, capture_output=True)
    (tmp_path / "disk.cfg").write_text(CONFIG)
    argv = ["--against", "HEAD", "--rounds", "1", "--json", "cold.json", "--", "eval", "disk.cfg", "--at=0.1,0.2",
            "--", "eval", "disk.cfg", "--at=2,0"]
    done = subprocess.run([sys.executable, str(repo / "tools" / "ab_cold.py"), *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [lines[0], lines[4], lines[8]] == ["import maxsurf.cli", "eval disk.cfg --at=0.1,0.2", "eval disk.cfg --at=2,0"]
    for block, code in ((lines[1:4], 0), (lines[5:8], 0), (lines[9:12], 1)):
        assert block[0].strip().startswith("HEAD: median") and block[1].strip().startswith("this checkout: median")
        assert block[0].endswith(f"exit [{code}]") and block[1].endswith(f"exit [{code}]")
        assert block[2].startswith("  paired ratio ") and block[2].endswith(" of 1 rounds")
    assert re.fullmatch(r"geometric mean of the paired ratios \d+\.\d{4} over 3 commands, "
                        r"this checkout faster in [0-3] of 3 commands", lines[12])
    assert len(lines) == 13
    doc = json.loads((tmp_path / "cold.json").read_text())
    assert [row["command"] for row in doc["rows"]] == [lines[0], lines[4], lines[8]]
    assert all(len(row[side]["seconds"]) == 1 for row in doc["rows"] for side in ("base", "change"))


def test_without_a_command_it_prints_its_usage():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_cold.py"), "--against", "HEAD"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and "--against REV" in done.stderr
