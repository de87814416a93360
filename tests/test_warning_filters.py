"""The suite's warning filters, as ``pyproject.toml`` sets them: every warning is an error, except the
one that hypothesis' report of a falsifying example triggers on import."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
import numpy as np
from hypothesis import given, settings, strategies as st

from maxsurf.weierstrass import PhiTriple


@settings(database=None)
@given(st.integers())
def test_negative(x):
    assert x < 0


def test_overflow():
    PhiTriple(np.array([1e200]), np.array([0j]), np.array([0j])).density()
'''


def test_a_failing_property_shows_its_example_and_a_maxsurf_warning_still_fails(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(ROOT), str(tmp_path / "test_failing.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_negative(" in out and "x=0," in out
    assert "RuntimeWarning: overflow encountered in multiply" in out
    assert run.returncode == 1 and "2 failed" in out.splitlines()[-1]
