"""Alternating fresh-process A/B timing of maxsurf commands: a git revision against this checkout.

    python3 tools/ab_cold.py --against REV [--rounds N] [--json PATH] -- ARGV... [-- ARGV...]

Each ARGV is one maxsurf command line (``eval timelike.ext.cfg --at=0.3,-0.2``);
a bare ``--`` separates commands.  Paths in them are read from the current
directory.

REV is extracted with the capture tool's ``git archive`` helper into a
temporary directory (removed afterwards).  Each timed run is one fresh
``python -m maxsurf.cli ARGV`` process, with ``PYTHONPATH`` set to that side's
``src`` and its output discarded; its time is the wall time from the start
of the process to its exit, so it holds the interpreter's start, every
import and the command itself.  A first row times ``python -c "import
maxsurf.cli"``, the start-up alone.  Per row, each side makes one untimed
warm-up run; then each round runs every row once per side, one run at a
time, with the side that goes first swapped from one pair to the next.  So
the two sides of a pair run under the same load.  Every run writes and
reads its byte-code caches under the temporary directory
(``PYTHONPYCACHEPREFIX``), whatever ``PYTHONDONTWRITEBYTECODE`` says, so a
timed run compiles nothing, as a run of an installed package does, and
nothing is written into this checkout.

Printed per row: each side's median over the rounds with its quartiles, the
paired ratio (the median over rounds of this checkout's time over REV's)
and the number of rounds this checkout was faster; a last line sums up the
run as ``tools/ab_inprocess.py`` does.  ``--json PATH`` also writes every
run's time, in seconds, with the rows' medians, quartiles and ratios.  A row
whose exit code differs between the sides, or between runs, ends the run
with exit 1.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from ab_inprocess import SIDES, parse_line, quartiles, summary  # noqa: E402
from capture_outputs import extract  # noqa: E402

IMPORT_ROW = ["-c", "import maxsurf.cli"]


def run(src: Path, args: list[str], caches: Path) -> tuple[float, int]:
    """One fresh interpreter with ``src`` on its path and its byte-code caches under ``caches``, run to its
    exit: (seconds, exit code)."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONPYCACHEPREFIX": str(caches)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start, done.returncode


def compare(rev: str, commands: list[list[str]], rounds: int, json_path: str | None) -> int:
    rows = [IMPORT_ROW] + [["-m", "maxsurf.cli", *argv] for argv in commands]
    times = {side: [[] for _ in rows] for side in SIDES}
    codes = {side: [set() for _ in rows] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        extract(rev, tmp)
        srcs, caches = dict(zip(SIDES, (Path(tmp) / "src", ROOT / "src"))), Path(tmp) / "pycache"
        for k, args in enumerate(rows):
            for side in SIDES:  # warm-up, which also writes the byte-code caches
                codes[side][k].add(run(srcs[side], args, caches)[1])
        pairs = itertools.count()
        for _ in range(rounds):
            for k, args in enumerate(rows):
                for side in SIDES if next(pairs) % 2 == 0 else SIDES[::-1]:
                    seconds, rc = run(srcs[side], args, caches)
                    times[side][k].append(seconds)
                    codes[side][k].add(rc)
    status, ratios, report = 0, [], []
    for k, args in enumerate(rows):
        base, change = times["base"][k], times["change"][k]
        label = "import maxsurf.cli" if k == 0 else " ".join(commands[k - 1])
        print(label)
        entry = {"command": label}
        for name, side in ((rev, "base"), ("this checkout", "change")):
            q1, q2, q3 = (1e3 * t for t in quartiles(times[side][k]))
            print(f"  {name:>14}: median {q2:.1f} ms  quartiles [{q1:.1f}, {q3:.1f}]  exit {sorted(codes[side][k])}")
            entry[side] = {"median_ms": q2, "quartiles_ms": [q1, q3], "exit": sorted(codes[side][k]),
                           "seconds": times[side][k]}
        ratio = statistics.median(c / b for b, c in zip(base, change))
        ratios.append(ratio)
        won = sum(c < b for b, c in zip(base, change))
        print(f"  paired ratio {ratio:.4f}, this checkout faster in {won} of {len(base)} rounds")
        entry.update(paired_ratio=ratio, faster_rounds=won)
        if len(codes["base"][k] | codes["change"][k]) != 1:
            print("  exit codes differ")
            status = 1
        report.append(entry)
    print(summary(ratios))
    if json_path:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], capture_output=True, text=True).stdout.strip()
        doc = {"tool": "tools/ab_cold.py", "against": rev, "against_commit": commit, "rounds": rounds,
               "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
               "rows": report, "geometric_mean_ratio": statistics.geometric_mean(ratios)}
        Path(json_path).write_text(json.dumps(doc, indent=2) + "\n")
    return status


def main(argv: list[str]) -> int:
    options, commands = parse_line(argv, {"--rounds", "--json"}, __doc__)
    rounds = int(options.get("--rounds", 10))
    if rounds < 1:
        sys.exit("--rounds must be at least 1")
    return compare(options["--against"], commands, rounds, options.get("--json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
