"""Alternating in-process A/B timing of maxsurf commands: a git revision against this checkout.

    python3 tools/ab_inprocess.py --against REV [--rounds N] [--calls K] -- ARGV... [-- ARGV...]

Each ARGV is one maxsurf command line (``check timelike.ext.cfg``); a bare
``--`` separates commands.  Paths in them are read from the current directory.

REV is extracted with the capture tool's ``git archive`` helper into a
temporary directory (removed afterwards).  Each round starts one fresh
interpreter on REV's ``src`` and one on this checkout's, in alternating order
(REV first in even rounds).  An interpreter imports ``maxsurf.cli``, then per
command makes one warm-up call of ``main(argv)`` and K timed calls, with stdout
and stderr captured, and reports the median of the K.  So a round gives each
side one time per command.

Printed per command: each side's median over the rounds with its quartiles,
the paired ratio (the median over rounds of this checkout's time over REV's)
and the number of rounds this checkout was faster.  A command whose exit code
differs between the sides, or between calls, ends the run with exit 1.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One interpreter: argv[1] is the src directory, argv[2] the JSON list of commands, argv[3] the calls.
CHILD = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from maxsurf.cli import main

def call(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        rc = main(argv)
        return time.perf_counter() - start, rc

out = []
for argv in json.loads(sys.argv[2]):
    _, rc = call(argv)
    times, codes = zip(*(call(argv) for _ in range(int(sys.argv[3]))))
    out.append({"rc": sorted({rc, *codes}), "median": sorted(times)[len(times) // 2]})
print(json.dumps(out))
"""


def run_side(src: Path, commands: list[list[str]], calls: int) -> list[dict]:
    """One fresh interpreter's medians and exit codes, one per command."""
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), json.dumps(commands), str(calls)],
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); all three are the value itself for one value."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(rev: str, commands: list[list[str]], rounds: int, calls: int) -> int:
    sys.path.insert(0, str(ROOT / "tools"))
    from capture_outputs import extract

    times = {side: [[] for _ in commands] for side in ("base", "change")}
    codes = {side: [set() for _ in commands] for side in ("base", "change")}
    with tempfile.TemporaryDirectory() as tmp:
        extract(rev, tmp)
        srcs = {"base": Path(tmp) / "src", "change": ROOT / "src"}
        for r in range(rounds):
            for side in ("base", "change") if r % 2 == 0 else ("change", "base"):
                for k, record in enumerate(run_side(srcs[side], commands, calls)):
                    times[side][k].append(record["median"])
                    codes[side][k].update(record["rc"])
    status = 0
    for k, argv in enumerate(commands):
        base, change = times["base"][k], times["change"][k]
        print(" ".join(argv))
        for label, side in ((rev, "base"), ("this checkout", "change")):
            q1, q2, q3 = (1e3 * t for t in quartiles(times[side][k]))
            print(f"  {label:>14}: median {q2:.4f} ms  quartiles [{q1:.4f}, {q3:.4f}]  exit {sorted(codes[side][k])}")
        ratio = statistics.median(c / b for b, c in zip(base, change))
        won = sum(c < b for b, c in zip(base, change))
        print(f"  paired ratio {ratio:.4f}, this checkout faster in {won} of {len(base)} rounds")
        if len(codes["base"][k] | codes["change"][k]) != 1:
            print("  exit codes differ")
            status = 1
    return status


def main(argv: list[str]) -> int:
    head, commands = argv, []
    if "--" in argv:
        cut = argv.index("--")
        head, rest = argv[:cut], argv[cut + 1:] + ["--"]
        while "--" in rest:
            cut = rest.index("--")
            if rest[:cut]:
                commands.append(rest[:cut])
            rest = rest[cut + 1:]
    options = dict(zip(head[::2], head[1::2]))
    if not commands or len(head) % 2 or "--against" not in options or set(options) - {"--against", "--rounds", "--calls"}:
        sys.exit(__doc__)
    rounds, calls = int(options.get("--rounds", 10)), int(options.get("--calls", 20))
    if rounds < 1 or calls < 1:
        sys.exit("--rounds and --calls must be at least 1")
    return compare(options["--against"], commands, rounds, calls)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
