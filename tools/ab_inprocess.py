"""Alternating in-process A/B timing of maxsurf commands: a git revision against this checkout.

    python3 tools/ab_inprocess.py --against REV [--rounds N] [--calls K] -- ARGV... [-- ARGV...]

Each ARGV is one maxsurf command line (``check timelike.ext.cfg``); a bare
``--`` separates commands.  Paths in them are read from the current directory.

REV is extracted with the capture tool's ``git archive`` helper into a
temporary directory (removed afterwards).  One interpreter imports REV's
``maxsurf`` and this checkout's side by side, under two package names, and
calls each side's ``main(argv)`` with stdout and stderr captured.  Per
command, each side makes one warm-up call; then each round makes K pairs of
calls, one call per side, alternating call by call, with the side that goes
first swapped from one pair to the next.  So the two sides of a pair run
under the same load, and a round gives each side one time per command, the
median of its K calls.

Printed per command: each side's median over the rounds with its quartiles,
the paired ratio (the median over rounds of this checkout's time over REV's)
and the number of rounds this checkout was faster.  A last line sums up the
run: the geometric mean of the commands' paired ratios, and the number of
commands whose paired ratio is below 1.  A command whose exit code differs
between the sides, or between calls, ends the run with exit 1.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import itertools
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def load_cli(package: str, src: Path):
    """The ``cli`` module of the maxsurf package under ``src``, imported as ``package``; the package's
    own imports are relative, so each copy imports its own modules."""
    pkg = src / "maxsurf"
    spec = importlib.util.spec_from_file_location(package, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{package}.cli")


def call(main, argv: list[str]) -> tuple[float, int]:
    """One call of main(argv) with its output captured: (seconds, exit code)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        rc = main(argv)
        return time.perf_counter() - start, rc


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); all three are the value itself for one value."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summary(ratios: list[float]) -> str:
    """The run's last line: the geometric mean of the commands' paired ratios, and how many are below 1."""
    faster = sum(r < 1 for r in ratios)
    return (f"geometric mean of the paired ratios {statistics.geometric_mean(ratios):.4f} over {len(ratios)} commands, "
            f"this checkout faster in {faster} of {len(ratios)} commands")


def compare(rev: str, commands: list[list[str]], rounds: int, calls: int) -> int:
    sys.path.insert(0, str(ROOT / "tools"))
    from capture_outputs import extract

    times = {side: [[] for _ in commands] for side in SIDES}
    codes = {side: [set() for _ in commands] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        extract(rev, tmp)
        mains = {side: load_cli(f"maxsurf_ab_{side}", src).main
                 for side, src in zip(SIDES, (Path(tmp) / "src", ROOT / "src"))}
        for k, argv in enumerate(commands):
            for side in SIDES:  # warm-up
                codes[side][k].add(call(mains[side], argv)[1])
        pairs = itertools.count()
        for _ in range(rounds):
            for k, argv in enumerate(commands):
                took = {side: [] for side in SIDES}
                for _ in range(calls):
                    for side in SIDES if next(pairs) % 2 == 0 else SIDES[::-1]:
                        seconds, rc = call(mains[side], argv)
                        took[side].append(seconds)
                        codes[side][k].add(rc)
                for side in SIDES:
                    times[side][k].append(statistics.median(took[side]))
    status, ratios = 0, []
    for k, argv in enumerate(commands):
        base, change = times["base"][k], times["change"][k]
        print(" ".join(argv))
        for label, side in ((rev, "base"), ("this checkout", "change")):
            q1, q2, q3 = (1e3 * t for t in quartiles(times[side][k]))
            print(f"  {label:>14}: median {q2:.4f} ms  quartiles [{q1:.4f}, {q3:.4f}]  exit {sorted(codes[side][k])}")
        ratio = statistics.median(c / b for b, c in zip(base, change))
        ratios.append(ratio)
        won = sum(c < b for b, c in zip(base, change))
        print(f"  paired ratio {ratio:.4f}, this checkout faster in {won} of {len(base)} rounds")
        if len(codes["base"][k] | codes["change"][k]) != 1:
            print("  exit codes differ")
            status = 1
    print(summary(ratios))
    return status


def parse_line(argv: list[str], names: set[str], usage: str) -> tuple[dict[str, str], list[list[str]]]:
    """The options before the first bare ``--`` (``--against`` and some of ``names``, each with a value) and
    the commands after it, one per ``--``; exits with ``usage`` when either is missing or malformed."""
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
    if not commands or len(head) % 2 or "--against" not in options or set(options) - names - {"--against"}:
        sys.exit(usage)
    return options, commands


def main(argv: list[str]) -> int:
    options, commands = parse_line(argv, {"--rounds", "--calls"}, __doc__)
    rounds, calls = int(options.get("--rounds", 10)), int(options.get("--calls", 20))
    if rounds < 1 or calls < 1:
        sys.exit("--rounds and --calls must be at least 1")
    return compare(options["--against"], commands, rounds, calls)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
