"""Benchmark of the maxsurf CLI: seeded workloads through ``maxsurf.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload mesh-catenoid --seed 1 --seconds 12 --trace 0

One process, one thread, closed loop: each op is one ``main(argv)`` call
and the next starts only after it returns, so the Python and numpy import
is paid once, in set-up.  Every op's output is checked against a closed
form (see workloads.py); a wrong output counts as a failed op.  Times are
normalised to a nominal host speed by gauge readings around and during
each op (see gauge.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of whole stream cycles, each untraced and then again with spans
around the public functions of each layer (see tracing.py), and prints the
per-layer metrics, normalised per op of the workload's own stream.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  NOTES.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))
from gauge import NOMINAL_S, Gauge  # noqa: E402
from workloads import (  # noqa: E402
    BASE_CONFIGS,
    EXTENDABLE,
    NATIVE_KINDS,
    Checker,
    Files,
    Op,
    probe,
    stream,
)

SETUP_ROUNDS = 9
# Whole cycles in a traced run: enough for stable per-op means, and fixed so
# that counts repeat exactly across runs (the run stops sooner only when
# --seconds have passed).
TRACE_CYCLES = {"mesh-catenoid": 2, "check-fixtures": 40, "query-mixed": 100}


def run_op(op: Op, files: Files) -> tuple[int, str]:
    """One CLI call: (exit code, stdout)."""
    from maxsurf import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(files.argv(op))  # looked up per call, so a traced main is used
    return rc, out.getvalue()


class Runner:
    """Runs ops between gauge readings, checks them, keeps their timings."""

    def __init__(self, files: Files, checker: Checker, gauge: Gauge):
        self.files = files
        self.checker = checker
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.timed: list[tuple[Op, float, float, float]] = []  # (op, start, end, seconds)

    def run(self, op: Op) -> None:
        span, (rc, out) = _timed(self.gauge, lambda: run_op(op, self.files))
        self.timed.append((op, *span))
        self.attempted += 1
        if not self.checker(op, rc, out):
            self.failed += 1

    def latencies(self, first: int = 0, last: int | None = None) -> dict[tuple[str, str], list[float]]:
        """Normalised seconds per (op kind, target), for ops timed[first:last]."""
        out: dict[tuple[str, str], list[float]] = {}
        for op, start, end, dt in self.timed[first:last]:
            out.setdefault((op.kind, op.target), []).append(self.gauge.normalise(start, end, dt))
        return out


def _timed(gauge: Gauge, fn):
    """Run fn() after a gauge reading and with timed readings inside it.

    Returns ((start, end, seconds), fn's result), where seconds leaves out
    the readings taken inside.  The next reading, taken before the next
    timed call or by ``Gauge.read``, closes the interval.
    """
    gauge.read()
    with gauge.timing():
        t0, s0 = time.perf_counter(), gauge.stolen
        value = fn()
        t1, s1 = time.perf_counter(), gauge.stolen
    return (t0, t1, t1 - t0 - (s1 - s0)), value


def set_up(runner: Runner) -> float:
    """Write the base configs and extend the four that carry a plane.

    Returns setup_s: the median time of a fresh interpreter importing
    maxsurf.cli, plus the median time of writing the configs and making the
    set-up extend calls, each over SETUP_ROUNDS rounds.  Each extended
    config must then pass ``check``; the emitted bytes become the reference
    that later extend ops must repeat.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import maxsurf.cli"]
    gauge = runner.gauge
    imports = [
        _timed(gauge, lambda: subprocess.run(cmd, env=env, cwd=ROOT, check=True))[0]
        for _ in range(SETUP_ROUNDS)
    ]
    files = runner.files

    def write_and_extend():
        for name, text in BASE_CONFIGS.items():
            with open(files.config(name), "w", encoding="utf-8") as fh:
                fh.write(text)
        return [(op, *run_op(op, files)) for op in (Op("extend", b) for b in EXTENDABLE)]

    rounds = [_timed(gauge, write_and_extend) for _ in range(SETUP_ROUNDS)]
    gauge.read()
    setup_s = statistics.median(gauge.normalise(*t) for t in imports) + statistics.median(
        gauge.normalise(*t) for t, _ in rounds
    )
    outcomes = rounds[-1][1]
    for op, rc, out in outcomes:
        runner.attempted += 1
        if not runner.checker(op, rc, out):
            runner.failed += 1
    for base in EXTENDABLE:
        runner.run(Op("check", base + ".ext"))
    return setup_s


def _p(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, runner, rng, seconds, setup_s):
    first = len(runner.timed)
    deadline = time.perf_counter() + seconds
    for cycle in stream(workload, rng):
        for op in cycle:
            runner.run(op)
        if time.perf_counter() >= deadline:
            break
    last = len(runner.timed)
    for op in probe(workload, full=True):
        runner.run(op)
    native = [t for ts in runner.latencies(first, last).values() for t in ts]
    lat = runner.latencies(first)
    ms: dict[str, list[float]] = {}
    for (kind, _), ts in lat.items():
        ms.setdefault(kind, []).extend(t * 1e3 for t in ts)
    # The four extend targets fall in clusters whose boundary sits at the
    # pooled median, so extend_ms.p50 is the median of per-target medians.
    extend_medians = [statistics.median(ts) * 1e3 for (kind, _), ts in lat.items() if kind == "extend"]
    mesh_vertices = 65 * 65 * len(ms["mesh65"]) + 33 * 33 * len(ms["mesh33"])
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(native) / sum(native), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "mesh65_ms.p50": (_p(ms["mesh65"], 50), "ms"),
        "mesh33_ms.p50": (_p(ms["mesh33"], 50), "ms"),
        "mesh_vertices_per_s": (mesh_vertices * 1e3 / (sum(ms["mesh65"]) + sum(ms["mesh33"])), "1/s"),
        "check_ms.p50": (_p(ms["check"], 50), "ms"),
        "check_ms.p90": (_p(ms["check"], 90), "ms"),
        "eval_ms.p50": (_p(ms["eval"], 50), "ms"),
        "eval_ms.p90": (_p(ms["eval"], 90), "ms"),
        "extend_ms.p50": (statistics.median(extend_medians), "ms"),
    }


def per_layer(workload, runner, rng, seconds):
    from tracing import Tracer

    tracer = Tracer()
    first_reading = len(runner.gauge.readings)
    n = field_max = written = 0
    untraced = traced = 0.0

    def replay(ops):
        """Run ops traced; returns their normalised seconds."""
        nonlocal field_max, written
        first = len(runner.timed)
        tracer.install()
        try:
            for op in ops:
                before = tracer.field_calls
                runner.run(op)
                field_max = max(field_max, tracer.field_calls - before)
                written += _bytes_written(op, runner.files)
        finally:
            tracer.uninstall()
        return sum(map(sum, runner.latencies(first).values()))

    # Each cycle runs untraced, then traced, so that warm-up and host drift
    # fall on both passes alike.
    deadline = time.perf_counter() + seconds
    for cycles, cycle in enumerate(stream(workload, rng), 1):
        first = len(runner.timed)
        for op in cycle:
            runner.run(op)
        untraced += sum(map(sum, runner.latencies(first).values()))
        traced += replay(cycle)
        n += len(cycle)
        if cycles >= TRACE_CYCLES[workload] or time.perf_counter() >= deadline:
            break
    # One small op of every kind the stream lacks, with fixed inputs, so that
    # every layer is busy and the counts do not depend on the seed.
    replay(probe(workload, full=False))
    tracer.write(WORK / f"spans-{workload}.tsv")

    calls, total, self_s, layer_self = tracer.totals()
    # span times on the same host-speed scale as the end-to-end metrics
    scale = NOMINAL_S / statistics.median(runner.gauge.readings[first_reading:])

    def ms(name):
        return total[name] * 1e3 * scale / n, "ms/op"

    def per_op(name):
        return calls[name] / n, "calls/op"

    def us_per_call(name):
        return total[name] * 1e6 * scale / max(calls[name], 1), "us"

    m = {
        "cli.parse_config.ms": ms("cli.parse_config"),
        "cli.extended_surface.ms": ms("cli.extended_surface"),
        "cli.extended_surface.calls": per_op("cli.extended_surface"),
        "cli.build_mesh.self_ms": (self_s["cli.build_mesh"] * 1e3 * scale / n, "ms/op"),
        "cli.write_obj.ms": ms("cli.write_obj"),
        "cli.write_sidecar.ms": ms("cli.write_sidecar"),
        "cli.bytes_written": (written / n, "B/op"),
        "weierstrass.evaluate_surface.calls": per_op("weierstrass.evaluate_surface"),
        "weierstrass.evaluate_surface.us_per_call": us_per_call("weierstrass.evaluate_surface"),
        "weierstrass.surface_path.calls": per_op("weierstrass.surface_path"),
        "weierstrass.surface_path.ms": ms("weierstrass.surface_path"),
        "weierstrass.field_evals": (tracer.field_calls / 2 / n, "evals/op"),
        "weierstrass.field_evals.max": (field_max / 2, "evals"),
        "weierstrass.gk15_panels": (tracer.panels / n, "panels/op"),
        "weierstrass.path_points.mean": (statistics.fmean(tracer.path_points or [0]), "points"),
        "weierstrass.err_est.max": (max(tracer.path_errors, default=0.0), "abs"),
        "weierstrass.conformal_factor.ms": ms("weierstrass.conformal_factor"),
        "weierstrass.gauss_map.ms": ms("weierstrass.gauss_map"),
        "expr.parse.ms": ms("expr.parse"),
        "expr.evaluate.calls": per_op("expr.evaluate"),
        "expr.evaluate.ms": ms("expr.evaluate"),
        "expr.compile_fn.calls": per_op("expr.compile_fn"),
        "expr.compile_fn.ms": ms("expr.compile_fn"),
        "expr.differentiate.ms": ms("expr.differentiate"),
        "expr.format_expr.ms": ms("expr.format_expr"),
        "extension.measure_contact.calls": per_op("extension.measure_contact"),
        "extension.measure_contact.ms": ms("extension.measure_contact"),
        "extension.extend.ms": ms("extension.extend"),
        "extension.ExtendedSurface.evaluate.calls": per_op("extension.ExtendedSurface.evaluate"),
        "extension.ExtendedSurface.evaluate.us_per_call": us_per_call("extension.ExtendedSurface.evaluate"),
        "verify.full_diagnostics.self_ms": (self_s["verify.full_diagnostics"] * 1e3 * scale / n, "ms/op"),
        "verify.harmonicity_order.ms": ms("verify.harmonicity_order"),
        "trace_overhead_frac": (traced / untraced - 1, "frac"),
    }
    for layer, s in layer_self.items():
        m[f"{layer}.self_ms"] = (s * 1e3 * scale / n, "ms/op")
    return m


def _bytes_written(op: Op, files: Files) -> int:
    if op.kind.startswith("mesh"):
        path = files.mesh(int(op.kind[4:]))
        return os.path.getsize(path) + os.path.getsize(path + ".attrs.json")
    if op.kind == "extend":
        return os.path.getsize(files.config(op.target + ".ext"))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NATIVE_KINDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "maxsurf" / "cli.py").is_file():
        sys.stderr.write(f"error: no maxsurf sources at {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    files = Files(WORK)
    runner = Runner(files, Checker(files), Gauge())
    rng = np.random.default_rng(args.seed)
    setup_s = set_up(runner)
    if args.trace:
        metrics = per_layer(args.workload, runner, rng, args.seconds)
    else:
        metrics = end_to_end(args.workload, runner, rng, args.seconds, setup_s)
    readings = runner.gauge.readings
    print(f"host gauge: median {statistics.median(readings) * 1e3:.4f} ms over {len(readings)} "
          f"readings; times below are normalised to {NOMINAL_S * 1e3:g} ms (see gauge.py)")
    for line in runner.checker.errors:
        sys.stderr.write(f"wrong output: {line}\n")
    print(f"workload {args.workload} seed {args.seed}: {runner.attempted} ops, "
          f"{runner.failed} failed (failed_frac {runner.failed / runner.attempted:.4g})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
