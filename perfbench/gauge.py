"""Host-speed gauge: a fixed kernel timed around and during ops.

On a shared 2-core x86-64 host, the speed of the core a run gets can flip
between a fast and a slow state (about 1.7x apart) every fraction of a
second, while the share of slow time drifts over minutes.
CPU time moves with it.  The gauge times a fixed pure-Python kernel shaped
like the program's work: closures over complex arithmetic summed in
Gauss-Kronrod fashion, then float formatting, small allocations and JSON
output, as in mesh and report writing.

A reading is one kernel run, taken right before every op and, from a
SIGALRM timer, every PERIOD seconds while the op runs.  So a short op
shares the host state of the readings next to it, and a long op is
compared with readings spread over its own run.  The time the timer's
readings take is subtracted from the op.  An op's latency is rescaled by
NOMINAL_S over the mean of the readings from the one before it to the one
after it: the op's time on a host where the kernel takes NOMINAL_S.  The
kernel never calls maxsurf, so no change to the program moves it.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import signal
from time import perf_counter

# Kernel time on such a host in its fast state, so normalised times read
# close to wall time there.
NOMINAL_S = 1.0e-3
PERIOD = 0.05

_NODES = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993944,
          0.5860872354676911, 0.4058451513773972, 0.2077849550078985)


def _kernel() -> int:
    f = lambda z: 1 / (z * z)  # noqa: E731
    g = lambda z: z  # noqa: E731

    def field(z):
        fv, gv = f(z), g(z)
        g2 = gv * gv
        return 0.5 * fv * (1 + g2), 0.5j * fv * (1 - g2), fv * gv

    s1 = s2 = s3 = 0j
    for k in range(40):
        c = complex(0.3 + 1e-3 * k, 0.2)
        for x in _NODES:
            a, b = field(c + x), field(c - x)
            s1 += a[0] + b[0]
            s2 += a[1] + b[1]
            s3 += a[2] + b[2]
    rows = [f"v {k * 0.37:.17g} {k * 1.1 - 3.0:.17g} {(k % 7) / 3.0:.17g}" for k in range(100)]
    doc = [{"row": r, "sum": [s1.real, s2.imag, s3.real], "k": k} for k, r in enumerate(rows)]
    return len(json.dumps(doc, sort_keys=True)) + len("\n".join(rows))


class Gauge:
    def __init__(self):
        self.times: list[float] = []  # when each reading ended
        self.readings: list[float] = []  # kernel seconds
        self.stolen = 0.0  # seconds of readings taken inside timed intervals

    def read(self) -> float:
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.times.append(t1)
        self.readings.append(t1 - t0)
        return t1 - t0

    def _tick(self, signum, frame) -> None:
        self.stolen += self.read()

    @contextlib.contextmanager
    def timing(self):
        """Take readings every PERIOD seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def normalise(self, start: float, end: float, seconds: float) -> float:
        """Rescale ``seconds`` of work done from ``start`` to ``end`` to the
        nominal host speed, using the readings from the last one before
        ``start`` to the first one after ``end`` (if any)."""
        first = bisect.bisect_right(self.times, start) - 1
        last = bisect.bisect_left(self.times, end)
        around = self.readings[first : last + 1]
        return seconds * NOMINAL_S * len(around) / sum(around)
