"""Host-speed reference used to normalise wall times.

The 2-vCPU Xeon virtual machine this benchmark was tuned on (see
record.json) shares its host with other tenants.  With nothing changing
inside the process, the speed of a fixed computation drifted by up to 70%
over tens of seconds, and CPU time drifted with it, so neither raw wall
time nor CPU time repeats from run to run.  SpeedProbe runs a fixed
reference computation from a timer signal every PERIOD_S seconds and
records how long it took.  A timing is then reported twice: raw, and
rescaled by NOMINAL_S over the reference time measured around it, which
follows the code rather than the host.

The probe's own time is excluded from every interval measured through
SpeedProbe.start/stop.
"""

from __future__ import annotations

from dataclasses import dataclass
import signal
import time

import numpy as np

PERIOD_S = 0.1
MIN_SPAN_S = 2.0    # shorter intervals borrow samples from either side
NOMINAL_S = 5.0e-4  # mean in-run reference_unit() time on that machine


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def value(self, q):
        return self.a * min(q, 2 * self.b - q)


def reference_unit() -> str:
    """Fixed computation shaped like the library's own cost profile.

    Three parts: numpy on short arrays with an interpreted float loop,
    scalar RK4-style arithmetic on numpy floats, and small objects, dicts
    and float formatting.  In a four-minute test on that machine, the
    library's scalar, small-batch, analysis and CSV paths divided by a mix
    of these parts varied by 4-5% (coefficient of variation over 2 s
    windows) where their raw time varied by 14-15%.  The unit must never change, or normalised figures
    before and after a change stop being comparable.
    """
    x = np.linspace(0.0, 1.0, 64)
    v = np.zeros(64)
    acc = 0.0
    for _ in range(12):
        k1 = 0.1 * v - x
        k2 = 0.1 * v - (x + 0.005 * k1)
        x = x + 0.01 * (k1 + k2)
        v = np.maximum(v, x.min())
        for j in range(20):
            acc += j * 1e-3
    r = np.float64(1.0)
    q = np.float64(2.0)
    for _ in range(100):
        a = max(0.0, 0.2 - 0.002 * q)
        r = r + 0.01 * (4.0 - (0.001 * q + a) * r)
        q = q + 0.01 * (a * r - 0.08 * q)
    out = []
    seen = {}
    for i in range(40):
        w = float(np.maximum(0.0, np.asarray(_Point(1e-3, 45.0 + i).value(float(i))) * 2.0))
        seen[i % 7] = (w, str(i))
        out.append(format(w + acc + float(r), ".12g"))
    return ",".join(out)


@dataclass(frozen=True)
class Interval:
    start: float    # perf_counter at the start
    end: float      # perf_counter at the end
    seconds: float  # end - start minus the probe's own time in between


class SpeedProbe:
    """Samples host speed from SIGALRM while active (use as a context manager)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_unit()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        for _ in range(5):  # so the first interval has samples before it
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self) -> float:
        """perf_counter with the probe's own time taken out."""
        return time.perf_counter() - self.spent

    def start(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def stop(self, token: tuple[float, float]) -> Interval:
        t0, spent0 = token
        t1 = time.perf_counter()
        return Interval(t0, t1, (t1 - t0) - (self.spent - spent0))

    def reference_s(self, iv: Interval) -> float:
        """Mean reference time over the interval, widened to MIN_SPAN_S."""
        pad = max(0.0, (MIN_SPAN_S - (iv.end - iv.start)) / 2)
        lo, hi = iv.start - pad, iv.end + pad
        vals = [d for t, d in self.samples if lo <= t <= hi]
        if not vals:
            raise RuntimeError("no speed samples around the interval")
        return sum(vals) / len(vals)

    def normalised(self, iv: Interval) -> float:
        """Interval seconds rescaled to the nominal host speed."""
        return iv.seconds * NOMINAL_S / self.reference_s(iv)
