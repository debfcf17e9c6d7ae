"""Times scaled to a reference speed of the CPU.

The machines the benchmark runs on are shared.  Their speed drifts by a
third or more, often by half, over seconds to minutes, while a process
stays on its CPU the whole time (its CPU time equals its wall time).  A
raw time therefore says as much about the neighbours as about the code.

A `SpeedClock` runs a fixed slice of pure-Python work, the probe, at its
start, every PROBE_EVERY_S of wall time from a SIGALRM timer (the handler
runs in the main thread, between two bytecodes of whatever is running)
and at its stop.  The time between two probes is work; its speed is the
mean of the two probes around it.  The work inside an interval of raw
time is then counted twice: in ns, and in ns scaled by PROBE_REF_NS over
that speed.  Probe time is left out of both.
"""

from __future__ import annotations

import bisect
import signal
import time

PROBE_ITERS = 1_500
# What the probe takes at the reference speed: scaled times are the times
# on a CPU that runs the probe this fast.
PROBE_REF_NS = 1_500_000
PROBE_EVERY_S = 0.010


def _step(a: int, b: int) -> tuple[int, int]:
    return (a + b) & 1023, a ^ b


def probe() -> None:
    """A fixed slice of work of the kind the layers do: calls, tuple keys,
    dict updates, list building and sorting, small-integer arithmetic.
    Nothing it allocates lives past the call, so its time does not depend
    on the state of the heap."""
    d: dict = {}
    row: list = []
    x = 1
    for i in range(PROBE_ITERS):
        x, y = _step(x, i)
        k = (x & 63, y % 7)
        d[k] = d.get(k, 0) + 1
        row.append(k)
        if len(row) == 8:
            row.sort()
            row.clear()


class SpeedClock:
    def __init__(self) -> None:
        self.probes: list[tuple[int, int]] = []  # (start_ns, end_ns)
        self._busy = False
        self._starts: list[int] = []
        self._work: list[int] = []
        self._scaled: list[float] = []

    def sample(self, *_signal) -> None:
        if self._busy:  # a tick that arrives during a probe is dropped
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        probe()
        self.probes.append((t0, time.perf_counter_ns()))
        self._busy = False

    def start(self) -> None:
        probe()  # warm the interpreter's specialisation of the probe loop
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        # piece k is the work between probes k and k+1
        self._starts, self._work, self._scaled = [], [0], [0.0]
        for (s0, e0), (s1, e1) in zip(self.probes, self.probes[1:]):
            self._starts.append(e0)
            self._work.append(self._work[-1] + s1 - e0)
            self._scaled.append(self._scaled[-1] + (s1 - e0) * 2 * PROBE_REF_NS / (e0 - s0 + e1 - s1))

    def _before(self, t: int) -> tuple[int, float]:
        """Work and scaled work from the first probe up to raw time t."""
        k = bisect.bisect_right(self._starts, t) - 1
        if k < 0:
            return 0, 0.0
        start = self._starts[k]
        length = self._work[k + 1] - self._work[k]
        part = min(t - start, length)
        rate = (self._scaled[k + 1] - self._scaled[k]) / length if length else 0.0
        return self._work[k] + part, self._scaled[k] + part * rate

    def interval(self, t0: int, t1: int) -> tuple[int, float]:
        """Work between raw times t0 and t1, in ns and in scaled ns."""
        w0, s0 = self._before(t0)
        w1, s1 = self._before(t1)
        return w1 - w0, s1 - s0

    def probe_ns(self) -> list[int]:
        return [e - s for s, e in self.probes]
