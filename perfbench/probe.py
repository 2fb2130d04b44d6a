"""Machine-speed probe that turns wall times into reference seconds.

On a shared machine the same code runs up to about 1.8x slower while
other tenants load the host, and the load switches within seconds. A
median over runs cannot remove this. The probe is a thread that wakes
every ``PERIOD_S`` and times a fixed slice of interpreter and
small-matrix work, the same kind of work as an LSTM step, by its
thread CPU time. It holds the interpreter lock for under a millisecond
per wake-up. A span of wall time then converts to reference seconds:
each sample's share of the span is weighted by ``REF_SLICE_S`` divided
by that sample's slice time. On an unloaded machine like the one the
benchmark was written on, reference seconds equal wall seconds. Spans
shorter than a few periods borrow samples from just around them.

The slice is timed by CPU time, so it does not count waiting for the
lock or for a core. It still counts a slower core, whoever slows it.
When the program's own threads load the other core, that slowdown is
discounted along with the host's, so a change that adds parallel work
must also be judged on the raw wall times in the detail line. Phases
unlike the slice, such as KNN's large matrix products and sorts, slow
down differently under load and are rescaled less exactly.
"""

from __future__ import annotations

import threading
import time

import numpy as np

PERIOD_S = 0.05
MIN_SAMPLES = 5
WIDEN_S = 0.5
# Thread CPU time of one slice on an unloaded 2-core Intel Xeon host.
REF_SLICE_S = 3.5e-4

_W = np.random.default_rng(0).uniform(-0.1, 0.1, size=(64, 256))


def _slice() -> int:
    h = np.zeros(64)
    for _ in range(40):
        z = h @ _W
        h = np.tanh(z[:64]) * (0.5 + 0.5 * np.tanh(z[64:128]))
    total = 0
    for i in range(2000):
        total += i * i
    return total


class SpeedProbe:
    """Context manager running the sampling thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (wall clock, slice CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe",
                                        daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            cpu = time.thread_time()
            _slice()
            cpu = time.thread_time() - cpu
            # The thread clock has been seen to read 0 for a slice; a
            # reading far below the unloaded time is a clock fault.
            if cpu > REF_SLICE_S / 4:
                self.samples.append((time.perf_counter(), cpu))

    def ref_seconds(self, start: float, end: float) -> float:
        """Wall span [start, end] (perf_counter) in reference seconds.

        Uses the samples inside the span, widened step by step around it
        until at least ``MIN_SAMPLES`` are available.
        """
        if not self.samples:
            return end - start
        lo, hi = start, end
        while True:
            inside = [cpu for t, cpu in self.samples if lo <= t <= hi]
            if len(inside) >= MIN_SAMPLES or (lo <= self.samples[0][0]
                                              and hi >= self.samples[-1][0]):
                break
            lo, hi = lo - WIDEN_S, hi + WIDEN_S
        if not inside:
            return end - start
        return (end - start) * sum(REF_SLICE_S / c for c in inside) / len(inside)
