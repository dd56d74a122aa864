"""Speed correction of the benchmark's timings.

On a shared VM other tenants slow every process in spells of seconds to
minutes, by up to 2x, and CPU time follows wall time, so neither a longer run
nor CPU time removes the spells.  ``SpeedProbe`` measures the machine's speed
while the benchmark runs: a fixed probe kernel is timed every ``INTERVAL_S``
(from a SIGALRM handler, so also inside long calls into the program) and
``AFTER`` times after every timed interval.  ``speed_corrected`` scales a
time to the speed at which one probe takes ``REF_S``.

The probe kernel is DOP853 over a batch of 16 spectral parameters of a 2x2
system shaped like the monodromy right-hand side, with a fixed potential.  It
uses numpy and scipy only, so no change to shgspec changes its work.
"""

import signal
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

LAMS = np.linspace(0.5, 5.0, 16).astype(complex)
Y0 = np.tile(np.eye(2, dtype=complex), (LAMS.size, 1, 1)).ravel()
REPS = 2  # solves per probe
REF_S = 0.009  # one probe on the development VM (2-vCPU Xeon) in its fast spells
INTERVAL_S = 0.25
AFTER = 3


def _rhs(x, y):
    w = np.cos(2.0 * np.pi * x)
    m = np.empty((LAMS.size, 2, 2), dtype=complex)
    m[:, 0, 0], m[:, 1, 1] = 0.25 * w, -0.25 * w
    m[:, 0, 1] = LAMS - 1.0 / (16.0 * LAMS)
    m[:, 1, 0] = -m[:, 0, 1]
    return (m @ y.reshape(-1, 2, 2)).ravel()


def probe() -> float:
    """Wall time of one run of the probe kernel."""
    t = time.perf_counter()
    for _ in range(REPS):
        solve_ivp(_rhs, (0.0, 1.0), Y0, method="DOP853", rtol=1e-11, atol=1e-13)
    return time.perf_counter() - t


def speed_corrected(wall, probe_s) -> float:
    """``wall`` at the speed at which one probe takes REF_S; ``probe_s`` is
    the mean probe time over the interval."""
    return wall * REF_S / probe_s


class SpeedProbe:
    """Probes the machine's speed while active (a context manager).

    ``samples`` holds every probe time, in order.  The SIGALRM handler probes
    only from the main thread's next bytecode on, so a long C call delays a
    probe but never overlaps it.
    """

    def __init__(self):
        self.samples = []
        self._busy = True

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._busy = True
            self.samples.append(probe())
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._busy = True

    def time(self, fn):
        """Run ``fn()``; returns (its result, wall s, CPU s, mean probe s).

        The probes that ran inside ``fn`` are taken out of its wall and CPU
        time.  The mean covers them, the probes after the previous interval
        and ``AFTER`` probes run when ``fn`` returns.
        """
        first = max(len(self.samples) - AFTER, 0)
        self._busy = False
        c, t = time.process_time(), time.perf_counter()
        inside = len(self.samples)
        out = fn()
        self._busy = True
        wall, cpu = time.perf_counter() - t, time.process_time() - c
        spent = sum(self.samples[inside:])
        self.samples += [probe() for _ in range(AFTER)]
        return out, wall - spent, cpu - spent, statistics.fmean(self.samples[first:])
