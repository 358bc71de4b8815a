"""Pass timing that survives the machine's speed drifting under contention.

On a shared machine the same pass can take up to twice as long from one
process to the next, in CPU time as well as wall time.  While a pass runs,
a SIGALRM timer interrupts it every PERIOD_S seconds to run a fixed
calibration kernel (a short interpreter loop plus small-array numpy work,
independent of nodalrec) and records how long the kernel took.  The pass's
own time is its wall time minus the time spent in the kernel; the reported
time rescales it to the machine's reference speed:

    scaled_s = own_s * REFERENCE_KERNEL_S / kernel_s

where kernel_s is the mean of the fastest 90 % of the pass's kernel times.
The kernel slows down with the pass when the machine does, so the ratio
cancels most of that drift; what the program itself does faster or slower
passes through unchanged.  The machine flips between fast and slow states
within a single pass: a mean follows the share of time spent in each,
where a median jumps from one state to the other, and the slowest tenth is
left out because one-off stalls land there.

REFERENCE_KERNEL_S is a typical kernel_s on the machine the benchmark was
tuned on (2 vCPUs, Python 3.11, numpy 2.4), which ranged from 0.32 ms to
0.65 ms there, so scaled times read as seconds at that machine's middling
speed.
"""

import signal
import time

import numpy as np

PERIOD_S = 0.02
REFERENCE_KERNEL_S = 4.0e-4

_X = np.linspace(0.0, 1.0, 64)
_Y = np.linspace(0.0, 1.0, 800)


def kernel():
    """Fixed work: an interpreter loop, then small-array slicing, copies,
    ufuncs and a dot product (about 0.4 ms)."""
    s = 0.0
    for i in range(1500):
        s += i * 0.5
    for _ in range(20):
        s += float(np.sin(_X).sum())
    for i in range(40):
        w = _Y[: 400 + i].copy()
        w[-1] *= 0.5
        s += float(np.exp(-w) @ w)
    return s


class PassClock:
    """Context manager timing one pass; read wall_s, own_s, kernel_s (the
    trimmed mean above), scale and scaled_s after it exits.  sampled_s is
    the kernel time so far, so code timing a part of the pass can leave the
    kernel's share out."""

    def __init__(self):
        self.samples = []
        self.sampled_s = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.sampled_s += dt

    def __enter__(self):
        self.samples.clear()
        self.sampled_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.own_s = self.wall_s - self.sampled_s
        if not self.samples:  # a pass shorter than one period
            self._sample(None, None)
        fastest = sorted(self.samples)[: max(1, int(0.9 * len(self.samples)))]
        self.kernel_s = sum(fastest) / len(fastest)
        self.scale = REFERENCE_KERNEL_S / self.kernel_s
        self.scaled_s = self.own_s * self.scale
        return False
