"""Host-speed probe: rescale a measured interval to a fixed processor speed.

The benchmark's reference machine is a shared VM whose speed jumps between
levels up to 1.6x apart every few seconds and drifts over minutes. Raw
times follow the host, not the program. While a ``Probe`` is active, a
SIGALRM timer interrupts the run every ``INTERVAL_S`` seconds and times a
fixed reference kernel between two Python bytecodes of the program. An
interval of the run is then rescaled by how long that kernel took around
it:

    adjusted = (raw - probe time inside) * NOMINAL_S / median reference time

so a host twice as slow doubles both factors and leaves ``adjusted``
where it was, while a program twice as slow doubles only ``raw``. The
kernel mixes the kinds of work casmem does: interpreted arithmetic,
dict, str and list work, numpy calls on tiny arrays and numpy on a few
thousand elements. Among the mixes tried, it was one of those that kept
the medians of 30 s windows closest together on all three workloads;
kernels that stream memory (half a megabyte or more) followed the host
worse.

``NOMINAL_S`` is a fixed scale, near the kernel's time inside a run on
the reference host, so adjusted values read roughly as seconds there. It
is never measured, so it adds no noise; compare adjusted values only with
adjusted values from the same benchmark code.

The kernel touches no state of the program and draws no random numbers,
so it cannot change the program's outputs. Its own time is subtracted from
every interval, and it takes about 3-4% of the run.
"""
from __future__ import annotations

import signal
import time
from array import array

import numpy as np

INTERVAL_S = 0.025
NOMINAL_S = 7e-4  # a fixed scale, near the kernel's time inside a run on the reference host
MIN_SAMPLES = 9  # an interval with fewer samples inside borrows the nearest ones

_ROWS = np.linspace(-1.0, 1.0, 3000).reshape(500, 3, 2)
_MATS = np.linspace(0.5, 1.0, 12).reshape(3, 2, 2)
_TINY = np.linspace(0.5, 1.5, 8)

clock = time.perf_counter


def reference_kernel() -> float:
    """Interpreted arithmetic, dict/str/list work, tiny and small numpy calls.

    Every temporary stays far below glibc's 128 kB mmap threshold: a freed
    larger one would raise that threshold at a random point of the run and
    change the program's peak RSS from run to run.
    """
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    table = {i: (i, str(i)) for i in range(300)}
    names = sorted(v[1] for v in table.values())
    x = _TINY
    for _ in range(60):
        x = np.sqrt(x * x + 1.0)
    y = np.einsum("kde,nke->nkd", _MATS, _ROWS)
    return s + len(names[0]) + float(x[0]) + float(np.exp(-0.5 * (y * y).sum(-1)).sum())


class Probe:
    """Reference-kernel samples over the active parts of a run.

    ``with probe:`` arms the timer and ``__exit__`` disarms it, so only the
    code inside is sampled; samples from every ``with`` block of the run
    are kept together.
    """

    def __init__(self):
        self.start = array("d")
        self.end = array("d")

    def _sample(self, signum, frame):
        t0 = clock()
        reference_kernel()
        self.start.append(t0)
        self.end.append(clock())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def busy(self, a: float, b: float) -> float:
        """Seconds of [a, b] spent in the reference kernel."""
        start, end = np.asarray(self.start), np.asarray(self.end)
        return float(np.clip(np.minimum(end, b) - np.maximum(start, a), 0.0, None).sum())

    def raw(self, a: float, b: float) -> float:
        """Seconds of [a, b] spent in the program."""
        return b - a - self.busy(a, b)

    def reference_s(self, a: float, b: float) -> float:
        """Median kernel time over the samples in [a, b], or the nearest MIN_SAMPLES."""
        start, end = np.asarray(self.start), np.asarray(self.end)
        if len(start) == 0:
            raise RuntimeError("no host-speed samples: the probe was never active")
        distance = np.maximum(a - start, 0.0) + np.maximum(start - b, 0.0)
        inside = int(np.count_nonzero(distance == 0.0))
        nearest = np.argsort(distance, kind="stable")[: max(inside, MIN_SAMPLES)]
        return float(np.median(end[nearest] - start[nearest]))

    def adjusted(self, a: float, b: float) -> float:
        """Program seconds of [a, b], rescaled to the nominal host speed."""
        return self.raw(a, b) * NOMINAL_S / self.reference_s(a, b)
