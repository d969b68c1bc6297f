"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a few virtual cores of a shared host whose speed
drifts with what its neighbours do: the same pass of the same code took
anywhere from 10 s to 20 s in runs minutes apart, and one method's time
swung by a third between consecutive calls in one process. A timing taken
as is would measure the neighbours as much as the program.

So every run also times a fixed reference kernel, :func:`kernel`: plain
Python integer, list and dict work that belongs to the benchmark, never to
the program. A :class:`HostSpeed` records when each kernel ran and how
much CPU time it took. The host's slowdown over an interval is the mean
kernel time of the samples in it divided by :data:`REFERENCE_KERNEL_S`,
the kernel's median time on the reference machine. A calibrated timing is
the measured one divided by that slowdown: the time the operation would
have taken on the reference machine at rest. A change to the program moves
calibrated timings as much as raw ones; a change of host speed moves the
kernel along with the program and cancels.

The kernel has to run *inside* the operations it calibrates: samples taken
only before and after a call of several seconds did not track it at all
(the host's speed changes within the call). Operations that run on the
calling thread are therefore timed under :meth:`HostSpeed.profiling`: a
``SIGPROF`` interval timer interrupts the thread every few milliseconds of
CPU time and the handler runs one kernel there, in the program's own
thread and cache context. The handler keeps count of the CPU time it
took, and :meth:`HostSpeed.cpu` (the thread's CPU time without it) is the
clock those operations are timed with, so no timed operation is charged
for a kernel. On a 2-vCPU VM this cut the run-to-run spread of one
decomposition method's time from 14 % to 3 %. Work in another process
(the query server) is calibrated from samples that process takes: the
server runs one kernel after each request, on the thread that served it,
and returns the sample with the reply; the client takes the kernel's
wall-clock time off that request's latency. The server also profiles its
own start-up.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from typing import List

_clock = time.perf_counter
_cpu = time.thread_time

#: Median CPU time of one :func:`kernel` call, sampled inside the
#: benchmark's workloads on the reference machine (2 vCPU Intel Xeon VM,
#: Python 3.11).
REFERENCE_KERNEL_S = 0.00035
#: CPU time between two profiling samples.
PROFILE_EVERY_S = 0.01
#: Samples within this much wall-clock time of an operation calibrate it.
HALF_WINDOW_S = 0.5
#: Samples :meth:`HostSpeed.profiling` takes before it starts the timer.
SAMPLES_ON_ENTRY = 5


def kernel() -> int:
    """Fixed pure-Python work (about a quarter of a millisecond)."""
    table = {}
    items = []
    acc = 7
    for i in range(750):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        key = acc & 255
        table[key] = table.get(key, 0) + i
        items.append(acc >> 8)
    items.sort()
    return sum(table.values()) + items[len(items) // 2]


class HostSpeed:
    """Kernel samples of one run and the calibration they give."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.cost: List[float] = []
        #: CPU time the profiling handler has taken from this thread.
        self.spent = 0.0

    def sample(self) -> dict:
        """Run the kernel once on this thread and record it; returns the
        sample (``at``, its ``cpu_s`` and its ``wall_s``)."""
        t0, c0 = _clock(), _cpu()
        kernel()
        c1, t1 = _cpu(), _clock()
        sample = {"at": (t0 + t1) / 2, "cpu_s": c1 - c0, "wall_s": t1 - t0}
        self.record(sample)
        return sample

    def record(self, sample: dict) -> None:
        """Keep a sample, possibly taken by another process on this host
        (``perf_counter`` is the system-wide monotonic clock on Linux)."""
        self.at.append(sample["at"])
        self.cost.append(sample["cpu_s"])

    def cpu(self) -> float:
        """CPU time of the calling thread, less what profiling took."""
        return _cpu() - self.spent

    @contextmanager
    def profiling(self, interval: float = PROFILE_EVERY_S):
        """Sample from a ``SIGPROF`` handler every *interval* seconds of CPU
        time while inside, after a few samples on entry so that even the
        first operation has some near it. Call from the main thread only."""
        for _ in range(SAMPLES_ON_ENTRY):
            self.sample()

        def handler(_signum, _frame) -> None:
            c0 = _cpu()
            self.sample()
            self.spent += _cpu() - c0

        previous = signal.signal(signal.SIGPROF, handler)
        signal.setitimer(signal.ITIMER_PROF, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def mean_slowdown(self) -> float:
        """Host slowdown over every sample taken so far."""
        return sum(self.cost) / len(self.cost) / REFERENCE_KERNEL_S

    def slowdowns(self, starts, ends):
        """Host slowdown over each ``[start, end]`` wall-clock interval: the
        mean kernel time of the samples within :data:`HALF_WINDOW_S` of it
        (the nearest sample when none is) over :data:`REFERENCE_KERNEL_S`."""
        # Imported here so that the query server can start profiling its
        # start-up before numpy is loaded.
        import numpy as np

        # Snapshot the samples with list slices first: numpy checks for
        # signals while it converts a list, so the profiling handler could
        # append to it mid-conversion. A slice runs no handler, and every
        # handler appends to both lists before this code resumes.
        count = len(self.cost)
        at = np.array(self.at[:count])
        cost = np.array(self.cost[:count])
        order = np.argsort(at)
        at = at[order]
        cumulative = np.concatenate(([0.0], np.cumsum(cost[order])))
        lo = np.searchsorted(at, np.asarray(starts, dtype=np.float64) - HALF_WINDOW_S)
        hi = np.searchsorted(at, np.asarray(ends, dtype=np.float64) + HALF_WINDOW_S,
                             side="right")
        empty = hi <= lo
        nearest = np.clip(lo, 0, len(at) - 1)
        lo = np.where(empty, nearest, lo)
        hi = np.where(empty, nearest + 1, hi)
        return (cumulative[hi] - cumulative[lo]) / (hi - lo) / REFERENCE_KERNEL_S

    def calibrate(self, durations, starts, ends):
        """Calibrated *durations* (a numpy array) of operations that ran over
        the wall-clock intervals ``[starts, ends]``."""
        import numpy as np

        return np.asarray(durations, dtype=np.float64) / self.slowdowns(starts, ends)

    def timed(self, build):
        """Run ``build()`` under :meth:`profiling`; returns its result and
        its calibrated :meth:`cpu` time."""
        t0, c0 = _clock(), self.cpu()
        result = build()
        c1, t1 = self.cpu(), _clock()
        return result, float(self.calibrate([c1 - c0], [t0], [t1])[0])
