"""Measure how fast the host runs while a CLI launch runs.

On a small shared virtual machine the same CLI run takes anywhere from 1.0x
to 1.8x its best time, in phases that last from under a second to minutes,
and the two vCPUs go through their phases apart.  The process's CPU time
stretches with its wall time, so the cores run slower rather than giving
the process less time, and neither the load average nor the steal counter
shows it.  A median within one run cannot remove a phase that covers the
whole run, and a fixed kernel timed before and after a launch misses what
happens during it.

So a Meter thread runs a fixed kernel on the same vCPU as the CLI, at the
same time, and counts its calls and the CPU time they take.  It runs at
nice +10, so the CLI keeps about nine tenths of the vCPU, and the two
share it in slices of a few milliseconds: both see the same phases.  A
launch's pace is the kernel's mean CPU time per call while the launch ran,
and its CPU times are scaled by REFERENCE_S / pace.  The result is in
reference seconds: what the launch would have taken had the host run the
kernel in REFERENCE_S.  A change to the program moves the launch's CPU
time but not the kernel's, so it moves the scaled time by the same share.

The kernel does the CLI's kind of work: interpreter loops and numpy calls on
9x9 matrices (eigh, exp, a matrix product, a partial transpose by reshape).
"""

import os
import threading
import time

import numpy as np

# The kernel's time on the 2-vCPU host of the baseline (Python 3.11, numpy 2.4)
# in a fast phase; it fixes the scale of reference seconds and nothing else.
REFERENCE_S = 0.0015

# The meter's nice value: a lower priority than the CLI's, never a higher one.
METER_NICE = 10

_BASE = np.random.default_rng(1).standard_normal((9, 9))
_BASE = _BASE + _BASE.T
_EYE = np.eye(9)


def kernel(repeats: int = 40) -> float:
    acc = 0.0
    for i in range(repeats):
        w, v = np.linalg.eigh(_BASE + (i * 1e-4) * _EYE)
        p = np.exp(-(w - w.min()))
        p /= p.sum()
        rho = (v * p) @ v.T
        pt = rho.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
        acc += float(np.abs(np.linalg.eigvalsh(pt)).sum())
        for x in p:
            acc += float(x) * float(x)
    return acc


class Meter:
    """Runs the kernel in a background thread until stopped; use as a context manager."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls = 0
        self._cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="pace-meter", daemon=True)

    def __enter__(self) -> "Meter":
        self._thread.start()
        self.pace_since(self.mark())  # warms the kernel up
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        # setpriority on a thread id changes that thread alone, on Linux
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), METER_NICE)
        while not self._stop.is_set():
            started = time.thread_time()
            kernel()
            spent = time.thread_time() - started
            with self._lock:
                self._calls += 1
                self._cpu_s += spent

    def mark(self) -> tuple[int, float]:
        with self._lock:
            return self._calls, self._cpu_s

    def pace_since(self, mark: tuple[int, float], min_calls: int = 5) -> float:
        """Mean CPU time per kernel call since `mark`.

        Waits until at least `min_calls` calls have ended, so a short launch
        is judged by the few milliseconds right after it too.
        """
        while True:
            calls, cpu_s = self.mark()
            if calls - mark[0] >= min_calls:
                return (cpu_s - mark[1]) / (calls - mark[0])
            time.sleep(0.002)
