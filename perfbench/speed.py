"""Machine speed, sampled while a workload runs, to put timings on one scale.

On a shared host the same pass can take 1.5x longer from one minute to the
next: the cores are shared with other tenants and the two cores do not run
at the same speed.  A fixed probe, a short loop of the tiny numpy operations
that dominate mfsoc's solvers, is timed every ``INTERVAL`` seconds from a
SIGALRM handler in the workload's own process, so it sees the core that the
workload is on, at the time it runs.  A timing divided by the probe's mean
slowdown against ``REFERENCE_S`` is the time the work would take on a core
running at the reference speed.  The probe's own time is subtracted first.

This holds only while the pass is single-threaded and single-process: then
the pass is paused while the probe runs, and nothing of the pass competes
with it.  A pass that keeps more than one core busy, starts child processes
or holds the signal off would move the probe as well as the pass time, so
``Sampler.refusal`` names such a pass and the run refuses to scale it.
"""

from __future__ import annotations

import os
import resource
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.02          # seconds between probes (about 1-2 % overhead)
REFERENCE_S = 300e-6     # probe time that defines the reference speed
MAX_CPU_RATIO = 1.1      # CPU time over wall time of a single-threaded pass: about 1.0
MIN_SAMPLE_SHARE = 0.5   # probes taken over probes due
_A = np.array([[-0.5]])
_Y0 = np.ones((1, 1))


def probe():
    """Time one fixed loop of tiny numpy operations."""
    y = _Y0.copy()
    t = time.perf_counter()
    for _ in range(40):
        y = y + 1e-3 * (_A @ y)
        float(np.einsum("ij,ij->", y, y))
    return time.perf_counter() - t


def _cpu_s():
    """CPU time of every thread of this process and of its reaped children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def _has_children():
    """Whether this process has a child, live or not yet reaped (reaps none)."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


class Sampler:
    """Context manager that probes the machine speed on a timer."""

    def __init__(self):
        self.samples = []
        self.children = False

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())
        self.children = self.children or _has_children()

    def __enter__(self):
        self.children = _has_children()
        self._cpu0, self._t0 = _cpu_s(), time.perf_counter()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.elapsed = time.perf_counter() - self._t0
        self.cpu_ratio = (_cpu_s() - self._cpu0) / self.elapsed
        return False

    def refusal(self):
        """Why the probe cannot scale this pass, or None when it can."""
        due = self.elapsed / INTERVAL
        if self.cpu_ratio > MAX_CPU_RATIO:
            return (f"the pass used {self.cpu_ratio:.2f} s of CPU per second, so work ran "
                    "in parallel with the probe")
        if self.children:
            return "the pass had a child process while the probe ran"
        if len(self.samples) < MIN_SAMPLE_SHARE * due:
            return (f"the probe ran {len(self.samples)} times of about {due:.0f} due, so "
                    "the signal was held off")
        return None

    def slowdown(self):
        """Mean probe time over the reference."""
        return statistics.fmean(self.samples) / REFERENCE_S

    def at_reference(self):
        """The pass time less the probes' own time, at the reference speed."""
        return (self.elapsed - sum(self.samples)) / self.slowdown()
