"""Wall time corrected for the speed of a shared host.

The benchmark's host is a virtual machine whose tenants slow it by up to 2x
in phases of seconds to minutes, and CPU time slows with wall time, so neither
clock is steady between runs. ``HostClock`` times a block of code and, every
``PERIOD_S`` of it, runs a fixed probe from a signal handler, between the
block's own bytecodes. Each stretch of the block between two probes is scaled
by the probe's reference time over the time of the probe that ends it; their
sum is the block's time in reference seconds, the time it would take on a host
that runs the probe in its reference time. The probes' own time is left out.
Each probe runs twice and only the second run is timed, so what the block
leaves in the caches does not change the reading.

Contention slows code by how it uses the processor, so a probe must resemble
the code it times: ``DISPATCH`` (many numpy calls on tiny arrays) tracks the
acquisition, the loop and interpreter set-up, and ``MEMORY`` (a multiply and
sum over a 4 MB array) tracks the oracle's grid scan. Measured on the host of
perfbench/noise.json over 27 repetitions of one operation while the host's
speed varied 2x, the coefficient of variation of ``acq_p1_q1``'s time fell
from 24% (wall) to 4.5% with ``DISPATCH`` (12% with ``MEMORY``), and that of
``oracle_p3`` from 12% to 2.7% with ``MEMORY`` (7% with ``DISPATCH``).
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

PERIOD_S = 0.025


@dataclass(frozen=True)
class Probe:
    run: Callable[[], object]
    # One run's time on the reference host, perfbench/noise.json's, in its fast
    # phases, between the operations of the workloads that use the probe.
    ref_s: float


_TINY = np.arange(64.0).reshape(8, 8)
_LARGE = np.linspace(0.0, 1.0, 1 << 19)


def _dispatch() -> None:
    x = _TINY
    for _ in range(20):
        x = np.exp(-((_TINY - x.T) ** 2)).sum(axis=0) + _TINY


DISPATCH = Probe(_dispatch, 1.25e-4)
MEMORY = Probe(lambda: (_LARGE * 2.0).sum(), 1.0e-3)


class HostClock:
    """Context manager: ``wall_s`` and ``ref_s`` of the block it wraps."""

    def __init__(self, probe: Probe = DISPATCH):
        self.probe = probe
        self.wall_s = self.ref_s = float("nan")
        self.probes: list[float] = []

    def _on_alarm(self, *_):
        if not self._busy:
            self._measure(time.perf_counter())

    def _measure(self, stretch_end: float) -> None:
        """Times the probe and scales the stretch that ended at `stretch_end`."""
        self._busy = True
        self.probe.run()
        t0 = time.perf_counter()
        self.probe.run()
        t1 = time.perf_counter()
        self.probes.append(t1 - t0)
        self._ref += (stretch_end - self._stretch_start) * self.probe.ref_s / (t1 - t0)
        self._stretch_start = time.perf_counter()
        self._probe_s += self._stretch_start - stretch_end
        self._busy = False

    def __enter__(self):
        self.probes = []
        self._ref = self._probe_s = 0.0
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = self._stretch_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = end - self._start - self._probe_s
        self._measure(end)  # scales the last stretch by a probe just after the block
        self.ref_s = self._ref
        return False
