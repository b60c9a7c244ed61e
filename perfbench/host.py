"""Host-speed reference: a fixed load timed between the run's operations.

The 2-vCPU VM the benchmark was built on runs at two speeds about 1.5x
apart and switches between them every few seconds to several minutes
(see ``perfbench/README.md``). A median over one run reads whichever
speed held most of that run, so ten runs of the same code spread by up
to 0.38 of their median. So set-up times, and the times of the closed
workloads ``paper_suite`` and ``fleet_campaign``, are scaled to one
reference host speed: the benchmark samples the reference before and
after each operation (each set-up process, driver and campaign;
:meth:`HostSpeed.sample`) and divides its median readings by the median
sample over :data:`REFERENCE_MS` (:meth:`HostSpeed.slowdown`).
``plan_serve``'s readings are not scaled; ``perfbench/README.md`` says
why. The reference is pure NumPy and Python, defined here and calling
nothing of the program, so a change to the program moves the scaled
readings as it moves the wall times; the raw wall readings are printed
beside them.
"""

import time
from typing import List

import numpy as np

from perfbench import stats

REFERENCE_MS = 8.0
"""The reference's time, in ms, to which every gated reading is scaled:
about its median on the VM the benchmark was built on, so scaled
readings sit near the wall times seen there."""

PASSES = 3
"""Passes of the load per reference sample; the sample is their median."""

_SIGNAL = np.exp(1j * np.linspace(0.0, 50.0, 4 * 1024)).reshape(4, 1024)
"""64 KiB: below glibc's mmap threshold, so how the program has used the
heap before does not change what the reference's arrays cost."""

_STREAM = (np.zeros(1 << 20), np.ones(1 << 20))
"""Two 8 MiB buffers, allocated once: copying one into the other streams
through memory, which a neighbour can slow without touching the cores'
arithmetic."""


def _one_pass() -> float:
    """Small-batch FFTs, a dict-building Python loop and a stream through
    memory: the kinds of work the program's hot paths spend their time on."""
    began = time.perf_counter()
    for _ in range(2):
        np.copyto(_STREAM[0], _STREAM[1])
        np.copyto(_STREAM[1], _STREAM[0])
    acc = 0.0
    for step in range(80):
        acc += float(np.abs(np.fft.ifft(_SIGNAL * (step + 1), axis=1)).max())
        table = {j: j * j for j in range(300)}
        acc += sum(table.values()) * 1e-9
    return time.perf_counter() - began


class HostSpeed:
    """The reference samples taken around the operations of one phase of
    a run (its set-ups, or its jobs)."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        """Time the reference load on the host as it runs now, and keep it."""
        passes = sorted(_one_pass() for _ in range(PASSES))
        self.samples.append(passes[len(passes) // 2])

    def slowdown(self) -> float:
        """How many times slower than the reference speed the host ran:
        the median sample over :data:`REFERENCE_MS`. A time scales as
        ``t / slowdown()``, a rate as ``r * slowdown()``."""
        return stats.median(self.samples) / (REFERENCE_MS * 1e-3)
