"""Host-speed calibration: a fixed unit of work timed at quiet points.

The benchmark's host is shared, and its speed drifts by 10-25% over
seconds to minutes, which moves every wall-clock figure of a run
together.  :class:`HostSpeed` times a fixed unit of work that does not
use the program (a CRC over a buffer, a NumPy sort and a Python loop,
the kinds of work the workloads are made of) at points where the
benchmark's own clock is stopped: between reads, between ingest epochs,
after each set-up.  The median probe time of a phase over the reference
time in ``design.json`` is the phase's host factor; the workloads
divide the phase's wall times by it and multiply its rates by it, which
puts every figure at the reference host speed.
"""

from __future__ import annotations

import statistics
import zlib
from time import perf_counter

import numpy as np


class HostSpeed:
    """Probe samples per phase of a run, and the factors they give."""

    def __init__(self, reference_s: float, units: int) -> None:
        self.reference_s = reference_s
        self.units = units
        rng = np.random.default_rng(0)
        self._buffer = rng.bytes(2 << 20)
        self._values = rng.random(50_000).astype(np.float32)
        self.samples: dict[str, list[float]] = {}

    def probe(self, phase: str, units: int | None = None) -> None:
        """Time ``units`` work units and file them under ``phase``."""
        samples = self.samples.setdefault(phase, [])
        for _ in range(units or self.units):
            start = perf_counter()
            zlib.crc32(self._buffer)
            np.sort(self._values)
            total = 0
            for i in range(20_000):
                total += i
            samples.append(perf_counter() - start)

    def factor(self, phase: str) -> float:
        """Median probe time of ``phase`` over the reference time.

        Above 1 the host ran slower than the reference.
        """
        return statistics.median(self.samples[phase]) / self.reference_s
