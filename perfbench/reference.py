"""Fixed reference computations that calibrate every time against the host's speed.

The host's speed drifts by tens of percent over seconds to minutes, and the
same CPU work then takes more or less CPU time. Two references, which use no
spectr code, sample that speed next to the measurements:

* Round times: after every operation of a round, `RoundClock` runs a slice
  of `reference` whose size is a fixed share of the operation's CPU time, so
  the slices sample the host at the same moments as the work. A round's
  calibrated time is its operation CPU time times the slices' nominal time
  over their measured time.
* Set-up times: a fresh interpreter that imports a fixed set of standard
  library modules (`startup_reference`), run alternately with the set-up
  interpreters; it does the same kind of work as ``import spectr``.

Calibrated times are in seconds of the machine the nominal figures below come
from (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import math
import time

# Nominal CPU seconds of one reference step: 3000 steps take 0.05 s.
STEP_S = 0.05 / 3000
# Reference CPU per operation CPU in a round.
SLICE_SHARE = 0.2
# Nominal CPU seconds from interpreter start to STARTUP_MODULES imported.
STARTUP_REFERENCE_S = 0.14
STARTUP_MODULES = ("asyncio", "csv", "decimal", "email.mime.multipart", "http.client",
                   "logging.handlers", "sqlite3", "tarfile", "unittest", "xml.dom.minidom",
                   "zipfile")


def reference(steps: int) -> float:
    """Small-array numpy calls, tuple keys and dict updates, as the decoder makes."""
    import numpy as np

    gen = np.random.Generator(np.random.Philox(7))
    table: dict = {}
    total = 0.0
    for i in range(steps):
        row = gen.random(16)
        cdf = np.cumsum(row / row.sum())
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + int(np.searchsorted(cdf, 0.5))
        total += float(np.minimum(row, cdf).sum())
    return total


class RoundClock:
    """Splits a round's CPU time into operation time and interleaved reference slices."""

    def __init__(self):
        self.work_s = 0.0
        self.reference_s = 0.0
        self.steps = 0
        self._mark = time.process_time()

    def after_op(self) -> None:
        op_s = time.process_time() - self._mark
        self.work_s += op_s
        steps = max(1, math.ceil(op_s * SLICE_SHARE / STEP_S))
        start = time.process_time()
        reference(steps)
        self._mark = time.process_time()
        self.reference_s += self._mark - start
        self.steps += steps

    @property
    def calibrated_s(self) -> float:
        """Operation CPU time in nominal seconds."""
        return self.work_s * self.steps * STEP_S / self.reference_s


def startup_reference() -> float:
    """CPU seconds from interpreter start to STARTUP_MODULES imported; call it first thing."""
    import importlib

    for name in STARTUP_MODULES:
        importlib.import_module(name)
    return time.process_time()
