"""Calibration loop that rescales the benchmark's times to a nominal
machine speed.

The machine this benchmark was built on is a 2-vCPU VM shared with other
tenants. Its speed for telecost-like code drifts by up to 1.5x in phases
of seconds to minutes, so the median wall time of one 25-second run moves
by 22 to 36 % (IQR over median across runs). The loop below does a fixed
amount of small-array numpy work of the kind telecost's kernels do. It uses
no telecost code, so a change to telecost cannot change it. Timing it next
to each measured interval and rescaling by

    scaled = measured * NOMINAL_S / calibration

cut that run-to-run spread to 2 to 6 % in tests on that machine.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# Time of one calibration loop on the reference machine when it is quiet
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4). Scaled times read as
# wall times on such a machine.
NOMINAL_S = 0.04

_ITERATIONS = 800
_GATE = np.eye(2, dtype=complex)
_STATE = np.arange(8, dtype=complex) / np.sqrt(140.0)


def calibration_s() -> float:
    """Wall time of one calibration loop, with the garbage collector off
    so the caller's heap does not change it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(_ITERATIONS):
            amps = np.asarray(_STATE, dtype=complex)
            out = np.moveaxis(np.tensordot(_GATE, amps.reshape(2, 2, 2), axes=([1], [1])), 0, 1)
            out = out.reshape(-1)
            if not np.all(np.isfinite(out.view(float))):
                raise ArithmeticError("calibration state is not finite")
            float(np.real(np.vdot(out, out)))
            np.kron(out[:2], out[:4])
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def scale(measured_s: float, calibration: float) -> float:
    """A measured time rescaled to the nominal machine speed."""
    return measured_s * NOMINAL_S / calibration
