"""Host-speed reference for op timings.

The shared two-core machine the benchmark was tuned on switches between a
fast and a slow state for tens of seconds at a time (about 410 against 230
sweep ops/s on identical inputs), so raw times of one run depend on how
much of it fell in each state.  ``reference_s`` times a fixed kernel of
numpy and Python arithmetic that runs no entropy_kit code.  ``Gauge``
times it at every boundary between timed stretches; the op times of a
stretch are then reported at nominal host speed, multiplied by
NOMINAL_S / (mean kernel time at its two boundaries).  On the tuning
machine the kernel's time tracked sweep op time with correlation 0.85,
and over 90 s the interquartile spread of 32-op chunk times fell from
0.46 of the median to 0.095 after scaling.

Between the slow stretches the speed also wanders within tens of
milliseconds.  Scaled once per 32-op chunk, single sweep ops then spread
so widely that per-run op_p99_ms moved by up to 0.25 of its median over
ten runs, against 0.01 for op_p50_ms.  So single ops are bracketed by a
short kernel (OP_REPS runs, about 0.6 ms): in one 150 s recording that
cut the range of op_p99_ms over five 30 s stretches from 0.21 to 0.13
of its median, with op_p50_ms and throughput staying within 0.03.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: the clock for op times and for the kernel: the thread's CPU time
clock = time.thread_time

REPS = 16
#: kernel time at nominal host speed (about its median on the tuning machine)
NOMINAL_S = 4.0e-3
#: the short kernel read after every single op, and its time at nominal
#: speed: set so that both kernels scale the median sweep op alike
OP_REPS = 2
OP_NOMINAL_S = 0.555e-3

_rng = np.random.default_rng(10125356)
_g = _rng.standard_normal((8, 9, 9)) + 1j * _rng.standard_normal((8, 9, 9))
_MATS = _g @ _g.conj().transpose(0, 2, 1)
_VEC = _rng.random(9)
_QS = (0.3, 0.7, 1.5, 2.0, 3.0)


def reference_s(reps: int = REPS) -> float:
    """CPU seconds of ``reps`` runs of the fixed kernel: small Hermitian
    eigensolves and power sums, the mix the library spends its time on."""
    t0 = clock()
    for _ in range(reps):
        for mat in _MATS:
            np.linalg.eigvalsh(mat)
            for q in _QS:
                math.expm1(0.5 * math.log(float(np.sum(_VEC**q)))) / (1.0 - q)
    return clock() - t0


class Gauge:
    """Kernel times at the boundaries of consecutive timed stretches."""

    def __init__(self, reps: int = REPS, nominal_s: float = NOMINAL_S):
        self.reps, self.nominal_s = reps, nominal_s
        self.last = reference_s(reps)
        self.factors: list[float] = []
        #: CPU seconds spent in the kernel by factor()
        self.spent = 0.0

    def factor(self) -> float:
        """Call right after a timed stretch; returns the scale for its op times."""
        now = reference_s(self.reps)
        scale = self.nominal_s / (0.5 * (self.last + now))
        self.last = now
        self.spent += now
        self.factors.append(scale)
        return scale
