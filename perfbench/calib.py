"""Speed calibration: a fixed kernel timed around every operation.

The shared virtual machine this benchmark was built on changes speed by up
to 2x on identical code, in phases that can last a whole run.  Each operation's time
is therefore scaled by how fast a fixed kernel ran right before and right
after it:

    normalised = raw * REF_KERNEL_S / mean(kernel_before, kernel_after)

The kernel mixes the two kinds of work the program's hot paths do: a plain
Python float loop (interpreter dispatch) and a small jet product written the
way ``Jet.__mul__`` is, ``out[k] += a[i] * b[j]`` over a multiplication
table, on objects held in an object array.  A kernel of small-array
multiply-adds alone slowed down 1.9x in the slow phases while the
operations slowed down 1.4-1.5x, which made normalised times noisier than
raw ones; this mix follows the operations (see README.md).  Each of the two
kernel times is the median of ``SAMPLES`` back-to-back kernel runs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time (s) in the fast phase of a shared 2-core x86-64 virtual
# machine (Python 3.11, numpy 2.4): a normalised time reads like a raw time
# measured in that phase.
REF_KERNEL_S = 0.0048
SAMPLES = 3
_PY_ITERATIONS = 30000
_N_MONOS = 6
_TRIPLES = [(i, j, i + j) for i in range(_N_MONOS) for j in range(_N_MONOS) if i + j < _N_MONOS]
_JET_PASSES = 18


class _MiniJet:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        out = np.zeros_like(self.c)
        a, b = self.c, other.c
        for i, j, k in _TRIPLES:
            out[k] += a[i] * b[j]
        return _MiniJet(out)

    def __add__(self, other):
        return _MiniJet(self.c + other.c)


def kernel_once() -> float:
    """Time one run of the calibration kernel, in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_PY_ITERATIONS):
        acc += (i * 0.5) * 1.0001 - acc * 1e-9
    m = np.empty((3, 3), dtype=object)
    for a in range(3):
        for b in range(3):
            m[a, b] = _MiniJet(np.full(_N_MONOS, 1.0 + a + 0.1 * b))
    for _ in range(_JET_PASSES):
        total = None
        for a in range(3):
            for b in range(3):
                term = m[a, b] * m[b, a]
                total = term if total is None else total + term
    return time.perf_counter() - t0


def kernel_time() -> float:
    """Median of SAMPLES kernel runs."""
    return statistics.median(kernel_once() for _ in range(SAMPLES))


def normalise(raw_s: float, before_s: float, after_s: float) -> float:
    """Scale a raw time by the reference kernel time over the measured one."""
    return raw_s * REF_KERNEL_S / (0.5 * (before_s + after_s))

