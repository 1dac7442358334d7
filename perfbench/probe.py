"""A fixed piece of work that reads the machine's speed at a moment.

The shared machine this benchmark was built on changes speed by up to 1.8x
within seconds, as its neighbours load the host: a fixed loop of Python
code then takes that much longer, in CPU time as in wall time.  run.py
therefore scales each query's wall time by the machine's speed around it,
read from this probe:

    scaled = wall * PROBE_REFERENCE_S / (probe time around the query)

PROBE_REFERENCE_S is about the probe's time on an unloaded core of the
reference machine (Xeon, 2.0 GHz, Python 3.11), so scaled times read as
seconds there.  The probe runs no galab code, so a change to galab moves
the scaled times as it moves the wall times.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

PROBE_REFERENCE_S = 0.5e-3


def speed_probe():
    """Seconds for a fixed piece of pure-Python work: best of two, collector off."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            table, acc = {}, 0
            for i in range(2000):
                acc += i * i % 7
                table[i & 63] = table.get(i & 63, 0) + acc
            total = Fraction(0)
            for i in range(1, 60):
                total += Fraction(1, i)
            best = min(best, perf_counter() - t0)
    finally:
        gc.enable()
    return best
