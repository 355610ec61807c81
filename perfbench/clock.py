"""Host time corrected for the CPU speed the host gives us right now.

The machines this benchmark runs on are shared: the same deterministic
iteration takes 1.3 s or 2.2 s depending on what the neighbours do, in
regimes that last tens of seconds, and process CPU time moves with it.
A fixed pure-Python reference loop slows down in step (the ratio of an
``lms-flow`` iteration to the loop stayed within a few percent while
both moved by 30 %), so every timed segment is bracketed by two runs of the
loop and scaled by ``REFERENCE_S / (their mean)``: the seconds it would
have taken at the reference speed.  The loop touches no ``repro`` code,
so no change to the program can move it.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["SpeedClock", "reference_loop_s", "corrected"]

#: typical duration of :func:`reference_loop_s` on the machine the
#: bounds were set on (2-CPU x86_64 VM, Python 3.11.7).
REFERENCE_S = 0.103

_LOOP_N = 250_000


def _loop():
    table = {}
    acc = 0.0
    for i in range(_LOOP_N):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
        acc = acc * 0.999 + (key >> 3)
    return acc


def reference_loop_s():
    """Seconds one run of the reference loop takes right now."""
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0


def corrected(host_s, ref_before, ref_after):
    """``host_s`` scaled to the reference speed, given the bracketing
    reference-loop times."""
    return host_s * REFERENCE_S / ((ref_before + ref_after) / 2.0)


class SpeedClock:
    """Accumulates host and speed-corrected seconds over segments.

    ``start()`` opens a segment, ``split()`` closes it and opens the
    next; the reference loop runs between segments, never inside one.
    """

    def __init__(self):
        self.host_s = 0.0
        self.corrected_s = 0.0
        self._ref = None
        self._t0 = None

    def start(self):
        self._ref = reference_loop_s()
        self._t0 = perf_counter()

    def split(self):
        host = perf_counter() - self._t0
        ref = reference_loop_s()
        self.host_s += host
        self.corrected_s += corrected(host, self._ref, ref)
        self._ref = ref
        self._t0 = perf_counter()
