"""Constant-coefficient FIR filter block.

Two implementations are provided:

* :class:`FirFilter` — a refinable block built from ``Sig``/``Reg``
  objects (delay line in registers, multiply-accumulate chain as named
  partial sums, like the paper's ``v[i]`` chain), usable inside any
  :class:`~repro.refine.flow.Design`.
* :func:`fir_reference` — a plain numpy reference for tests/benches.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import DesignError
from repro.signal import RegArray, Sig, SigArray

__all__ = ["FirFilter", "fir_reference"]


class FirFilter:
    """Direct-form FIR with monitored internal signals.

    Signals created (for ``prefix='f'``, N taps): ``f.c[i]`` coefficient
    holders, ``f.d[i]`` delay line registers, ``f.v[i]`` partial sums
    (``f.v[N]`` is the output).
    """

    def __init__(self, prefix, coefficients, ctx=None):
        if len(coefficients) == 0:
            raise DesignError("FIR needs at least one coefficient")
        self.prefix = prefix
        self.coefficients = tuple(float(c) for c in coefficients)
        n = len(self.coefficients)
        self.n_taps = n
        self.c = SigArray("%s.c" % prefix, n, ctx=ctx)
        self.d = RegArray("%s.d" % prefix, n, ctx=ctx)
        self.v = SigArray("%s.v" % prefix, n + 1, ctx=ctx)
        for i in range(n):
            self.c[i] = self.coefficients[i]
        # The element lists step() walks, bound once: the delay line's
        # (destination, source) shift pairs, last tap first, and one
        # (partial sum, delay, coefficient) triple per tap.
        d = self.d.signals()
        v = self.v.signals()
        self._d0 = d[0]
        self._v0 = v[0]
        self._shift = tuple(zip(d[:0:-1], d[-2::-1]))
        self._taps = tuple(zip(v[1:], d, self.c.signals()))

    @property
    def out(self):
        """Output signal (the last partial sum)."""
        return self.v[self.n_taps]

    def step(self, x):
        """Shift in one sample, produce one output (call every cycle).

        Assigns ``d[0] = x``, ``d[i] = d[i-1]`` for ``i = N-1 .. 1``,
        ``v[0] = 0.0`` and ``v[i] = v[i-1] + d[i-1] * c[i-1]`` for
        ``i = 1 .. N``, in that order, and returns ``v[N]``.
        """
        self._d0.assign(x)
        for dst, src in self._shift:
            dst.assign(src)
        acc = self._v0.assign(0.0)
        for vi, di, ci in self._taps:
            acc = vi.assign(acc + di * ci)
        return acc

    def signals(self):
        return (list(self.c.signals()) + list(self.d.signals())
                + list(self.v.signals()))


def fir_reference(coefficients, samples, zi=None):
    """Reference FIR: one-cycle input delay, matching :class:`FirFilter`.

    :class:`FirFilter` registers the input before the first tap, so its
    output at step ``k`` is ``sum(c[i] * x[k-1-i])``.
    """
    h = np.asarray(coefficients, dtype=float)
    x = np.asarray(samples, dtype=float)
    delayed = np.concatenate(([0.0], x[:-1])) if len(x) else x
    full = np.convolve(delayed, h)
    return full[:len(x)]
