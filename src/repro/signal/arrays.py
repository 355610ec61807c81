"""Signal arrays: the paper's ``sigarray`` and ``regarray``.

An array is a fixed-length collection of independently monitored signals
named ``base[i]``.  ``arr[i] = expr`` is a true Python ``__setitem__``,
so array element assignment reads exactly like the paper's C++ code::

    d = RegArray("d", N)
    d[0] = x
    for i in range(N - 1, 0, -1):
        d[i] = d[i - 1]

A store takes what ``Sig.assign`` takes, a float as is.  A hot loop
that walks every element binds :meth:`SigArray.signals` once and
iterates the list instead of indexing the array per access (see
:meth:`repro.dsp.fir.FirFilter.step`).
"""

from __future__ import annotations

from repro.core.errors import DesignError
from repro.signal.signal import Reg, Sig

__all__ = ["SigArray", "RegArray"]


class SigArray:
    """Array of :class:`~repro.signal.signal.Sig` elements."""

    _element_cls = Sig

    def __init__(self, name, n, dtype=None, ctx=None, init=0.0):
        n = int(n)
        if n < 1:
            raise DesignError("array %r must have at least one element" % name)
        self.name = str(name)
        self._sigs = [
            self._element_cls("%s[%d]" % (name, i), dtype=dtype, ctx=ctx,
                              init=init)
            for i in range(n)
        ]

    def _index(self, i):
        n = len(self._sigs)
        i = int(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("index %d out of range for array %r of length %d"
                             % (i, self.name, n))
        return i

    def __getitem__(self, i):
        # Exact-int fast path: the list indexes as the array does; _index
        # keeps the error reporting (and the rejection of slices / odd
        # index types) for everything else.
        if type(i) is int:
            try:
                return self._sigs[i]
            except IndexError:
                pass
        return self._sigs[self._index(i)]

    def __setitem__(self, i, value):
        if type(i) is int:
            try:
                sig = self._sigs[i]
            except IndexError:
                sig = self._sigs[self._index(i)]
        else:
            sig = self._sigs[self._index(i)]
        sig.assign(value)

    def __len__(self):
        return len(self._sigs)

    def __iter__(self):
        return iter(self._sigs)

    def signals(self):
        return list(self._sigs)

    @property
    def dtype(self):
        return self._sigs[0].dtype

    def set_dtype(self, dtype):
        for s in self._sigs:
            s.set_dtype(dtype)
        return self

    def range(self, lo, hi):
        """Apply a range annotation to every element."""
        for s in self._sigs:
            s.range(lo, hi)
        return self

    def error(self, q):
        """Apply an error annotation to every element."""
        for s in self._sigs:
            s.error_spec(q)
        return self

    def values(self):
        """Current fixed-point values as a list."""
        return [s.fx for s in self._sigs]

    def __repr__(self):
        return "%s(%r, %d)" % (type(self).__name__, self.name,
                               len(self._sigs))


class RegArray(SigArray):
    """Array of :class:`~repro.signal.signal.Reg` elements."""

    _element_cls = Reg

    def set_init(self, values):
        """Set the power-on value of every element (scalar or sequence)."""
        try:
            seq = list(values)
        except TypeError:
            seq = [values] * len(self._sigs)
        if len(seq) != len(self._sigs):
            raise DesignError("init length %d != array length %d"
                              % (len(seq), len(self._sigs)))
        for s, v in zip(self._sigs, seq):
            s.set_init(v)
        return self
