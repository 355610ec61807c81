"""Running statistics accumulators.

Two accumulators back the paper's monitors:

* :class:`RangeStat` — the statistic-based MSB monitor: per-signal
  assignment count and min/max of the assigned values.
* :class:`ErrorStat` — the LSB error monitor: mean, standard deviation and
  maximum absolute value of the float/fixed difference error, computed
  online with Welford's algorithm (numerically stable over millions of
  samples).

``update`` folds in one value; ``update_many`` folds in a whole chunk
with the same result bit for bit, as if ``update`` had been called on
each value in order.  The signal monitors record raw values per
assignment and reduce them through ``update_many`` in chunks
(:meth:`repro.signal.signal.Sig._flush`): the order-free statistics
(count, min, max, max-abs, finest grid) are NumPy reductions, and
Welford's order-dependent mean and M2 are replayed in order from the
accumulator's current state, so any chunking gives the sequential
result.  There is no merge of two accumulators: Chan et al.'s parallel
combination is not bit-identical to sequential Welford.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import word

__all__ = ["RangeStat", "ErrorStat"]


class RangeStat:
    """Tracks count, minimum, maximum and finest grid of observed values.

    ``frac_bits`` is the smallest number of fractional bits that would
    represent every observed value exactly (saturating at ``FRAC_CAP``
    for values that do not terminate in binary).  The LSB refinement
    rules use it for error-free signals such as slicer outputs.
    """

    __slots__ = ("count", "min", "max", "frac_bits")

    FRAC_CAP = 48

    def __init__(self):
        self.reset()

    def reset(self):
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self.frac_bits = 0

    def update(self, value):
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        fb = self.frac_bits
        if fb < self.FRAC_CAP:
            # Values already on the current 2**-fb grid (the common case
            # once a signal is quantized) cannot raise frac_bits.  A value
            # too large to scale is a float beyond 2**53: an integer, on
            # every grid.
            try:
                scaled = math.ldexp(value, fb)
            except OverflowError:
                return
            if scaled % 1.0 != 0.0:
                nfb = word.needed_frac_bits(value, cap=self.FRAC_CAP)
                if nfb > fb:
                    self.frac_bits = nfb

    def update_many(self, values):
        """Fold in a chunk of values; equal to ``update`` on each in order.

        >>> rs = RangeStat()
        >>> rs.update_many([0.5, -0.0, 0.0, 0.75])
        >>> rs.count, rs.min, rs.max, rs.frac_bits
        (4, -0.0, 0.75, 2)
        """
        x = np.asarray(values, dtype=np.float64).ravel()
        n = x.size
        if not n:
            return
        if not np.isfinite(x).all():
            # NaN never becomes a bound and infinities reach the grid
            # test; the one-value reference states both rules.
            for v in x.tolist():
                self.update(v)
            return
        self.count += n
        # First occurrence among equal extremes and a strict test against
        # the stored bound: of 0.0 and -0.0 the one seen first stays.
        lo = float(x[x.argmin()])
        if lo < self.min:
            self.min = lo
        hi = float(x[x.argmax()])
        if hi > self.max:
            self.max = hi
        fb = self.frac_bits
        cap = self.FRAC_CAP
        if fb < cap:
            # Only values off the current 2**-fb grid can raise frac_bits.
            # One that scales past the float range is an integer: it
            # becomes an infinity, which equals its trunc.
            with np.errstate(over="ignore"):
                scaled = np.ldexp(x, fb)
            off = scaled != np.trunc(scaled)
            if off.any():
                needed = word.needed_frac_bits
                for v in x[off].tolist():
                    nfb = needed(v, cap=cap)
                    if nfb > fb:
                        fb = nfb
                        if fb >= cap:
                            break
                self.frac_bits = fb

    @property
    def is_empty(self):
        return self.count == 0

    @property
    def max_abs(self):
        if self.is_empty:
            return 0.0
        return max(abs(self.min), abs(self.max))

    def required_msb(self, signed=True):
        """Paper's ``m(vmin, vmax)`` on the observed range (None if empty/zero)."""
        if self.is_empty:
            return None
        return word.required_msb(self.min, self.max, signed=signed)

    def as_dict(self):
        return {"count": self.count, "min": self.min, "max": self.max,
                "frac_bits": self.frac_bits}

    def __repr__(self):
        if self.is_empty:
            return "RangeStat(empty)"
        return "RangeStat(n=%d, min=%g, max=%g)" % (self.count, self.min,
                                                    self.max)


class ErrorStat:
    """Welford mean/variance plus max-abs tracking of a difference error."""

    __slots__ = ("count", "mean", "_m2", "max_abs")

    def __init__(self):
        self.reset()

    def reset(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.max_abs = 0.0

    def update(self, value):
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        a = abs(value)
        if a > self.max_abs:
            self.max_abs = a

    def update_many(self, values):
        """Fold in a chunk of values; equal to ``update`` on each in order.

        Welford's recurrence is replayed value by value from the current
        state, so the mean and M2 come out bit for bit as sequential
        updates would leave them, however the values are chunked.

        >>> a, b = ErrorStat(), ErrorStat()
        >>> a.update_many([0.1, 0.2]); a.update_many([0.3])
        >>> for v in (0.1, 0.2, 0.3):
        ...     b.update(v)
        >>> (a.count, a.mean, a._m2, a.max_abs) == (b.count, b.mean, b._m2,
        ...                                         b.max_abs)
        True
        """
        x = np.asarray(values, dtype=np.float64).ravel()
        if not x.size:
            return
        # A float count divides exactly as the int one does (< 2**53).
        count = float(self.count)
        mean = self.mean
        m2 = self._m2
        for v in x.tolist():
            count += 1.0
            delta = v - mean
            mean += delta / count
            m2 += delta * (v - mean)
        self.count += x.size
        self.mean = mean
        self._m2 = m2
        # fmax skips NaN, as the sequential ``>`` test does.
        a = float(np.fmax.reduce(np.abs(x)))
        if a > self.max_abs:
            self.max_abs = a

    @property
    def is_empty(self):
        return self.count == 0

    @property
    def variance(self):
        """Population variance of the observed errors."""
        if self.count == 0:
            return 0.0
        return self._m2 / self.count

    @property
    def std(self):
        return math.sqrt(self.variance)

    @property
    def rms(self):
        """Root-mean-square error (combines bias and spread)."""
        return math.sqrt(self.variance + self.mean * self.mean)

    def as_dict(self):
        return {"count": self.count, "mean": self.mean, "std": self.std,
                "max_abs": self.max_abs}

    def __repr__(self):
        if self.is_empty:
            return "ErrorStat(empty)"
        return "ErrorStat(n=%d, mean=%.3g, std=%.3g, max_abs=%.3g)" % (
            self.count, self.mean, self.std, self.max_abs)
