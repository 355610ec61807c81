"""Per-signal quantization metric counters.

The paper's monitors answer *what types do I need*; these counters
answer *what is the quantization doing right now*: how often each
signal saturates, wraps or overflows, how much rounding error it
accumulates, and how often its observed min/max is still moving (range
"churn" — a signal whose extremes keep growing late in a run is a
signal whose range has not converged).

Compile-time-style enable flag
------------------------------
The assignment (:meth:`repro.signal.signal.Sig.assign`, which ``<<=``
and array stores call) is the single most executed function of every
simulation, so the counters must cost *nothing* while disabled.
Instead of an ``if`` on the hot path, :func:`enable` swaps the
``Sig.assign`` method at class level for an instrumented wrapper and
:func:`disable` swaps the original back — like rebuilding with a
profiling flag, without the rebuild.  Disabled runs execute the exact
original code object:

>>> from repro.obs import metrics
>>> from repro.signal.signal import Sig
>>> orig = Sig.assign
>>> metrics.enable()
>>> Sig.assign is orig
False
>>> metrics.disable()
>>> Sig.assign is orig
True

Counters per signal (:class:`SigMetrics`):

``n``
    Instrumented assignments seen.
``overflow`` / ``saturate`` / ``wrap``
    Out-of-range events, classified by the signal's overflow mode
    (``error`` / ``saturate`` / ``wrap``).
``round_err_sum`` / ``round_err_max``
    Accumulated and peak ``|incoming - stored|`` per assignment — the
    quantization-induced deviation (includes saturation distance).
``min_churn`` / ``max_churn``
    How many assignments moved the observed minimum / maximum.
"""

from __future__ import annotations

from repro.signal.expr import as_expr

__all__ = ["SigMetrics", "enable", "disable", "enabled", "collecting",
           "snapshot", "reset", "emit"]

#: Original ``Sig.assign``, stashed while the instrumented one is live.
_STATE = {"enabled": False, "orig_assign": None}


class SigMetrics:
    """Quantization counters of one signal (see module docstring)."""

    __slots__ = ("n", "overflow", "saturate", "wrap", "round_err_sum",
                 "round_err_max", "min_churn", "max_churn", "_lo", "_hi")

    def __init__(self, lo=float("inf"), hi=float("-inf")):
        self.n = 0
        self.overflow = 0
        self.saturate = 0
        self.wrap = 0
        self.round_err_sum = 0.0
        self.round_err_max = 0.0
        self.min_churn = 0
        self.max_churn = 0
        # The range monitor's min/max, tracked here so that counting
        # churn does not reduce the monitor's recorded values per call.
        self._lo = lo
        self._hi = hi

    @property
    def out_of_range(self):
        """Total out-of-range events regardless of overflow mode."""
        return self.overflow + self.saturate + self.wrap

    @property
    def round_err_mean(self):
        return self.round_err_sum / self.n if self.n else 0.0

    def to_dict(self):
        return {"n": self.n, "overflow": self.overflow,
                "saturate": self.saturate, "wrap": self.wrap,
                "round_err_sum": self.round_err_sum,
                "round_err_max": self.round_err_max,
                "min_churn": self.min_churn, "max_churn": self.max_churn}

    def __repr__(self):
        return ("SigMetrics(n=%d, oor=%d, round_err_mean=%.3g, "
                "churn=%d/%d)" % (self.n, self.out_of_range,
                                  self.round_err_mean, self.min_churn,
                                  self.max_churn))


def _assign_metered(self, value):
    """Instrumented ``Sig.assign``: original behaviour + counters.

    Wraps rather than reimplements the hot path, so the simulated
    numbers are bit-identical with metrics on or off; the counters are
    derived from observable state deltas around the original call.
    Churn follows the value the call appended to the signal's monitor
    columns (post-fault, post-guard), the one the range monitor reduces,
    so the monitors stay unflushed until something reads them.
    """
    m = self._obs
    if m is None:
        rs = self.range_stat
        m = self._obs = SigMetrics(rs.min, rs.max)
    if type(value) is float:
        in_fx = value
    else:
        value = as_expr(value)
        in_fx = value.fx
    ov0 = self.overflow_count
    _STATE["orig_assign"](self, value)
    m.n += 1
    if self._monitored:
        v = self._cols[-4]
        if v < m._lo:
            m._lo = v
            m.min_churn += 1
        if v > m._hi:
            m._hi = v
            m.max_churn += 1
    dov = self.overflow_count - ov0
    if dov:
        spec = self.dtype.msbspec
        if spec == "saturate":
            m.saturate += dov
        elif spec == "wrap":
            m.wrap += dov
        else:
            m.overflow += dov
    if self.is_register and self._has_pending:
        stored = self._pend_fx
    else:
        stored = self.fx
    e = in_fx - stored
    if e < 0.0:
        e = -e
    if e == e:  # skip NaN deltas (guarded non-finite assignments)
        m.round_err_sum += e
        if e > m.round_err_max:
            m.round_err_max = e
    return self


def enable():
    """Swap the instrumented ``Sig.assign`` in (idempotent)."""
    if _STATE["enabled"]:
        return
    from repro.signal.signal import Sig
    _STATE["orig_assign"] = Sig.assign
    Sig.assign = _assign_metered
    _STATE["enabled"] = True


def disable():
    """Restore the original ``Sig.assign`` (idempotent)."""
    if not _STATE["enabled"]:
        return
    from repro.signal.signal import Sig
    Sig.assign = _STATE["orig_assign"]
    _STATE["orig_assign"] = None
    _STATE["enabled"] = False


def enabled():
    return _STATE["enabled"]


class collecting:
    """Context manager: metrics enabled inside the block.

    Restores the previous state on exit, so nesting inside an
    already-enabled region is safe.
    """

    def __enter__(self):
        self._was = _STATE["enabled"]
        enable()
        return self

    def __exit__(self, exc_type, exc, tb):
        if not self._was:
            disable()
        return False


def snapshot(ctx):
    """Counters of every instrumented signal of a context, by name."""
    out = {}
    for s in ctx.signals():
        m = s._obs
        if m is not None:
            out[s.name] = m
    return out


def reset(ctx):
    """Drop the counters of every signal in the context."""
    for s in ctx.signals():
        s._obs = None


def emit(ctx, label=None):
    """Record one ``metric`` trace event per instrumented signal.

    No-op unless tracing is enabled; returns the number of events
    emitted.  Called automatically at the end of instrumented
    simulations (flow phases, parallel jobs) so metric snapshots land
    in the same trace as the spans that produced them.
    """
    import time

    from repro.obs import trace

    rec = trace.current_recorder()
    if rec is None:
        return 0
    sid = trace.current_span_id()
    n = 0
    for name, m in snapshot(ctx).items():
        ev = {"ts": time.time(), "kind": "metric", "name": "signal.metrics",
              "span": sid, "parent": sid, "signal": name,
              "ctx": ctx.name}
        if label is not None:
            ev["label"] = label
        ev.update(m.to_dict())
        rec.record(ev)
        n += 1
    return n
