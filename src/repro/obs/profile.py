"""Wall-time attribution for monitored simulations.

``obs.profile()`` answers the question the flat numbers of
``BENCH_throughput.json`` cannot: *where* does a monitored simulation
spend its time — in the compiled quantize kernels, in interval
propagation, or in plain Python overhead (expression objects, monitor
updates, design code)?

Implementation: a profiling session temporarily

* wraps ``Sig.assign``, the one assignment entry point (whatever
  variant is installed — the original or the metrics-instrumented
  one), with a timing shim, and wraps each signal's bound quantize
  kernel on first sight, so kernel time is measured *inside* the
  assignment;
* wraps ``Sig._flush``, the bulk reduction of the recorded monitor
  values, so ``monitor_record`` means the non-kernel time of the
  *monitored* assignments plus the reduction (an unmonitored
  assignment of an output-only run records nothing: its non-kernel
  time is ``python_overhead``);
* wraps the interval arithmetic helpers (``iv_add`` / ``iv_sub`` /
  ``iv_mul`` / ``iv_neg``) in :mod:`repro.signal.expr`, where the
  operator overloads resolve them at call time.

Everything is restored on exit, so profiling is strictly opt-in and
costs nothing when not active.  Timer overhead inflates the measured
buckets (a monitored assignment pays four ``perf_counter`` calls), so treat
the output as *attribution*, not absolute speed — the relative split is
what matters.

Usage::

    from repro import obs

    with obs.profile() as prof:
        run_simulation()
    print(prof.report.table())
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["profile", "ProfileReport"]

_IV_NAMES = ("iv_add", "iv_sub", "iv_mul", "iv_neg")


class ProfileReport:
    """Aggregated timing buckets of one profiling session."""

    def __init__(self):
        self.wall_s = 0.0
        self.record_s = 0.0      # monitored Sig.assign calls, less kernels
        self.flush_s = 0.0       # inside Sig._flush (monitor reduction)
        self.kernel_s = 0.0      # inside the compiled quantize kernels
        self.interval_s = 0.0    # inside iv_add/iv_sub/iv_mul/iv_neg
        self.n_assign = 0
        self.n_monitored = 0
        self.n_kernel = 0
        self.n_interval = 0

    @property
    def monitor_s(self):
        """Non-kernel time of the monitored assignments, plus the
        monitors' bulk reduction."""
        return self.record_s + self.flush_s

    @property
    def python_s(self):
        """Wall time outside the kernels, the monitors and the interval
        paths (expressions, design code, unmonitored assignments, the
        simulator itself)."""
        return max(0.0, self.wall_s - self.kernel_s - self.monitor_s
                   - self.interval_s)

    def buckets(self):
        """``{bucket: seconds}`` — the four non-overlapping buckets."""
        return {
            "quantize_kernel": self.kernel_s,
            "monitor_record": self.monitor_s,
            "interval_propagation": self.interval_s,
            "python_overhead": self.python_s,
        }

    def to_dict(self):
        d = {"wall_s": self.wall_s, "n_assign": self.n_assign,
             "n_monitored": self.n_monitored, "n_kernel": self.n_kernel,
             "n_interval": self.n_interval}
        d.update({k: v for k, v in self.buckets().items()})
        return d

    def table(self, title="Wall-time attribution"):
        wall = self.wall_s or 1e-12
        lines = ["%s (%.4f s wall, %d assignments, %d monitored)"
                 % (title, self.wall_s, self.n_assign, self.n_monitored)]
        for name, sec in self.buckets().items():
            bar = "#" * int(round(40.0 * sec / wall))
            lines.append("  %-22s %8.4f s  %5.1f%%  %s"
                         % (name, sec, 100.0 * sec / wall, bar))
        return "\n".join(lines)

    def __repr__(self):
        return ("ProfileReport(wall=%.4fs, kernel=%.4fs, interval=%.4fs, "
                "assign=%d)" % (self.wall_s, self.kernel_s,
                                self.interval_s, self.n_assign))


class profile:
    """Context manager: attribute wall time while the block runs.

    The report is available as ``.report`` after (and during) the
    block.  Sessions do not nest — a second concurrent ``profile()``
    raises ``RuntimeError``.
    """

    _active = None

    def __init__(self):
        self.report = ProfileReport()
        self._wrapped_kernels = []   # (sig, original kernel)
        self._prev_assign = None
        self._prev_flush = None
        self._prev_iv = {}
        self._t0 = 0.0

    def __enter__(self):
        if profile._active is not None:
            raise RuntimeError("obs.profile() sessions do not nest")
        profile._active = self
        from repro.signal import expr as expr_mod
        from repro.signal.signal import Sig

        rep = self.report
        wrapped = self._wrapped_kernels
        prev_assign = Sig.assign
        self._prev_assign = prev_assign

        def assign_profiled(sig, value):
            k = sig._kernel
            if k is not None and getattr(k, "_obs_prof", None) is not rep:
                wrapped.append((sig, k))

                def timed_kernel(v, _k=k, _r=rep):
                    t = perf_counter()
                    out = _k(v)
                    _r.kernel_s += perf_counter() - t
                    _r.n_kernel += 1
                    return out
                timed_kernel._obs_prof = rep
                sig._kernel = timed_kernel
            if sig._monitored:
                k0 = rep.kernel_s
                t = perf_counter()
                out = prev_assign(sig, value)
                rep.record_s += perf_counter() - t - (rep.kernel_s - k0)
                rep.n_monitored += 1
            else:
                out = prev_assign(sig, value)
            rep.n_assign += 1
            return out

        Sig.assign = assign_profiled

        prev_flush = Sig._flush
        self._prev_flush = prev_flush

        def flush_profiled(sig):
            t = perf_counter()
            prev_flush(sig)
            rep.flush_s += perf_counter() - t

        Sig._flush = flush_profiled

        for name in _IV_NAMES:
            orig = getattr(expr_mod, name)
            self._prev_iv[name] = orig

            def timed_iv(a, b=None, _f=orig, _r=rep):
                t = perf_counter()
                out = _f(a) if b is None else _f(a, b)
                _r.interval_s += perf_counter() - t
                _r.n_interval += 1
                return out
            setattr(expr_mod, name, timed_iv)

        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.report.wall_s += perf_counter() - self._t0
        from repro.signal import expr as expr_mod
        from repro.signal.signal import Sig
        Sig.assign = self._prev_assign
        Sig._flush = self._prev_flush
        for name, orig in self._prev_iv.items():
            setattr(expr_mod, name, orig)
        # Reverse order + identity check: a signal retyped mid-session
        # (set_dtype) rebinds its kernel; only unwrap kernels that are
        # still ours, newest wrap first.
        rep = self.report
        for sig, orig in reversed(self._wrapped_kernels):
            if getattr(sig._kernel, "_obs_prof", None) is rep:
                sig._kernel = orig
        self._wrapped_kernels.clear()
        profile._active = None
        return False
