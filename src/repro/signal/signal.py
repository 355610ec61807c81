"""Signal objects: the paper's ``sig`` and ``reg``.

A :class:`Sig` represents one wire of the design.  Declared with a
:class:`~repro.core.dtype.DType` it behaves as a fixed-point signal
(values are quantized on assignment); declared without one it behaves as
a floating-point signal.  Either way, every assignment simultaneously

* records the incoming value for the **range monitor**
  (statistic-based MSB method): count, min, max and finest grid,
* performs **range propagation** (quasi-analytical MSB method): the
  incoming expression's interval is accumulated into the signal's
  propagated range,
* records the values of the **error monitor** (LSB method): consumed
  error ``fl - fx`` before quantization and produced error
  ``fl - Q(fx)`` after, plus the reference-value power needed for SQNR,

exactly as sketched in the paper's Figure 2/3.  The monitors are
columnar: an assignment appends its raw ``(fx, fl, Q(fx), fl')`` values
to a per-signal list, and :meth:`Sig._flush` reduces them into the
accumulators of :mod:`repro.core.stats` in bulk, bit for bit as one
update per assignment would.  Reading a monitor (``range_stat``,
``err_produced``, ...) flushes first, and :meth:`DesignContext.tick`
flushes every 512 cycles so the lists stay short.  A :class:`Reg` is a
registered signal: assignments land in a *next* slot that only becomes
visible after :meth:`DesignContext.tick` commits the clock edge.

A statistics-only run (``DesignContext.propagate`` off) keeps every
monitor but skips the range propagation; an output-only run
(:meth:`DesignContext.monitor_only`) also skips the monitors of all
signals except one.  Both keep the value side of every assignment.

Assignment spellings
--------------------
Python cannot overload ``=``, so three equivalent forms are provided::

    y.assign(a * b)      # explicit
    y <<= a * b          # HDL-style
    arr[i] = a * b       # true __setitem__ hook on SigArray/RegArray

Performance notes
-----------------
``assign`` is the single hottest call of every monitored simulation, so
this module is written for the interpreter, not for elegance:

* ``assign`` is the whole assignment, one Python frame: the coercion,
  the guard, the kernel, the monitors, the range propagation and a
  register's pending slot are inline.  ``<<=`` and array stores call
  it, and the observability wrappers patch it (see :mod:`repro.obs`),
* quantization goes through a compiled per-format kernel
  (:mod:`repro.core.kernels`) cached on the signal — no mode strings,
  no ``QuantizeResult``, no per-assignment ``DType.with_`` for the
  ``error``-mode saturating variant, and no second finiteness test
  after the guard's,
* the monitors cost one ``list.extend`` per assignment and no
  accumulator call; the reduction runs per chunk, in NumPy for the
  order-free statistics and in one local loop for Welford's mean and
  M2 (see ``docs/performance.md``, "Columnar monitors"),
* the propagated range is accumulated by mutating one privately-owned
  :class:`~repro.core.interval.Interval` in place instead of allocating
  a union per assignment (``prop_interval()`` returns a snapshot copy),
* a float assigned as is (``x.assign(0.25)``, ``x <<= 0.0``,
  ``arr[i] = 0.0``) stays the float itself: no ``Expr`` and no point
  interval, and a recording interval tape takes the float too,
* a signal is its own operand (:class:`~repro.signal.expr.Operand`):
  ``fx``, ``fl`` and ``ival`` are plain slots an operation reads
  directly, so a read allocates nothing.  ``ival`` holds
  :meth:`Sig.read_interval` and is re-bound wherever that interval
  object changes (retyping, ``range()``, ``clear_annotations()``, a
  reset of an untyped signal); growth of an untyped signal's read
  range happens in place and needs no re-binding.  ``node`` is a slot
  too: the signal itself while an interval tape records (set by
  ``IntervalTape.start``, cleared by ``IntervalTape.finish``), else
  None,
* ``__slots__`` keeps instances dict-free.
"""

from __future__ import annotations

import sys
from collections import deque
from math import inf, log10, nan

import numpy as np

from repro.core.dtype import DType
from repro.core.errors import DesignError, FixedPointOverflowError
from repro.core.interval import Interval, fast_interval
from repro.core.stats import ErrorStat, RangeStat
from repro.signal.context import current_context
from repro.signal.expr import Operand, as_expr

__all__ = ["Sig", "Reg"]


def _decl_site():
    """(filename, lineno) of the design code declaring a signal.

    Walks out of the library frames (``repro.signal`` and
    ``repro.refine`` internals) to the first user frame.  Executed once
    per signal *construction* — never on the assignment hot path — and
    consumed by the static lint layer to anchor findings at real source
    locations (SARIF ``physicalLocation``).
    """
    try:
        f = sys._getframe(2)
    except ValueError:                       # pragma: no cover - shallow stack
        return None
    while f is not None:
        mod = f.f_globals.get("__name__", "")
        if not (mod.startswith("repro.signal")
                or mod.startswith("repro.refine")):
            return (f.f_code.co_filename, f.f_lineno)
        f = f.f_back
    return None


class Sig(Operand):
    """A (possibly fixed-point) signal with built-in monitors.

    Every assignment runs twice — once through the fixed-point
    implementation, once through the float reference — so the monitors
    can measure quantization effects directly:

    >>> from repro.core.dtype import DType
    >>> from repro.signal.context import DesignContext
    >>> with DesignContext("doc", overflow_action="record") as ctx:
    ...     x = Sig("x", DType("T", 8, 6, "tc", "saturate", "round"))
    ...     _ = x.assign(0.7071)     # assign() returns the signal
    ...     ctx.tick()
    >>> x.fx                                 # quantized implementation
    0.703125
    >>> x.fl                                 # float reference
    0.7071
    >>> x.range_stat.count
    1

    Untyped signals pass values through unquantized; give them a type
    later with :meth:`set_dtype` (the refinement flow does exactly
    that).
    """

    __slots__ = (
        "name", "dtype", "ctx", "role", "fx", "fl", "ival", "init_value",
        "_range_stat", "_val_stat", "_err_consumed", "_err_produced", "_cols",
        "overflow_count", "_forced_range", "_forced_error", "_fault_pre",
        "_fault_post", "_prop_ival", "_read_ival", "_history",
        "_kernel", "_err_mode", "_sat_lo", "_sat_hi",
        "decl_site", "_obs", "_monitored", "node",
    )

    is_register = False

    def __init__(self, name, dtype=None, ctx=None, init=0.0):
        if dtype is not None and not isinstance(dtype, DType):
            raise DesignError("dtype of signal %r must be a DType, got %r"
                              % (name, dtype))
        self.name = str(name)
        self.ctx = ctx if ctx is not None else current_context()
        self.role = ""
        #: (filename, lineno) where design code declared this signal.
        self.decl_site = _decl_site()

        #: Current fixed-point value (exact in a double); a register's
        #: value committed at the last clock edge.
        self.fx = float(init)
        #: Current floating-point reference value.
        self.fl = float(init)
        self.init_value = float(init)

        # Monitors, read through the flushing properties below.
        self._range_stat = RangeStat()    # incoming (pre-quantization) values
        self._val_stat = ErrorStat()      # reference values (for power/SQNR)
        self._err_consumed = ErrorStat()  # fl - fx before quantization
        self._err_produced = ErrorStat()  # fl - Q(fx) after quantization
        # Unreduced assignments, flat: in_fx, in_fl, qfx, fl per row.
        self._cols = []
        self.overflow_count = 0

        # Annotations.
        self._forced_range = None        # Interval from .range(lo, hi)
        self._forced_error = None        # LSB amplitude q from .error(q)

        # Fault-injection hooks (see repro.robust.faults).
        self._fault_pre = None           # fn(sig, fx, fl) -> (fx, fl)
        self._fault_post = None          # fn(sig, qfx) -> qfx

        # Quantization metric counters (repro.obs.metrics).  Populated
        # lazily by the metered assign wrapper; always None while
        # observability is disabled — assign itself never reads it.
        self._obs = None

        # Quasi-analytical propagated range (union over assignments),
        # mutated in place by assign.
        self._prop_ival = Interval()
        # False while an output-only run skips this signal's monitors
        # (DesignContext.monitor_only).
        self._monitored = True

        self._history = None
        #: Provenance of a read (the :class:`Operand` protocol): the
        #: signal itself while an interval tape records, else None.
        self.node = self if self.ctx.tape is not None else None
        self._bind_dtype(dtype)
        self.ctx.register_signal(self)

    def _bind_dtype(self, dtype):
        """Install ``dtype`` and rebuild the per-signal fast-path caches."""
        self.dtype = dtype
        if dtype is None:
            self._kernel = None
            self._err_mode = False
            self._sat_lo = None
            self._sat_hi = None
            self._bind_read_ival()
            return
        self._err_mode = dtype.msbspec == "error"
        # error-mode signals quantize through the saturating variant and
        # flag the overflow; the context policy decides raise/record.
        self._kernel = (dtype.saturating.kernel if self._err_mode
                        else dtype.kernel)
        self._read_ival = None
        if dtype.msbspec == "saturate":
            self._sat_lo = dtype.min_value
            self._sat_hi = dtype.max_value
        else:
            self._sat_lo = None
            self._sat_hi = None
        self.ival = self.read_interval()

    def _bind_read_ival(self):
        """Rebuild an untyped signal's read range -- the propagated range
        plus the power-on and the current (a register's committed)
        value, then grown in place by ``assign`` -- and re-bind
        ``ival``."""
        v = self.fx
        r = fast_interval(self.init_value, self.init_value)
        if v < r.lo:
            r.lo = v
        elif v > r.hi:
            r.hi = v
        p = self._prop_ival
        if p.lo <= p.hi:
            if p.lo < r.lo:
                r.lo = p.lo
            if p.hi > r.hi:
                r.hi = p.hi
        self._read_ival = r
        self.ival = self.read_interval()

    # -- value access ----------------------------------------------------------

    @property
    def value(self):
        return self.fx

    def error(self, q=None):
        """Paper's dual-purpose ``error``: query or annotate.

        Called without arguments, returns the current difference error
        ``fl - fx``.  Called with an LSB amplitude ``q``, forwards to
        :meth:`error_spec` (the paper's ``x.error(q)`` annotation).
        """
        if q is None:
            return self.fl - self.fx
        return self.error_spec(q)

    def read_interval(self):
        """Range seen by downstream range propagation.

        Priority: explicit ``range()`` annotation, then the declared type
        range, then the accumulated propagated range.  The power-on value
        is always part of the achievable set, so it seeds the propagation
        through feedback loops (this is what lets an unbounded
        accumulator *explode* instead of staying silently empty).

        The returned interval is a live, read-only view (it may grow as
        further assignments are monitored).
        """
        if self._forced_range is not None:
            return self._forced_range
        dt = self.dtype
        if dt is not None:
            return dt.range_interval()
        return self._read_ival

    def prop_interval(self):
        """Accumulated propagated range (diagnostics / reports)."""
        if self._forced_range is not None:
            return self._forced_range
        return self._prop_ival.copy()

    # -- annotations --------------------------------------------------------------

    def range(self, lo, hi):
        """Force the propagated range (the paper's ``x.range(lo, hi)``).

        Independent of the LSB side; used to break MSB explosion on
        feedback signals or to seed propagation at inputs.
        """
        self._annotated("range()")
        self._forced_range = Interval(lo, hi)
        self.ival = self._forced_range
        return self

    def error_spec(self, q):
        """Force the produced difference error (the paper's ``x.error(q)``).

        After this call the float reference no longer follows the true
        floating-point computation; instead every assignment re-derives it
        as ``Q(value) + U(-q/2, q/2)``, modelling an assumed quantization
        at LSB weight ``q``.  This decorrelates the error in sensitive
        feedback loops whose coupled simulation would otherwise diverge.
        """
        if q <= 0:
            raise DesignError("error amplitude must be positive, got %r" % q)
        self._annotated("error_spec()")
        self._forced_error = float(q)
        return self

    def clear_annotations(self):
        self._annotated("clear_annotations()")
        self._forced_range = None
        self._forced_error = None
        self.ival = self.read_interval()
        return self

    @property
    def forced_range(self):
        return self._forced_range

    @property
    def forced_error(self):
        return self._forced_error

    def set_dtype(self, dtype):
        """Retype the signal (used by the flow when applying a refinement)."""
        if dtype is not None and not isinstance(dtype, DType):
            raise DesignError("dtype of signal %r must be a DType or None"
                              % self.name)
        self._annotated("set_dtype()")
        self._prop_ival = Interval()
        self._bind_dtype(dtype)
        return self

    def _annotated(self, what):
        """An interval tape cannot replay a run that re-annotates."""
        tape = self.ctx.tape
        if tape is not None:
            tape.distrust("%s was called on %r inside run()"
                          % (what, self.name))

    def watch(self, maxlen=None):
        """Record per-assignment ``(fx, fl)`` history (for metrics/plots)."""
        self._history = deque(maxlen=maxlen)
        return self

    @property
    def history(self):
        return self._history

    # -- assignment -----------------------------------------------------------------

    def assign(self, value):
        """Quantize-on-assign with simultaneous range & error monitoring.

        This is the whole assignment: ``<<=`` and array stores call it,
        and the observability wrappers (``obs.metrics``,
        ``obs.profile``) patch it.  ``value`` is an operand, an exact
        float taken as is (no ``Expr``), or anything :func:`as_expr`
        takes.  A wrapper must accept all three and return the signal.
        """
        lit = type(value) is float
        if lit:
            in_fx = in_fl = value
        else:
            if not isinstance(value, Operand):
                value = as_expr(value)
            in_fx = value.fx
            in_fl = value.fl
        ctx = self.ctx

        if self._fault_pre is not None:
            in_fx, in_fl = self._fault_pre(self, in_fx, in_fl)

        # Non-finite guard: NaN/Inf must never be quantized or folded
        # into the monitors silently; the context policy decides between
        # raising, recording + sanitizing, and sanitizing.  Runs after
        # the fault hook so injected non-finites are guarded too, and
        # leaves the kernel a finite pair.
        # (x - x == 0.0 exactly when x is finite.)
        if in_fx - in_fx != 0.0 or in_fl - in_fl != 0.0:
            in_fx, in_fl = ctx.guard_non_finite(self, in_fx, in_fl)

        # Quantize the fixed-point value through the compiled kernel.
        kernel = self._kernel
        if kernel is not None:
            qfx, overflowed = kernel(in_fx)
            if overflowed:
                if self._err_mode and ctx.overflow_action == "raise":
                    if self._monitored:
                        self._record_aborted(in_fx, in_fl)
                    raise FixedPointOverflowError(
                        "value %r overflows %s on signal %s"
                        % (in_fx, self.dtype.spec(), self.name),
                        signal=self.name, value=in_fx, dtype=self.dtype)
                self.overflow_count += 1
                ctx.log_overflow(self.name, in_fx)
        else:
            qfx = in_fx

        if self._fault_post is not None:
            qfx = self._fault_post(self, qfx)

        # Float reference: true value, unless an error() annotation
        # decouples it (uniform error of one assumed LSB).
        q = self._forced_error
        if q is not None:
            fl = qfx + ctx.rng.uniform(-0.5 * q, 0.5 * q)
        else:
            fl = in_fl

        if self._monitored:
            # Range and consumed error (incoming pair), produced error and
            # reference power (stored pair), reduced later by _flush.
            self._cols.extend((in_fx, in_fl, qfx, fl))

        # Quasi-analytical range propagation, in place.  Forced ranges
        # freeze propagation (paper: explicit range overrides and stops
        # feedback explosion); saturating types clip the incoming range.
        if ctx.propagate and self._forced_range is None:
            if lit:
                # A NaN literal fails lo <= hi, as the empty interval does.
                lo = hi = value
            else:
                ival = value.ival
                lo = ival.lo
                hi = ival.hi
            if lo <= hi:
                slo = self._sat_lo
                if slo is not None:
                    shi = self._sat_hi
                    lo = shi if lo > shi else (slo if lo < slo else lo)
                    hi = slo if hi < slo else (shi if hi > shi else hi)
                p = self._prop_ival
                if lo < p.lo:
                    p.lo = lo
                if hi > p.hi:
                    p.hi = hi
                r = self._read_ival
                if r is not None:
                    if lo < r.lo:
                        r.lo = lo
                    if hi > r.hi:
                        r.hi = hi

        # A register's assignment lands in its pending slot, committed
        # by DesignContext.tick().
        if self.is_register:
            self._pend_fx = qfx
            self._pend_fl = fl
            self._has_pending = True
        else:
            self.fx = qfx
            self.fl = fl

        if self._history is not None:
            self._history.append((qfx, fl))
        if ctx.tape is not None:
            ctx.tape.assign(self, value)
        return self

    def __ilshift__(self, value):
        # Not a class-level alias of assign: a wrapper patched onto
        # Sig.assign must see this spelling too.
        return self.assign(value)

    def fault_pre(self, fn):
        """Install a pre-quantization fault hook (``fn(sig, fx, fl)``).

        Models upstream faults — stuck-at values, scaled inputs, injected
        NaNs — applied to the incoming value pair before any monitor sees
        it.  Returns self; pass ``None`` to clear.
        """
        self._fault_pre = fn
        return self

    def fault_post(self, fn):
        """Install a post-quantization fault hook (``fn(sig, qfx)``).

        Models storage faults — bit flips in the quantized word — applied
        after quantization; the float reference is untouched, so the
        produced-error monitor measures the fault's impact directly.
        Returns self; pass ``None`` to clear.
        """
        self._fault_post = fn
        return self

    def clear_faults(self):
        self._fault_pre = None
        self._fault_post = None
        return self

    def _record_aborted(self, in_fx, in_fl):
        """Monitor an assignment that raises on overflow.

        The incoming pair reaches the range and consumed-error monitors,
        as it does before quantization; nothing reaches the produced
        side.
        """
        self._flush()
        self._range_stat.update_many((in_fx,))
        self._err_consumed.update_many((in_fl - in_fx,))

    # -- statistics ----------------------------------------------------------------------

    def _flush(self):
        """Reduce the recorded assignments into the monitors, in order."""
        cols = self._cols
        if not cols:
            return
        a = np.fromiter(cols, np.float64, len(cols)).reshape(-1, 4)
        cols.clear()
        in_fx = a[:, 0]
        fl = a[:, 3]
        self._range_stat.update_many(in_fx)
        self._err_consumed.update_many(a[:, 1] - in_fx)
        self._err_produced.update_many(fl - a[:, 2])
        self._val_stat.update_many(fl)

    @property
    def range_stat(self):
        """Range monitor (:class:`~repro.core.stats.RangeStat`), flushed."""
        if self._cols:
            self._flush()
        return self._range_stat

    @property
    def val_stat(self):
        """Reference-value statistics (power for SQNR), flushed."""
        if self._cols:
            self._flush()
        return self._val_stat

    @property
    def err_consumed(self):
        """Consumed-error monitor ``fl - fx``, flushed."""
        if self._cols:
            self._flush()
        return self._err_consumed

    @property
    def err_produced(self):
        """Produced-error monitor ``fl - Q(fx)``, flushed."""
        if self._cols:
            self._flush()
        return self._err_produced

    def _clear_monitors(self):
        """Empty the monitors, dropping unreduced assignments."""
        self._cols.clear()
        self._range_stat.reset()
        self._val_stat.reset()
        self._err_consumed.reset()
        self._err_produced.reset()

    def reset_stats(self):
        self._annotated("reset_stats()")
        self._clear_monitors()
        self.overflow_count = 0
        self._obs = None
        self._prop_ival = Interval()
        if self.dtype is None:
            self._bind_read_ival()
        if self._history is not None:
            self._history.clear()

    def sqnr_db(self):
        """Signal-to-quantization-noise ratio of this signal in dB.

        Reference power comes from the float simulation, noise power from
        the produced difference error — both gathered in the same run.
        Returns ``inf`` for an error-free signal and ``nan`` when no data
        was collected.
        """
        if self.val_stat.is_empty:
            return nan
        noise = self.err_produced.rms
        if noise == 0.0:
            return inf
        signal = self.val_stat.rms
        if signal == 0.0:
            return -inf
        return 20.0 * log10(signal / noise)

    def __repr__(self):
        spec = self.dtype.spec() if self.dtype is not None else "float"
        return "%s(%r, %s, fx=%g)" % (type(self).__name__, self.name, spec,
                                      self.fx)


class Reg(Sig):
    """Registered signal: assignments become visible at the next clock edge.

    Reads (``fx``, ``fl``) always return the value committed at the most
    recent :meth:`DesignContext.tick`; assignments go to a pending slot,
    which the tick moves into ``fx``/``fl``.  When a register is not
    assigned during a cycle it holds its value.
    """

    __slots__ = ("_pend_fx", "_pend_fl", "_has_pending")

    is_register = True

    def __init__(self, name, dtype=None, ctx=None, init=0.0):
        super().__init__(name, dtype=dtype, ctx=ctx, init=init)
        self._pend_fx = 0.0
        self._pend_fl = 0.0
        self._has_pending = False

    @property
    def next_fx(self):
        """Pending fixed-point value (None when not assigned this cycle)."""
        return self._pend_fx if self._has_pending else None

    def set_init(self, value):
        """Set the power-on value of both simulations (no monitoring)."""
        self._annotated("set_init()")
        v = float(value)
        if self.dtype is not None:
            v = self.dtype.saturating.quantize(v)
        self.fx = v
        self.fl = float(value)
        self.init_value = float(value)
        self._has_pending = False
        if self.dtype is None:
            # The power-on value seeds the readable range.
            self._bind_read_ival()
        return self
