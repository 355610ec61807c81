"""Interval tape: the interval side of one run, replayable under new ranges.

A ``range()`` annotation only seeds or freezes quasi-analytical range
propagation; the fixed-point values steer control flow, so a run with
other forced ranges executes the same per-tick sequence of operations
and assignments and differs only in its intervals (see
``tests/test_property_ranges.py``).  An :class:`IntervalTape` records
that sequence once and :meth:`IntervalTape.replay` re-evaluates just the
interval arithmetic under a new set of forced ranges, at a small
fraction of a full dual float/fixed simulation.

Recording
---------
While ``ctx.tape`` is set, every operation appends one ``(op, ref,
ref)`` triple to the current tick's list (the add/sub/mul dunders
through :meth:`IntervalTape.binop`, every other operation through
``_trace_node`` and :meth:`IntervalTape.op`) and every monitored
assignment (``Sig._record``) appends ``("=", signal, ref)``.  An
operand ref is

* an ``int >= 0`` -- the position of the operation that produced it in
  the same tick,
* the :class:`~repro.signal.signal.Sig` itself for a signal read (a
  signal is its own operand, and its ``node`` is the signal while a tape
  records; the read has no instruction of its own and is resolved when
  the operation consumes it, the live-view semantics of the untraced
  path), or
* an ``int < 0`` -- ``-1 - k`` names the tick's ``k``-th literal, kept in
  a separate per-tick constants list.

``DesignContext.tick()`` closes the tick (:meth:`IntervalTape.tick`);
its tuple of triples (its *shape*) is interned, so a loop whose
structure does not change stores one shape and one constants tuple per
tick.

A tape that cannot be trusted stops recording and keeps the reason in
:attr:`IntervalTape.reason`: a signal created, re-typed, re-ranged,
re-annotated or reset inside ``run()``; an operand with no provenance
whose interval is not the point of its value; an expression carried
across ``ctx.tick()``.

Replay
------
Per shape, assignments to forced targets are dropped (a forced range
freezes propagation, so the full simulation does no interval work for
them either); every operation is evaluated with the
:mod:`repro.core.interval` functions (and
:func:`repro.core.interval.eval_op` for the rarer operations), so an
interval bound that turns NaN raises exactly where the full simulation
raises, and each live assignment folds its interval into the target
exactly as ``Sig._record`` does.  The interval state only grows, so a
tick whose (shape, constants) pair already executed without changing
anything is skipped until the state changes again.
"""

from __future__ import annotations

from array import array

from repro.core.interval import (eval_op, fast_interval, iv_add, iv_mul,
                                 iv_neg, iv_sub)

__all__ = ["IntervalTape"]

#: Label of an assignment triple ``("=", target, source)``.
ASSIGN = "="

_COMPARISONS = ("gt", "ge", "lt", "le")
_FAST_OPS = {"add": iv_add, "sub": iv_sub, "mul": iv_mul}


class IntervalTape:
    """Recorder and replayer of one run's interval program.

    Hand an empty tape to a job (``SimConfig(tape=IntervalTape())``):
    the interpreted engine records into it between :meth:`start` and
    :meth:`finish`, which sets :attr:`recorded`.

    >>> from repro.core.interval import Interval
    >>> from repro.signal import DesignContext, Sig
    >>> with DesignContext("doc") as ctx:
    ...     x, y = Sig("x"), Sig("y")
    ...     tape = IntervalTape()
    ...     tape.start(ctx)
    ...     for v in (0.25, -0.5, 0.25):
    ...         _ = x.assign(v)
    ...         _ = y.assign(x * 2.0 + 1.0)
    ...         ctx.tick()
    ...     tape.finish()
    >>> tape.n_ticks, tape.n_shapes
    (3, 1)
    >>> y.prop_interval()
    Interval(0, 1.5)
    >>> tape.replay({x: Interval(-1, 1)})["y"]
    (Interval(-1, 3), None)
    >>> tape.executed_ticks    # tick 3 repeats tick 2, which changed nothing
    2
    """

    def __init__(self):
        #: why the tape cannot be replayed (None while it can).
        self.reason = None
        #: True once a run recorded into the tape from start to finish.
        self.recorded = False
        #: ticks executed by the last :meth:`replay`.
        self.executed_ticks = 0
        #: the recorded run's context; replays resolve reads against its
        #: signals.
        self.ctx = None
        self._signals = ()
        self._initial = ()
        self._shapes = {}
        self._tick_shapes = array("i")
        self._tick_consts = []
        self._ops = []
        self._consts = []
        self._base = 0

    @property
    def n_ticks(self):
        return len(self._tick_shapes)

    @property
    def n_shapes(self):
        return len(self._shapes)

    # -- recording -------------------------------------------------------

    def start(self, ctx):
        """Snapshot the interval state of ``ctx`` and start recording."""
        self.ctx = ctx
        self._signals = tuple(ctx.signals())
        self._initial = tuple(
            (s._prop_ival.copy(),
             None if s._read_ival is None else s._read_ival.copy())
            for s in self._signals)
        ctx.tape = self
        if ctx.tracer is not None:
            self.distrust("the run is traced")

    def finish(self):
        """Stop recording; trailing work after the last tick is one tick."""
        ctx = self.ctx
        if ctx.tape is self:
            ctx.tape = None
            if self._ops:
                self.tick()
        created = ctx.signals()[len(self._signals):]
        if created:
            self.distrust("signal %r was created inside run()"
                          % created[0].name)
        self.recorded = True

    def distrust(self, reason):
        """Mark the tape unreplayable and stop recording."""
        if self.reason is None:
            self.reason = reason
        if self.ctx is not None and self.ctx.tape is self:
            self.ctx.tape = None

    def tick(self):
        """Close the current tick (``DesignContext.tick()`` calls this):
        intern its shape, keep its literals."""
        ops = self._ops
        shape = tuple(ops)
        sid = self._shapes.get(shape)
        if sid is None:
            sid = self._shapes[shape] = len(self._shapes)
        self._tick_shapes.append(sid)
        self._tick_consts.append(tuple(self._consts))
        self._base += len(ops)
        ops.clear()
        self._consts.clear()

    def _ref(self, e):
        """Ref of operand ``e`` in the current tick (None once the tape
        is distrusted)."""
        node = e.node
        if node is None:
            iv = e.ival
            v = iv.lo
            if v == e.fx and iv.hi == v:
                consts = self._consts
                consts.append(v)
                return -len(consts)
            self.distrust("an operand expression has no provenance and "
                          "interval %r, not the point of its value %r"
                          % (iv, e.fx))
            return None
        if type(node) is int:
            node -= self._base
            if node < 0:
                self.distrust("an expression was carried across ctx.tick()")
        return node

    def binop(self, label, ea, eb):
        """Record the binary operation ``label`` over ``ea`` and ``eb``;
        returns the ref of its result.

        The common operands -- a result of this tick or a signal read --
        resolve here; literals and suspect operands go through
        :meth:`_ref`.
        """
        base = self._base
        a = ea.node
        if type(a) is int and a >= base:
            a -= base
        elif a is None or type(a) is int:
            a = self._ref(ea)
        b = eb.node
        if type(b) is int and b >= base:
            b -= base
        elif b is None or type(b) is int:
            b = self._ref(eb)
        ops = self._ops
        ops.append((label, a, b))
        return base + len(ops) - 1

    def op(self, label, operands):
        """Record one operation; returns the ref of its result."""
        # At most two operands shape an interval: select's condition
        # does not (its range is the union of the branches).
        if len(operands) > 1:
            return self.binop(label, operands[-2], operands[-1])
        ops = self._ops
        ops.append((label, self._ref(operands[0]), None))
        return self._base + len(ops) - 1

    def assign(self, sig, expr):
        """Record one monitored assignment."""
        r = expr.node
        if type(r) is int and r >= self._base:
            r -= self._base
        elif r is None or type(r) is int:
            r = self._ref(expr)
        self._ops.append((ASSIGN, sig, r))

    # -- replay ----------------------------------------------------------

    def replay(self, forced):
        """Interval outcome of the recorded run under other forced ranges.

        ``forced`` maps each signal with a ``range()`` annotation to its
        :class:`~repro.core.interval.Interval`.  Returns ``{name: (prop,
        forced_range)}`` in declaration order: what
        ``Sig.prop_interval()`` and ``Sig.forced_range`` would read after
        a full simulation with those annotations.
        """
        if not self.recorded or self.reason is not None:
            raise ValueError("tape cannot be replayed: %s"
                             % (self.reason or "nothing was recorded"))
        state = {s: (p.copy(), None if r is None else r.copy())
                 for s, (p, r) in zip(self._signals, self._initial)}
        progs = [_compile(shape, forced, state) for shape in self._shapes]
        version = 0
        quiet = {}
        executed = 0
        for sid, consts in zip(self._tick_shapes, self._tick_consts):
            prog, used, regs, n = progs[sid]
            key = (sid, tuple([consts[k] for k in used]))
            if quiet.get(key) == version:
                continue
            executed += 1
            for k in used:
                c = consts[k]
                regs[n + k] = fast_interval(c, c)
            changed = False
            for step in prog:
                if step(regs):
                    changed = True
            if changed:
                version += 1
            else:
                quiet[key] = version
        self.executed_ticks = executed
        out = {}
        for s in self._signals:
            f = forced.get(s)
            if f is not None:
                out[s.name] = (f, f)
            else:
                out[s.name] = (state[s][0].copy(), None)
        return out


def _compile(shape, forced, state):
    """``(steps, constants, registers, n)`` of one tick shape.

    Registers ``0..n-1`` hold the tick's operation results, ``n + k`` its
    ``k``-th literal and the slots after those the signal reads, bound
    once to the live interval a read resolves to: the forced range, the
    declared type's range, or the untyped signal's growing read range.
    ``constants`` lists the literals some step reads.
    """
    n = len(shape)
    consts = set()
    for label, a, b in shape:
        if label == ASSIGN:
            operands = () if a in forced else (b,)
        elif label in _COMPARISONS:
            # A comparison's interval is [0, 1] whatever its operands.
            operands = ()
        else:
            operands = (a, b)
        for r in operands:
            if type(r) is int and r < 0:
                consts.add(-1 - r)
    consts = sorted(consts)
    regs = [None] * (n + (consts[-1] + 1 if consts else 0))
    slots = {}

    def slot(r):
        if type(r) is int:
            return r if r >= 0 else n - 1 - r
        if r is None:
            return None
        if r not in slots:
            slots[r] = len(regs)
            regs.append(_read_interval(r, forced, state))
        return slots[r]

    steps = []
    for i, (label, a, b) in enumerate(shape):
        if label == ASSIGN:
            if a not in forced:
                prop, read = state[a]
                steps.append(_assign_step(slot(b), prop, read, a._sat_lo,
                                          a._sat_hi))
        elif label in _COMPARISONS:
            steps.append(_op_step(label, i, None, None))
        else:
            steps.append(_op_step(label, i, slot(a), slot(b)))
    return steps, consts, regs, n


def _read_interval(sig, forced, state):
    """The interval a read of ``sig`` sees (``Sig.read_interval``)."""
    f = forced.get(sig)
    if f is not None:
        return f
    if sig.dtype is not None:
        return sig.dtype.range_interval()
    return state[sig][1]


def _op_step(label, out, ia, ib):
    fn = _FAST_OPS.get(label)
    if fn is not None:
        def step(regs):
            regs[out] = fn(regs[ia], regs[ib])
    elif label == "neg":
        def step(regs):
            regs[out] = iv_neg(regs[ia])
    elif label in _COMPARISONS:
        def step(regs):
            regs[out] = eval_op(label, ())
    elif ib is None:
        def step(regs):
            regs[out] = eval_op(label, [regs[ia]])
    else:
        def step(regs):
            regs[out] = eval_op(label, [regs[ia], regs[ib]])
    return step


def _assign_step(src, prop, read, slo, shi):
    """``Sig._record``'s range propagation; True when the state grew."""
    def step(regs):
        ival = regs[src]
        lo = ival.lo
        hi = ival.hi
        if lo > hi:
            return False
        if slo is not None:
            lo = shi if lo > shi else (slo if lo < slo else lo)
            hi = slo if hi < slo else (shi if hi > shi else hi)
        grew = False
        if lo < prop.lo:
            prop.lo = lo
            grew = True
        if hi > prop.hi:
            prop.hi = hi
            grew = True
        if read is not None:
            if lo < read.lo:
                read.lo = lo
                grew = True
            if hi > read.hi:
                read.hi = hi
                grew = True
        return grew
    return step

