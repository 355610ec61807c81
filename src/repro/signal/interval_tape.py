"""Interval tape: the one recording of a run, replayable under new ranges.

A ``range()`` annotation only seeds or freezes quasi-analytical range
propagation; the fixed-point values steer control flow, so a run with
other forced ranges executes the same per-tick sequence of operations
and assignments and differs only in its intervals (see
``tests/test_property_ranges.py``).  An :class:`IntervalTape` records
that sequence once and :meth:`IntervalTape.replay` re-evaluates just the
interval arithmetic under a new set of forced ranges, at a small
fraction of a full dual float/fixed simulation.  The same recording is
the run's structure: :func:`repro.sfg.trace` records onto a tape and
builds the signal flow graph from :meth:`IntervalTape.distinct_records`.

Recording
---------
While ``ctx.tape`` is set, every operation appends one ``(op, ref,
...)`` record, with one ref per operand, to the current tick's list (the
add/sub/mul dunders through :meth:`IntervalTape.binop`, every other
operation through :meth:`IntervalTape.op`) and every assignment
(``Sig.assign``) appends ``("=", signal, ref)``.  An operand ref is

* an ``int >= 0`` -- the position of the operation that produced it in
  the same tick,
* the :class:`~repro.signal.signal.Sig` itself for a signal read (a
  signal's ``node`` slot holds the signal from :meth:`IntervalTape.start`
  to :meth:`IntervalTape.finish`; the read is resolved when the
  operation consumes it, the live-view semantics of the untaped path),
* an ``int < 0`` -- ``-1 - k`` names the tick's ``k``-th literal, kept in
  a separate per-tick constants list (an operand with no provenance is
  the literal of its value; a literal of ``x + v``, ``x * v``, ``v * x``
  or a float assigned as is reaches the tape as the bare float, with
  no ``Expr``), or
* ``(position,)`` -- an operation of an earlier tick, by its position
  in the tape.

Positions continue from the tapes recorded earlier on the same context
(``DesignContext.tape_positions``), so an expression an earlier tape
produced is recognised and recorded as the literal of its value.

``DesignContext.tick()`` closes the tick (:meth:`IntervalTape.tick`);
its tuple of records (its *shape*) is interned, so a loop whose
structure does not change stores one shape and one constants tuple per
tick.

A tape whose intervals cannot be trusted keeps the reason in
:attr:`IntervalTape.reason` and refuses to replay, but goes on recording
the structure: a signal created, re-typed, re-ranged, re-annotated or
reset inside ``run()``; an operand with no provenance whose interval is
not the point of its value; an expression carried across ``ctx.tick()``
or from an earlier tape.

Replay
------
Per shape, assignments to forced targets are dropped (a forced range
freezes propagation, so the full simulation does no interval work for
them either); every operation is evaluated with the
:mod:`repro.core.interval` functions (and
:func:`repro.core.interval.eval_op` for the rarer operations, which
ignores ``select``'s condition), so an interval bound that turns NaN
raises exactly where the full simulation raises, and each live
assignment folds its interval into the target exactly as
``Sig.assign`` does.  The interval state only grows, so a tick whose
(shape, constants) pair already executed without changing anything is
skipped until the state changes again.
"""

from __future__ import annotations

from array import array

from repro.core.interval import (EMPTY, eval_op, fast_interval, iv_add,
                                 iv_mul, iv_neg, iv_sub)

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
        self._origin = self._base = 0
        #: the recorded signal flow graph, set by :func:`repro.sfg.trace`.
        self.sfg = None

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
        self._origin = self._base = ctx.tape_positions
        self._signals = tuple(ctx.signals())
        self._initial = tuple(
            (s._prop_ival.copy(),
             None if s._read_ival is None else s._read_ival.copy())
            for s in self._signals)
        ctx.tape = self
        # A signal read is its own provenance while the tape records
        # (a signal created meanwhile sets its own node).
        for s in self._signals:
            s.node = s

    def finish(self):
        """Stop recording; trailing work after the last tick is one tick."""
        ctx = self.ctx
        if ctx.tape is self:
            ctx.tape = None
            for s in ctx.signals():
                s.node = None
            if self._ops:
                self.tick()
            ctx.tape_positions = self._base
        created = ctx.signals()[len(self._signals):]
        if created:
            self.distrust("signal %r was created inside run()"
                          % created[0].name)
        self.recorded = True

    def distrust(self, reason):
        """Mark the tape unreplayable; it goes on recording the structure."""
        if self.reason is None:
            self.reason = reason

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
        """Ref of operand ``e`` -- an operand or a bare float literal --
        in the current tick."""
        if type(e) is float:
            # A bare float's interval is its point; a NaN's is empty.
            if e != e:
                self._no_point(EMPTY, e)
            consts = self._consts
            consts.append(e)
            return -len(consts)
        node = e.node
        if type(node) is int and node < self._origin:
            self.distrust("an expression recorded by an earlier tape was "
                          "reused")
            node = None
        if node is None:
            v = e.fx
            iv = e.ival
            if iv.lo != v or iv.hi != v:
                self._no_point(iv, v)
            consts = self._consts
            consts.append(v)
            return -len(consts)
        if type(node) is int:
            if node < self._base:
                self.distrust("an expression was carried across ctx.tick()")
                return (node - self._origin,)
            return node - self._base
        return node

    def _no_point(self, iv, v):
        self.distrust("an operand expression has no provenance and "
                      "interval %r, not the point of its value %r" % (iv, v))

    def binop(self, label, ea, eb):
        """Record the binary operation ``label`` over ``ea`` and ``eb``
        (operands, or one bare float literal); returns the ref of its
        result.

        The common operands -- a result of this tick or a signal read --
        resolve here; literals and suspect operands go through
        :meth:`_ref`.
        """
        base = self._base
        a = None if type(ea) is float else ea.node
        if type(a) is int and a >= base:
            a -= base
        elif a is None or type(a) is int:
            a = self._ref(ea)
        b = None if type(eb) is float else eb.node
        if type(b) is int and b >= base:
            b -= base
        elif b is None or type(b) is int:
            b = self._ref(eb)
        ops = self._ops
        ops.append((label, a, b))
        return base + len(ops) - 1

    def op(self, label, operands):
        """Record one operation over every operand; returns the ref of
        its result."""
        ops = self._ops
        ops.append((label,) + tuple([self._ref(e) for e in operands]))
        return self._base + len(ops) - 1

    def assign(self, sig, expr):
        """Record one assignment of an operand or a bare float."""
        r = None if type(expr) is float else expr.node
        if type(r) is int and r >= self._base:
            r -= self._base
        elif r is None or type(r) is int:
            r = self._ref(expr)
        self._ops.append((ASSIGN, sig, r))

    def distinct_records(self):
        """The recorded structure: each distinct record once, in
        first-occurrence order.

        A record is ``(label, operand, ...)``, an assignment ``("=",
        source, signal)``.  An operand is a signal, a literal as a
        1-tuple ``(value,)``, or the ``int`` index of the record that
        produced it among the records yielded.  A record that repeats
        an earlier one, operand for operand, adds no structure and is
        not yielded again.
        """
        shapes = list(self._shapes)
        index = {}
        where = []      # per recorded position: its record's index

        def operand(r):
            if type(r) is int:
                return where[base + r] if r >= 0 else (consts[-1 - r],)
            return where[r[0]] if type(r) is tuple else r

        for sid, consts in zip(self._tick_shapes, self._tick_consts):
            base = len(where)
            for r in shapes[sid]:
                key = ((ASSIGN, operand(r[2]), r[1]) if r[0] == ASSIGN
                       else (r[0],) + tuple(map(operand, r[1:])))
                i = index.get(key)
                if i is None:
                    i = index[key] = len(index)
                    yield key
                where.append(i)

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
    for rec in shape:
        label = rec[0]
        if label == ASSIGN:
            operands = () if rec[1] in forced else rec[2:]
        elif label in _COMPARISONS:
            # A comparison's interval is [0, 1] whatever its operands.
            operands = ()
        else:
            operands = rec[1:]
        for r in operands:
            if type(r) is int and r < 0:
                consts.add(-1 - r)
    consts = sorted(consts)
    regs = [None] * (n + (consts[-1] + 1 if consts else 0))
    slots = {}

    def slot(r):
        if type(r) is int:
            return r if r >= 0 else n - 1 - r
        if r not in slots:
            slots[r] = len(regs)
            regs.append(_read_interval(r, forced, state))
        return slots[r]

    steps = []
    for i, rec in enumerate(shape):
        label = rec[0]
        if label == ASSIGN:
            sig = rec[1]
            if sig not in forced:
                prop, read = state[sig]
                steps.append(_assign_step(slot(rec[2]), prop, read,
                                          sig._sat_lo, sig._sat_hi))
        elif label in _COMPARISONS:
            steps.append(_op_step(label, i, ()))
        else:
            steps.append(_op_step(label, i, [slot(r) for r in rec[1:]]))
    return steps, consts, regs, n


def _read_interval(sig, forced, state):
    """The interval a read of ``sig`` sees (``Sig.read_interval``)."""
    f = forced.get(sig)
    if f is not None:
        return f
    if sig.dtype is not None:
        return sig.dtype.range_interval()
    return state[sig][1]


def _op_step(label, out, ins):
    fn = _FAST_OPS.get(label)
    if fn is not None:
        ia, ib = ins

        def step(regs):
            regs[out] = fn(regs[ia], regs[ib])
    elif label == "neg":
        (ia,) = ins

        def step(regs):
            regs[out] = iv_neg(regs[ia])
    else:
        def step(regs):
            regs[out] = eval_op(label, [regs[i] for i in ins])
    return step


def _assign_step(src, prop, read, slo, shi):
    """``Sig.assign``'s range propagation; True when the state grew."""
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

