"""Exact bit-vector encoding of one traced-design clock step.

The interpreted engine stores every fixed-point signal as a double whose
value lies on a dyadic grid ``2**-f``.  As long as every intermediate
integer *code* stays below 52 bits of magnitude, double arithmetic is
exact, and the engine's semantics coincide with pure integer arithmetic
on codes.  This module exploits that: it walks the traced SFG in
``condensed_order`` and re-expresses one clock tick as
:mod:`repro.verify.bv` expressions over ``(code, f)`` pairs —
:class:`Wire` — where the carried value is ``code * 2**-f``.  Every
``f`` comes from the lowering rules of :mod:`repro.core.opformat`, which
also size the generated VHDL, so a verdict is about the RTL's
arithmetic, and :meth:`StepEncoder.step` on concrete input codes (its
``bv`` constructors fold constants eagerly) is the RTL's golden model.
A signal with no recorded driver reads the value it holds, quantized
through its type.

Quantization (the ``Sig`` assignment path and ``cast`` ops) becomes

* rounding: an arithmetic shift with the mode's exact pre-offset
  (:func:`repro.core.word.shift_round_code` lifted to symbols),
* ``wrap``: modular reduction (:func:`repro.verify.bv.wrap`),
* ``saturate``/``error``: if-then-else clamping — ``error`` matches the
  engine under ``overflow_action="record"``, which is how designs are
  traced for analysis,
* the *overflow* predicate: rounded code outside the representable
  range, exactly when ``Sig.assign`` would bump ``overflow_count``.

Anything the encoding cannot express **exactly** — division,
``select`` with an untraced (plain-bool) condition, combinational
cycles, multiply-driven signals, or any node whose exact interval
exceeds the 52-bit double-exactness budget — raises
:class:`EncodingUnsupported`, which the property layer converts into an
honest ``UNKNOWN`` verdict.  The encoder never approximates.
"""

from __future__ import annotations

import math

from repro.core.dtype import DType
from repro.core.errors import ReproError
from repro.core.opformat import (UnsupportedOpError, derive_op_dtype,
                                 held_value, literal_code, power_on_code)
from repro.verify import bv

__all__ = [
    "VerifyError", "EncodingUnsupported",
    "Wire", "Envelope", "QuantEvent", "InputSpec", "StateSpec",
    "StepEncoder", "MAX_EXACT_BITS",
]

#: Magnitude budget (bits) under which integer codes are exact doubles.
MAX_EXACT_BITS = 52

#: Ops that break linearity/time-invariance; refused by ``require_lti``.
_NONLINEAR_OPS = ("abs", "min", "max", "select", "gt", "ge", "lt", "le")


class VerifyError(ReproError):
    """A verification request that cannot be carried out as posed."""


class EncodingUnsupported(VerifyError):
    """The traced design falls outside the exact bit-vector fragment."""


class Wire:
    """One encoded value: integer code expression plus fractional grid.

    The real value carried is ``code * 2**-f``; ``f`` may be negative
    (pure left-shifted integers).
    """

    __slots__ = ("code", "f")

    def __init__(self, code, f):
        self.code = code
        self.f = int(f)

    def __repr__(self):
        return "Wire(f=%d, lo=%d, hi=%d)" % (self.f, self.code.lo,
                                             self.code.hi)


class Envelope:
    """Declared input ranges for bounded proofs.

    ``bounds`` maps each input name to ``(lo, hi)`` real-valued bounds,
    or ``(lo, hi, f)`` to pin the stimulus grid explicitly.  Bounds are
    interpreted *after* input quantization: the checker explores every
    representable stimulus code in ``[lo, hi]`` on the input's grid
    (the input signal's own dtype grid unless overridden), intersected
    with the dtype's representable range.

    >>> env = Envelope({"x": (-1.0, 1.0)})
    >>> env.bound("x")
    (-1.0, 1.0, None)
    """

    def __init__(self, bounds, f=None):
        self.f = None if f is None else int(f)
        self.bounds = {}
        for name, spec in dict(bounds).items():
            spec = tuple(spec)
            if len(spec) == 2:
                lo, hi, fo = spec[0], spec[1], None
            elif len(spec) == 3:
                lo, hi, fo = spec
            else:
                raise VerifyError(
                    "envelope entry for %r must be (lo, hi) or "
                    "(lo, hi, f)" % (name,))
            lo = float(lo)
            hi = float(hi)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise VerifyError("bad envelope bounds for %r: (%r, %r)"
                                  % (name, lo, hi))
            self.bounds[str(name)] = (lo, hi,
                                      None if fo is None else int(fo))

    def bound(self, name):
        """``(lo, hi, f_override)`` for one input."""
        try:
            return self.bounds[name]
        except KeyError:
            raise VerifyError(
                "envelope does not bound input %r (have: %s)"
                % (name, ", ".join(sorted(self.bounds)) or "nothing"))


class QuantEvent:
    """One signal-assignment quantization inside an unrolled formula."""

    __slots__ = ("signal", "overflowed", "incoming", "step")

    def __init__(self, signal, overflowed, incoming, step=0):
        self.signal = signal          # signal name
        self.overflowed = overflowed  # Bool: engine would log an overflow
        self.incoming = incoming      # Wire: pre-quantization value
        self.step = step


class InputSpec:
    """Stimulus variable domain of one input, in codes on grid ``f``."""

    __slots__ = ("name", "f", "lo_code", "hi_code", "dtype")

    def __init__(self, name, f, lo_code, hi_code, dtype):
        self.name = name
        self.f = f
        self.lo_code = lo_code
        self.hi_code = hi_code
        self.dtype = dtype

    @property
    def n_values(self):
        return self.hi_code - self.lo_code + 1


class StateSpec:
    """One register: its dtype (may be None) and power-on value."""

    __slots__ = ("name", "dtype", "init_value")

    def __init__(self, name, dtype, init_value):
        self.name = name
        self.dtype = dtype
        self.init_value = float(init_value)


class StepEncoder:
    """Symbolic executor for one clock tick of a traced design.

    Built once per (design, envelope); :meth:`step` is then called k
    times by the property layer, threading the register state wires
    through.  Because untyped intermediate signals keep their exact
    fractional grid, ``f`` can differ between unrolled steps — the
    encoder therefore re-derives every wire per step instead of
    building a fixed transition function.
    """

    def __init__(self, sfg, inputs, envelope=None, dtypes=None,
                 max_bits=MAX_EXACT_BITS, require_lti=False):
        self.sfg = sfg
        self.inputs = tuple(str(n) for n in inputs)
        self.max_bits = int(max_bits)
        self.require_lti = bool(require_lti)
        self._quantized = True
        self._order = sfg.condensed_order()

        # dtype / init per signal: explicit map wins, else traced payload.
        # A signal with no recorded driver starts (and stays) at the
        # value it holds.
        self._dtypes = {}
        self._inits = {}
        for node in sfg.signal_nodes():
            payload = sfg.sig_payload(node.label)
            dt = None if payload is None else payload.dtype
            if dtypes and node.label in dtypes:
                dt = dtypes[node.label]
            self._dtypes[node.label] = dt
            if node.kind == "sig" and not sfg.preds(node):
                self._inits[node.label] = held_value(payload)
            else:
                self._inits[node.label] = (0.0 if payload is None
                                           else payload.init_value)

        self._check_structure()

        self.states = {}
        for node in sfg.nodes("reg"):
            self.states[node.label] = StateSpec(
                node.label, self._dtypes[node.label],
                self._inits[node.label])

        self.input_specs = {}
        if envelope is not None:
            for name in self.inputs:
                self.input_specs[name] = self._input_spec(name, envelope)

    # -- construction-time validation ---------------------------------------

    def _check_structure(self):
        for cyc in self.sfg.cycles():
            if not any(n.kind == "reg" for n in cyc):
                names = self.sfg.cycle_signal_names(cyc)
                raise EncodingUnsupported(
                    "combinational cycle through %s"
                    % (" -> ".join(names) or "ops only"))
        self._driver = {}
        for node in self.sfg.signal_nodes():
            if node.label in self.inputs:
                self._driver[node.label] = None   # stimulus, not dataflow
                continue
            drivers = self.sfg.preds(node)
            if len(drivers) > 1:
                raise EncodingUnsupported(
                    "signal %r has %d drivers; the exact encoding "
                    "requires single-assignment dataflow"
                    % (node.label, len(drivers)))
            self._driver[node.label] = drivers[0] if drivers else None

    def _input_spec(self, name, envelope):
        lo, hi, f_over = envelope.bound(name)
        dt = self._dtypes.get(name)
        f = f_over
        if f is None:
            f = dt.f if dt is not None else envelope.f
        if f is None:
            raise VerifyError(
                "input %r has no dtype; give the envelope an explicit "
                "fractional grid (f=... or a (lo, hi, f) bound)" % (name,))
        lo_code = math.ceil(lo * (1 << f)) if f >= 0 else \
            math.ceil(lo / (1 << -f))
        hi_code = math.floor(hi * (1 << f)) if f >= 0 else \
            math.floor(hi / (1 << -f))
        if dt is not None and f == dt.f:
            lo_code = max(lo_code, dt.code_min)
            hi_code = min(hi_code, dt.code_max)
        if lo_code > hi_code:
            raise VerifyError(
                "envelope for %r contains no representable stimulus on "
                "grid 2**-%d" % (name, f))
        return InputSpec(name, f, lo_code, hi_code, dt)

    # -- wire helpers --------------------------------------------------------

    def _gate(self, expr, what):
        if max(abs(expr.lo), abs(expr.hi)).bit_length() > self.max_bits:
            raise EncodingUnsupported(
                "%s needs %d-bit codes; beyond the %d-bit exactness "
                "budget of the double-based engine"
                % (what, max(abs(expr.lo), abs(expr.hi)).bit_length(),
                   self.max_bits))
        return expr

    def _wire(self, expr, f, what):
        return Wire(self._gate(expr, what), f)

    def exact_wire(self, value, what="constant"):
        """Exact dyadic ``(code, f)`` of a float (every double is dyadic)."""
        value = float(value)
        if not math.isfinite(value):
            raise EncodingUnsupported("non-finite %s %r" % (what, value))
        code, f = literal_code(value)
        return self._wire(bv.const(code), f, what)

    def input_var(self, name, step):
        """Fresh stimulus variable ``name@step`` over the envelope."""
        spec = self.input_specs[name]
        v = bv.var("%s@%d" % (name, step), spec.lo_code, spec.hi_code)
        return self._wire(v, spec.f, "input %r" % name)

    def state_var(self, name, tag="s0"):
        """Symbolic initial register value over the full dtype range."""
        spec = self.states[name]
        if spec.dtype is None:
            raise EncodingUnsupported(
                "register %r has no dtype; symbolic state needs a "
                "declared wordlength" % (name,))
        dt = spec.dtype
        v = bv.var("%s@%s" % (name, tag), dt.code_min, dt.code_max)
        return self._wire(v, dt.f, "state %r" % name)

    def init_wire(self, name):
        """Concrete power-on wire of one register (engine semantics)."""
        spec = self.states[name]
        w = self.exact_wire(spec.init_value, "init of %r" % name)
        if spec.dtype is None:
            return w
        return Wire(bv.const(power_on_code(spec.dtype, spec.init_value)),
                    spec.dtype.f)

    def zero_state(self):
        return {name: Wire(bv.const(0), 0) for name in self.states}

    def initial_state(self):
        return {name: self.init_wire(name) for name in self.states}

    # -- quantization --------------------------------------------------------

    def _shift_round(self, expr, delta, lsbspec, what):
        """Symbolic :func:`repro.core.word.shift_round_code`."""
        if delta <= 0:
            return self._gate(bv.shl(expr, -delta), what)
        if lsbspec == "round":
            offset = bv.add(expr, bv.const(1 << (delta - 1)))
            return bv.ashr(self._gate(offset, what), delta)
        if lsbspec == "floor":
            return bv.ashr(expr, delta)
        if lsbspec == "ceil":
            return bv.neg(bv.ashr(bv.neg(expr), delta))
        if lsbspec == "trunc":
            return bv.ite(bv.ge(expr, bv.const(0)),
                          bv.ashr(expr, delta),
                          bv.neg(bv.ashr(bv.neg(expr), delta)))
        raise EncodingUnsupported("unknown rounding mode %r" % (lsbspec,))

    def quantize_wire(self, wire, dtype, what):
        """Quantize ``wire`` by ``dtype``: ``(out_wire, overflow_cond)``.

        Mirrors :meth:`repro.core.dtype.DType.quantize_code` symbolically
        — and therefore the compiled float kernel bit for bit (``error``
        types behave as recorded saturation, the tracing configuration).
        """
        rounded = self._shift_round(wire.code, wire.f - dtype.f,
                                    dtype.lsbspec, what)
        lo = dtype.code_min
        hi = dtype.code_max
        over = bv.bor(bv.lt(rounded, bv.const(lo)),
                      bv.gt(rounded, bv.const(hi)))
        if dtype.msbspec == "wrap":
            out = bv.wrap(rounded, dtype.n, dtype.signed)
        else:
            out = bv.ite(bv.lt(rounded, bv.const(lo)), bv.const(lo),
                         bv.ite(bv.gt(rounded, bv.const(hi)),
                                bv.const(hi), rounded))
        return self._wire(out, dtype.f, what), over

    # -- one clock tick ------------------------------------------------------

    def step(self, state, inputs, events=None, step_index=0,
             quantized=True, wires=None):
        """Symbolically execute one tick.

        ``state`` / ``inputs`` map register / input names to their
        :class:`Wire`; returns ``(new_state, sig_wires)`` where
        ``sig_wires`` covers every traced signal (registers read as
        their pre-tick value, exactly like the engine).  Each typed
        assignment appends a :class:`QuantEvent` to ``events``; a
        ``wires`` dict receives every graph node's :class:`Wire`.  With
        ``quantized=False`` the same dataflow is executed with every
        quantizer removed — the float-reference track.
        """
        self._quantized = quantized
        wires = {} if wires is None else wires
        for node in self._order:
            if node.kind == "const":
                wires[node] = self.exact_wire(node.payload,
                                              "const %s" % node.label)
            elif node.kind == "op":
                wires[node] = self._op_wire(node, wires)
            elif node.kind == "reg":
                wires[node] = state[node.label]
            else:  # plain sig
                name = node.label
                if name in self.input_specs or name in self.inputs:
                    wires[node] = inputs[name]
                    continue
                driver = self._driver[name]
                if driver is None:
                    what = "held value of %r" % name
                    w = self.exact_wire(self._inits[name], what)
                    dt = self._dtypes.get(name)
                    if dt is not None and quantized:
                        w = self.quantize_wire(w, dt, what)[0]
                    wires[node] = w
                    continue
                wires[node] = self._assign(name, wires[driver], events,
                                           step_index, quantized)

        new_state = {}
        for name in self.states:
            driver = self._driver[name]
            if driver is None:
                new_state[name] = state[name]
            else:
                new_state[name] = self._assign(name, wires[driver],
                                               events, step_index,
                                               quantized)
        sig_wires = {n.label: wires[n] for n in self.sfg.signal_nodes()
                     if n in wires}
        return new_state, sig_wires

    def _assign(self, name, wire, events, step_index, quantized):
        dt = self._dtypes.get(name)
        if dt is None or not quantized:
            return wire
        out, over = self.quantize_wire(wire, dt, "signal %r" % name)
        if events is not None:
            events.append(QuantEvent(name, over, wire, step_index))
        return out

    # -- op dispatch ---------------------------------------------------------

    def _align(self, wires, f, what):
        """Codes of ``wires`` on the common grid ``2**-f``."""
        return [w.code if w.f == f else
                self._gate(bv.shl(w.code, f - w.f), what) for w in wires]

    def _op_wire(self, node, wires):
        label = node.label
        ops = [wires[p] for p in self.sfg.preds(node)]
        what = "op %s" % label

        if self.require_lti and (label in _NONLINEAR_OPS
                                 or label == "div"):
            raise EncodingUnsupported(
                "op %r is not LTI; response-error proofs cover linear "
                "time-invariant designs only" % (label,))
        if label == "div":
            raise EncodingUnsupported(
                "division has no exact fixed-point bit-vector encoding")
        if label == "select" and len(ops) != 3:
            raise EncodingUnsupported(
                "select with an untraced (plain bool) condition; "
                "use repro.signal.ops.gt/ge/lt/le to keep the "
                "condition in the dataflow")
        try:
            dt = derive_op_dtype(label, [
                DType("wire", bv.width_bits(w.code), w.f) for w in ops])
        except UnsupportedOpError:
            raise EncodingUnsupported("op %r is outside the encodable "
                                      "fragment" % (label,)) from None
        f = dt.f

        if label == "add" or label == "sub":
            a, b = self._align(ops, f, what)
            fn = bv.add if label == "add" else bv.sub
            return self._wire(fn(a, b), f, what)
        if label == "mul":
            if self.require_lti and not (ops[0].code.op == "const"
                                         or ops[1].code.op == "const"):
                raise EncodingUnsupported(
                    "signal-by-signal multiply is nonlinear; "
                    "response-error proofs need a constant coefficient")
            return self._wire(bv.mul(ops[0].code, ops[1].code), f, what)
        if label == "neg":
            return self._wire(bv.neg(ops[0].code), f, what)
        if label == "abs":
            a = ops[0].code
            return self._wire(
                bv.ite(bv.lt(a, bv.const(0)), bv.neg(a), a), f, what)
        if label in ("min", "max"):
            a, b = self._align(ops, f, what)
            cond = bv.le(a, b) if label == "min" else bv.ge(a, b)
            return self._wire(bv.ite(cond, a, b), f, what)
        if label == "select":
            cond = bv.bnot(bv.eq(ops[0].code, bv.const(0)))
            a, b = self._align(ops[1:], f, what)
            return self._wire(bv.ite(cond, a, b), f, what)
        if label in ("gt", "ge", "lt", "le"):
            a, b = self._align(ops, max(ops[0].f, ops[1].f), what)
            cond = {"gt": bv.gt, "ge": bv.ge,
                    "lt": bv.lt, "le": bv.le}[label](a, b)
            return Wire(bv.ite(cond, bv.const(1), bv.const(0)), f)
        if label.startswith("cast"):
            # Non-wrap casts run the saturating kernel and never log
            # overflow (see repro.signal.ops.cast) — drop the condition.
            # The float-reference track passes through casts untouched.
            if not self._quantized:
                return ops[0]
            if dt.msbspec != "wrap":
                dt = dt.saturating
            out, _over = self.quantize_wire(ops[0], dt, what)
            return out
        return Wire(ops[0].code, f)           # shl / shr: f moves only
