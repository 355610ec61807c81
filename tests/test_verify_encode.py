"""Exactness of the bit-vector encoding (repro.verify.encode).

The central claim of the verifier is that the symbolic encoding and the
interpreted engine compute the *same* integers; these tests pit
:class:`StepEncoder` against the concrete kernels
(:func:`repro.core.word.shift_round_code`,
:meth:`repro.core.dtype.DType.quantize_code`) on randomized codes.
"""

import math
import random

import pytest

from repro.core import word
from repro.core.dtype import DType
from repro.signal import DesignContext, Reg, Sig
from repro.sfg import trace
from repro.verify import bv
from repro.verify.encode import (EncodingUnsupported, Envelope,
                                 StepEncoder, VerifyError, Wire)
from repro.verify.gallery import FirOkDesign
from repro.verify.properties import trace_design

_T_IN = DType("TIN", 5, 3, "tc", "saturate", "round")


@pytest.fixture(scope="module")
def fir_encoder():
    traced = trace_design(FirOkDesign)
    return StepEncoder(traced.sfg, traced.inputs,
                       Envelope({"x": (-1.0, 1.0)}))


class TestEnvelope:
    def test_two_and_three_tuple(self):
        env = Envelope({"x": (-1.0, 1.0), "y": (-0.5, 0.5, 6)})
        assert env.bound("x") == (-1.0, 1.0, None)
        assert env.bound("y") == (-0.5, 0.5, 6)

    def test_unknown_input_raises(self):
        with pytest.raises(VerifyError):
            Envelope({"x": (-1, 1)}).bound("y")

    def test_bad_bounds_raise(self):
        with pytest.raises(VerifyError):
            Envelope({"x": (1.0, -1.0)})
        with pytest.raises(VerifyError):
            Envelope({"x": (0.0, float("inf"))})


class TestExactWire:
    def test_dyadic_reconstruction(self, fir_encoder):
        rng = random.Random(3)
        for _ in range(200):
            value = rng.randint(-4000, 4000) * 2.0 ** -rng.randint(0, 12)
            w = fir_encoder.exact_wire(value)
            assert w.code.op == "const"
            assert w.code.lo * 2.0 ** -w.f == value

    def test_zero(self, fir_encoder):
        w = fir_encoder.exact_wire(0.0)
        assert (w.code.lo, w.f) == (0, 0)

    def test_nonfinite_refused(self, fir_encoder):
        with pytest.raises(EncodingUnsupported):
            fir_encoder.exact_wire(float("nan"))


class TestInputSpec:
    def test_codes_on_dtype_grid(self, fir_encoder):
        spec = fir_encoder.input_specs["x"]
        # <5,3> saturating input over [-1, 1]: codes -8..8 on f=3.
        assert (spec.f, spec.lo_code, spec.hi_code) == (3, -8, 8)

    def test_envelope_intersects_dtype_range(self):
        traced = trace_design(FirOkDesign)
        enc = StepEncoder(traced.sfg, traced.inputs,
                          Envelope({"x": (-100.0, 100.0)}))
        spec = enc.input_specs["x"]
        # clipped to the <5,3> representable range.
        assert (spec.lo_code, spec.hi_code) == (_T_IN.code_min,
                                                _T_IN.code_max)

    def test_input_var_domain(self, fir_encoder):
        w = fir_encoder.input_var("x", 2)
        assert w.code.args[0] == "x@2"
        assert (w.code.lo, w.code.hi) == (-8, 8)


class TestShiftRound:
    @pytest.mark.parametrize("lsbspec", ["round", "floor", "ceil",
                                         "trunc"])
    def test_matches_concrete_kernel(self, fir_encoder, lsbspec):
        rng = random.Random(11)
        for _ in range(300):
            code = rng.randint(-3000, 3000)
            delta = rng.randint(-3, 10)
            sym = fir_encoder._shift_round(
                bv.var("c", -3000, 3000), delta, lsbspec, "test")
            got = bv.Evaluator([sym]).run({"c": code})[sym]
            assert got == word.shift_round_code(code, delta, lsbspec), \
                (code, delta, lsbspec)


class TestQuantizeWire:
    _DTYPES = [
        DType("A", n, f, vtype, msbspec, lsbspec)
        for n, f in ((4, 2), (5, 3), (6, 0), (8, 4))
        for vtype in ("tc", "us")
        for msbspec in ("saturate", "wrap")
        for lsbspec in ("round", "floor", "ceil", "trunc")
    ]

    @pytest.mark.parametrize("dtype", _DTYPES,
                             ids=[d.spec() for d in _DTYPES])
    def test_matches_quantize_code(self, fir_encoder, dtype):
        rng = random.Random(hash(dtype.spec()) & 0xFFFF)
        c = bv.var("c", -5000, 5000)
        for _ in range(120):
            f_in = rng.randint(0, 8)
            code = rng.randint(-5000, 5000)
            out, over = fir_encoder.quantize_wire(Wire(c, f_in), dtype,
                                                  "test")
            view = bv.Evaluator([out.code]).run({"c": code})
            want_code, want_over = dtype.quantize_code(code, f_in)
            assert view[out.code] == want_code, (code, f_in, dtype.spec())
            if over is bv.TRUE:
                got_over = True
            elif over is bv.FALSE:
                got_over = False
            else:
                got_over = bool(bv.Evaluator([over]).run({"c": code})[over])
            assert got_over == want_over, (code, f_in, dtype.spec())
            assert out.f == dtype.f

    def test_saturate_clamps_wrap_wraps(self, fir_encoder):
        sat = DType("S", 4, 0, "tc", "saturate", "round")
        wrap = DType("W", 4, 0, "tc", "wrap", "round")
        w = Wire(bv.var("c", -100, 100), 0)
        out_s, _ = fir_encoder.quantize_wire(w, sat, "s")
        out_w, _ = fir_encoder.quantize_wire(w, wrap, "w")
        vs = bv.Evaluator([out_s.code]).run({"c": 100})[out_s.code]
        vw = bv.Evaluator([out_w.code]).run({"c": 100})[out_w.code]
        assert vs == sat.code_max == 7
        assert vw == ((100 + 8) % 16) - 8 == 4


class TestStructureRefusals:
    def test_combinational_cycle_refused(self):
        with DesignContext("enc-comb", seed=0,
                           overflow_action="record",
                           guard_action="sanitize") as ctx:
            a = Sig("a")
            b = Sig("b")
            with trace(ctx) as t:
                a.assign(b + 1.0)
                b.assign(a * 0.5)
                ctx.tick()
        with pytest.raises(VerifyError):
            StepEncoder(t.sfg, ())

    def test_register_loop_accepted(self):
        with DesignContext("enc-reg", seed=0,
                           overflow_action="record",
                           guard_action="sanitize") as ctx:
            acc = Reg("acc", dtype=_T_IN)
            x = Sig("x", dtype=_T_IN)
            with trace(ctx) as t:
                x.assign(0.25)
                acc.assign(acc * 0.5 + x)
                ctx.tick()
        enc = StepEncoder(t.sfg, ("x",), Envelope({"x": (-1, 1)}))
        assert "acc" in enc.states

    def test_magnitude_gate_raises(self, fir_encoder):
        with pytest.raises(EncodingUnsupported):
            fir_encoder._gate(bv.var("huge", -(1 << 60), 1 << 60),
                              "test")


class TestStep:
    def test_one_step_matches_hand_computation(self):
        traced = trace_design(FirOkDesign)
        enc = StepEncoder(traced.sfg, traced.inputs,
                          Envelope({"x": (-1.0, 1.0)}))
        state = enc.initial_state()
        ins = {"x": enc.input_var("x", 0)}
        events = []
        state2, sigs = enc.step(state, ins, events, step_index=0)
        # power-on registers are zero, so y = 0 regardless of x.
        y = sigs["y"]
        view = bv.Evaluator([y.code]).run({"x@0": 5})
        assert view[y.code] == 0
        # the new d0 holds the (already on-grid) stimulus.
        d0 = state2["d0"]
        assert bv.Evaluator([d0.code]).run({"x@0": 5})[d0.code] == 5
        assert events and all(e.step == 0 for e in events)

    def test_unquantized_step_has_no_events(self):
        traced = trace_design(FirOkDesign)
        enc = StepEncoder(traced.sfg, traced.inputs,
                          Envelope({"x": (-1.0, 1.0)}))
        events = []
        enc.step(enc.initial_state(), {"x": enc.input_var("x", 0)},
                 events, step_index=0, quantized=False)
        assert events == []


class TestHeldValue:
    """A signal with no recorded driver reads the value it holds."""

    def test_coefficient_set_in_build(self):
        from repro.gallery import factory, get_design
        from repro.verify.encode import Wire

        entry = get_design("polyphase-fir")
        traced = trace_design(factory(entry), dtypes=entry.dtypes)
        sig = traced.sfg.sig_payload("pe.c[1]")
        assert not traced.sfg.preds(traced.sfg.node_for_signal("pe.c[1]"))
        assert sig.fx == 0.28125
        enc = StepEncoder(traced.sfg, traced.inputs,
                          Envelope(entry.envelope))
        ins = {name: enc.input_var(name, 0) for name in enc.input_specs}
        _state, sigs = enc.step(enc.initial_state(), ins)
        w = sigs["pe.c[1]"]
        assert isinstance(w, Wire) and w.code.op == "const"
        assert w.code.lo * 2.0 ** -w.f == 0.28125
