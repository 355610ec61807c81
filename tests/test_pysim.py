"""Bit-true cross-check: the RTL's golden model vs signal-layer simulation.

The generated VHDL and the verifier's encoder lower a design onto
integer codes through one table of exact intermediate formats
(:mod:`repro.core.opformat`).  :meth:`StepEncoder.step` run on concrete
input codes (every ``bv`` constructor folds constants) is therefore the
golden model of the RTL.  If it produces exactly the fixed-point values
of the monitored signal-layer simulation, the lowering and the
quantization mapping are correct; if every operation's wire has the
netlist's format and fits its width, the VHDL intermediates are
lossless.
"""

import itertools

import numpy as np
import pytest

from repro.core import word
from repro.core.dtype import DType
from repro.hdl import build_netlist
from repro.sfg import trace
from repro.signal import DesignContext, Reg, Sig, select
from repro.signal.ops import gt
from repro.verify.encode import StepEncoder
from repro.verify.gallery import GALLERY_ENVELOPE, gallery
from repro.verify.properties import trace_design

T_IN = DType("T_in", 8, 5, "tc", "saturate", "round")


def golden_run(sfg, types, inputs, frames):
    """Per frame, ``(sig_wires, node_wires)`` of the encoder's concrete
    step: inputs quantized through their types, registers from their
    power-on state."""
    enc = StepEncoder(sfg, inputs, dtypes=types, max_bits=4096)
    state = enc.initial_state()
    for frame in frames:
        ins = {name: enc.quantize_wire(enc.exact_wire(frame[name]),
                                       types[name], name)[0]
               for name in inputs}
        wires = {}
        state, sigs = enc.step(state, ins, wires=wires)
        yield sigs, wires


def value(wire):
    assert wire.code.op == "const"
    return wire.code.lo * 2.0 ** -wire.f


def golden_outputs(sfg, types, inputs, frames, outputs):
    return [{name: value(sigs[name]) for name in outputs}
            for sigs, _wires in golden_run(sfg, types, inputs, frames)]


def _trace_design(build_and_run):
    """Run ``build_and_run(ctx, log)`` under trace; returns (sfg, log).

    ``build_and_run`` appends one dict of logged values per cycle.
    """
    ctx = DesignContext("golden", seed=0)
    log = []
    with ctx:
        with trace(ctx) as t:
            build_and_run(ctx, log)
    return t.sfg, log


class Case:
    """One traced design, its types and the simulation's log."""

    def __init__(self, body, types, outputs):
        self.sfg, self.log = _trace_design(body)
        self.types = types
        self.inputs = ["x"]
        self.outputs = outputs
        self.frames = [{"x": e["x_in"]} for e in self.log]

    def mismatches(self):
        outs = golden_outputs(self.sfg, self.types, self.inputs,
                              self.frames, self.outputs)
        return [i for i, (e, o) in enumerate(zip(self.log, outs))
                if any(o[n] != e[n] for n in self.outputs)]


def scaled_adder(samples):
    T_OUT = DType("T_out", 9, 6, "tc", "saturate", "round")

    def body(ctx, log):
        x = Sig("x", T_IN)
        y = Sig("y", T_OUT)
        for v in samples:
            x.assign(float(v))
            y.assign(x * 0.5 + 0.25)
            log.append({"x_in": float(v), "y": y.fx})
            ctx.tick()

    return Case(body, {"x": T_IN, "y": T_OUT}, ["y"])


def quantizer(msbspec, lsbspec):
    T_OUT = DType("T_out", 6, 3, "tc", msbspec, lsbspec)

    def body(ctx, log):
        x = Sig("x", T_IN)
        y = Sig("y", T_OUT)
        rng = np.random.default_rng(7)
        for v in rng.uniform(-4, 4, size=200):
            x.assign(float(v))
            y.assign(x * 1.5)
            log.append({"x_in": float(v), "y": y.fx})
            ctx.tick()

    return Case(body, {"x": T_IN, "y": T_OUT}, ["y"])


def accumulator():
    T_ACC = DType("T_acc", 12, 6, "tc", "saturate", "round")

    def body(ctx, log):
        x = Sig("x", T_IN)
        acc = Reg("acc", T_ACC)
        rng = np.random.default_rng(9)
        for v in rng.uniform(-1, 1, size=300):
            x.assign(float(v))
            acc.assign(acc * 0.75 + x)
            log.append({"x_in": float(v), "acc": acc.fx})
            ctx.tick()

    return Case(body, {"x": T_IN, "acc": T_ACC}, ["acc"])


def slicer():
    T_Y = DType("T_y", 2, 0, "tc", "saturate", "round")

    def body(ctx, log):
        x = Sig("x", T_IN)
        y = Sig("y", T_Y)
        rng = np.random.default_rng(11)
        for v in rng.uniform(-2, 2, size=200):
            x.assign(float(v))
            y.assign(select(gt(x, 0.0), 1.0, -1.0))
            log.append({"x_in": float(v), "y": y.fx})
            ctx.tick()

    return Case(body, {"x": T_IN, "y": T_Y}, ["y"])


def shifter():
    T_X = DType("T_x", 8, 1, "tc", "saturate", "round")
    T_A = DType("T_a", 12, 0, "tc", "saturate", "round")
    T_B = DType("T_b", 8, 3, "tc", "wrap", "floor")

    def body(ctx, log):
        x = Sig("x", T_X)
        a = Sig("a", T_A)
        b = Sig("b", T_B)
        rng = np.random.default_rng(13)
        for v in rng.uniform(-64, 64, size=200):
            x.assign(float(v))
            a.assign((x << 3) + (x >> 1))
            b.assign(x >> 2)
            log.append({"x_in": float(v), "a": a.fx, "b": b.fx})
            ctx.tick()

    return Case(body, {"x": T_X, "a": T_A, "b": T_B}, ["a", "b"])


class TestScaledAdder:
    def test_bit_exact(self):
        rng = np.random.default_rng(4)
        assert scaled_adder(rng.uniform(-2, 2, size=100)).mismatches() == []


class TestSaturationAndRounding:
    @pytest.mark.parametrize("msbspec", ["saturate", "wrap"])
    @pytest.mark.parametrize("lsbspec", ["round", "floor", "trunc", "ceil"])
    def test_modes_match(self, msbspec, lsbspec):
        assert quantizer(msbspec, lsbspec).mismatches() == []


class TestRegisteredAccumulator:
    def test_bit_exact_feedback(self):
        # The signal log records acc BEFORE the tick (the old value),
        # matching the step's pre-edge register reads.
        assert accumulator().mismatches() == []


class TestSelectAndCompare:
    def test_slicer_bit_exact(self):
        assert slicer().mismatches() == []


class TestShifts:
    def test_shift_bit_exact(self):
        case = shifter()
        assert case.mismatches() == []
        # (0.5 << 3) + (0.5 >> 1) = 4.25 rounds to 4.0: a shift keeps the
        # code and moves the binary point.
        (sigs, _), = golden_run(case.sfg, case.types, ["x"], [{"x": 0.5}])
        assert value(sigs["a"]) == 4.0


@pytest.fixture(scope="module")
def lms_case():
    """The whole motivational example, refined and traced for 300
    samples with its coefficients assigned inside the trace."""
    from repro.dsp.lms import LmsEqualizerDesign
    from repro.refine import Annotations, FlowConfig, RefinementFlow

    flow = RefinementFlow(
        design_factory=LmsEqualizerDesign,
        input_types={"x": T_IN.with_(name="T_input", n=7, f=5)},
        input_ranges={"x": (-1.5, 1.5)},
        user_ranges={"b": (-0.2, 0.2)},
        config=FlowConfig(n_samples=800, auto_range=False, seed=1),
    )
    res = flow.run()
    types = dict(res.types)
    types["x"] = DType("T_input", 7, 5)

    samples = list(itertools.islice(
        LmsEqualizerDesign()._stimulus_factory(), 300))

    # Monitored run with full types; the coefficient initialization
    # happens inside the trace (and after the types are applied), so
    # the graph records it as an assignment with identical quantization.
    ctx = DesignContext("lms-bit", seed=0)
    with ctx:
        design = LmsEqualizerDesign()
        design.build(ctx)
        Annotations(dtypes=types).apply(ctx)
        design._stim = iter(samples)
        ctx.get("v[3]").watch()
        ctx.get("y").watch()
        with trace(ctx) as t:
            for i, coef in enumerate(design.coefficients):
                design.c[i] = coef
            design.run(ctx, 300)
    hist = {name: [fx for fx, _ in ctx.get(name).history]
            for name in ("v[3]", "y")}
    return t.sfg, types, [{"x": s} for s in samples], hist


class TestFullLmsDesignBitExact:
    """The whole motivational example, RTL semantics vs simulator."""

    def test_lms_outputs_match(self, lms_case):
        sfg, types, frames, hist = lms_case
        outs = golden_outputs(sfg, types, ["x"], frames, ["v[3]", "y"])
        assert [o["v[3]"] for o in outs] == hist["v[3]"]
        assert [o["y"] for o in outs] == hist["y"]


def assert_formats_agree(sfg, types, inputs, frames):
    """Every op wire of the golden model has the netlist's ``f`` and a
    code that fits the netlist's width."""
    netlist = build_netlist(sfg, types, inputs)
    assert netlist.ops
    for _sigs, wires in golden_run(sfg, types, inputs, frames):
        for node, op in netlist.ops.items():
            w = wires[node]
            assert w.f == op.dtype.f, node
            assert word.fits(w.code.lo, op.dtype.n), (node, w.code.lo)


_PORTED = {
    "scaled-adder": lambda: scaled_adder(np.linspace(-2, 2, 40)),
    "quantizer": lambda: quantizer("wrap", "trunc"),
    "accumulator": accumulator,
    "slicer": slicer,
    "shifter": shifter,
}


class TestOpFormatAgreement:
    @pytest.mark.parametrize("name", sorted(_PORTED))
    def test_ported_design(self, name):
        case = _PORTED[name]()
        assert_formats_agree(case.sfg, case.types, case.inputs,
                             case.frames)

    def test_lms(self, lms_case):
        sfg, types, frames, _hist = lms_case
        assert_formats_agree(sfg, types, ["x"], frames[:50])

    @pytest.mark.parametrize("name", sorted(gallery()))
    def test_verify_gallery(self, name):
        traced = trace_design(gallery()[name].factory)
        sfg = traced.sfg
        types = {n: sfg.sig_payload(n).dtype for n in sfg.signal_names()}
        lo, hi = GALLERY_ENVELOPE["x"]
        rng = np.random.default_rng(5)
        frames = [{"x": float(v)} for v in rng.uniform(lo, hi, size=40)]
        assert_formats_agree(sfg, types, list(traced.inputs), frames)
