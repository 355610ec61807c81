"""Tests for the VHDL back-end (netlist extraction + code generation)."""

import pytest

from repro.core.dtype import DType
from repro.core.errors import DesignError
from repro.hdl import (UnsupportedOpError, build_netlist, const_dtype,
                       derive_op_dtype, fixed_point_package, generate_design,
                       generate_entity, vhdl_identifier)
from repro.sfg import trace
from repro.signal import DesignContext, Reg, Sig, select
from repro.signal.ops import gt

T8 = DType("T8", 8, 5, "tc", "saturate", "round")
T6 = DType("T6", 6, 4, "tc", "saturate", "round")


def traced_mac():
    """acc <= acc + x*0.5, y = acc (combinational copy)."""
    ctx = DesignContext("hdl-mac", seed=0)
    with ctx:
        x = Sig("x")
        acc = Reg("acc")
        y = Sig("y")
        with trace(ctx) as t:
            x.assign(0.25)
            acc.assign(acc + x * 0.5)
            y.assign(acc + 0.0)
            ctx.tick()
    types = {"x": T8, "acc": T8, "y": T6}
    return t.sfg, types


class TestIdentifier:
    def test_arrays_and_dots(self):
        assert vhdl_identifier("mf.v[3]") == "mf_v_3"
        assert vhdl_identifier("d[0]") == "d_0"

    def test_leading_digit(self):
        assert vhdl_identifier("3x")[0].isalpha()

    def test_lowercase(self):
        assert vhdl_identifier("ACC") == "acc"


class TestOpTypeDerivation:
    def test_add_grows_one_bit(self):
        dt = derive_op_dtype("add", [T8, T8])
        assert dt.f == 5
        assert dt.msb == T8.msb + 1

    def test_mixed_fraction_add(self):
        dt = derive_op_dtype("add", [T8, T6])
        assert dt.f == 5

    def test_mul_exact(self):
        dt = derive_op_dtype("mul", [T8, T6])
        assert dt.f == 9
        assert dt.msb == T8.msb + T6.msb + 1

    def test_select_union(self):
        dt = derive_op_dtype("select", [T8, T8, T6])
        assert dt.f == max(T8.f, T6.f)

    def test_div_unsupported(self):
        with pytest.raises(UnsupportedOpError):
            derive_op_dtype("div", [T8, T8])

    def test_unknown_unsupported(self):
        with pytest.raises(UnsupportedOpError):
            derive_op_dtype("sqrt", [T8])

    def test_const_dtype_exact(self):
        dt = const_dtype(0.5)
        assert dt.quantize(0.5) == 0.5
        dt = const_dtype(-1.25)
        assert dt.quantize(-1.25) == -1.25


class TestNetlist:
    def test_nets_and_ops(self):
        sfg, types = traced_mac()
        nl = build_netlist(sfg, types, inputs=["x"], outputs=["y"])
        assert {n.name for n in nl.inputs()} == {"x"}
        assert {n.name for n in nl.outputs()} == {"y"}
        assert {n.name for n in nl.registers()} == {"acc"}
        assert len(nl.ops) >= 2  # mul and adds

    def test_missing_type_rejected(self):
        sfg, types = traced_mac()
        del types["acc"]
        with pytest.raises(DesignError):
            build_netlist(sfg, types, inputs=["x"], outputs=["y"])


def _balanced(text):
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth < 0:
            return False
    return depth == 0


class TestPackage:
    def test_contains_helpers(self):
        pkg = fixed_point_package()
        for fn in ("f_shift", "f_round", "f_floor", "f_ceil", "f_trunc",
                   "f_saturate", "f_wrap"):
            assert fn in pkg
        assert "package body" in pkg

    def test_balanced_parens(self):
        assert _balanced(fixed_point_package())


class TestEntityGeneration:
    def test_structure(self):
        sfg, types = traced_mac()
        text = generate_entity("mac", sfg, types, inputs=["x"],
                               outputs=["y"])
        assert "entity mac is" in text
        assert "architecture rtl of mac" in text
        assert "x : in signed(7 downto 0)" in text
        assert "y : out signed(5 downto 0)" in text
        assert "rising_edge(clk)" in text
        assert "acc" in text

    def test_balanced(self):
        sfg, types = traced_mac()
        assert _balanced(generate_entity("mac", sfg, types, ["x"], ["y"]))

    def test_register_reset(self):
        sfg, types = traced_mac()
        text = generate_entity("mac", sfg, types, ["x"], ["y"])
        assert "(others => '0')" in text

    def test_quantization_functions_used(self):
        sfg, types = traced_mac()
        text = generate_entity("mac", sfg, types, ["x"], ["y"])
        # Saturating assignments must go through f_saturate.
        assert "f_saturate" in text

    def test_full_design_includes_package(self):
        sfg, types = traced_mac()
        text = generate_design("mac", sfg, types, ["x"], ["y"])
        assert "package fixed_refine_pkg" in text
        assert "entity mac is" in text

    def test_select_emitted(self):
        ctx = DesignContext("hdl-sel", seed=0)
        with ctx:
            a = Sig("a")
            y = Sig("y")
            with trace(ctx) as t:
                a.assign(0.5)
                y.assign(select(gt(a, 0.0), 1.0, -1.0))
        types = {"a": T8, "y": DType("y_t", 2, 0)}
        text = generate_entity("slice", t.sfg, types, ["a"], ["y"])
        assert "when" in text and "else" in text


class TestLmsGeneration:
    """The full motivational example must generate end to end."""

    def test_generate_from_refinement_result(self):
        from repro.dsp.lms import LmsEqualizerDesign
        from repro.refine import FlowConfig, RefinementFlow

        flow = RefinementFlow(
            design_factory=LmsEqualizerDesign,
            input_types={"x": DType("T_input", 7, 5)},
            input_ranges={"x": (-1.5, 1.5)},
            user_ranges={"b": (-0.2, 0.2)},
            config=FlowConfig(n_samples=600, auto_range=False, seed=1),
        )
        res = flow.run()
        # Trace the structure once.
        ctx = DesignContext("lms-trace", seed=0)
        with ctx:
            design = LmsEqualizerDesign()
            design.build(ctx)
            with trace(ctx) as t:
                design.run(ctx, 3)
        types = dict(res.types)
        types["x"] = DType("T_input", 7, 5)
        text = generate_design("lms_equalizer", t.sfg, types,
                               inputs=["x"], outputs=["y"])
        assert "entity lms_equalizer is" in text
        assert _balanced(text)
        # Every refined signal appears as a VHDL identifier.
        for name in ("w", "b", "v[3]", "d[0]"):
            assert vhdl_identifier(name) in text


def _entity(body, types, inputs=("x",), outputs=("y",)):
    ctx = DesignContext("hdl-emit", seed=0)
    with ctx:
        with trace(ctx) as t:
            body(ctx)
    return generate_entity("e", t.sfg, types, list(inputs), list(outputs))


class TestLowering:
    """The emitter follows the one lowering table."""

    @pytest.mark.parametrize("lsbspec", ["trunc", "ceil", "floor", "round"])
    def test_each_mode_has_its_own_rounding(self, lsbspec):
        T_Y = DType("T_y", 6, 2, "tc", "saturate", lsbspec)

        def body(ctx):
            x, y = Sig("x", T8), Sig("y", T_Y)
            x.assign(-1.40625)
            y.assign(x * 1.0)

        text = _entity(body, {"x": T8, "y": T_Y})
        assert "y_int <= f_saturate(resize(f_%s(" % lsbspec in text
        if lsbspec in ("trunc", "ceil"):
            assert "f_round(" not in text.split("begin", 1)[1]

    def test_shift_moves_only_the_binary_point(self):
        T_X = DType("T_x", 8, 1)

        def body(ctx):
            x, y = Sig("x", T_X), Sig("y", DType("T_y", 12, 0))
            x.assign(0.5)
            y.assign(x << 3)

        text = _entity(body, {"x": T_X, "y": DType("T_y", 12, 0)})
        assert "  op_2 <= x;" in text
        assert derive_op_dtype("shl3", [T_X]).f == -2
        assert derive_op_dtype("shr2", [T_X]).f == 3

    def test_wide_literal_is_a_bit_string(self):
        def body(ctx):
            x, y = Sig("x", T8), Sig("y", T8)
            x.assign(0.5)
            y.assign(x * 0.9)

        text = _entity(body, {"x": T8, "y": T8})
        assert "3865470566" not in text
        assert "signed'(\"0111001100110011" in text
        assert const_dtype(0.9).f == 53

    def test_undriven_signal_is_driven_by_its_held_value(self):
        ctx = DesignContext("hdl-held", seed=0)
        with ctx:
            x, c, y = Sig("x", T8), Sig("c", T8), Sig("y", T8)
            c.assign(0.28125)           # before recording: no driver
            with trace(ctx) as t:
                x.assign(0.5)
                y.assign(x * c)
        types = {"x": T8, "c": T8, "y": T8}
        nl = build_netlist(t.sfg, types, ["x"], ["y"])
        assert nl.nets["c"].driver.payload == 0.28125
        text = generate_entity("e", t.sfg, types, ["x"], ["y"])
        # 0.28125 is code 9 on the 2**-5 grid, quantized as assigned.
        assert "  c <= f_saturate(resize(to_signed(9, 5), 9), 8);" in text

    def test_register_resets_to_its_power_on_code(self):
        ctx = DesignContext("hdl-init", seed=0)
        with ctx:
            x, acc = Sig("x", T8), Reg("acc", T8, init=0.75)
            with trace(ctx) as t:
                x.assign(0.5)
                acc.assign(acc + x)
        text = generate_entity("e", t.sfg, {"x": T8, "acc": T8}, ["x"],
                               ["acc"])
        assert "acc_int <= to_signed(24, 8);" in text
