"""VHDL code generation for refined designs.

Generates synthesizable VHDL-93 from a traced signal flow graph and the
fixed-point types produced by the refinement flow:

* a support package (``fixed_refine_pkg``) with resize/round/saturate
  helpers over ``signed`` vectors,
* one entity per design: input/output ports, one internal ``signed``
  signal per refined net, concurrent assignments for the combinational
  operations and a single clocked process for all registers.

Expressions are evaluated in the exact intermediate formats of
:mod:`repro.core.opformat` (through :mod:`repro.hdl.netlist`);
rounding/overflow handling is applied only at signal assignments, with
each LSB mode's exact rule (:func:`repro.core.word.shift_round_code`),
mirroring the simulator's quantize-on-assign semantics.  The verifier
encodes the same lowering, so
:meth:`repro.verify.encode.StepEncoder.step` run on concrete input
codes is the golden model of the generated RTL.
"""

from __future__ import annotations

from repro.core import word
from repro.core.errors import DesignError
from repro.hdl.netlist import build_netlist

__all__ = ["fixed_point_package", "generate_entity", "generate_design",
           "vhdl_identifier"]

PACKAGE_NAME = "fixed_refine_pkg"


def vhdl_identifier(name):
    """Map a signal name (may contain ``[]``, ``.``) to a VHDL identifier."""
    out = []
    for ch in name:
        if ch.isalnum():
            out.append(ch)
        elif ch == "_" :
            out.append(ch)
        elif ch in "[].- ":
            out.append("_")
    ident = "".join(out).strip("_")
    while "__" in ident:
        ident = ident.replace("__", "_")
    if not ident or not ident[0].isalpha():
        ident = "s_" + ident
    return ident.lower()


def fixed_point_package():
    """Support package: align / round / saturate over ``signed``."""
    return """\
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package %(pkg)s is
  -- Shift a signed value left (positive k) or right (negative k).
  function f_shift(v : signed; k : integer) return signed;
  -- Round-half-up by dropping s fraction bits (s >= 0).
  function f_round(v : signed; s : natural) return signed;
  -- Truncate toward minus infinity by dropping s fraction bits.
  function f_floor(v : signed; s : natural) return signed;
  -- Round toward plus infinity by dropping s fraction bits.
  function f_ceil(v : signed; s : natural) return signed;
  -- Round toward zero by dropping s fraction bits.
  function f_trunc(v : signed; s : natural) return signed;
  -- Saturate to n bits.
  function f_saturate(v : signed; n : positive) return signed;
  -- Wrap (drop high bits) to n bits.
  function f_wrap(v : signed; n : positive) return signed;
end package %(pkg)s;

package body %(pkg)s is

  function f_shift(v : signed; k : integer) return signed is
  begin
    if k >= 0 then
      return shift_left(resize(v, v'length + k), k);
    else
      return shift_right(v, -k)(v'length - 1 downto 0);
    end if;
  end function;

  function f_round(v : signed; s : natural) return signed is
    variable w : signed(v'length downto 0);
  begin
    if s = 0 then
      return v;
    end if;
    w := resize(v, v'length + 1)
         + shift_left(to_signed(1, v'length + 1), s - 1);
    return w(w'length - 1 downto s);
  end function;

  function f_floor(v : signed; s : natural) return signed is
  begin
    if s = 0 then
      return v;
    end if;
    return v(v'length - 1 downto s);
  end function;

  function f_ceil(v : signed; s : natural) return signed is
  begin
    return -f_floor(-resize(v, v'length + 1), s);
  end function;

  function f_trunc(v : signed; s : natural) return signed is
  begin
    if v < 0 then
      return f_ceil(v, s);
    end if;
    return resize(f_floor(v, s), v'length + 1 - s);
  end function;

  function f_saturate(v : signed; n : positive) return signed is
    constant VMAX : signed(n - 1 downto 0) :=
      (n - 1 => '0', others => '1');
    constant VMIN : signed(n - 1 downto 0) :=
      (n - 1 => '1', others => '0');
  begin
    if v > resize(VMAX, v'length) then
      return VMAX;
    elsif v < resize(VMIN, v'length) then
      return VMIN;
    else
      return v(n - 1 downto 0);
    end if;
  end function;

  function f_wrap(v : signed; n : positive) return signed is
  begin
    return v(n - 1 downto 0);
  end function;

end package body %(pkg)s;
""" % {"pkg": PACKAGE_NAME}


def _literal(code, n):
    """An ``n``-bit signed literal; beyond VHDL's 32-bit ``integer``
    range, a bit string."""
    if abs(code) < 2 ** 31:
        return "to_signed(%d, %d)" % (code, n)
    return "signed'(\"%s\")" % word.to_bits(code, n)


class _ExprEmitter:
    """Emits one VHDL expression per operation node."""

    def __init__(self, netlist):
        self.netlist = netlist
        self.lines = []
        self._emitted = {}

    def ref(self, node):
        """VHDL reference of a node's value (emitting it if needed)."""
        if node.kind == "const":
            code, dt = self.netlist.consts[node]
            return _literal(code, dt.n), dt
        if node.kind in ("sig", "reg"):
            net = self.netlist.nets[node.label]
            return vhdl_identifier(node.label), net.dtype
        return self._emit_op(node)

    def _align(self, expr, dt, target_f, target_n):
        """Resize/shift ``expr`` of format ``dt`` to (target_n, target_f)."""
        out = expr
        if dt.f != target_f:
            out = "f_shift(%s, %d)" % (out, target_f - dt.f)
            # f_shift right keeps width; left grows it; resize below fixes.
        return "resize(%s, %d)" % (out, target_n)

    def _emit_op(self, node):
        if node in self._emitted:
            return self._emitted[node]
        op = self.netlist.ops[node]
        dt = op.dtype
        name = "op_%d" % node.id
        ins = [self.ref(p) for p in op.operands]
        label = op.label

        if label in ("add", "sub"):
            a = self._align(ins[0][0], ins[0][1], dt.f, dt.n)
            b = self._align(ins[1][0], ins[1][1], dt.f, dt.n)
            rhs = "%s %s %s" % (a, "+" if label == "add" else "-", b)
        elif label == "mul":
            rhs = "resize(%s * %s, %d)" % (ins[0][0], ins[1][0], dt.n)
        elif label == "neg":
            rhs = "-resize(%s, %d)" % (ins[0][0], dt.n)
        elif label == "abs":
            rhs = "abs resize(%s, %d)" % (ins[0][0], dt.n)
        elif label in ("min", "max"):
            a = self._align(ins[0][0], ins[0][1], dt.f, dt.n)
            b = self._align(ins[1][0], ins[1][1], dt.f, dt.n)
            fn = "minimum" if label == "min" else "maximum"
            rhs = "%s(%s, %s)" % (fn, a, b)
        elif label == "select":
            cond = ins[0]
            a = self._align(ins[-2][0], ins[-2][1], dt.f, dt.n)
            b = self._align(ins[-1][0], ins[-1][1], dt.f, dt.n)
            if len(ins) == 3:
                rhs = ("%s when %s /= 0 else %s" % (a, cond[0], b))
            else:
                raise DesignError("select traced without a condition "
                                  "operand cannot be emitted")
        elif label in ("gt", "ge", "lt", "le"):
            width = max(ins[0][1].n, ins[1][1].n) + 2
            f = max(ins[0][1].f, ins[1][1].f)
            a = self._align(ins[0][0], ins[0][1], f, width)
            b = self._align(ins[1][0], ins[1][1], f, width)
            rel = {"gt": ">", "ge": ">=", "lt": "<", "le": "<="}[label]
            rhs = ("to_signed(1, 2) when %s %s %s else to_signed(0, 2)"
                   % (a, rel, b))
        elif label.startswith(("shl", "shr")):
            rhs = ins[0][0]      # the code is unchanged; only f moves
        elif label.startswith("cast<"):
            rhs = self._quantize(ins[0][0], ins[0][1], dt)
        else:
            raise DesignError("cannot emit traced op %r" % label)

        self.lines.append("  %s <= %s;" % (name, rhs))
        decl = "  signal %s : signed(%d downto 0);" % (name, dt.n - 1)
        self._emitted[node] = (name, dt)
        self.op_decls.append(decl)
        return self._emitted[node]

    op_decls = None

    def _quantize(self, expr, src_dt, dst_dt):
        """Emit rounding + overflow handling into ``dst_dt``."""
        out = expr
        shift = src_dt.f - dst_dt.f
        if shift > 0:
            out = "f_%s(%s, %d)" % (dst_dt.lsbspec, out, shift)
            width = src_dt.n - shift + (0 if dst_dt.lsbspec == "floor" else 1)
        elif shift < 0:
            out = "f_shift(%s, %d)" % (out, -shift)
            width = src_dt.n - shift
        else:
            width = src_dt.n
        if dst_dt.msbspec == "wrap":
            if width < dst_dt.n:
                out = "resize(%s, %d)" % (out, dst_dt.n)
            else:
                out = "f_wrap(%s, %d)" % (out, dst_dt.n)
        else:  # saturate and error both saturate in hardware
            out = "f_saturate(resize(%s, %d), %d)" % (out,
                                                      max(width, dst_dt.n) + 1,
                                                      dst_dt.n)
        return out


def generate_entity(name, sfg, types, inputs, outputs, clock="clk",
                    reset="rst"):
    """Generate the entity/architecture pair for one design."""
    netlist = build_netlist(sfg, types, inputs, outputs)
    emitter = _ExprEmitter(netlist)
    emitter.op_decls = []

    # Ports.
    port_lines = ["    %s : in std_logic;" % clock,
                  "    %s : in std_logic;" % reset]
    for net in netlist.inputs():
        port_lines.append("    %s : in signed(%d downto 0);"
                          % (vhdl_identifier(net.name), net.dtype.n - 1))
    for net in netlist.outputs():
        port_lines.append("    %s : out signed(%d downto 0);"
                          % (vhdl_identifier(net.name), net.dtype.n - 1))
    ports = "\n".join(port_lines).rstrip(";") + "\n"

    # Internal signals (inputs/outputs are ports; outputs need a shadow).
    decls = []
    for net in netlist.nets.values():
        if net.is_input:
            continue
        suffix = "_int" if net.is_output else ""
        decls.append("  signal %s%s : signed(%d downto 0);"
                     % (vhdl_identifier(net.name), suffix, net.dtype.n - 1))

    # Drivers.
    comb = []
    regs = []
    for net in netlist.nets.values():
        if net.is_input or net.driver is None:
            continue
        expr, src_dt = emitter.ref(net.driver)
        rhs = emitter._quantize(expr, src_dt, net.dtype)
        target = vhdl_identifier(net.name) + ("_int" if net.is_output else "")
        if net.is_register:
            regs.append("        %s <= %s;" % (target, rhs))
        else:
            comb.append("  %s <= %s;" % (target, rhs))

    out_assigns = ["  %s <= %s_int;" % (vhdl_identifier(n.name),
                                        vhdl_identifier(n.name))
                   for n in netlist.outputs()]

    reg_process = ""
    if regs:
        resets = []
        for net in netlist.registers():
            target = vhdl_identifier(net.name) + ("_int" if net.is_output
                                                  else "")
            resets.append("        %s <= %s;" % (
                target, "(others => '0')" if net.init == 0
                else _literal(net.init, net.dtype.n)))
        reg_process = """
  registers : process (%(clk)s)
  begin
    if rising_edge(%(clk)s) then
      if %(rst)s = '1' then
%(resets)s
      else
%(assigns)s
      end if;
    end if;
  end process;
""" % {"clk": clock, "rst": reset,
       "resets": "\n".join(resets), "assigns": "\n".join(regs)}

    return """\
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.%(pkg)s.all;

entity %(name)s is
  port (
%(ports)s  );
end entity %(name)s;

architecture rtl of %(name)s is
%(decls)s
%(op_decls)s
begin
%(op_lines)s
%(comb)s
%(outs)s
%(regs)s
end architecture rtl;
""" % {
        "pkg": PACKAGE_NAME,
        "name": vhdl_identifier(name),
        "ports": ports,
        "decls": "\n".join(decls),
        "op_decls": "\n".join(emitter.op_decls),
        "op_lines": "\n".join(emitter.lines),
        "comb": "\n".join(comb),
        "outs": "\n".join(out_assigns),
        "regs": reg_process,
    }


def generate_design(name, sfg, types, inputs, outputs):
    """Package + entity in one string (ready to write to a ``.vhd``)."""
    return fixed_point_package() + "\n" + generate_entity(
        name, sfg, types, inputs, outputs)
