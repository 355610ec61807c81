"""RTL netlist extraction from a traced signal flow graph.

Bridges the refinement result and the VHDL generator: every signal gets
its synthesized :class:`DType`, every literal its exact code and every
operation node the format of its exact result, all from the lowering
rules of :mod:`repro.core.opformat` (no rounding inside expressions --
quantization happens only at signal assignment, matching the simulation
semantics and the verifier's encoding).  A signal with no recorded
driver is driven by the literal it holds; a register resets to its
quantized power-on code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dtype import DType
from repro.core.errors import DesignError
from repro.core.opformat import (UnsupportedOpError, const_dtype,
                                 derive_op_dtype, held_value, literal_code,
                                 power_on_code)
from repro.sfg.graph import Node

__all__ = ["Net", "OpInstance", "Netlist", "build_netlist",
           "UnsupportedOpError", "derive_op_dtype", "const_dtype"]


@dataclass
class Net:
    """One named signal of the netlist."""

    name: str
    dtype: DType
    is_register: bool
    is_input: bool
    is_output: bool
    driver: object = None   # Node driving this net (None for inputs)
    init: int = 0           # a register's power-on code


@dataclass
class OpInstance:
    """One operation with resolved input/result formats."""

    node: object
    label: str
    operands: list          # list of Node
    dtype: DType


class Netlist:
    """Typed view of a traced SFG, ready for HDL emission."""

    def __init__(self, sfg, nets, ops, consts):
        self.sfg = sfg
        self.nets = nets          # name -> Net
        self.ops = ops            # node -> OpInstance
        self.consts = consts      # node -> (code, DType)

    def inputs(self):
        return [n for n in self.nets.values() if n.is_input]

    def outputs(self):
        return [n for n in self.nets.values() if n.is_output]

    def registers(self):
        return [n for n in self.nets.values() if n.is_register]

    def dtype_of(self, node):
        if node.kind == "const":
            return self.consts[node][1]
        if node.kind == "op":
            return self.ops[node].dtype
        return self.nets[node.label].dtype


def _literal(node):
    return literal_code(node.payload)[0], const_dtype(node.payload)


def build_netlist(sfg, types, inputs=(), outputs=()):
    """Resolve formats for every node of ``sfg``.

    ``types`` maps every signal name to its :class:`DType`; ``inputs``
    and ``outputs`` name the port signals.
    """
    inputs = set(inputs)
    outputs = set(outputs)
    nets = {}
    consts = {}
    for node in sfg.signal_nodes():
        name = node.label
        if name not in types:
            raise DesignError("no fixed-point type for signal %r" % name)
        drivers = sfg.preds(node)
        net = nets[name] = Net(name, types[name], node.kind == "reg",
                               name in inputs, name in outputs,
                               driver=drivers[-1] if drivers else None)
        sig = sfg.sig_payload(name)
        if net.is_register:
            net.init = power_on_code(net.dtype, 0.0 if sig is None
                                     else sig.init_value)
        elif net.driver is None and not net.is_input:
            value = held_value(sig)
            net.driver = Node(-1 - len(consts), "const", repr(value), value)
            consts[net.driver] = _literal(net.driver)

    ops = {}
    for node in sfg.condensed_order():
        if node.kind == "const":
            consts[node] = _literal(node)
        elif node.kind == "op":
            operand_nodes = sfg.preds(node)
            operand_types = []
            for p in operand_nodes:
                if p.kind == "const":
                    operand_types.append(consts[p][1])
                elif p.kind == "op":
                    if p not in ops:
                        raise DesignError(
                            "operation %r feeds %r through a combinational "
                            "cycle" % (p.label, node.label))
                    operand_types.append(ops[p].dtype)
                else:
                    operand_types.append(nets[p.label].dtype)
            ops[node] = OpInstance(node, node.label, operand_nodes,
                                   derive_op_dtype(node.label,
                                                   operand_types))
    return Netlist(sfg, nets, ops, consts)
