"""HDL back-end: VHDL generation for refined designs."""

from repro.hdl.netlist import (Net, Netlist, OpInstance, UnsupportedOpError,
                               build_netlist, const_dtype, derive_op_dtype)
from repro.hdl.vhdlgen import (fixed_point_package, generate_design,
                               generate_entity, vhdl_identifier)

__all__ = [
    "Net",
    "Netlist",
    "OpInstance",
    "UnsupportedOpError",
    "build_netlist",
    "const_dtype",
    "derive_op_dtype",
    "fixed_point_package",
    "generate_entity",
    "generate_design",
    "vhdl_identifier",
]
