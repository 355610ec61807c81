"""repro — fixed-point refinement methodology and design environment.

A from-scratch Python reproduction of *"A Methodology and Design
Environment for DSP ASIC Fixed-Point Refinement"* (Cmar, Rijnders,
Schaumont, Vernalde, Bolsens — IMEC, DATE 1999).

Quick tour::

    from repro import DType, Sig, DesignContext

    with DesignContext("demo", seed=1) as ctx:
        T = DType("T", 8, 5, "tc", "saturate", "round")
        a = Sig("a", T)
        b = Sig("b", T)
        c = Sig("c", T)
        a.assign(0.4)
        b.assign(-1.25)
        c.assign(a * b)           # float multiply, quantize on assign
        print(c.fx, c.error())

The paper-style lowercase aliases ``sig``, ``reg``, ``sigarray``,
``regarray`` and ``dtype`` are exported as well, so the examples read
like the original C++.
"""

from repro.core import (
    DType,
    ErrorStat,
    FixedPointOverflowError,
    Interval,
    RangeStat,
    ReproError,
    quantize_array,
    required_msb,
)
from repro.core.quantize import quantize
from repro.parallel import SimConfig, SimOutcome, run_simulations
from repro.signal import (
    DesignContext,
    Expr,
    Reg,
    RegArray,
    Sig,
    SigArray,
    cast,
    clamp,
    current_context,
    fabs,
    fmax,
    fmin,
    select,
)

# Paper-parity lowercase aliases.
dtype = DType
sig = Sig
reg = Reg
sigarray = SigArray
regarray = RegArray

__version__ = "1.0.0"


def __getattr__(name):
    if name == "SimCache":    # resolved lazily, as in repro.parallel
        from repro.parallel import SimCache
        return SimCache
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "DType",
    "Interval",
    "RangeStat",
    "ErrorStat",
    "ReproError",
    "FixedPointOverflowError",
    "quantize",
    "quantize_array",
    "required_msb",
    "DesignContext",
    "current_context",
    "Sig",
    "Reg",
    "SigArray",
    "RegArray",
    "Expr",
    "select",
    "cast",
    "fmin",
    "fmax",
    "fabs",
    "clamp",
    "SimConfig",
    "SimOutcome",
    "SimCache",
    "run_simulations",
    "dtype",
    "sig",
    "reg",
    "sigarray",
    "regarray",
    "__version__",
]
