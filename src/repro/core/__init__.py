"""Core fixed-point kernel: types, quantization, intervals, statistics."""

from repro.core.dtype import DType
from repro.core.errors import (
    DesignError,
    DivergenceError,
    DTypeError,
    FixedPointOverflowError,
    NonFiniteError,
    RangeExplosionError,
    RefinementError,
    ReproError,
    SimulationError,
    WatchdogTimeout,
)
from repro.core.interval import Interval
from repro.core.quantize import (
    QuantizeResult,
    quantization_step,
    quantize_array,
    quantize_info,
)

# NOTE: the bare ``quantize`` function is intentionally NOT re-exported
# here — it would shadow the ``repro.core.quantize`` submodule attribute.
# Use ``repro.quantize`` (top level) or import from the submodule.
from repro.core.stats import ErrorStat, RangeStat
from repro.core.word import required_msb, wordlength_for_msb

__all__ = [
    "DType",
    "Interval",
    "QuantizeResult",
    "ErrorStat",
    "RangeStat",
    "quantize_array",
    "quantize_info",
    "quantization_step",
    "required_msb",
    "wordlength_for_msb",
    "ReproError",
    "DTypeError",
    "NonFiniteError",
    "FixedPointOverflowError",
    "RangeExplosionError",
    "DivergenceError",
    "SimulationError",
    "WatchdogTimeout",
    "DesignError",
    "RefinementError",
]
