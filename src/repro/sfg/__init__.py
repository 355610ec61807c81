"""Signal flow graph capture and analytical range propagation."""

from repro.sfg.analyze import RangeAnalysis, propagate_ranges
from repro.sfg.build import record_design, trace
from repro.sfg.graph import SFG, Node

__all__ = ["SFG", "Node", "trace", "record_design", "RangeAnalysis",
           "propagate_ranges"]
