"""Recording a design's signal flow graph.

:func:`trace` records a run onto an interval tape, the one recorder of
the overloaded operators, and builds the graph from it.  A couple of
iterations of the algorithm capture its full static structure: the
"signal flowgraph out of the source code" that the paper's analytical
method needs, obtained without a C parser.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core.errors import DesignError
from repro.sfg.graph import SFG
from repro.signal.context import DesignContext
from repro.signal.interval_tape import IntervalTape

__all__ = ["trace", "record_design"]


@contextmanager
def trace(ctx):
    """Record ``ctx`` onto an
    :class:`~repro.signal.interval_tape.IntervalTape` for the ``with``
    block; on exit the tape's ``.sfg`` is :meth:`SFG.from_tape` of it:

    >>> from repro.signal import DesignContext, Reg, Sig
    >>> with DesignContext("doc") as ctx:
    ...     x, acc = Sig("x"), Reg("acc")
    ...     with trace(ctx) as t:
    ...         for v in (0.5, 0.25):
    ...             _ = x.assign(v)
    ...             _ = acc.assign(acc + x * 0.5)
    ...             ctx.tick()
    >>> t.sfg
    SFG(6 nodes, 7 edges, 2 signals)
    >>> t.sfg.feedback_signals()
    ['acc']

    A nested ``trace()``, or one on a context whose tape is already
    recording, raises :class:`~repro.core.errors.DesignError`.
    """
    if ctx.tape is not None:
        raise DesignError("context %r is already recording an interval tape"
                          % ctx.name)
    tape = IntervalTape()
    tape.start(ctx)
    try:
        yield tape
    finally:
        tape.finish()
    tape.sfg = SFG.from_tape(tape)


def record_design(make, n, annotate=None, seed=0):
    """``(sfg, design)``: build ``make()``, run ``annotate(ctx)`` (such
    as ``Annotations(...).apply``) and record ``n`` samples.

    Overflows are recorded and non-finite values sanitized, so a broken
    design never aborts the recording: the graph is its structure.
    """
    ctx = DesignContext("record", seed=seed, overflow_action="record",
                        guard_action="sanitize")
    with ctx:
        design = make()
        design.build(ctx)
        if annotate is not None:
            annotate(ctx)
        with trace(ctx) as tape:
            design.run(ctx, n)
    return tape.sfg, design
