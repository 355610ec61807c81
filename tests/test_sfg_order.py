"""Pinned traversal orders of the bundled designs' signal flow graphs.

``condensed_order()`` is the schedule that the HDL netlist, the netlist
simulator, the verify encoder, the analytical range propagation and the
analytical error baseline all walk, and ``cycles()`` /
``feedback_signals()`` feed the linter.  ``data/sfg_order.json`` holds
these three views for the 7 gallery designs plus the LMS equalizer and
the timing-recovery loop; it was recorded with the networkx-backed
graph this package used before its in-repo digraph, so the test guards
that order without networkx installed.

Regenerate (only after a deliberate order change) with::

    PYTHONPATH=src python -m tests.test_sfg_order > tests/data/sfg_order.json
"""

import json
import os

import pytest

from repro.gallery.registry import gallery
from repro.lint.cli import design_registry
from repro.refine.flow import Annotations
from repro.sfg import trace
from repro.signal.context import DesignContext

SNAPSHOT = os.path.join(os.path.dirname(__file__), "data", "sfg_order.json")

#: samples traced per gallery design (as ``gallery.registry.lint_entry``).
GALLERY_SAMPLES = 32
#: the two paper designs, traced as ``python -m repro.lint`` traces them.
PAPER_DESIGNS = ("lms", "timing-recovery")


def _traced(name, make, annotations, samples):
    with DesignContext("order-%s" % name, overflow_action="record",
                       guard_action="sanitize") as ctx:
        design = make()
        design.build(ctx)
        annotations.apply(ctx)
        with trace(ctx) as tracer:
            design.run(ctx, samples)
    return tracer.sfg


def traced_designs():
    """``{name: SFG}`` for the gallery designs and the paper designs."""
    graphs = {}
    for name, e in sorted(gallery().items()):
        graphs[name] = _traced(
            name, lambda e=e: e.cls(seed=e.base_seed),
            Annotations(dtypes=e.dtypes, ranges=e.ranges, errors=e.errors),
            GALLERY_SAMPLES)
    lint_designs = design_registry()
    for name in PAPER_DESIGNS:
        e = lint_designs[name]
        graphs[name] = _traced(name, e.factory, Annotations(ranges=e.ranges),
                               e.samples)
    return graphs


def orders(sfg):
    """The three pinned views of one graph, as JSON-ready lists."""
    return {
        "condensed_order": ["%s:%s" % (n.kind, n.label)
                            for n in sfg.condensed_order()],
        "cycles": [["%s:%s" % (n.kind, n.label) for n in cyc]
                   for cyc in sfg.cycles()],
        "feedback_signals": sfg.feedback_signals(),
    }


def snapshot():
    return {name: orders(sfg) for name, sfg in traced_designs().items()}


@pytest.fixture(scope="module")
def current():
    return snapshot()


@pytest.fixture(scope="module")
def pinned():
    with open(SNAPSHOT) as fh:
        return json.load(fh)


def test_snapshot_covers_every_design(current, pinned):
    assert sorted(current) == sorted(pinned)
    assert len(pinned) == 9


@pytest.mark.parametrize("view", ["condensed_order", "cycles",
                                  "feedback_signals"])
def test_order_matches_snapshot(current, pinned, view):
    for name in sorted(pinned):
        assert current[name][view] == pinned[name][view], name


if __name__ == "__main__":
    print(json.dumps(snapshot(), indent=1, sort_keys=True))
