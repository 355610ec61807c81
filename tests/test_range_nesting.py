"""The paper's three MSB methods nest on every bundled design.

One recorded run gives all three ranges of a signal (PAPER.md §2):

* (a) statistic: ``[range_stat.min, range_stat.max]`` of the values the
  run assigned;
* (b) quasi-analytical: ``prop_interval()``, the intervals the same run
  propagated;
* (c) analytical: :func:`~repro.sfg.propagate_ranges` over the recorded
  signal flow graph, seeded with each input's read range.

(b) is a sound bound of the values one run produced, and (c) of every
run over the same inputs, so (a) ⊆ (b) ⊆ (c) per signal.  (a) ⊆ (b) is
exempt where (b) does not derive a bound of the values: a ``range()``
annotation is a claim, a wrap-typed signal folds its values back into
range, and a signal whose propagated range is empty (a coefficient
assigned in ``build()`` and retyped by ``Annotations``) propagated
nothing.
"""

import pytest

from repro.core.interval import Interval
from repro.gallery.registry import gallery
from repro.lint.cli import design_registry
from repro.refine.flow import Annotations
from repro.sfg import propagate_ranges, record_design

SAMPLES = 1024


def _recordings():
    """``(name, make, annotate, inputs)`` of the 12 bundled designs,
    seeded as ``python -m repro.lint`` and ``gallery.lint_entry`` seed
    them."""
    for name, entry in design_registry().items():
        yield ("lint:" + name, entry.factory,
               Annotations(ranges=entry.ranges).apply)
    for name, entry in gallery().items():
        yield ("gallery:" + name,
               lambda entry=entry: entry.cls(seed=entry.base_seed),
               Annotations(dtypes=entry.dtypes, ranges=entry.ranges,
                           errors=entry.errors).apply)


RECORDINGS = {name: (make, annotate)
              for name, make, annotate in _recordings()}


def _contains(outer, lo, hi):
    return lo > hi or (outer.lo <= lo and hi <= outer.hi)


@pytest.mark.parametrize("name", sorted(RECORDINGS))
def test_statistic_within_propagated_within_analytical(name):
    make, annotate = RECORDINGS[name]
    sfg, design = record_design(make, SAMPLES, annotate)
    signals = [sfg.sig_payload(n) for n in sfg.signal_names()]
    seeds = {s.name: s.read_interval() for s in signals
             if s.name in design.inputs}
    assert seeds, "no input of %s was recorded" % name
    analytical = propagate_ranges(sfg, input_ranges=seeds).ranges
    checked = 0
    for sig in signals:
        prop = sig.prop_interval()
        stat = sig.range_stat
        exempt = (sig.forced_range is not None or prop.is_empty
                  or (sig.dtype is not None and sig.dtype.msbspec == "wrap"))
        if not exempt:
            checked += 1
            assert _contains(prop, stat.min, stat.max), \
                "%s: statistic [%r, %r] not within propagated %r" \
                % (sig.name, stat.min, stat.max, prop)
        assert _contains(analytical[sig.name], prop.lo, prop.hi), \
            "%s: propagated %r not within analytical %r" \
            % (sig.name, prop, analytical[sig.name])
    assert checked


def test_an_empty_statistic_is_within_anything():
    assert _contains(Interval(0, 0), float("inf"), float("-inf"))
