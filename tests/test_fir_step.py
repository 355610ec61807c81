"""``FirFilter.step`` walks its element lists and matches the indexed loop.

The step binds the delay line, the partial sums and the coefficients
once and carries the running partial sum in a local.  The indexed loop
it replaced is kept here as the reference: over 300 samples of the
gallery's even half-band branch, every filter signal must read the same
under both, with every monitor on, statistics only and output only, and
the signal flow graph that ``trace()`` records must be the same.
"""

import numpy as np
import pytest

from repro.core.dtype import DType
from repro.dsp import FirFilter
from repro.gallery.designs import HALFBAND_E0
from repro.sfg.build import trace
from repro.signal import DesignContext, Sig

N_SAMPLES = 300
#: Narrow enough that the delay line saturates on the +-3 stimulus.
T_D = DType("T_d", 6, 5, "tc", "saturate", "round")
T_V = DType("T_v", 10, 8, "tc", "wrap", "round")


def indexed_step(f, x):
    """The reference: ``FirFilter.step`` indexing each array per access."""
    n = f.n_taps
    f.d[0] = x
    for i in range(n - 1, 0, -1):
        f.d[i] = f.d[i - 1]
    f.v[0] = 0.0
    for i in range(1, n + 1):
        f.v[i] = f.v[i - 1] + f.d[i - 1] * f.c[i - 1]
    return f.out


def _run(step, monitors, taped=False):
    ctx = DesignContext("fir", seed=0, overflow_action="record")
    with ctx:
        x = Sig("x")
        f = FirFilter("f", HALFBAND_E0)
        f.d.set_dtype(T_D)
        f.v.set_dtype(T_V)
    if monitors == "output":
        ctx.monitor_only(f.out.name)
    elif monitors == "stats":
        ctx.propagate = False
    stim = np.random.default_rng(7).uniform(-3.0, 3.0, N_SAMPLES).tolist()
    outs = []

    def run():
        for v in stim:
            x.assign(v)
            outs.append(step(f, x).fx)
            ctx.tick()

    if taped:
        with trace(ctx) as tape:
            run()
        return tape.sfg
    run()
    return outs, {
        s.name: (s.fx, s.fl, s.range_stat.as_dict(),
                 s.err_produced.as_dict(), s.prop_interval(),
                 s.overflow_count)
        for s in f.signals()}


@pytest.mark.parametrize("monitors", ["all", "stats", "output"])
def test_step_matches_indexed_loop(monitors):
    outs, state = _run(FirFilter.step, monitors)
    ref_outs, ref_state = _run(indexed_step, monitors)
    assert outs == ref_outs
    assert list(state) == list(ref_state)
    for name, got in state.items():
        assert repr(got) == repr(ref_state[name]), name
    # The comparison covers saturation and real statistics.
    assert state["f.d[0]"][5] > 0
    assert state["f.v[4]"][2]["count"] == N_SAMPLES


def test_step_records_the_same_graph():
    sfg = _run(FirFilter.step, "all", taped=True)
    ref = _run(indexed_step, "all", taped=True)

    def shape(g):
        nodes = [(n.id, n.kind, n.label) for n in g.nodes()]
        edges = [(u.id, v.id) for u in g.g.succ for v in g.g.succ[u]]
        return nodes, edges

    assert shape(sfg) == shape(ref)
    assert len(sfg.nodes("op")) > 0
