"""E8 — Paper Figure 4: the iterative design flow.

Exercises the full flow box by box on the LMS equalizer and reports the
iteration ledger: which runs happened, what each produced, which
annotation (``x.range`` / ``x.error``) closed which feedback loop, and
that the flow converges "in a few number of iterations" (the paper's
headline property: 4 monitored simulations total here, versus dozens for
a pure simulation-based search — see bench_baselines).
"""

from conftest import once

from repro.core.dtype import DType
from repro.dsp.lms import LmsEqualizerDesign
from repro.refine import FlowConfig, RefinementFlow

T_INPUT = DType("T_input", 7, 5, "tc", "saturate", "round")


class CountingFlow(RefinementFlow):
    """RefinementFlow that counts monitored simulation runs."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.n_simulations = 0
        self.ledger = []

    def _simulate(self, annotations, label, config=None):
        # The inputs-only baseline run is a reference, not a refinement
        # iteration of the Fig. 4 loop.
        if label != "baseline":
            self.n_simulations += 1
            self.ledger.append(label)
        return super()._simulate(annotations, label, config=config)


def run_flow():
    flow = CountingFlow(
        design_factory=LmsEqualizerDesign,
        input_types={"x": T_INPUT},
        input_ranges={"x": (-1.5, 1.5)},
        user_ranges={"b": (-0.2, 0.2)},
        config=FlowConfig(n_samples=4000, auto_range=False, seed=1234),
    )
    return flow, flow.run()


def test_fig4_flow_converges_in_few_iterations(benchmark, save_result):
    flow, res = once(benchmark, run_flow)

    # Two MSB runs + one LSB run + one verification run.
    assert flow.n_simulations == 4
    assert flow.ledger == ["msb-iter-1", "msb-iter-2", "lsb-iter-1",
                           "verify"]
    assert res.msb.resolved and res.lsb.resolved
    assert res.verification.total_overflows == 0

    lines = [
        "Figure 4: design-flow ledger on the LMS equalizer",
        "",
        "run  label        outcome",
    ]
    lines.append("1    msb-iter-1   explosion on %s"
                 % ", ".join(res.msb.iterations[0].exploded))
    lines.append("       -> annotation b.range(-0.2, 0.2) (knowledge)")
    lines.append("2    msb-iter-2   all MSB positions resolved")
    lines.append("3    lsb-iter-1   all LSB positions resolved, "
                 "no divergence")
    lines.append("4    verify       %d overflows, output SQNR %.2f dB"
                 % (res.verification.total_overflows,
                    res.verification.output_sqnr_db))
    lines.append("")
    lines.append("total monitored simulations: %d" % flow.n_simulations)
    lines.append("")
    lines.append(res.types_table())
    save_result("fig4_flow.txt", "\n".join(lines))
