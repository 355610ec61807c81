"""A1 — The paper's Section 1 comparison, operationalized.

The paper motivates the hybrid method against two prior approaches:

* pure simulation-based [Sung & Kum 1995]: "precise results but ... long
  simulations in the case of slow convergence";
* pure analytical [Willems et al. 1997]: "results very fast, but ... a
  conservative approach which leads to overestimation of signal
  wordlengths".

Two measurements:

1. **cost** — monitored simulations needed on the LMS example: the
   hybrid's 4 versus dozens for the per-signal bisection search;
2. **overestimation** — on a 24-tap averaging FIR (where the worst-case
   input pattern is astronomically unlikely), the analytical MSBs
   exceed what simulation observes by a growing number of bits along
   the accumulation chain.
"""

import numpy as np

from conftest import once

from repro.baselines import AnalyticalRefiner, SimulationBasedOptimizer
from repro.core.dtype import DType
from repro.dsp.fir import FirFilter
from repro.dsp.lms import LmsEqualizerDesign
from repro.refine import Design, FlowConfig, RefinementFlow
from repro.signal import Sig

T_INPUT = DType("T_input", 7, 5, "tc", "saturate", "round")
N = 2000
FIR_TAPS = 24


class LongFirDesign(Design):
    """24-tap boxcar average: worst case |y|=1 needs simultaneous
    same-sign extremes on all taps — simulation never sees it."""

    name = "longfir"
    inputs = ("x",)
    output = "f.v[%d]" % FIR_TAPS

    def build(self, ctx):
        self.x = Sig("x")
        self.fir = FirFilter("f", [1.0 / FIR_TAPS] * FIR_TAPS)
        rng = np.random.default_rng(17)
        self._stim = iter(rng.uniform(-1, 1, size=200000).tolist())

    def run(self, ctx, n):
        for _ in range(n):
            self.x.assign(next(self._stim))
            self.fir.step(self.x)
            ctx.tick()


class CountingFlow(RefinementFlow):
    n_simulations = 0

    def _simulate(self, annotations, label, config=None):
        # Count refinement iterations only, not the inputs-only baseline.
        if label != "baseline":
            self.n_simulations += 1
        return super()._simulate(annotations, label, config=config)


def run_all():
    # Cost comparison on the paper's LMS example.
    hybrid = CountingFlow(
        design_factory=LmsEqualizerDesign,
        input_types={"x": T_INPUT},
        input_ranges={"x": (-1.5, 1.5)},
        user_ranges={"b": (-0.2, 0.2)},
        config=FlowConfig(n_samples=N, auto_range=False, seed=1234),
    )
    hybrid_res = hybrid.run()

    sim = SimulationBasedOptimizer(
        LmsEqualizerDesign, input_types={"x": T_INPUT},
        sqnr_target_db=hybrid_res.verification.output_sqnr_db - 0.5,
        n_samples=N, f_max=14, seed=1234)
    sim_res = sim.run()

    # Overestimation comparison on the long FIR.
    fir_flow = RefinementFlow(
        LongFirDesign, input_types={"x": T_INPUT},
        input_ranges={"x": (-1.0, 1.0)},
        config=FlowConfig(n_samples=N, seed=5))
    fir_msb = fir_flow.run_msb_phase()
    fir_ana = AnalyticalRefiner(
        LongFirDesign, input_types={"x": T_INPUT},
        input_ranges={"x": (-1.0, 1.0)}).run()

    return hybrid, hybrid_res, sim_res, fir_msb, fir_ana


def test_baseline_comparison(benchmark, save_result):
    hybrid, hybrid_res, sim_res, fir_msb, fir_ana = once(benchmark, run_all)

    # The hybrid needs a handful of runs; the pure-simulation search
    # needs an order of magnitude more (per-signal bisections).
    assert hybrid.n_simulations <= 5
    assert sim_res.n_simulations > 4 * hybrid.n_simulations

    # Analytical overestimation on the averaging FIR.
    stat_msbs = {name: d.stat_msb
                 for name, d in fir_msb.final.decisions.items()
                 if d.stat_msb is not None}
    over = []
    rows = []
    for name in sorted(stat_msbs):
        if name not in fir_ana.types:
            continue
        gap = fir_ana.types[name].msb - stat_msbs[name]
        over.append(gap)
        rows.append((name, fir_ana.types[name].msb, stat_msbs[name], gap))
    assert over and min(over) >= 0
    avg_over = sum(over) / len(over)
    sums_over = [gap for name, _a, _s, gap in rows if ".v[" in name]
    avg_sums = sum(sums_over) / len(sums_over)
    # Paper: analytical = conservative = overestimation, concentrated on
    # the accumulation chain.
    assert avg_over > 0.1
    assert avg_sums >= 0.4
    assert max(over) >= 1

    lines = [
        "Method comparison (paper Section 1 claims)",
        "",
        "cost on the LMS equalizer:",
        "  method             monitored simulations",
        "  hybrid (paper)     %4d   (SQNR %.1f dB)"
        % (hybrid.n_simulations, hybrid_res.verification.output_sqnr_db),
        "  simulation-based   %4d   (SQNR %.1f dB, target %.1f dB)"
        % (sim_res.n_simulations, sim_res.output_sqnr_db,
           sim_res.sqnr_target_db),
        "  analytical            0   (no simulation at all)",
        "",
        "MSB overestimation of the analytical method on a %d-tap "
        "averaging FIR:" % FIR_TAPS,
        "  avg +%.2f bits (partial sums +%.2f), max +%d bits over the "
        "simulated ranges" % (avg_over, avg_sums, max(over)),
        "",
        "  signal        analytical  simulated  over",
    ]
    for name, a, s, gap in rows:
        lines.append("  %-12s %8d   %8d   +%d" % (name, a, s, gap))
    save_result("baseline_comparison.txt", "\n".join(lines))
