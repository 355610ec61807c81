"""Fault-injection campaign against the refined LMS equalizer.

After the flow of ``lms_equalizer.py`` synthesizes fixed-point types,
this script stresses them: single-bit upsets (LSB and MSB), a stuck
output node, input overdrive, an injected NaN (exercising the non-finite
guard) and stimulus-seed perturbation.  Each fault is one fresh
simulation; the report lists per-fault SQNR degradation, overflow counts
and guard trips, and the campaign certifies the transient-fault margin.

Run:  python examples/fault_campaign.py
"""

from repro import DType
from repro.dsp.lms import LmsEqualizerDesign
from repro.refine import FlowConfig, RefinementFlow
from repro.robust import BitFlip, FaultCampaign, standard_faults

T_INPUT = DType("T_input", 7, 5, "tc", "saturate", "round")


def main():
    # Step 1: the paper's refinement flow (as in lms_equalizer.py).
    flow = RefinementFlow(
        design_factory=LmsEqualizerDesign,
        input_types={"x": T_INPUT},
        input_ranges={"x": (-1.5, 1.5)},
        user_ranges={"b": (-0.2, 0.2)},
        config=FlowConfig(n_samples=4000, auto_range=False, seed=1234),
    )
    result = flow.run()
    output = result.verification.output
    print("refined %d types; nominal output SQNR %.2f dB"
          % (len(result.types), result.verification.output_sqnr_db))

    # Step 2: derive a fault list and run the campaign.
    all_types = dict(result.types)
    all_types["x"] = T_INPUT
    campaign = FaultCampaign(
        LmsEqualizerDesign, all_types, errors=result.lsb.annotations,
        n_samples=4000,
        seeded_factory=lambda s: LmsEqualizerDesign(seed=s))
    # The constant FIR coefficients c[i] are assigned once at build time,
    # before fault hooks exist — flips on them can never fire.  Target the
    # per-sample signals, and keep one coefficient flip on purpose to show
    # the campaign flagging it IDLE instead of reporting a hollow "ok".
    live = {k: t for k, t in result.types.items()
            if not k.startswith("c[")}
    faults = standard_faults(live, inputs=("x",), n_seeds=2,
                             max_bitflip_signals=4)
    faults.append(BitFlip(output, bit=0, at=2000, every=50))  # periodic SEU
    faults.append(BitFlip("c[1]", bit=0, at=200))             # never fires
    print("running %d fault(s), one %d-sample simulation each...\n"
          % (len(faults), campaign.n_samples))
    outcome = campaign.run(faults)

    # Step 3: report and certify.
    print(outcome.table())
    print()
    print(outcome.summary())
    # A single MSB upset in the delay line costs ~10 dB for this design,
    # so the transient-fault margin is certified at 12 dB.
    transient = ("bit-flip", "seed-perturb")
    print("transient faults within 12 dB margin: %s"
          % outcome.certified(12.0, kinds=transient))
    print("...and with idle faults rejected:     %s  (c[1] never fired)"
          % outcome.certified(12.0, kinds=transient,
                              require_triggered=True))
    print()
    print(result.diagnostics.summary())


if __name__ == "__main__":
    main()
