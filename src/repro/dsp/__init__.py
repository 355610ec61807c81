"""DSP block library: the paper's example designs and their substrates.

Every name below is importable from ``repro.dsp``; its module loads on
first use, so importing one design (``repro.dsp.lms``) does not pay for
the whole library.
"""

import importlib

#: public name -> defining submodule of ``repro.dsp``
_HOME = {
    "AdaptiveLmsDesign": "adaptive_fir",
    "Biquad": "biquad",
    "BiquadDesign": "biquad",
    "LimitCycle": "biquad",
    "detect_limit_cycle": "biquad",
    "lowpass_coefficients": "biquad",
    "zero_input_response": "biquad",
    "CordicRotator": "cordic",
    "CordicDesign": "cordic",
    "cordic_gain": "cordic",
    "rotate_reference": "cordic",
    "FirFilter": "fir",
    "fir_reference": "fir",
    "LmsEqualizerDesign": "lms",
    "pam_channel_stimulus": "lms",
    "PAPER_COEFFICIENTS": "lms",
    "PAPER_CHANNEL": "lms",
    "FarrowInterpolator": "farrow",
    "FARROW_BASIS": "farrow",
    "Nco": "nco",
    "WrappedNco": "nco",
    "GardnerTed": "ted",
    "PiLoopFilter": "loopfilter",
    "TimingRecoveryDesign": "timing_recovery",
    "aligned_symbol_errors": "timing_recovery",
    "Channel": "chan",
    "awgn": "chan",
    "ShapedPamStream": "pam",
    "pam_symbols": "pam",
    "shaped_pam": "pam",
    "rrc_pulse": "rrc",
    "rrc_taps": "rrc",
    "raised_cosine_pulse": "rrc",
    "binary_slicer": "slicer",
    "pam_slicer": "slicer",
    "pam_levels": "slicer",
    "mse": "metrics",
    "sqnr_db": "metrics",
    "snr_db": "metrics",
    "sqnr_from_stats": "metrics",
    "ber": "metrics",
    "evm_percent": "metrics",
}

__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("repro.dsp." + home), name)
    globals()[name] = value
    return value
