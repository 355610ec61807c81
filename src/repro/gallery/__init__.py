"""``repro.gallery`` — the design gallery and its scenario matrix.

A registry of seven traced designs beyond :mod:`repro.dsp` — FFT
butterfly stage, polyphase halfband filter bank, Goertzel detector, IIR
lattice, DDC chain (quarter-rate LO + CIC decimator), one-state Kalman
tracker and a decimation/interpolation cascade — each paired with a
float reference model, a declared input envelope, registry-pinned
fixed-point types and a documented SQNR target (``docs/gallery.md``
documents every entry).

Registry lookup:

>>> from repro.gallery import gallery, get_design
>>> len(gallery()) >= 6
True
>>> get_design("kalman").description
'one-state steady-state Kalman tracker (K = 1/4)'

One matrix cell — a fully annotated, monitored simulation:

>>> from repro.gallery import single_run
>>> out = single_run(get_design("fft-butterfly"), n_samples=128)
>>> out.completed and out.sqnr_db() > 40.0
True

The scenario matrix (:func:`run_matrix`) fans
{designs} x {channel models} x {fault campaigns} x {seeds} through
:func:`repro.parallel.run_simulations` — output-only interpreted cells,
journal-backed resume, obs spans — and its committed artifact
``GALLERY_MATRIX.json`` is regenerated/checked by
``python -m repro.gallery matrix`` (see ``EXPERIMENTS.md``).
"""

from repro.gallery.designs import (DdcDesign, DecimInterpDesign,
                                   FftButterflyDesign, GalleryDesignBase,
                                   GoertzelDesign, IirLatticeDesign,
                                   KalmanTrackerDesign, PolyphaseFirDesign)
from repro.gallery.matrix import (CHANNEL_MODELS, FAULT_CAMPAIGNS,
                                  MatrixResult, check_artifact,
                                  load_artifact, run_matrix,
                                  write_artifact)
from repro.gallery.registry import (GalleryEntry, T_IN, factory, gallery,
                                    get_design, lint_entry,
                                    reference_check, seeded_factory,
                                    single_run, verify_entry)

__all__ = [
    "GalleryDesignBase", "FftButterflyDesign", "PolyphaseFirDesign",
    "GoertzelDesign", "IirLatticeDesign", "DdcDesign",
    "KalmanTrackerDesign", "DecimInterpDesign",
    "GalleryEntry", "gallery", "get_design", "T_IN",
    "factory", "seeded_factory",
    "reference_check", "single_run", "lint_entry", "verify_entry",
    "CHANNEL_MODELS", "FAULT_CAMPAIGNS", "MatrixResult", "run_matrix",
    "check_artifact", "write_artifact", "load_artifact",
]
