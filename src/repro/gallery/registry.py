"""The gallery registry — designs plus their documented refinement facts.

A :class:`GalleryEntry` bundles everything ``docs/gallery.md`` documents
per design and everything the tooling needs to drive it:

* the declared input **envelope** (the AD-converter knowledge the paper
  starts from),
* the chosen **dtypes** (the refinement result, applied through
  :class:`~repro.refine.flow.Annotations` so the design class itself
  stays float),
* knowledge-based **ranges** / **errors** annotations (``range()`` on
  resonant state, ``error()`` on wrapping accumulators — Sections 4.1
  and 6.1 of the paper),
* the documented **SQNR target** checked by CI's gallery-smoke job,
* the **verify** pre-flight checks with their expected statuses (or an
  honest skip reason when the design is outside the encoder's model).

>>> sorted(gallery())[:3]
['ddc', 'decim-interp', 'fft-butterfly']
>>> gallery()["kalman"].output
'kf.x'
>>> get_design("goertzel").sqnr_target_db > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dtype import DType
from repro.gallery import designs as _d
from repro.parallel import SimConfig, run_simulations
from repro.refine.flow import Annotations
from repro.signal.context import DesignContext

__all__ = [
    "GalleryEntry", "gallery", "get_design",
    "factory", "seeded_factory",
    "reference_check", "single_run", "lint_entry", "verify_entry",
    "T_IN",
]

#: the shared AD-converter input type: 10 bits, 8 fractional (+-2).
T_IN = DType("TGIN", 10, 8, "tc", "saturate", "round")

#: butterfly / lattice internal word: one-carry headroom over T_IN.
_T_S12 = DType("TG12", 12, 9, "tc", "saturate", "round")
#: resonator state word (+-8): the Goertzel gain needs 3 integer bits.
_T_S13 = DType("TG13", 13, 9, "tc", "saturate", "round")
#: filter-bank accumulator word (+-4).
_T_ACC = DType("TGA", 12, 9, "tc", "saturate", "round")
#: filter-bank output word (+-4, input grid).
_T_OUT = DType("TGO", 11, 8, "tc", "saturate", "round")
#: CIC wrap-domain word: modulo arithmetic, exact on the 2^-8 grid.
_T_CIC = DType("TGW", 16, 8, "tc", "wrap", "floor")
#: DDC baseband output word.
_T_BB = DType("TGB", 12, 10, "tc", "saturate", "round")
#: Kalman state word: truncating write-back => strict zero-input decay.
_T_KST = DType("TGK", 11, 9, "tc", "saturate", "trunc")
#: Kalman innovation word (input grid difference, one carry bit).
_T_KE = DType("TGE", 12, 9, "tc", "saturate", "round")


@dataclass
class GalleryEntry:
    """One gallery design plus its documented refinement artefacts."""

    name: str
    cls: type
    description: str
    envelope: dict
    dtypes: dict
    sqnr_target_db: float
    ranges: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    extra_outputs: tuple = ()
    n_samples: int = 2048
    #: ``(property, k, expected_status)`` triples for the verifier.
    verify_checks: tuple = ()
    #: non-empty => verification skipped, with this documented reason.
    verify_skip_reason: str = ""

    @property
    def inputs(self):
        return self.cls.inputs

    @property
    def output(self):
        return self.cls.output

    @property
    def base_seed(self):
        return self.cls.base_seed


def _channel_key(channel):
    if channel is None:
        return "clean"
    taps, noise_std, salt = channel
    return "t%s-n%g-s%d" % (",".join("%g" % t for t in taps),
                            noise_std, salt)


def factory(entry, channel=None, record_output=False):
    """Zero-argument design factory with a stable journal fingerprint."""
    def make():
        return entry.cls(seed=entry.base_seed, channel=channel,
                         record_output=record_output)
    make.fingerprint = "gallery:%s:%s:v1" % (entry.name,
                                             _channel_key(channel))
    return make


def seeded_factory(entry, channel=None):
    """Seed-taking factory (``SimConfig.factory_seed``), fingerprinted."""
    def make(seed):
        return entry.cls(seed=seed, channel=channel)
    make.fingerprint = "gallery:%s:%s:v1:seeded" % (entry.name,
                                                    _channel_key(channel))
    return make


def gallery():
    """Gallery entries keyed by design name.

    >>> entries = gallery()
    >>> len(entries) >= 6
    True
    >>> all(e.sqnr_target_db > 0 for e in entries.values())
    True
    """
    entries = [
        GalleryEntry(
            "fft-butterfly", _d.FftButterflyDesign,
            "radix-2 DIT FFT butterfly stage, W8 twiddle",
            envelope={"ar": (-1.0, 1.0), "ai": (-1.0, 1.0),
                      "br": (-1.0, 1.0), "bi": (-1.0, 1.0)},
            dtypes={"ar": T_IN, "ai": T_IN, "br": T_IN, "bi": T_IN,
                    "tr": _T_S12, "ti": _T_S12,
                    "xr": _T_S12, "xi": _T_S12,
                    "yr": _T_S12, "yi": _T_S12},
            extra_outputs=("xi", "yr", "yi"),
            sqnr_target_db=59.0,
            verify_checks=(("no-overflow", 2, "PROVED"),)),
        GalleryEntry(
            "polyphase-fir", _d.PolyphaseFirDesign,
            "polyphase decimate-by-2 halfband filter bank",
            envelope={"x0": (-1.0, 1.0), "x1": (-1.0, 1.0)},
            dtypes={"x0": T_IN, "x1": T_IN,
                    "pe.c": T_IN, "po.c": T_IN,
                    "pe.d": T_IN, "po.d": T_IN,
                    # v[0] is the constant-zero accumulator seed; a
                    # wide dtype there is dead integer bits (FX003),
                    # so annotate the live partials individually.
                    "pe.v[1]": _T_ACC, "pe.v[2]": _T_ACC,
                    "pe.v[3]": _T_ACC, "pe.v[4]": _T_ACC,
                    "po.v[1]": _T_ACC, "po.v[2]": _T_ACC,
                    "y": _T_OUT},
            sqnr_target_db=43.0,
            verify_checks=(("no-overflow", 3, "PROVED"),)),
        GalleryEntry(
            "goertzel", _d.GoertzelDesign,
            "damped Goertzel resonator at w0 = pi/4 (r = 0.9)",
            envelope={"x": (-1.0, 1.0)},
            dtypes={"x": T_IN,
                    "gz.s": _T_S13, "gz.s1": _T_S13, "gz.s2": _T_S13,
                    "gz.y": _T_S13},
            ranges={"gz.s": (-6.0, 6.0), "gz.s1": (-6.0, 6.0),
                    "gz.s2": (-6.0, 6.0), "gz.y": (-6.0, 6.0)},
            sqnr_target_db=59.0,
            verify_checks=(("no-overflow", 3, "PROVED"),)),
        GalleryEntry(
            "iir-lattice", _d.IirLatticeDesign,
            "two-stage all-pole IIR lattice (k1=19/32, k2=-13/32)",
            envelope={"x": (-1.0, 1.0)},
            dtypes={"x": T_IN,
                    "lat.f1": _T_S12, "lat.y": _T_S12,
                    "lat.b0": _T_S13, "lat.b1": _T_S13},
            ranges={"lat.y": (-3.5, 3.5), "lat.f1": (-3.5, 3.5),
                    "lat.b0": (-6.0, 6.0), "lat.b1": (-6.0, 6.0)},
            sqnr_target_db=50.0,
            verify_checks=(("no-overflow", 3, "PROVED"),)),
        GalleryEntry(
            "ddc", _d.DdcDesign,
            "DDC: quarter-rate LO mixer + 2-stage CIC decimate-by-4",
            envelope={"x": (-1.0, 1.0)},
            dtypes={"x": T_IN, "ddc.i": T_IN, "ddc.q": T_IN,
                    "ddc.ii1": _T_CIC, "ddc.ii2": _T_CIC,
                    "ddc.qi1": _T_CIC, "ddc.qi2": _T_CIC,
                    "ddc.id1": _T_CIC, "ddc.id2": _T_CIC,
                    "ddc.qd1": _T_CIC, "ddc.qd2": _T_CIC,
                    "ddc.ci1": _T_CIC, "ddc.ci2": _T_CIC,
                    "ddc.cq1": _T_CIC, "ddc.cq2": _T_CIC,
                    "ddc.yi": _T_BB, "ddc.yq": _T_BB},
            ranges={"ddc.ii1": (-100.0, 100.0), "ddc.ii2": (-100.0, 100.0),
                    "ddc.qi1": (-100.0, 100.0), "ddc.qi2": (-100.0, 100.0),
                    "ddc.ci1": (-100.0, 100.0), "ddc.ci2": (-100.0, 100.0),
                    "ddc.cq1": (-100.0, 100.0), "ddc.cq2": (-100.0, 100.0),
                    "ddc.yi": (-1.5, 1.5), "ddc.yq": (-1.5, 1.5)},
            errors={"ddc.ii1": 2.0 ** -9, "ddc.ii2": 2.0 ** -9,
                    "ddc.qi1": 2.0 ** -9, "ddc.qi2": 2.0 ** -9,
                    "ddc.ci1": 2.0 ** -9, "ddc.ci2": 2.0 ** -9,
                    "ddc.cq1": 2.0 ** -9, "ddc.cq2": 2.0 ** -9},
            extra_outputs=("ddc.yq",),
            sqnr_target_db=51.0,
            verify_skip_reason=(
                "non-uniform decimated control flow: the CIC comb "
                "updates every R-th tick, outside the step encoder's "
                "uniform-tick model (and the wrapping integrators "
                "overflow by design)")),
        GalleryEntry(
            "kalman", _d.KalmanTrackerDesign,
            "one-state steady-state Kalman tracker (K = 1/4)",
            envelope={"z": (-1.0, 1.0)},
            dtypes={"z": T_IN, "kf.e": _T_KE, "kf.x": _T_KST},
            ranges={"kf.x": (-1.5, 1.5), "kf.e": (-2.5, 2.5)},
            sqnr_target_db=39.5,
            verify_checks=(("no-overflow", 3, "PROVED"),
                           ("no-limit-cycle", 2, "PROVED"))),
        GalleryEntry(
            "decim-interp", _d.DecimInterpDesign,
            "halfband decimate-by-2 then interpolate-by-2 cascade",
            envelope={"x0": (-1.0, 1.0), "x1": (-1.0, 1.0)},
            dtypes={"x0": T_IN, "x1": T_IN,
                    "di.e.c": T_IN, "di.o.c": T_IN,
                    "di.f0.c": T_IN, "di.f1.c": T_IN,
                    "di.e.d": T_IN, "di.o.d": T_IN,
                    # skip each v[0] (constant-zero accumulator seed)
                    # to keep the FX003 dead-bits check quiet.
                    "di.e.v[1]": _T_ACC, "di.e.v[2]": _T_ACC,
                    "di.e.v[3]": _T_ACC, "di.e.v[4]": _T_ACC,
                    "di.o.v[1]": _T_ACC, "di.o.v[2]": _T_ACC,
                    "di.d": _T_OUT,
                    "di.f0.d": _T_OUT, "di.f1.d": _T_OUT,
                    "di.f0.v[1]": _T_ACC, "di.f0.v[2]": _T_ACC,
                    "di.f0.v[3]": _T_ACC, "di.f0.v[4]": _T_ACC,
                    "di.f1.v[1]": _T_ACC, "di.f1.v[2]": _T_ACC,
                    "di.y0": _T_OUT, "di.y1": _T_OUT},
            extra_outputs=("di.y1",),
            sqnr_target_db=37.0,
            verify_checks=(("no-overflow", 3, "PROVED"),)),
    ]
    return {e.name: e for e in entries}


def get_design(name):
    """Look up one entry; raises ``KeyError`` with the known names.

    >>> get_design("fft-butterfly").output
    'xr'
    """
    entries = gallery()
    if name not in entries:
        raise KeyError("unknown gallery design %r (known: %s)"
                       % (name, ", ".join(sorted(entries))))
    return entries[name]


def reference_check(entry, seed=None, n=512, channel=None):
    """Max |design - reference| over ``n`` unannotated (float) ticks.

    Without annotations the traced design computes in doubles, so any
    disagreement with the numpy reference model is a structural bug,
    not quantization; the gallery keeps this at double-precision zero.
    Only ``design.out_fx`` is read, so the run monitors the output alone
    and propagates no ranges (:meth:`DesignContext.monitor_only`).
    """
    seed = entry.base_seed if seed is None else int(seed)
    ctx = DesignContext("gallery-ref-%s" % entry.name)
    with ctx:
        design = entry.cls(seed=seed, channel=channel, record_output=True)
        design.build(ctx)
        ctx.monitor_only(entry.output)
        design.run(ctx, n)
    ref = entry.cls.reference(entry.cls.samples(seed, n, channel))
    got = np.asarray(design.out_fx, dtype=float)
    return float(np.max(np.abs(got - ref)))


def single_run(entry, seed=None, channel=None, n_samples=None,
               faults=(), journal=None, workers=0):
    """One fully annotated simulation of ``entry``; returns SimOutcome.

    >>> out = single_run(get_design("kalman"), n_samples=256)
    >>> out.completed and out.sqnr_db() > 40.0
    True
    """
    seed = entry.base_seed if seed is None else int(seed)
    n = entry.n_samples if n_samples is None else int(n_samples)
    cfg = SimConfig(
        label="%s@%d" % (entry.name, seed),
        dtypes=entry.dtypes, ranges=entry.ranges, errors=entry.errors,
        n_samples=n, overflow_action="record", guard_action="record",
        faults=tuple(faults), factory_seed=seed,
        catch_errors=bool(faults))
    outs = run_simulations(factory(entry, channel), [cfg],
                           seeded_factory=seeded_factory(entry, channel),
                           journal=journal, workers=workers)
    return outs[0]


def lint_entry(entry, config=None, samples=32):
    """Lint one gallery design with its registry annotations applied.

    Mirrors :func:`repro.lint.cli.lint_design` but also applies the
    registry's chosen ``dtypes`` so the type-aware rules (dead integer
    bits, wrap hazards, coarse grids) see the refinement result.
    """
    from repro.lint.core import run_lint
    from repro.sfg import record_design

    sfg, _ = record_design(lambda: entry.cls(seed=entry.base_seed), samples,
                           Annotations(dtypes=entry.dtypes,
                                       ranges=entry.ranges,
                                       errors=entry.errors).apply)
    outputs = set(entry.extra_outputs)
    if entry.output:
        outputs.add(entry.output)
    return run_lint(sfg, input_ranges=entry.envelope,
                    outputs=outputs, design_name=entry.name,
                    config=config)


def verify_entry(entry, backend="enumeration", budget=None):
    """Run the entry's documented verify pre-flight checks.

    Returns a list of :class:`~repro.verify.Verdict`; entries outside
    the encoder's model return one synthesized UNKNOWN verdict whose
    reason documents why (the matrix artifact records it verbatim).
    """
    from repro.verify import (UNKNOWN, Verdict, prove_no_limit_cycle,
                              prove_no_overflow)

    if entry.verify_skip_reason:
        return [Verdict("no-overflow", UNKNOWN, entry.name, 0,
                        "skipped", reason=entry.verify_skip_reason,
                        envelope=entry.envelope)]
    fac = factory(entry)
    verdicts = []
    for prop, k, _expected in entry.verify_checks:
        if prop == "no-overflow":
            v = prove_no_overflow(fac, entry.envelope, k=k,
                                  backend=backend, budget=budget,
                                  dtypes=entry.dtypes)
        elif prop == "no-limit-cycle":
            v = prove_no_limit_cycle(fac, k=k, backend=backend,
                                     budget=budget, dtypes=entry.dtypes)
        else:
            raise ValueError("unknown verify property %r" % (prop,))
        verdicts.append(v)
    return verdicts
