"""Gallery designs — seven traced DSP blocks beyond ``repro.dsp``.

Every design here follows one contract so the registry, the lint pass,
the verifier and the scenario matrix can drive them uniformly:

* the constructor is ``Design(seed=..., channel=..., record_output=...)``
  — ``seed`` feeds an internal :func:`numpy.random.default_rng` stimulus
  (the flow requires internally seeded stimuli), ``channel`` is an
  optional ``(taps, noise_std, salt)`` spec realised as a streaming
  :class:`repro.dsp.chan.Channel` per stimulus column,
* ``build()`` creates *untyped* signals — the chosen fixed-point types
  live in the registry (:mod:`repro.gallery.registry`) and are applied
  through :class:`~repro.refine.flow.Annotations`, so the same class
  serves the float reference check, the lint pass and the quantized
  matrix runs,
* every class carries a pure-numpy/python ``reference()`` — the float
  reference model the ISSUE and ``docs/gallery.md`` document.  A design
  run without annotations must agree with it to double precision
  (``tests/test_gallery_designs.py`` asserts this for every entry),
* with ``record_output=True`` the design appends the output's ``fx``
  track per tick (reference-agreement tests only; the default keeps the
  per-tick hot path free of Python-side reads).

``stimulus()`` / ``samples()`` are classmethods: the reference model
consumes exactly the same channel-processed sample stream the traced
design consumes.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.chan import Channel
from repro.dsp.fir import FirFilter, fir_reference
from repro.refine.flow import Design
from repro.signal import Reg, Sig

__all__ = [
    "GalleryDesignBase",
    "FftButterflyDesign", "PolyphaseFirDesign", "GoertzelDesign",
    "IirLatticeDesign", "DdcDesign", "KalmanTrackerDesign",
    "DecimInterpDesign",
    "HALFBAND", "HALFBAND_E0", "HALFBAND_E1", "INTERP_F0",
]

#: stimulus generation block size (channel models process per block).
_BLOCK = 256

#: classic dyadic 7-tap halfband lowpass: h = [-1, 0, 9, 16, 9, 0, -1]/32.
HALFBAND = (-0.03125, 0.0, 0.28125, 0.5, 0.28125, 0.0, -0.03125)
#: even polyphase branch of :data:`HALFBAND` (taps h0,h2,h4,h6).
HALFBAND_E0 = (-0.03125, 0.28125, 0.28125, -0.03125)
#: odd polyphase branch — the centre tap 1/2, aligned with E0's delay.
HALFBAND_E1 = (0.0, 0.5)
#: interpolator mid-point branch: 2 * even taps of :data:`HALFBAND`.
INTERP_F0 = (-0.0625, 0.5625, 0.5625, -0.0625)


class GalleryDesignBase(Design):
    """Shared scaffolding: seeded, channel-aware stimulus generation."""

    #: default stimulus seed (overridden per matrix cell).
    base_seed = 20260808
    #: stimulus columns consumed per tick (1 = scalar rows).
    stim_width = 1

    def __init__(self, seed=None, channel=None, record_output=False):
        self.seed = int(self.base_seed if seed is None else seed)
        self.channel = channel
        self.record_output = bool(record_output)
        self.out_fx = []
        self.out_fl = []

    # -- stimulus --------------------------------------------------------

    @classmethod
    def _clean_blocks(cls, rng):
        """Yield clean stimulus blocks of shape ``(B, stim_width)``."""
        raise NotImplementedError

    @classmethod
    def stimulus(cls, seed, channel=None):
        """Generator of per-tick stimulus rows (channel applied).

        ``channel`` is ``None`` or ``(taps, noise_std, salt)``; each
        stimulus column gets its own streaming :class:`Channel` seeded
        deterministically from ``seed`` and ``salt``.
        """
        seed = int(seed)
        rng = np.random.default_rng(seed)
        chans = None
        if channel is not None:
            taps, noise_std, salt = channel
            chans = [Channel(taps, noise_std,
                             seed=(seed * 131 + int(salt) + 7 * i)
                             & 0x7FFFFFFF)
                     for i in range(cls.stim_width)]
        for blk in cls._clean_blocks(rng):
            blk = np.asarray(blk, dtype=float)
            if blk.ndim == 1:
                blk = blk[:, None]
            if chans is not None:
                for i, ch in enumerate(chans):
                    blk[:, i] = ch.process(blk[:, i])
            # Snap stimulus to the 2^-8 input grid.  The 10-bit input
            # dtype quantizes to this grid anyway, and grid-exact
            # stimulus keeps traced SFGs inside the bit-vector
            # encoder's exactness budget (repro.verify encodes every
            # traced constant as a dyadic code).
            blk = np.round(blk * 256.0) / 256.0
            if cls.stim_width == 1:
                for (v,) in blk.tolist():
                    yield v
            else:
                yield from map(tuple, blk.tolist())

    @classmethod
    def samples(cls, seed, n, channel=None):
        """First ``n`` stimulus rows as an ``(n,)`` or ``(n, w)`` array."""
        gen = cls.stimulus(seed, channel)
        return np.array([next(gen) for _ in range(int(n))], dtype=float)

    @classmethod
    def reference(cls, xs):
        """Float reference model: stimulus rows in, output track out."""
        raise NotImplementedError

    # -- hooks -----------------------------------------------------------

    def _start_stimulus(self):
        self._stim = self.stimulus(self.seed, self.channel)

    def _record(self, sig):
        if self.record_output:
            self.out_fx.append(sig.fx)
            self.out_fl.append(sig.fl)


class FftButterflyDesign(GalleryDesignBase):
    """Radix-2 DIT FFT butterfly stage, fixed W_8^1 twiddle.

    ``t = W * b`` (complex), ``x = a + t``, ``y = a - t`` — purely
    combinational, the canonical headroom exercise: one carry bit per
    add, so inputs in ``<10,8>`` need ``<12,9>`` products and sums.
    """

    name = "fft-butterfly"
    inputs = ("ar", "ai", "br", "bi")
    output = "xr"
    stim_width = 4
    #: W = exp(-j*pi/4), rounded to the 2^-8 coefficient grid
    #: (181/256 = 0.70703125; dyadic so the bit-vector prover can
    #: encode it exactly).
    twiddle = (0.70703125, -0.70703125)

    @classmethod
    def _clean_blocks(cls, rng):
        while True:
            yield rng.uniform(-0.9, 0.9, size=(_BLOCK, 4))

    @classmethod
    def reference(cls, xs):
        xs = np.asarray(xs, dtype=float)
        wr, wi = cls.twiddle
        ar, br, bi = xs[:, 0], xs[:, 2], xs[:, 3]
        return ar + (br * wr - bi * wi)

    def build(self, ctx):
        self.ar = Sig("ar")
        self.ai = Sig("ai")
        self.br = Sig("br")
        self.bi = Sig("bi")
        for s in (self.ar, self.ai, self.br, self.bi):
            s.role = "input"
        self.tr = Sig("tr")
        self.ti = Sig("ti")
        self.xr = Sig("xr")
        self.xi = Sig("xi")
        self.yr = Sig("yr")
        self.yi = Sig("yi")
        self.xr.role = "output"
        self._start_stimulus()

    def run(self, ctx, n_samples):
        wr, wi = self.twiddle
        for _ in range(int(n_samples)):
            ar, ai, br, bi = next(self._stim)
            self.ar.assign(ar)
            self.ai.assign(ai)
            self.br.assign(br)
            self.bi.assign(bi)
            self.tr.assign(self.br * wr - self.bi * wi)
            self.ti.assign(self.br * wi + self.bi * wr)
            self.xr.assign(self.ar + self.tr)
            self.xi.assign(self.ai + self.ti)
            self.yr.assign(self.ar - self.tr)
            self.yi.assign(self.ai - self.ti)
            self._record(self.xr)
            ctx.tick()


class PolyphaseFirDesign(GalleryDesignBase):
    """Polyphase decimate-by-2 halfband FIR (two-branch filter bank).

    Each tick consumes one even/odd input pair and produces one output
    sample: ``y[m] = E0 * x_even + E1 * x_odd`` with the branches of
    :data:`HALFBAND`.  Both branches are :class:`FirFilter` instances,
    so the delay lines and partial-sum chains are monitored signals.
    """

    name = "polyphase-fir"
    inputs = ("x0", "x1")
    output = "y"
    stim_width = 2

    @classmethod
    def _clean_blocks(cls, rng):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        k0 = 0
        while True:
            k = k0 + np.arange(2 * _BLOCK)
            x = (0.55 * np.sin(2.0 * np.pi * 0.021 * k + phi)
                 + rng.uniform(-0.3, 0.3, size=2 * _BLOCK))
            yield x.reshape(_BLOCK, 2)
            k0 += 2 * _BLOCK

    @classmethod
    def reference(cls, xs):
        xs = np.asarray(xs, dtype=float)
        return (fir_reference(HALFBAND_E0, xs[:, 0])
                + fir_reference(HALFBAND_E1, xs[:, 1]))

    def build(self, ctx):
        self.x0 = Sig("x0")
        self.x1 = Sig("x1")
        self.x0.role = self.x1.role = "input"
        self.pe = FirFilter("pe", HALFBAND_E0, ctx=ctx)
        self.po = FirFilter("po", HALFBAND_E1, ctx=ctx)
        self.y = Sig("y")
        self.y.role = "output"
        self._start_stimulus()

    def run(self, ctx, n_samples):
        for _ in range(int(n_samples)):
            x0, x1 = next(self._stim)
            self.x0.assign(x0)
            self.x1.assign(x1)
            a = self.pe.step(self.x0)
            b = self.po.step(self.x1)
            self.y.assign(a + b)
            self._record(self.y)
            ctx.tick()


class GoertzelDesign(GalleryDesignBase):
    """Damped Goertzel resonator tuned to ``w0 = pi/4`` (r = 0.9).

    ``s[n] = x[n] + 2 r cos(w0) s[n-1] - r^2 s[n-2]`` with the real
    output ``y[n] = s[n] - r cos(w0) s[n-1]``.  The resonance gain
    (~5x) makes the state the classic range-explosion candidate: the
    registry pins ``range()`` annotations on the state signals exactly
    like the paper's knowledge-based ``b.range(-0.2, 0.2)``.
    """

    name = "goertzel"
    inputs = ("x",)
    output = "gz.y"
    pole_r = 0.9
    omega0 = np.pi / 4.0
    #: a1 = 2 r cos(w0), a2 = r^2, c1 = r cos(w0) — each rounded to
    #: the 2^-8 coefficient grid (dyadic, so the bit-vector prover
    #: can encode them exactly): c1 = 163/256, a1 = 2*c1, a2 = 207/256.
    c1 = 0.63671875
    a1 = 1.2734375
    a2 = 0.80859375

    @classmethod
    def _clean_blocks(cls, rng):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        k0 = 0
        while True:
            k = k0 + np.arange(_BLOCK)
            x = (0.45 * np.sin(cls.omega0 * k + phi)
                 + rng.uniform(-0.2, 0.2, size=_BLOCK))
            yield x
            k0 += _BLOCK

    @classmethod
    def reference(cls, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.empty(len(xs))
        s1 = s2 = 0.0
        for i, v in enumerate(xs):
            s = v + cls.a1 * s1 - cls.a2 * s2
            out[i] = s - cls.c1 * s1
            s2, s1 = s1, s
        return out

    def build(self, ctx):
        self.x = Sig("x")
        self.x.role = "input"
        self.s = Sig("gz.s")
        self.s1 = Reg("gz.s1")
        self.s2 = Reg("gz.s2")
        self.y = Sig("gz.y")
        self.y.role = "output"
        self._start_stimulus()

    def run(self, ctx, n_samples):
        for _ in range(int(n_samples)):
            self.x.assign(next(self._stim))
            self.s.assign(self.x + self.s1 * self.a1 - self.s2 * self.a2)
            self.y.assign(self.s - self.s1 * self.c1)
            self.s2.assign(self.s1)
            self.s1.assign(self.s)
            self._record(self.y)
            ctx.tick()


class IirLatticeDesign(GalleryDesignBase):
    """Two-stage all-pole IIR lattice (Gray-Markel structure).

    Reflection coefficients ``k1 = 19/32``, ``k2 = -13/32`` (stable
    since |k| < 1; dyadic so the bit-vector prover can encode them
    exactly).  Per tick::

        f1 = x  - k2 * b1      b1' = b0 + k1 * y
        y  = f1 - k1 * b0      b0' = y

    which is the direct-form recurrence
    ``y[n] = x[n] - k1 (1 + k2) y[n-1] - k2 y[n-2]``.
    """

    name = "iir-lattice"
    inputs = ("x",)
    output = "lat.y"
    k1 = 0.59375
    k2 = -0.40625

    @classmethod
    def _clean_blocks(cls, rng):
        while True:
            yield rng.uniform(-0.6, 0.6, size=_BLOCK)

    @classmethod
    def reference(cls, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.empty(len(xs))
        b0 = b1 = 0.0
        for i, v in enumerate(xs):
            f1 = v - cls.k2 * b1
            y = f1 - cls.k1 * b0
            b1 = b0 + cls.k1 * y
            b0 = y
            out[i] = y
        return out

    def build(self, ctx):
        self.x = Sig("x")
        self.x.role = "input"
        self.f1 = Sig("lat.f1")
        self.y = Sig("lat.y")
        self.b0 = Reg("lat.b0")
        self.b1 = Reg("lat.b1")
        self.y.role = "output"
        self._start_stimulus()

    def run(self, ctx, n_samples):
        for _ in range(int(n_samples)):
            self.x.assign(next(self._stim))
            self.f1.assign(self.x - self.b1 * self.k2)
            self.y.assign(self.f1 - self.b0 * self.k1)
            self.b1.assign(self.b0 + self.y * self.k1)
            self.b0.assign(self.y)
            self._record(self.y)
            ctx.tick()


#: quarter-rate local oscillator: cos(pi/2 * k) and -sin(pi/2 * k).
_LO_COS = (1.0, 0.0, -1.0, 0.0)
_LO_SIN = (0.0, -1.0, 0.0, 1.0)


class DdcDesign(GalleryDesignBase):
    """Digital down-converter: quarter-rate LO mixer + CIC decimator.

    The passband input ``x[k] = m[k] cos(pi/2 k)`` is mixed with the
    exact quarter-rate LO (values {1, 0, -1, 0} — every product is
    exact on the input grid) and both I/Q branches run a 2-stage CIC
    decimate-by-4: two wrapping integrators per branch, comb pairs and
    the ``1/16`` gain correction at the decimated rate.  The wrapping
    accumulators are the paper's Section 6.1 story: their float
    companions diverge (the reference never wraps), so the registry
    pins ``error()`` annotations on the wrap-domain signals instead of
    widening them — exactly the methodology the NCO worked example
    uses.  The decimated comb runs every 4th tick, so the per-tick
    structure is non-uniform and the design stays on the interpreted
    engine (and outside the verifier's uniform-tick model).
    """

    name = "ddc"
    inputs = ("x",)
    output = "ddc.yi"
    R = 4

    @classmethod
    def _clean_blocks(cls, rng):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        k0 = 0
        while True:
            k = k0 + np.arange(_BLOCK)
            m = (0.55 * np.sin(2.0 * np.pi * 0.03 * k + phi)
                 + 0.2 * np.sin(2.0 * np.pi * 0.011 * k + 1.3 * phi))
            yield m * np.cos(0.5 * np.pi * k)
            k0 += _BLOCK

    @classmethod
    def reference(cls, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.empty(len(xs))
        ii1 = ii2 = id1 = id2 = 0.0
        yi = 0.0
        for k, v in enumerate(xs):
            i = v * _LO_COS[k & 3]
            if (k & 3) == 3:
                c1 = ii2 - id1
                id1 = ii2
                c2 = c1 - id2
                id2 = c1
                yi = c2 * 0.0625
            ii1, ii2 = ii1 + i, ii2 + ii1
            out[k] = yi
        return out

    def build(self, ctx):
        self.x = Sig("x")
        self.x.role = "input"
        self.i = Sig("ddc.i")
        self.q = Sig("ddc.q")
        self.ii1 = Reg("ddc.ii1")
        self.ii2 = Reg("ddc.ii2")
        self.qi1 = Reg("ddc.qi1")
        self.qi2 = Reg("ddc.qi2")
        self.id1 = Reg("ddc.id1")
        self.id2 = Reg("ddc.id2")
        self.qd1 = Reg("ddc.qd1")
        self.qd2 = Reg("ddc.qd2")
        self.ci1 = Sig("ddc.ci1")
        self.ci2 = Sig("ddc.ci2")
        self.cq1 = Sig("ddc.cq1")
        self.cq2 = Sig("ddc.cq2")
        self.yi = Sig("ddc.yi")
        self.yq = Sig("ddc.yq")
        self.yi.role = "output"
        self._k = 0
        self._start_stimulus()

    def run(self, ctx, n_samples):
        for _ in range(int(n_samples)):
            k = self._k
            self.x.assign(next(self._stim))
            self.i.assign(self.x * _LO_COS[k & 3])
            self.q.assign(self.x * _LO_SIN[k & 3])
            if (k & 3) == 3:
                # Comb pair at the decimated rate; register reads see
                # the pre-tick integrator state, matching reference().
                self.ci1.assign(self.ii2 - self.id1)
                self.id1.assign(self.ii2)
                self.ci2.assign(self.ci1 - self.id2)
                self.id2.assign(self.ci1)
                self.yi.assign(self.ci2 * 0.0625)
                self.cq1.assign(self.qi2 - self.qd1)
                self.qd1.assign(self.qi2)
                self.cq2.assign(self.cq1 - self.qd2)
                self.qd2.assign(self.cq1)
                self.yq.assign(self.cq2 * 0.0625)
            self.ii1.assign(self.ii1 + self.i)
            self.ii2.assign(self.ii2 + self.ii1)
            self.qi1.assign(self.qi1 + self.q)
            self.qi2.assign(self.qi2 + self.qi1)
            self._k += 1
            self._record(self.yi)
            ctx.tick()


class KalmanTrackerDesign(GalleryDesignBase):
    """One-state steady-state Kalman tracker (alpha filter), K = 1/4.

    ``e[n] = z[n] - xhat[n-1]``; ``xhat[n] = xhat[n-1] + K e[n]`` —
    i.e. ``xhat' = 0.75 xhat + 0.25 z``, a contraction: with ``z`` in
    the declared envelope the state never clips, and the truncating
    (toward-zero) state write-back makes zero-input orbits strictly
    decay, so both verifier properties are theorems.
    """

    name = "kalman"
    inputs = ("z",)
    output = "kf.x"
    gain = 0.25

    @classmethod
    def _clean_blocks(cls, rng):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        k0 = 0
        while True:
            k = k0 + np.arange(_BLOCK)
            z = (0.6 * np.sin(2.0 * np.pi * 0.005 * k + phi)
                 + rng.normal(0.0, 0.04, size=_BLOCK))
            yield z
            k0 += _BLOCK

    @classmethod
    def reference(cls, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.empty(len(xs))
        x = 0.0
        for i, z in enumerate(xs):
            x = x + cls.gain * (z - x)
            out[i] = x
        return out

    def build(self, ctx):
        self.z = Sig("z")
        self.z.role = "input"
        self.e = Sig("kf.e")
        self.x = Reg("kf.x")
        self._start_stimulus()

    def run(self, ctx, n_samples):
        for _ in range(int(n_samples)):
            self.z.assign(next(self._stim))
            self.e.assign(self.z - self.x)
            self.x.assign(self.x + self.e * self.gain)
            ctx.tick()
            # The state is a register: read it after the clock edge so
            # the recorded track aligns with reference().
            self._record(self.x)


class DecimInterpDesign(GalleryDesignBase):
    """Halfband decimate-by-2 followed by interpolate-by-2.

    The decimator is the :class:`PolyphaseFirDesign` structure; the
    interpolator's polyphase branches reconstruct the even samples as a
    pure delay and the odd (mid-point) samples through
    :data:`INTERP_F0` (twice the even halfband taps, absorbing the
    zero-stuffing gain).  Output is the interpolated mid-point stream —
    an end-to-end multirate chain whose per-tick structure stays
    uniform (2 samples in, 2 out).
    """

    name = "decim-interp"
    inputs = ("x0", "x1")
    output = "di.y0"
    stim_width = 2

    @classmethod
    def _clean_blocks(cls, rng):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        k0 = 0
        while True:
            k = k0 + np.arange(2 * _BLOCK)
            x = (0.5 * np.sin(2.0 * np.pi * 0.013 * k + phi)
                 + rng.uniform(-0.25, 0.25, size=2 * _BLOCK))
            yield x.reshape(_BLOCK, 2)
            k0 += 2 * _BLOCK

    @classmethod
    def reference(cls, xs):
        xs = np.asarray(xs, dtype=float)
        d = (fir_reference(HALFBAND_E0, xs[:, 0])
             + fir_reference(HALFBAND_E1, xs[:, 1]))
        return fir_reference(INTERP_F0, d)

    def build(self, ctx):
        self.x0 = Sig("x0")
        self.x1 = Sig("x1")
        self.x0.role = self.x1.role = "input"
        self.de = FirFilter("di.e", HALFBAND_E0, ctx=ctx)
        self.do = FirFilter("di.o", HALFBAND_E1, ctx=ctx)
        self.d = Sig("di.d")
        self.f0 = FirFilter("di.f0", INTERP_F0, ctx=ctx)
        self.f1 = FirFilter("di.f1", (0.0, 1.0), ctx=ctx)
        self.y0 = Sig("di.y0")
        self.y1 = Sig("di.y1")
        self.y0.role = "output"
        self._start_stimulus()

    def run(self, ctx, n_samples):
        for _ in range(int(n_samples)):
            x0, x1 = next(self._stim)
            self.x0.assign(x0)
            self.x1.assign(x1)
            a = self.de.step(self.x0)
            b = self.do.step(self.x1)
            self.d.assign(a + b)
            self.y0.assign(self.f0.step(self.d))
            self.y1.assign(self.f1.step(self.d))
            self._record(self.y0)
            ctx.tick()
