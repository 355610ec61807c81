"""Property-based tests for interval arithmetic soundness.

Soundness is the load-bearing invariant of the quasi-analytical MSB
method: for every operation, the interval result must contain the result
of applying the operation to any points of the operand intervals.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.interval import Interval

finite = st.floats(min_value=-1e9, max_value=1e9,
                   allow_nan=False, allow_infinity=False)


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return Interval(min(a, b), max(a, b))


@st.composite
def interval_with_point(draw):
    iv = draw(intervals())
    t = draw(st.floats(min_value=0.0, max_value=1.0))
    p = iv.lo + t * (iv.hi - iv.lo)
    # Guard against fp rounding pushing p outside.
    p = min(max(p, iv.lo), iv.hi)
    return iv, p


@st.composite
def unbounded_with_point(draw):
    """An interval and a finite point in it; either bound may be infinite."""
    iv, p = draw(interval_with_point())
    lo = -math.inf if draw(st.booleans()) else iv.lo
    hi = math.inf if draw(st.booleans()) else iv.hi
    return Interval(lo, hi), p


@st.composite
def zero_free_with_point(draw):
    """A divisor interval excluding zero, its far bound possibly
    infinite, and a finite point in it."""
    magnitude = st.floats(min_value=0.0, max_value=1e9, exclude_min=True)
    near, far = sorted((draw(magnitude), draw(magnitude)))
    t = draw(st.floats(min_value=0.0, max_value=1.0))
    p = min(max(near + t * (far - near), near), far)
    if draw(st.booleans()):
        far = math.inf
    if draw(st.booleans()):
        return Interval(-far, -near), -p
    return Interval(near, far), p


TOL = 1e-6


def _contains(iv, v):
    # Exact containment first: the tolerance arithmetic below produces
    # NaN for infinite bounds (inf - inf), e.g. when a denormal divisor
    # overflows a quotient to inf.
    if iv.lo <= v <= iv.hi:
        return True
    span = max(1.0, abs(iv.lo), abs(iv.hi))
    return iv.lo - TOL * span <= v <= iv.hi + TOL * span


class TestSoundness:
    @given(interval_with_point(), interval_with_point())
    def test_add(self, ap, bp):
        (a, pa), (b, pb) = ap, bp
        assert _contains(a + b, pa + pb)

    @given(interval_with_point(), interval_with_point())
    def test_sub(self, ap, bp):
        (a, pa), (b, pb) = ap, bp
        assert _contains(a - b, pa - pb)

    @given(interval_with_point(), interval_with_point())
    def test_mul(self, ap, bp):
        (a, pa), (b, pb) = ap, bp
        assert _contains(a * b, pa * pb)

    @given(unbounded_with_point(), zero_free_with_point())
    @example((Interval(-math.inf, -1.0), -3.0),
             (Interval(-math.inf, -2.0), -4.0))
    def test_div(self, ap, bp):
        (a, pa), (b, pb) = ap, bp
        assert _contains(a / b, pa / pb)

    @given(interval_with_point())
    def test_neg_abs(self, ap):
        a, pa = ap
        assert _contains(-a, -pa)
        assert _contains(abs(a), abs(pa))

    @given(interval_with_point(), st.integers(min_value=-8, max_value=8))
    def test_shift(self, ap, k):
        a, pa = ap
        assert _contains(a.scale_pow2(k), pa * (2.0 ** k))

    @given(interval_with_point(), interval_with_point())
    def test_min_max(self, ap, bp):
        (a, pa), (b, pb) = ap, bp
        assert _contains(a.minimum(b), min(pa, pb))
        assert _contains(a.maximum(b), max(pa, pb))

    @given(interval_with_point(), interval_with_point())
    def test_union_contains_both(self, ap, bp):
        (a, pa), (b, pb) = ap, bp
        u = a.union(b)
        assert _contains(u, pa) and _contains(u, pb)


class TestLatticeLaws:
    @given(intervals(), intervals())
    def test_union_commutes(self, a, b):
        assert a.union(b) == b.union(a)

    @given(intervals(), intervals(), intervals())
    def test_union_associates(self, a, b, c):
        assert a.union(b).union(c) == a.union(b.union(c))

    @given(intervals())
    def test_union_idempotent(self, a):
        assert a.union(a) == a

    @given(intervals(), intervals())
    def test_intersect_within_both(self, a, b):
        i = a.intersect(b)
        if not i.is_empty:
            assert a.contains(i) and b.contains(i)

    @given(intervals(), intervals())
    def test_clip_within_target(self, a, b):
        c = a.clip(b)
        assert b.contains(c)

    @given(intervals(), intervals())
    def test_widening_is_extensive(self, a, b):
        w = a.widen_to(b)
        assert w.contains(a)
        assert w.contains(b)


class TestWideningTerminates:
    @given(intervals(), st.lists(intervals(), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_chain_stabilizes(self, start, updates):
        # Repeated widening must reach a fixpoint quickly: each bound can
        # only jump to infinity once.
        cur = start
        changes = 0
        for u in updates * 3:
            new = cur.widen_to(cur.union(u))
            if new != cur:
                changes += 1
            cur = new
        assert changes <= 2


@st.composite
def extreme_with_point(draw):
    """A finite point anywhere in the float range and an interval around
    it whose bounds may lie far away or at infinity."""
    p = draw(st.floats(allow_nan=False, allow_infinity=False))
    reach = st.floats(min_value=0.0, allow_nan=False)
    return Interval(p - draw(reach), p + draw(reach)), p


def _or_inf(fn, inf):
    """``fn()``, or ``inf`` when its float result overflows."""
    try:
        return fn()
    except OverflowError:
        return inf


class TestFloatExtremes:
    """Bounds past the float range become infinities, never errors.

    Unbounded intervals are how MSB explosion shows up, so a shift or a
    power that leaves the float range must produce one instead of an
    untyped ``OverflowError`` or a NaN ``ValueError``.
    """

    @given(extreme_with_point(), st.integers(min_value=-1200,
                                             max_value=1200))
    @example((Interval(1.0, 2.0), 1.5), 1100)
    @example((Interval(0.0, math.inf), 1.0), -1100)
    @example((Interval(-math.inf, -1.0), -1.0), -1100)
    def test_scale_pow2(self, ap, k):
        a, pa = ap
        image = _or_inf(lambda: math.ldexp(pa, k),
                        math.copysign(math.inf, pa))
        assert _contains(a.scale_pow2(k), image)

    @given(extreme_with_point(), st.integers(min_value=0, max_value=7))
    @example((Interval(1e200, 1e201), 1e200), 3)
    @example((Interval(-1e201, -1e200), -1e200), 3)
    @example((Interval(-1e200, 1e201), 0.0), 2)
    def test_power(self, ap, k):
        a, pa = ap
        image = _or_inf(lambda: pa ** k,
                        math.copysign(math.inf, pa) if k % 2 else math.inf)
        assert _contains(a.power(k), image)

    def test_reported_cases(self):
        assert Interval(1e200, 1e201).power(3) == Interval(math.inf,
                                                           math.inf)
        assert Interval(1, 2).scale_pow2(1100) == Interval(math.inf,
                                                           math.inf)
        assert Interval(0, math.inf).scale_pow2(-1100) == Interval(
            0.0, math.inf)
