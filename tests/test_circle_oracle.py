import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betticurve import circle_oracle
from betticurve.circle_oracle import (MAX_ORACLE_N, _PASS_WIDTH_RATIO, _PRECISION, _SCALE,
                                      _bracket, _shorter_side, _stevens_sum,
                                      circle_homotopy_prob)


# Independent slow path: the closed form of the module docstring evaluated
# with Fraction sums, term for term, before any of the integer algebra.
def reference_g(n, x):
    if x <= 0:
        return Fraction(0)
    if x >= n:
        return Fraction(math.factorial(n))
    return sum(
        (-1) ** k * math.comb(n, k) * (x - k) ** n
        for k in range(int(x) + 1))


def reference_antiderivative(n, x):
    if x <= 0:
        return Fraction(0)
    total = sum(
        (-1) ** k * math.comb(n, k) * (x - k) ** (n + 1)
        for k in range(min(int(x), n) + 1))
    return total / (n + 1)


def reference_prob(n, r):
    """n r^n [G(n-1, 1/r) - G(n-1, 1/r - 1) - g(n-1, 1/r - 1)] as a float."""
    rf = Fraction(r)
    m = n - 1
    u1 = 1 / rf
    u0 = u1 - 1
    bracket = (reference_antiderivative(m, u1) - reference_antiderivative(m, u0)
               - reference_g(m, u0))
    return float(n * rf ** n * bracket)


class TestHomotopyProbability:
    def test_two_points_never_form_a_cycle(self):
        for r in np.linspace(0.01, 0.33, 20):
            if r < 1 / 3:
                assert circle_homotopy_prob(2, float(r)) == 0.0

    def test_vanishes_for_tiny_scale(self):
        assert circle_homotopy_prob(20, 1e-4) < 1e-3

    def test_dense_sample_probability_near_one(self):
        assert circle_homotopy_prob(100, 0.1) >= 0.99

    def test_impossible_covering_is_exactly_zero(self):
        # n gaps summing to 1 cannot all be below r when n*r < 1
        assert circle_homotopy_prob(5, 0.125) == 0.0
        assert circle_homotopy_prob(8, 0.06) == 0.0
        # without a single power, even at the cap
        a, b = (0.0005).as_integer_ratio()
        assert _stevens_sum(MAX_ORACLE_N, a, b) == (0.0, 0)

    def test_numpy_integer_n_equals_python_int_n(self):
        # int64 products overflow: n is taken as a Python int on entry
        for n in (5, 20, 50, 100, 1000):
            for r in (0.05, 0.1, 0.2, 0.3, 2 / n if n > 6 else 0.3):
                assert circle_homotopy_prob(np.int64(n), r).hex() == \
                    circle_homotopy_prob(n, r).hex(), (n, r)
        with pytest.raises(TypeError):
            circle_homotopy_prob(20.0, 0.1)

    def test_monotone_pair(self):
        assert circle_homotopy_prob(50, 0.05) <= circle_homotopy_prob(50, 0.15)

    def test_domain_errors(self):
        # note float(1/3) rounds just below the exact bound, so it is valid
        for bad_r in (0.0, -0.1, 0.34, 1.0):
            with pytest.raises(ValueError):
                circle_homotopy_prob(10, bad_r)
        with pytest.raises(ValueError):
            circle_homotopy_prob(0, 0.1)
        with pytest.raises(ValueError):
            circle_homotopy_prob(MAX_ORACLE_N + 1, 0.1)

    def test_probability_range_over_grid(self):
        grid = np.linspace(0.02, 0.33, 250)
        for n in (2, 3, 7, 15, 28, 40):
            for r in grid:
                if 0 < r < 1 / 3:
                    p = circle_homotopy_prob(n, float(r))
                    assert 0.0 <= p <= 1.0

    def test_equals_fraction_reference(self):
        # the float 1/3 is the largest float below 1/3, so r <= 1/3 keeps
        # the domain; the dyadic r have an integer 1/r (the last term of the
        # sum is 0), and with n = 1/r, u0 = n - 1 exactly, where g saturates
        special = [0.25, 0.125, 0.0625, 1 / 3, 0.02]
        for n in (1, 2, 3, 4, 7, 8, 12, 16, 50):
            grid = special + [1 / n, 1 / (n - 0.5), 0.5 / n]
            grid += [float(r) for r in np.linspace(0.005, 0.33, 23)]
            for r in grid:
                if r <= 1 / 3:
                    assert repr(circle_homotopy_prob(n, r)) == repr(reference_prob(n, r)), (n, r)

    def test_equals_fraction_reference_at_cap(self):
        # the last two lie in the coverage window r ~ log n / n, where the
        # sum stops late
        grid = [float(r) for r in np.linspace(0.02, 0.32, 6)] + [0.0069, 0.01]
        for r in grid:
            assert repr(circle_homotopy_prob(MAX_ORACLE_N, r)) == repr(
                reference_prob(MAX_ORACLE_N, r)), r

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_equals_fraction_reference_where_terms_cancel(self, data):
        # just above r = 1/n the terms grow far past 1 and cancel to a p
        # that may underflow; the stopped sum must still round like the
        # exact rational, and never to -0.0
        n = data.draw(st.integers(3, 300))  # n = 2 has no r in [1/n, 1/3]
        r = data.draw(st.floats(1 / n, min(3 / n, 1 / 3)))
        assert repr(circle_homotopy_prob(n, r)) == repr(reference_prob(n, r)), (n, r)

    def test_equals_fraction_reference_on_underflow(self):
        for r in (math.nextafter(1 / 300, 1), 1 / 300 * (1 + 1e-9)):
            assert repr(circle_homotopy_prob(300, r)) == repr(reference_prob(300, r)), r

    def test_sum_stops_once_the_float_is_fixed(self):
        # above the coverage threshold the first few terms fix the float;
        # at the cap the whole sum has 8 and 50 terms here
        for r, most in ((0.14, 2), (0.02, 4)):
            a, b = r.as_integer_ratio()
            _, terms = _stevens_sum(MAX_ORACLE_N, a, b)
            assert terms <= most, (r, terms)

    def test_closed_form_integral_against_quadrature(self):
        # independent route: numerically integrate the Irwin-Hall factor
        from scipy.integrate import quad

        def g(n, x):
            return float(reference_g(n, Fraction(x)))

        for n, r in [(5, 0.25), (10, 0.2), (12, 0.3), (20, 0.15)]:
            integral, err = quad(lambda x: g(n - 1, (1 - x) / r), 0.0, r, limit=200)
            numeric = n * r ** (n - 1) * (integral - r * g(n - 1, 1 / r - 1))
            exact = circle_homotopy_prob(n, r)
            assert numeric == pytest.approx(exact, rel=1e-7, abs=max(1e-9, 10 * err))


def stevens_numerator(n, a, b):
    """p b^(n-1): Stevens' whole sum over the terms with b - j a >= 0."""
    return sum((-1) ** j * math.comb(n, j) * (b - j * a) ** (n - 1)
               for j in range(min(b // a, n) + 1))


@st.composite
def oracle_inputs(draw, max_n):
    """(n, r) with n r > 1 and r < 1/3, r from one of the regimes where the
    sum behaves differently: past the coverage threshold, just above 1/n
    (terms cancel to an underflow), at 1/(n-1) (a complement of a term or
    two), at 2/n (both sides equally long), in the coverage window, and
    dyadic (a last term of 0)."""
    n = draw(st.integers(4, max_n))
    regime = draw(st.sampled_from(["uniform", "above 1/n", "1/(n-1)", "2/n", "log n/n",
                                   "dyadic"]))
    if regime == "uniform":
        r = draw(st.floats(1 / n, 1 / 3, exclude_min=True, exclude_max=True))
    elif regime == "above 1/n":
        r = 1 / n * (1 + draw(st.sampled_from([1e-15, 1e-9, 1e-6, 1e-3, 0.5])))
    elif regime == "1/(n-1)":
        r = 1 / (n - 1)
    elif regime == "2/n":
        r = 2 / n
    elif regime == "log n/n":
        r = math.log(n) / n
    else:
        m = draw(st.integers(2, 12))
        r = draw(st.integers(1, (1 << m) // 3)) / (1 << m)
    a, b = r.as_integer_ratio()
    assume(n * a > b and 3 * a < b)
    return n, r


class TestCertifiedPass:
    @settings(max_examples=300, deadline=None)
    @given(oracle_inputs(200), st.sampled_from([32, 64, _PRECISION, None]), st.booleans())
    def test_bracket_holds_the_exact_rational(self, nr, precision, complement):
        # either side of the identity, at any rung, the exact one (None)
        # included: lo <= p one <= hi inside [0, one], whether the rung stopped
        # early or summed every term
        n, r = nr
        a, b = r.as_integer_ratio()
        lo, hi, one = _bracket(n, a, b, n * a - b if complement else b, precision)
        assert one == 1 << (_SCALE if precision else (b.bit_length() - 1) * (n - 1))
        exact = Fraction(stevens_numerator(n, a, b), b ** (n - 1))
        assert 0 <= lo <= exact * one <= hi <= one, (n, r, precision)
        if precision is None:  # no error: the ends round alike, to the exact float
            assert (lo / one).hex() == (hi / one).hex() == _stevens_sum(n, a, b)[0].hex()

    @settings(max_examples=100, deadline=None)
    @given(oracle_inputs(300))
    def test_equals_the_exact_stopped_sum(self, nr):
        # float.hex, so that a -0.0 for an underflowing p fails too
        n, r = nr
        assert circle_homotopy_prob(n, r).hex() == _stevens_sum(
            n, *r.as_integer_ratio())[0].hex(), (n, r)

    def test_sides_of_the_identity_are_equal(self):
        # sum_{j=0..n} (-1)^j C(n, j) (b - j a)^(n-1) = 0, an n-th difference of
        # a polynomial of degree n - 1, with n r <= 1 (both sides empty)
        # included: the exact rung on the complement brackets Stevens'
        # numerator N, and is N itself when it summed every term
        for n in range(1, 41):
            for m in range(2, 9):
                for k in range(1, (1 << m) // 3 + 1, 2):
                    a, b = k, 1 << m
                    want = stevens_numerator(n, a, b)
                    lo, hi, one = _bracket(n, a, b, n * a - b)
                    assert one == b ** (n - 1) and lo <= want <= hi, (n, k, m)
                    assert lo != hi or lo == want, (n, k, m)
                    assert (lo / one).hex() == float(Fraction(want, one)).hex(), (n, k, m)

    def test_fallback_sums_one_term_just_above_1_over_n(self):
        # the exact rung, the ladder's fallback: Stevens' side has 1000 terms
        # here, the complement one
        n = MAX_ORACLE_N
        r = 1 / n * (1 + 1e-6)
        a, b = r.as_integer_ratio()
        c = _shorter_side(n, a, b)
        assert c == n * a - b
        assert len(range(min(-(-c // a), n + 1))) == 1  # _bracket's term range
        lo, hi, one = _bracket(n, a, b, c)
        assert lo == hi
        assert (lo / one).hex() == circle_homotopy_prob(n, r).hex() == (0.0).hex()

    def test_fallback_and_pass_equal_the_exact_stopped_sum_at_cap(self):
        # the exact rung (the fallback) and the whole ladder: the benchmark grid
        # at input sets 0 and 31, the coverage window, and the cancelling range
        # 1/n < r <= 3/n, where the ladder climbs and the shorter side changes
        n = MAX_ORACLE_N
        grid = [float(r) for offset in (0.0, 31e-6)
                for r in np.linspace(0.02, 0.32 + offset, 6)]
        grid += [0.0069, 0.01, 3 / n, 2 / n, 1.5 / n, 1.2 / n]
        for r in grid:
            a, b = r.as_integer_ratio()
            want = _stevens_sum(n, a, b)[0].hex()
            assert circle_homotopy_prob(n, r).hex() == want, r
            lo, _, one = _bracket(n, a, b, _shorter_side(n, a, b))
            assert (lo / one).hex() == want, r


class TestPrecisionLadder:
    """`circle_homotopy_prob` climbs P = 128, 256, ... while the exact terms
    are wider than 24 P bits, then takes the exact rung (precision None)."""

    @staticmethod
    def record_rungs(monkeypatch, undecided=False):
        rungs = []
        bracket = circle_oracle._bracket

        def recording(n, a, b, c, precision=None):
            rungs.append(precision)
            lo, hi, one = bracket(n, a, b, c, precision)
            return (0, one, one) if undecided and precision else (lo, hi, one)

        monkeypatch.setattr(circle_oracle, "_bracket", recording)
        return rungs

    def test_climbs_to_1024_bits_at_2_over_n(self, monkeypatch):
        rungs = self.record_rungs(monkeypatch)
        circle_homotopy_prob(MAX_ORACLE_N, 2 / MAX_ORACLE_N)
        assert rungs == [128, 256, 512, 1024]

    def test_narrow_terms_take_only_the_exact_rung(self, monkeypatch):
        rungs = self.record_rungs(monkeypatch)
        circle_homotopy_prob(20, 0.1)
        assert rungs == [None]

    @pytest.mark.parametrize("n, r", [(1000, 2 / 1000), (1000, 0.02), (1000, 1.2 / 1000),
                                      (300, math.log(300) / 300), (60, 0.3)])
    def test_exact_rung_decides_when_no_pass_does(self, monkeypatch, n, r):
        # every P-bit rung returns the bracket [0, one]: the ladder runs out
        # at 24 P >= the terms' width and the exact rung must give the float
        rungs = self.record_rungs(monkeypatch, undecided=True)
        a, b = r.as_integer_ratio()
        assert circle_homotopy_prob(n, r).hex() == _stevens_sum(n, a, b)[0].hex()
        width = _shorter_side(n, a, b).bit_length() * (n - 1)
        assert rungs[-1] is None and all(_PASS_WIDTH_RATIO * p < width for p in rungs[:-1])
        assert rungs[:-1] == [_PRECISION << k for k in range(len(rungs) - 1)]


class TestOracleCurve:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 25))
    def test_slope_refinement_stabilizes(self, n):
        # discrete Lipschitz modulus: refining the grid changes the max slope
        # only slightly once the grid resolves the curve
        coarse = np.arange(0.05, 0.32, 1e-3)
        vals = [circle_homotopy_prob(n, float(r)) for r in coarse]
        slopes = np.abs(np.diff(vals)) / np.diff(coarse)
        assert np.isfinite(slopes.max())
