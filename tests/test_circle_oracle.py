import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticurve.circle_oracle import MAX_ORACLE_N, circle_homotopy_prob


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
                    assert circle_homotopy_prob(n, r) == reference_prob(n, r), (n, r)

    def test_equals_fraction_reference_at_cap(self):
        for r in np.linspace(0.02, 0.32, 6):
            r = float(r)
            assert circle_homotopy_prob(MAX_ORACLE_N, r) == reference_prob(MAX_ORACLE_N, r)

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
