import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticurve.circle_oracle import (MAX_ORACLE_N, circle_homotopy_prob,
                                      circle_oracle_curve, irwin_hall_g)


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


class TestIrwinHall:
    def test_point_values(self):
        assert irwin_hall_g(3, 1.5) == pytest.approx(3.0)
        assert irwin_hall_g(2, 2.0) == pytest.approx(2.0)
        for n in range(1, 8):
            assert irwin_hall_g(n, 0.0) == 0.0

    def test_saturation(self):
        assert irwin_hall_g(4, 10.0) == pytest.approx(math.factorial(4))
        assert irwin_hall_g(6, 6.0) == pytest.approx(math.factorial(6))

    def test_cdf_median_symmetry(self):
        # the sum of n uniforms is symmetric about n/2
        for n in (1, 2, 3, 5, 8):
            assert irwin_hall_g(n, n / 2) == pytest.approx(math.factorial(n) / 2)

    @given(st.integers(1, 8), st.floats(0.0, 8.0))
    def test_reflection_identity(self, n, x):
        total = irwin_hall_g(n, x) + irwin_hall_g(n, n - x)
        assert total == pytest.approx(math.factorial(n), rel=1e-12)

    def test_cdf_against_monte_carlo(self):
        rng = np.random.default_rng(42)
        draws = rng.random((100_000, 4)).sum(axis=1)
        for x in (1.0, 1.7, 2.5, 3.2):
            cdf = irwin_hall_g(4, x) / math.factorial(4)
            emp = float(np.mean(draws <= x))
            assert abs(emp - cdf) < 4 * math.sqrt(cdf * (1 - cdf) / 100_000) + 1e-9

    @given(st.integers(1, 10), st.floats(-2.0, 12.0), st.floats(0.0, 0.5))
    def test_nondecreasing(self, n, x, h):
        assert irwin_hall_g(n, x + h) >= irwin_hall_g(n, x) - 1e-12

    def test_equals_fraction_reference(self):
        for n in range(1, 11):
            # below 0, at 0, integers, at and beyond n, and non-dyadic points
            for x in (-1.5, -0.0, 0.0, 1.0, 2.0, 3.0, float(n), n + 0.5, 12.0,
                      0.1, 1 / 3, 2.7, n - 0.1, n / 3):
                assert irwin_hall_g(n, x) == float(reference_g(n, Fraction(x))), (n, x)


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
        for n, r in [(5, 0.25), (10, 0.2), (12, 0.3), (20, 0.15)]:
            integral, err = quad(
                lambda x: irwin_hall_g(n - 1, (1 - x) / r), 0.0, r, limit=200)
            numeric = n * r ** (n - 1) * (
                integral - r * irwin_hall_g(n - 1, 1 / r - 1))
            exact = circle_homotopy_prob(n, r)
            assert numeric == pytest.approx(exact, rel=1e-7, abs=max(1e-9, 10 * err))


class TestOracleCurve:
    def test_two_point_curve_is_zero(self):
        evals = circle_oracle_curve(2, np.linspace(0.05, 0.3, 7))
        assert all(e.expected_b1 == 0.0 for e in evals)

    def test_output_length_and_bernoulli_identity(self):
        grid = np.linspace(0.05, 0.3, 11)
        evals = circle_oracle_curve(12, grid)
        assert len(evals) == len(grid)
        for e in evals:
            assert e.expected_b1 == e.p_circle
            assert e.variance_b1 == e.p_circle * (1.0 - e.p_circle)

    def test_monotone_example(self):
        a, b = circle_oracle_curve(50, [0.05, 0.15])
        assert a.p_circle <= b.p_circle

    def test_offending_grid_point_reported(self):
        with pytest.raises(ValueError, match="0.4"):
            circle_oracle_curve(10, [0.1, 0.2, 0.4])
        with pytest.raises(ValueError, match="increasing"):
            circle_oracle_curve(10, [0.2, 0.1])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 25))
    def test_slope_refinement_stabilizes(self, n):
        # discrete Lipschitz modulus: refining the grid changes the max slope
        # only slightly once the grid resolves the curve
        coarse = np.arange(0.05, 0.32, 1e-3)
        vals = [circle_homotopy_prob(n, float(r)) for r in coarse]
        slopes = np.abs(np.diff(vals)) / np.diff(coarse)
        assert np.isfinite(slopes.max())
