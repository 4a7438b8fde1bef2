import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticurve.complexes import SimplicialComplex, vr_complex
from betticurve.errors import SimplexBudgetError
from betticurve.homology import (betti, betti_invariant, betti_oracle_bruteforce,
                                 connected_components, euler_characteristic,
                                 euler_invariant)
from betticurve.manifolds import circle, sample

QUAD = [0, 0.25, 0.5, 0.75]


def four_cycle(circle_points):
    return vr_complex(circle_points(QUAD), 0.3)


class TestBetti:
    def test_four_cycle(self, circle_points):
        c = four_cycle(circle_points)
        assert betti(c, 0) == 1
        assert betti(c, 1) == 1

    def test_full_triangle_contractible(self, circle_points):
        c = vr_complex(circle_points([0, 0.05, 0.1]), 0.2)
        assert betti(c, 0) == 1
        assert betti(c, 1) == 0

    def test_disjoint_vertices(self):
        c = SimplicialComplex(2, {0: [(0,), (1,)]}, -1)
        assert betti(c, 0) == 2

    def test_insufficient_depth_rejected(self, circle_points):
        c = vr_complex(circle_points(QUAD), 0.3, 1)
        if not c.is_full:
            with pytest.raises(ValueError):
                betti(c, 1)
        # a complex truncated at dim 1 can never support betti(2)
        dense = vr_complex(circle_points([0, 0.01, 0.02, 0.03]), 0.5, 1)
        with pytest.raises(ValueError):
            betti(dense, 1)


class TestEuler:
    def test_four_cycle(self, circle_points):
        assert euler_characteristic(four_cycle(circle_points)) == 0

    def test_full_simplex_is_contractible(self, circle_points):
        for n in (2, 3, 5, 7):
            c = vr_complex(circle_points(np.linspace(0, 0.01, n)), 0.5)
            assert euler_characteristic(c) == 1

    def test_edgeless(self, circle_points):
        c = vr_complex(circle_points([0, 0.2, 0.4, 0.6, 0.8]), 0.0)
        assert euler_characteristic(c) == 5

    def test_truncated_rejected(self, circle_points):
        c = vr_complex(circle_points(np.linspace(0, 0.02, 5)), 0.5, 2)
        assert not c.is_full
        with pytest.raises(ValueError):
            euler_characteristic(c)


class TestBruteForceOracle:
    def test_four_cycle(self, circle_points):
        assert betti_oracle_bruteforce(four_cycle(circle_points), 1) == 1

    def test_single_vertex(self):
        c = SimplicialComplex(1, {0: [(0,)]}, -1)
        assert betti_oracle_bruteforce(c, 0) == 1

    def test_size_limit(self, circle_points):
        c = vr_complex(circle_points(np.linspace(0, 0.05, 15)), 0.5)
        assert c.simplex_count() == 2**15 - 1
        with pytest.raises(SimplexBudgetError):
            betti_oracle_bruteforce(c, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.floats(0.02, 0.45))
    def test_agrees_with_fast_path(self, n, seed, t):
        c = vr_complex(sample(circle(), n, seed, 0), t)
        for i in (0, 1, 2):
            assert betti(c, i) == betti_oracle_bruteforce(c, i)


class TestStructuralProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.floats(0.02, 0.5))
    def test_euler_poincare(self, n, seed, t):
        c = vr_complex(sample(circle(), n, seed, 0), t)
        chi = euler_characteristic(c)
        assert chi == sum((-1) ** i * betti(c, i) for i in range(c.dimension + 1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.floats(0.02, 0.5))
    def test_b0_equals_union_find_components(self, n, seed, t):
        c = vr_complex(sample(circle(), n, seed, 0), t)
        assert betti(c, 0) == connected_components(c)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2**32 - 1), st.floats(0.02, 0.5))
    def test_growth_bound(self, n, seed, t):
        c = vr_complex(sample(circle(), n, seed, 0), t)
        total = c.simplex_count()
        for inv in (euler_invariant(), betti_invariant(0), betti_invariant(1)):
            assert abs(inv.evaluate(c)) <= total


class TestInvariantSpec:
    def test_kinds(self):
        assert betti_invariant(1).describe() == "betti1"
        assert euler_invariant().describe() == "euler"
        with pytest.raises(ValueError):
            betti_invariant(-1)

    def test_evaluate_dispatch(self, circle_points):
        c = four_cycle(circle_points)
        assert betti_invariant(1).evaluate(c) == 1
        assert euler_invariant().evaluate(c) == 0
