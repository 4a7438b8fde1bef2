import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticurve.complexes import cech_complex_circle, edge_count, vr_complex
from betticurve.errors import SimplexBudgetError, UnsupportedDomainError
from betticurve.manifolds import circle, pairwise_distances, sample, sphere2
from conftest import brute_force_vr_simplices, check_downward_closure

QUAD = [0, 0.25, 0.5, 0.75]


class TestVietorisRips:
    def test_four_cycle(self, circle_points):
        c = vr_complex(circle_points(QUAD), 0.3, 2)
        assert c.num_vertices == 4
        assert len(c.simplices(1)) == 4
        assert len(c.simplices(2)) == 0
        # independent oracle over all subsets
        dist = pairwise_distances(circle_points(QUAD))
        assert c.as_simplex_set() == brute_force_vr_simplices(dist, 0.3)

    def test_zero_scale_distinct_points(self, circle_points):
        c = vr_complex(circle_points([0, 0.2, 0.7]), 0.0)
        assert c.as_simplex_set() == {(0,), (1,), (2,)}
        assert c.is_full

    def test_close_triple_gives_triangle(self, circle_points):
        c = vr_complex(circle_points([0, 0.05, 0.1]), 0.2)
        assert (0, 1, 2) in c.simplices(2)

    def test_closed_edge_condition(self, circle_points):
        # distance exactly t creates the edge
        c = vr_complex(circle_points([0, 0.25]), 0.25)
        assert (0, 1) in c.simplices(1)

    def test_negative_scale_rejected(self, circle_points):
        with pytest.raises(ValueError):
            vr_complex(circle_points([0, 0.5]), -0.1)

    def test_budget_error_names_budget(self, circle_points):
        s = circle_points(np.linspace(0, 0.05, 12))
        with pytest.raises(SimplexBudgetError, match="100"):
            vr_complex(s, 0.4, budget=100)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.floats(0.01, 0.6))
    def test_full_matches_subset_oracle(self, n, seed, t):
        s = sample(circle(), n, seed, 0)
        c = vr_complex(s, t)
        assert c.as_simplex_set() == brute_force_vr_simplices(pairwise_distances(s), t)
        check_downward_closure(c)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2**32 - 1),
           st.floats(0.01, 0.5), st.floats(0.01, 0.5))
    def test_monotone_in_scale(self, n, seed, t1, t2):
        t1, t2 = sorted((t1, t2))
        s = sample(circle(), n, seed, 0)
        assert vr_complex(s, t1, 3).as_simplex_set() <= vr_complex(s, t2, 3).as_simplex_set()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 2**32 - 1), st.floats(0.0, 0.5))
    def test_one_skeleton_matches_edge_count(self, n, seed, t):
        s = sample(circle(), n, seed, 0)
        assert len(vr_complex(s, t, 1).simplices(1)) == edge_count(s, t)

    def test_truncation_flag(self, circle_points):
        s = circle_points([0, 0.02, 0.04, 0.06])
        truncated = vr_complex(s, 0.5, 1)
        assert not truncated.is_full and truncated.max_dim_built == 1
        assert vr_complex(s, 0.5).is_full


def cech_oracle_contains(s, simplex, t):
    """Independent witness search for a common point of the open arcs.

    The minimax point over the simplex lies at the midpoint of the complement
    of some circular gap, so trying every gap midpoint and its antipode (plus
    the sample points) is exhaustive.
    """
    pts = np.sort(s.points[list(simplex)])
    gaps = np.append(np.diff(pts), 1.0 - pts[-1] + pts[0])
    mids = [(p + g / 2.0) % 1.0 for p, g in zip(pts, gaps)]
    witnesses = mids + [(m + 0.5) % 1.0 for m in mids] + list(pts)
    return any(
        all(min(abs(w - p), 1 - abs(w - p)) < t for p in pts)
        for w in witnesses)


class TestCechCircle:
    def test_edge_present(self, circle_points):
        assert (0, 1) in cech_complex_circle(circle_points([0, 0.5]), 0.3).simplices(1)

    def test_open_balls_boundary_case(self, circle_points):
        assert (0, 1) not in cech_complex_circle(circle_points([0, 0.5]), 0.25).simplices(1)

    def test_triple_with_witness(self, circle_points):
        c = cech_complex_circle(circle_points([0, 0.1, 0.2]), 0.11)
        assert (0, 1, 2) in c.simplices(2)

    def test_equilateral_triple_needs_large_scale(self, circle_points):
        thirds = circle_points([0, 1 / 3, 2 / 3])
        assert (0, 1, 2) not in cech_complex_circle(thirds, 0.3).simplices(2)
        assert (0, 1, 2) in cech_complex_circle(thirds, 0.34).simplices(2)

    def test_wrong_manifold_rejected(self):
        with pytest.raises(UnsupportedDomainError):
            cech_complex_circle(sample(sphere2(), 4, 1, 0), 0.3)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2**32 - 1), st.floats(0.02, 0.45))
    def test_matches_witness_oracle(self, n, seed, t):
        from itertools import combinations
        s = sample(circle(), n, seed, 0)
        c = cech_complex_circle(s, t)
        check_downward_closure(c)
        got = c.as_simplex_set()
        for size in range(2, n + 1):
            for simplex in combinations(range(n), size):
                assert (simplex in got) == cech_oracle_contains(s, simplex, t)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.floats(0.03, 0.3))
    def test_interleaving_with_vr(self, n, seed, r):
        # Cech(r) <= VR(2r) <= Cech(2r + eps)
        s = sample(circle(), n, seed, 0)
        cech = cech_complex_circle(s, r).as_simplex_set()
        vr = vr_complex(s, 2 * r).as_simplex_set()
        assert cech <= vr
        assert vr <= cech_complex_circle(s, 2 * r + 1e-9).as_simplex_set()


class TestEdgeCount:
    def test_edge_count_examples(self, circle_points):
        s = circle_points([0, 0.25, 0.5])
        assert edge_count(s, 0.25) == 2
        assert edge_count(s, 0.6) == 3
        assert edge_count(circle_points([0, 0.2, 0.7]), 0.0) == 0
