"""The one-filtration-per-trial path against the per-scale reference path.

Every curve read off a filtration must equal, value for value, the invariant
of the complex that ``vr_complex`` or ``cech_complex_circle`` builds at each
grid scale, which ``betti`` and ``euler_characteristic`` then evaluate.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticurve.complexes import (cech_complex_circle, cech_filtration_circle,
                                  vr_complex, vr_filtration)
from betticurve.errors import SimplexBudgetError, UnsupportedDomainError
from betticurve.estimator import CECH, estimate_curve
from betticurve.homology import betti_curve, betti_invariant, euler_curve, euler_invariant
from betticurve.manifolds import circle, flat_torus, pairwise_distances, sample, sphere2

MANIFOLDS = {"circle": circle(), "torus": flat_torus(2), "sphere": sphere2()}
INVARIANTS = [betti_invariant(0), betti_invariant(1), betti_invariant(2), euler_invariant()]


def reference_curve(s, grid, invariant, max_dim, kind="vr", budget=10_000_000):
    if kind == "vr":
        dist = pairwise_distances(s)
        return [invariant.evaluate(vr_complex(s, t, max_dim, dist=dist, budget=budget))
                for t in grid]
    return [invariant.evaluate(cech_complex_circle(s, t, max_dim, budget=budget))
            for t in grid]


def filtration_curve(s, grid, invariant, max_dim, kind="vr", budget=10_000_000):
    build = vr_filtration if kind == "vr" else cech_filtration_circle
    return invariant.curve(build(s, grid, max_dim, budget=budget))


def arc_scales(s):
    """The scales (1 - largest gap) / 2 at which circle triples and
    quadruples enter the Cech filtration, computed as cech_filtration_circle
    does."""
    pts = s.points.tolist()
    out = []
    for size in (3, 4):
        for simplex in combinations(range(len(pts)), size):
            p = sorted(pts[v] for v in simplex)
            gmax = max([1.0 - p[-1] + p[0]] + [b - a for a, b in zip(p, p[1:])])
            out.append((1.0 - gmax) / 2.0)
    return out


@st.composite
def cases(draw, kinds=("circle", "torus", "sphere"), max_n=8):
    """A sample and a grid mixing random scales with exact boundary scales:
    pairwise distances, where the closed VR condition d <= t flips."""
    manifold = MANIFOLDS[draw(st.sampled_from(kinds))]
    n = draw(st.integers(1, max_n))
    s = sample(manifold, n, draw(st.integers(0, 2**32 - 1)), 0)
    dist = pairwise_distances(s)
    exact = sorted(set(dist[np.triu_indices(n, k=1)].tolist()))
    picked = draw(st.lists(st.sampled_from(exact), max_size=4)) if exact else []
    free = draw(st.lists(st.floats(0.0, manifold.diameter), min_size=1, max_size=5))
    if draw(st.booleans()):
        free.append(0.0)
    return s, sorted(set(picked + free))


class TestVietorisRipsEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(cases(), st.sampled_from(INVARIANTS))
    def test_curve_equals_per_scale_invariant(self, case, invariant):
        s, grid = case
        md = invariant.max_dim
        assert filtration_curve(s, grid, invariant, md) == \
            reference_curve(s, grid, invariant, md)

    @settings(max_examples=60, deadline=None)
    @given(cases(max_n=7), st.integers(0, 2), st.sampled_from([1, 2, 6]))
    def test_max_dim_above_needed(self, case, k, extra):
        # building (and counting) dimensions the Betti number never reads
        # must not change it; with n <= 7 an extra depth of 6 cuts nothing off
        s, grid = case
        md = k + 1 + extra
        invariant = betti_invariant(k)
        assert filtration_curve(s, grid, invariant, md) == \
            reference_curve(s, grid, invariant, md)

    @settings(max_examples=80, deadline=None)
    @given(cases(max_n=7), st.sampled_from(INVARIANTS), st.integers(-2, 1))
    def test_budget_parity(self, case, invariant, offset):
        # the error is raised iff the complex at max(grid) exceeds the budget,
        # which is iff some per-scale build on the grid raises
        s, grid = case
        md = invariant.max_dim
        size = vr_complex(s, grid[-1], md).simplex_count()
        budget = max(1, size + offset)

        def raises(curve):
            try:
                curve(s, grid, invariant, md, budget=budget)
            except SimplexBudgetError as exc:
                assert exc.budget == budget
                return True
            return False

        assert raises(filtration_curve) == raises(reference_curve) == (size > budget)

    @pytest.mark.parametrize("invariant", INVARIANTS, ids=lambda inv: inv.describe())
    def test_budget_boundary(self, invariant):
        # budgets one below and exactly at the size of a complex with
        # simplices of every built dimension
        s = sample(flat_torus(2), 9, 17, 0)
        grid = [0.1, 0.3, 0.45]
        md = invariant.max_dim
        size = vr_complex(s, grid[-1], md).simplex_count()
        assert vr_complex(s, grid[-1]).dimension >= 3
        with pytest.raises(SimplexBudgetError):
            filtration_curve(s, grid, invariant, md, budget=size - 1)
        assert filtration_curve(s, grid, invariant, md, budget=size) == \
            reference_curve(s, grid, invariant, md)

    def test_zero_scale_with_coincident_points(self, circle_points):
        # at t = 0 the closed condition keeps exactly the coincident pairs
        s = circle_points([0.1, 0.1, 0.1, 0.6])
        grid = [0.0, 0.5]
        for invariant in INVARIANTS:
            md = invariant.max_dim
            assert filtration_curve(s, grid, invariant, md) == \
                reference_curve(s, grid, invariant, md)
        assert betti_curve(vr_filtration(s, grid), 0) == [2, 1]

    def test_four_cycle_curve(self, circle_points):
        s = circle_points([0, 0.25, 0.5, 0.75])
        grid = [0.1, 0.25, 0.5]
        f = vr_filtration(s, grid, 3)
        assert [f.counts[1][k] for k in range(3)] == [0, 4, 2]
        assert f.apparent == {4: 0, 5: 2}  # each diagonal and its first triangle
        assert cech_filtration_circle(s, grid, 3).apparent == {}
        assert betti_curve(f, 0) == [4, 1, 1]
        assert betti_curve(f, 1) == [0, 1, 0]
        assert betti_curve(f, 2) == [0, 0, 0]
        assert euler_curve(vr_filtration(s, grid)) == [4, 0, 1]

    @settings(max_examples=40, deadline=None)
    @given(cases(max_n=9))
    def test_apparent_pairs(self, case):
        # each hint q for edge p: q is p's earliest cofacet and p is q's
        # latest facet
        s, grid = case
        f = vr_filtration(s, grid, 2)
        for p, q in f.apparent.items():
            edge = f.keys[1][p]
            assert q == min(r for r, t in enumerate(f.keys[2]) if t & edge == edge)
            triangle = f.keys[2][q]
            facets = [f.keys[1].index(triangle ^ (1 << v))
                      for v in range(len(s)) if triangle >> v & 1]
            assert max(facets) == p

    def test_steps_are_filtration_order(self):
        s = sample(flat_torus(2), 12, 5, 0)
        f = vr_filtration(s, [0.2, 0.3, 0.4], 3)
        for dim in (1, 2, 3):
            assert f.steps[dim] == sorted(f.steps[dim])
            assert len(f.steps[dim]) == sum(f.counts[dim])


class TestCechEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(cases(kinds=("circle",)), st.sampled_from(INVARIANTS), st.data())
    def test_curve_equals_per_scale_invariant(self, case, invariant, data):
        # open conditions: an edge enters above d / 2 and a larger simplex
        # above its minimax distance, so both kinds of boundary go on the grid
        s, grid = case
        halves = [d / 2.0 for d in grid]
        arcs = arc_scales(s)
        extra = data.draw(st.lists(st.sampled_from(arcs), max_size=3)) if arcs else []
        grid = sorted({t for t in grid + halves + extra if t > 0}) or [0.1]
        md = invariant.max_dim
        assert filtration_curve(s, grid, invariant, md, "cech") == \
            reference_curve(s, grid, invariant, md, "cech")

    def test_zero_scale_rejected(self):
        s = sample(circle(), 5, 3, 0)
        with pytest.raises(ValueError):
            cech_filtration_circle(s, [0.0, 0.1])
        with pytest.raises(ValueError):
            estimate_curve(circle(), CECH, betti_invariant(1), 5, [0.0, 0.1], 4, 3)

    def test_wrong_manifold_rejected(self):
        with pytest.raises(UnsupportedDomainError):
            cech_filtration_circle(sample(sphere2(), 4, 1, 0), [0.3])


class TestValidation:
    def test_grid_checks(self):
        s = sample(circle(), 4, 0, 0)
        for grid in ([], [0.2, 0.1], [0.1, 0.1], [-0.1, 0.2], [float("nan")],
                     [0.1, float("nan")], [float("inf")], [0.1, float("inf")]):
            with pytest.raises(ValueError):
                vr_filtration(s, grid)
            with pytest.raises(ValueError):
                cech_filtration_circle(s, grid)

    def test_max_dim_bounds(self):
        s = sample(circle(), 4, 0, 0)
        for max_dim in (0, -2, "2"):
            with pytest.raises(ValueError):
                vr_filtration(s, [0.1], max_dim)
            with pytest.raises(ValueError):
                cech_filtration_circle(s, [0.1], max_dim)

    def test_curves_need_enough_kept(self):
        s = sample(circle(), 6, 0, 0)
        with pytest.raises(ValueError):
            betti_curve(vr_filtration(s, [0.1], 1), 1)
        with pytest.raises(ValueError):
            betti_curve(vr_filtration(s, [0.1]), 1)  # a full one keeps only edges
        with pytest.raises(ValueError):
            euler_curve(vr_filtration(s, [0.1], 2))
