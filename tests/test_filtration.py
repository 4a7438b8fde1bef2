"""The one-filtration-per-trial path against the per-scale reference path.

Every curve read off a filtration must equal, value for value, the invariant
of the complex that ``vr_complex`` or ``cech_complex_circle`` builds at each
grid scale, which ``betti`` and ``euler_characteristic`` then evaluate.
"""

import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticurve.complexes import (DEFAULT_SIMPLEX_BUDGET, _clique_polynomial, _filtration,
                                  cech_complex_circle, cech_filtration_circle,
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
    @given(cases(max_n=7), st.integers(0, 3), st.sampled_from([0, 1, 2, 6]))
    def test_max_dim_above_needed(self, case, k, extra):
        # building (and counting) dimensions the Betti number never reads
        # must not change it; with n <= 7 an extra depth of 6 cuts nothing off.
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
        f = vr_filtration(s, grid, 2)
        assert [f.counts[1][k] for k in range(3)] == [0, 4, 2]
        # a b1 build stores no triangle and indexes them by block: by longest
        # edge, then by bitmask; each diagonal's block is its two triangles
        def longest(t):
            return max(f.edges.index(e) for e in combinations(t, 2))
        triangles = sorted(combinations(range(4), 3),
                           key=lambda t: (longest(t), sum(1 << v for v in t)))

        def index(t):  # its block's offset plus the rank of its third vertex there
            r = longest(t)
            third = sum(1 << v for v in t) ^ f.keys[1][r]
            return f.offsets[r] + (f.first[r] & (third - 1)).bit_count()
        assert len(f.keys) == 2 and [index(t) for t in triangles] == [0, 1, 2, 3]
        assert f.first[4:] == [0b1010, 0b0101] and f.offsets == [0, 0, 0, 0, 0, 2]
        # a deeper build stores its triangles in that order, and has no index
        deep = vr_filtration(s, grid, 3)
        assert deep.keys[2] == [sum(1 << v for v in t) for t in triangles]
        assert deep.keys[3] == [0b1111] and deep.first == deep.offsets == []
        cech = cech_filtration_circle(s, grid, 3)
        assert cech.first == cech.offsets == []
        assert betti_curve(f, 0) == [4, 1, 1]
        assert betti_curve(f, 1) == betti_curve(deep, 1) == [0, 1, 0]
        assert betti_curve(deep, 2) == [0, 0, 0]
        assert euler_curve(vr_filtration(s, grid)) == [4, 0, 1]

    @settings(max_examples=40, deadline=None)
    @given(cases(max_n=9))
    def test_apparent_pairs(self, case):
        # by brute force from the distances: every edge p with a triangle in
        # its block pairs with index offsets[p], which is p's earliest
        # cofacet and has p as its latest facet
        s, grid = case
        f = vr_filtration(s, grid, 2)
        dist = pairwise_distances(s)
        edges = [e for e in combinations(range(len(s)), 2) if dist[e] <= grid[-1]]
        assert sorted(f.edges) == edges
        position = {e: p for p, e in enumerate(f.edges)}
        # the filtration order of the triangles: by latest facet, then bitmask
        triangles = sorted((max(position[e] for e in combinations(t, 2)), sum(1 << v for v in t))
                           for t in combinations(range(len(s)), 3)
                           if all(e in position for e in combinations(t, 2)))
        assert sum(f.counts[2]) == len(triangles)
        # which is the order a deeper build stores them in
        assert vr_filtration(s, grid, 3).keys[2] == [key for _, key in triangles]
        for p, edge in enumerate(f.keys[1]):
            cofacets = [q for q, (_, key) in enumerate(triangles) if key & edge == edge]
            block = [key ^ edge for latest, key in triangles if latest == p]
            assert f.first[p] == sum(block)
            if block:
                q = f.offsets[p]
                assert q == min(cofacets) and triangles[q][0] == p

    def test_steps_are_filtration_order(self):
        s = sample(flat_torus(2), 12, 5, 0)
        grid = [0.2, 0.3, 0.4]
        assert len(vr_filtration(s, grid, 2).keys) == 2  # triangles are only counted
        f = vr_filtration(s, grid, 3)
        assert len(f.keys) == 4 and sum(f.counts[3]) > 0  # dimension 3 is stored
        for dim in (1, 2, 3):
            assert f.steps[dim] == sorted(f.steps[dim])
            assert len(f.steps[dim]) == sum(f.counts[dim])


def cross_polytope(m):
    """The full filtration, at the one scale 1, of 2m vertices with every pair
    adjacent except v and v + m: the boundary of the m-dimensional
    cross-polytope, a sphere S^(m-1)."""
    dist = np.ones((2 * m, 2 * m))
    np.fill_diagonal(dist, 0.0)
    for v in range(m):
        dist[v, v + m] = dist[v + m, v] = 2.0
    return _filtration(2 * m, dist, lambda d: np.searchsorted([1.0], d, side="left"),
                       (1.0,), -1, DEFAULT_SIMPLEX_BUDGET)


class TestCliqueCounts:
    # A full Vietoris-Rips filtration counts its simplices above the edges
    # without listing them; vr_complex lists them.

    @settings(max_examples=100, deadline=None)
    @given(cases(max_n=10))
    def test_full_counts_equal_per_scale(self, case):
        s, grid = case
        f = vr_filtration(s, grid)
        dist = pairwise_distances(s)
        for step, t in enumerate(grid):
            c = vr_complex(s, t, dist=dist)
            assert c.dimension < len(f.counts)
            assert [sum(counts[:step + 1]) for counts in f.counts] == \
                [len(c.simplices(d)) for d in range(len(f.counts))]

    @pytest.mark.parametrize("m", range(1, 15))
    def test_cross_polytope(self, m):
        # f_d = 2^(d+1) C(m, d+1).  The edges arrive in lexicographic order,
        # so the last blocks are cross-polytopes on up to 2m - 4 vertices, with
        # no cone and coefficients 2^j C(m - 2, j), all packed in one int.
        f = cross_polytope(m)
        assert [sum(c) for c in f.counts if any(c)] == \
            [2 ** (d + 1) * math.comb(m, d + 1) for d in range(m)]
        assert euler_curve(f) == [1 + (-1) ** (m - 1)]

    def test_limit(self):
        # the clique polynomial of a cross-polytope on 12 vertices is
        # (1 + 2x)^6; stopped early, the part returned counts more cliques
        # than the limit
        k, n = 6, 12
        nbr = [((1 << n) - 1) ^ (1 << v) ^ (1 << (v + k) % n) for v in range(n)]
        w = n + 1
        exact = (1 + 2 * (1 << w)) ** k
        for limit in range(-1, 3 ** k + 1, 7):
            got = _clique_polynomial((1 << n) - 1, nbr, 1 << w, limit)
            cliques = sum((got >> (w * j)) & ((1 << w) - 1) for j in range(k + 1))
            assert got == exact or cliques > limit
        assert _clique_polynomial((1 << n) - 1, nbr, 1 << w, 3 ** k) == exact

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_budget_parity_dense_block(self, offset):
        # nearly every pair of 18 circle points is within 0.45
        s = sample(circle(), 18, 0, 0)
        size = vr_complex(s, 0.45).simplex_count()
        assert size > 30_000  # 142 of the 153 pairs are edges
        if offset < 0:
            with pytest.raises(SimplexBudgetError):
                vr_filtration(s, [0.45], budget=size + offset)
        else:
            assert sum(map(sum, vr_filtration(s, [0.45], budget=size).counts)) == size


class TestChainedReductions:
    # At these sizes an edge column is reduced through a long chain of
    # apparent columns, which the hypothesis cases (n <= 9) rarely reach.

    @pytest.mark.parametrize("seed", range(5))
    def test_circle_b1_on_benchmark_grid(self, seed):
        s = sample(circle(), 50, seed, 0)
        grid = np.linspace(0.02, 0.32, 16).tolist()
        curve = filtration_curve(s, grid, betti_invariant(1), 2)
        assert curve == reference_curve(s, grid, betti_invariant(1), 2)
        assert 1 in curve

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k", [1, 2])
    def test_torus(self, k, seed):
        s = sample(flat_torus(2), 25, seed, 0)
        grid = np.linspace(0.1, 0.45, 8).tolist()
        invariant = betti_invariant(k)
        curve = filtration_curve(s, grid, invariant, k + 1)
        assert curve == reference_curve(s, grid, invariant, k + 1)
        assert any(curve)

    def test_circle_b3(self):
        # on (1/3, 2/5) the Vietoris-Rips complex of the whole circle is an
        # S^3, and so is that of a dense enough sample
        grid = np.linspace(0.34, 0.39, 4).tolist()
        curves = []
        for seed in range(3):
            s = sample(circle(), 30, seed, 0)
            curve = filtration_curve(s, grid, betti_invariant(3), 4)
            assert curve == reference_curve(s, grid, betti_invariant(3), 4)
            curves.append(curve)
        assert any(map(any, curves))

    def test_index_fault_raises(self):
        # a phantom third vertex below each block's earliest shifts its ranks
        # up by one, so apparent edges are paired with pivots their columns
        # lack: reducing against such a column would never end
        s = sample(circle(), 50, 0, 0)
        f = vr_filtration(s, np.linspace(0.02, 0.32, 16).tolist(), 2)
        bad = dataclasses.replace(f, first=[x | (x & -x) >> 1 for x in f.first])
        with pytest.raises(RuntimeError, match="cofacet index fault"):
            betti_curve(bad, 1)


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
        for max_dim in (0, -2, "2", "full"):
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
