"""The one-filtration-per-trial path against the per-scale reference path.

Every curve read off a filtration must equal, value for value, the invariant
of the complex that ``vr_complex`` or ``cech_complex_circle`` builds at each
grid scale, which ``betti`` and ``euler_characteristic`` then evaluate.
"""

import dataclasses
import math
from functools import partial
from itertools import accumulate, combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticurve import complexes, homology
from betticurve.complexes import (DEFAULT_SIMPLEX_BUDGET, _clique_sum, _core_filtration,
                                  _euler_curve, _iter_bits, _sorted_pairs, _strong_collapse,
                                  cech_complex_circle, cech_filtration_circle, vr_complex,
                                  vr_core_filtration, vr_euler_curve, vr_filtration)
from betticurve.errors import SimplexBudgetError, UnsupportedDomainError
from betticurve.estimator import CECH, VR, estimate_curve, sample_curve
from betticurve.homology import (betti_curve, betti_invariant, betti_oracle_bruteforce,
                                 euler_characteristic, euler_curve, euler_invariant)
from betticurve.manifolds import (PointSample, circle, flat_torus, pair_distances,
                                  pairwise_distances, sample, sphere2)

MANIFOLDS = {"circle": circle(), "torus": flat_torus(2), "sphere": sphere2()}
DIAMETERS = {"circle": 0.5, "torus": math.sqrt(2) / 2, "sphere": math.pi}
INVARIANTS = [betti_invariant(0), betti_invariant(1), betti_invariant(2), euler_invariant()]


def reference_curve(s, grid, invariant, max_dim, kind="vr", budget=10_000_000):
    if kind == "vr":
        dist = pairwise_distances(s)
        return [invariant.evaluate(vr_complex(s, t, max_dim, dist=dist, budget=budget))
                for t in grid]
    return [invariant.evaluate(cech_complex_circle(s, t, max_dim, budget=budget))
            for t in grid]


def filtration_curve(s, grid, invariant, max_dim, kind="vr", budget=10_000_000):
    if kind == "vr" and invariant.kind == "euler":  # signed clique sums, no filtration
        return vr_euler_curve(s, grid, budget=budget)
    build = vr_filtration if kind == "vr" else cech_filtration_circle
    f = build(s, grid, max_dim, budget=budget)
    return euler_curve(f) if invariant.kind == "euler" else betti_curve(f, invariant.dim)


def core_curve(s, t, invariant, max_dim, budget=10_000_000):
    return betti_curve(vr_core_filtration(s, t, max_dim, budget=budget), invariant.dim)


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
    """A sample and a grid mixing random scales, up to past the diameter,
    with exact boundary scales: pairwise distances, where the closed VR
    condition d <= t flips."""
    kind = draw(st.sampled_from(kinds))
    manifold = MANIFOLDS[kind]
    n = draw(st.integers(1, max_n))
    s = sample(manifold, n, draw(st.integers(0, 2**32 - 1)), 0)
    dist = pairwise_distances(s)
    exact = sorted(set(dist[np.triu_indices(n, k=1)].tolist()))
    picked = draw(st.lists(st.sampled_from(exact), max_size=4)) if exact else []
    free = draw(st.lists(st.floats(0.0, 1.5 * DIAMETERS[kind]), min_size=1, max_size=5))
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

        def raises(curve, grid=grid):
            try:
                curve(s, grid, invariant, md, budget=budget)
            except SimplexBudgetError as exc:
                assert exc.budget == budget
                return True
            return False

        assert raises(filtration_curve) == raises(reference_curve) == (size > budget)
        # the core's budget counts the whole complex; a core is built for a
        # Betti number only
        if invariant.kind == "betti":
            assert raises(core_curve, grid[-1]) == (size > budget)

    @pytest.mark.parametrize("invariant", INVARIANTS, ids=["betti0", "betti1", "betti2", "euler"])
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
        assert betti_curve(vr_filtration(s, grid, 1), 0) == [2, 1]

    def test_four_cycle_curve(self, circle_points):
        s = circle_points([0, 0.25, 0.5, 0.75])
        grid = [0.1, 0.25, 0.5]
        f = vr_filtration(s, grid, 2)
        assert [f.counts[1][k] for k in range(3)] == [0, 4, 2]
        assert f.counts[2] == [0, 0, 4]
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
        # a deeper build stores its triangles in that order, with the same
        # index; a circle Cech build has none
        deep = vr_filtration(s, grid, 3)
        assert deep.keys[2] == [sum(1 << v for v in t) for t in triangles]
        assert deep.keys[3] == [0b1111] and (deep.first, deep.offsets) == (f.first, f.offsets)
        cech = cech_filtration_circle(s, grid, 3)
        assert cech.first == cech.offsets == []
        assert betti_curve(f, 0) == [4, 1, 1]
        assert betti_curve(f, 1) == betti_curve(deep, 1) == [0, 1, 0]
        assert betti_curve(deep, 2) == [0, 0, 0]
        assert vr_euler_curve(s, grid) == [4, 0, 1]

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

    @settings(max_examples=80, deadline=None)
    @given(cases(max_n=12))
    def test_one_index_at_every_depth(self, case):
        # the Vietoris-Rips builds to depths 2, 3 and 4, and the one-scale
        # cores, have the block index, the same at every depth; a stored build
        # files the earliest triangle of block p at row offsets[p].  The b0
        # build has none.
        s, grid = case
        builds = [vr_filtration(s, grid, depth) for depth in (2, 3, 4)]
        for f in builds + [vr_core_filtration(s, grid[-1], depth) for depth in (2, 3)]:
            assert len(f.first) == len(f.offsets) == len(f.edges)
        for f in builds[1:]:
            assert (f.first, f.offsets) == (builds[0].first, builds[0].offsets)
            assert f.counts[2] == builds[0].counts[2]  # walked, and read off the index
            for p, third in enumerate(f.first):
                if third:
                    assert f.keys[2][f.offsets[p]] == f.keys[1][p] | (third & -third)
        f = vr_filtration(s, grid, 1)
        assert f.first == f.offsets == []

    def test_steps_are_filtration_order(self):
        s = sample(flat_torus(2), 12, 5, 0)
        grid = [0.2, 0.3, 0.4]
        assert len(vr_filtration(s, grid, 2).keys) == 2  # triangles are only counted
        f = vr_filtration(s, grid, 3)
        assert len(f.keys) == 4 and sum(f.counts[3]) > 0  # dimension 3 is stored
        circle_sample = sample(circle(), 12, 5, 0)
        for built, per_scale in ((f, lambda t: vr_complex(s, t, 3)),
                                 (cech_filtration_circle(circle_sample, grid, 3),
                                  lambda t: cech_complex_circle(circle_sample, t, 3))):
            for dim in (1, 2, 3):
                assert len(built.keys[dim]) == sum(built.counts[dim])
                # the kept keys up to each step's end, by counts, are that step's complex
                for step, end in enumerate(accumulate(built.counts[dim])):
                    want = [sum(1 << v for v in x) for x in per_scale(grid[step]).simplices(dim)]
                    assert sorted(built.keys[dim][:end]) == sorted(want)


def dense_sorted_pairs(dist, scales, strict):
    """The pair search from the n x n distance matrix: every i < j pair
    within max(scales), by distance (ties in row order), and its step."""
    near = dist < scales[-1] if strict else dist <= scales[-1]
    iu, ju = np.nonzero(np.triu(near, 1))
    pair_dist = dist[iu, ju]
    order = np.argsort(pair_dist, kind="stable")
    steps = np.searchsorted(scales, pair_dist[order], side="right" if strict else "left")
    return iu[order].tolist(), ju[order].tolist(), steps.tolist()


PAIR_MANIFOLDS = {"circle": (circle(), 0.5), "torus2": (flat_torus(2), math.sqrt(2) / 2),
                  "torus3": (flat_torus(3), math.sqrt(3) / 2), "sphere": (sphere2(), math.pi)}


@st.composite
def pair_cases(draw):
    """A sample with coincident points and, on the sphere, a pair at Gram
    entry about 0.99 (either side of the chord patch), and a grid of random
    and exact scales that may end at an exact distance or, on the sphere,
    in (pi, 4]."""
    kind = draw(st.sampled_from(sorted(PAIR_MANIFOLDS)))
    manifold, diameter = PAIR_MANIFOLDS[kind]
    pts = sample(manifold, draw(st.integers(1, 10)), draw(st.integers(0, 2**32 - 1)), 0).points
    parts = [pts, pts[draw(st.lists(st.integers(0, len(pts) - 1), max_size=3))]]
    if kind == "sphere" and draw(st.booleans()):
        p = pts[0]
        u = np.cross(p, np.eye(3)[np.argmin(np.abs(p))])  # orthogonal to p, not 0
        g = 0.99 + draw(st.sampled_from([0.0, 1e-16, -1e-16, 1e-12, -1e-12, 1e-9, -1e-9]))
        q = g * p + math.sqrt(1.0 - g * g) * u / np.linalg.norm(u)
        parts.append(np.array([q / np.linalg.norm(q)]))
    s = PointSample(manifold, np.concatenate(parts))
    dist = pairwise_distances(s)
    exact = sorted(set(dist[np.triu_indices(len(s), k=1)].tolist()))
    grid = draw(st.lists(st.sampled_from(exact), max_size=3)) if exact else []
    grid += draw(st.lists(st.floats(0.0, 1.5 * diameter), min_size=1, max_size=4))
    if kind == "sphere" and draw(st.booleans()):
        grid.append(draw(st.floats(math.pi, 4.0, exclude_min=True)))
    grid = sorted(set(grid))
    if exact and draw(st.booleans()):
        end = draw(st.sampled_from(exact))
        grid = [t for t in grid if t < end] + [end]
    return s, dist, np.asarray(grid)


class TestPairSearch:
    @settings(max_examples=300, deadline=None)
    @given(pair_cases())
    def test_equals_the_dense_search(self, case):
        # the same pairs in the same order with the same steps, for both
        # entry rules, and every i < j pair's distance the matrix's float
        s, dist, scales = case
        for strict in (False, True):
            assert complexes._sorted_pairs(s, scales, strict) == \
                dense_sorted_pairs(dist, scales, strict)
        i, j = np.triu_indices(len(s), k=1)
        g = (s.points @ s.points.T)[i, j] if s.manifold == sphere2() else None
        assert [x.hex() for x in pair_distances(s, i, j, g).tolist()] == \
            [x.hex() for x in dist[i, j].tolist()]


class TestLipschitz:
    # The paper's first theorem, per sample: adding one d-simplex changes
    # b_d or b_(d-1) by one and no other Betti number, so from one grid step
    # to the next b_k moves by at most the k- and (k+1)-simplices entering.

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["vr", "cech"]), st.integers(0, 2), st.data())
    def test_steps_bounded_by_entering_simplices(self, kind, k, data):
        s, grid = data.draw(cases(kinds=("circle",) if kind == "cech" else tuple(MANIFOLDS),
                                  max_n=14))
        if kind == "vr":
            f = vr_filtration(s, grid, k + 1)
        else:
            f = cech_filtration_circle(s, [t for t in grid if t > 0] or [0.1], k + 1)
        curve = betti_curve(f, k)
        entering = [a + b for a, b in zip(f.counts[k], f.counts[k + 1])]
        assert 0 <= curve[0] <= f.counts[k][0]
        for step in range(1, len(curve)):
            assert abs(curve[step] - curve[step - 1]) <= entering[step]


def cross_polytope(m):
    """The graph of 2m vertices with every pair adjacent except v and v + m,
    whose clique complex is the boundary of the m-dimensional cross-polytope,
    a sphere S^(m-1), with 3^m - 1 simplices: its edges in lexicographic
    order, as the lists of their ends a < b, and its neighbourhoods."""
    edges = [(a, b) for a, b in combinations(range(2 * m), 2) if b != a + m]
    nbr = [((1 << 2 * m) - 1) ^ (1 << v) ^ (1 << (v + m) % (2 * m)) for v in range(2 * m)]
    return [a for a, _ in edges], [b for _, b in edges], nbr


def euler_bound(n, edge_i, edge_j):
    """n + sum 2^|C| over the blocks, C the common neighbourhood of each
    edge's ends on arrival: the bound that decides whether an Euler curve
    counts its simplices exactly."""
    nbr = [0] * n
    bound = n
    for i, j in zip(edge_i, edge_j):
        bound += 1 << (nbr[i] & nbr[j]).bit_count()
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return bound


def brute_clique_sum(cand, nbr, x):
    """The sum of x^|S| over the subsets S of cand that are cliques."""
    vertices = list(_iter_bits(cand))
    return sum(x ** size for size in range(len(vertices) + 1)
               for subset in combinations(vertices, size)
               if all(nbr[a] >> b & 1 for a, b in combinations(subset, 2)))


@st.composite
def graphs(draw):
    """Neighbourhoods of a graph on at most 10 vertices and a vertex subset
    C: a random graph with cones added at random, a cross-polytope (no cone)
    or a cycle (no cone past 3 vertices)."""
    kind = draw(st.sampled_from(["random", "cross-polytope", "cycle"]))
    if kind == "cross-polytope":
        nbr = cross_polytope(draw(st.integers(1, 5)))[2]
    elif kind == "cycle":
        n = draw(st.integers(3, 10))
        nbr = [1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)]
    else:
        n = draw(st.integers(1, 10))
        nbr = [0] * n
        cones = draw(st.lists(st.integers(0, n - 1), max_size=3))
        for a, b in combinations(range(n), 2):
            if a in cones or b in cones or draw(st.booleans()):
                nbr[a] |= 1 << b
                nbr[b] |= 1 << a
    everything = (1 << len(nbr)) - 1
    cand = everything if draw(st.booleans()) else draw(st.integers(0, everything))
    return cand, nbr


@st.composite
def edge_streams(draw):
    """A graph on up to 70 vertices (wider than a machine word), as edges
    that arrive in a random order at random nondecreasing steps: random
    edges, with cross-polytopes (whose last blocks have no cone) and cones
    over random vertex sets planted in it.  Returns n, the edges' ends,
    their steps and the number of steps."""
    n = draw(st.integers(1, 70) | st.integers(65, 70))
    vertex = st.integers(0, n - 1)
    pairs = set()

    def join(a, b):
        if a != b:
            pairs.add((min(a, b), max(a, b)))

    for a, b in draw(st.lists(st.tuples(vertex, vertex), max_size=80)):
        join(a, b)
    for _ in range(draw(st.integers(0, 2 if n >= 2 else 0))):
        m = draw(st.integers(1, min(4, n // 2)))
        poles = draw(st.lists(vertex, min_size=2 * m, max_size=2 * m, unique=True))
        for a, b in combinations(range(2 * m), 2):
            if b != a + m:
                join(poles[a], poles[b])
    for _ in range(draw(st.integers(0, 3))):
        apex = draw(vertex)
        for b in draw(st.lists(vertex, max_size=12)):
            join(apex, b)
    edges = draw(st.permutations(sorted(pairs)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips)]
    num_steps = draw(st.integers(1, 6))
    steps = draw(st.lists(st.integers(0, num_steps - 1), min_size=len(edges),
                          max_size=len(edges)))
    return n, edges, sorted(steps), num_steps


def brute_euler_curve(n, edges, steps, num_steps):
    """The Euler characteristic at each step of the flag complex of the
    graph, from its cliques listed level by level, each entering at the
    latest step of its edges, and the number of cliques."""
    step_of = {frozenset(e): s for e, s in zip(edges, steps)}
    adjacent = [set() for _ in range(n)]
    for a, b in edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    increments = [n] + [0] * (num_steps - 1)
    total, sign, level = n, 1, [(v,) for v in range(n)]
    while level:
        sign = -sign
        level = [c + (w,) for c in level for w in range(c[-1] + 1, n)
                 if all(w in adjacent[u] for u in c)]
        for c in level:
            increments[max(step_of[frozenset(e)] for e in combinations(c, 2))] += sign
        total += len(level)
    return list(accumulate(increments)), total


class TestCliqueCounts:
    # A Vietoris-Rips Euler curve sums each block's cliques with signs, and
    # counts them only when the bound n + sum 2^|C| passes the budget;
    # vr_complex lists them.

    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def test_clique_sum_is_brute_force(self, graph):
        cand, nbr = graph
        for x in (1, -1):
            assert _clique_sum(cand, nbr, x, math.inf) == brute_clique_sum(cand, nbr, x)

    @settings(max_examples=100, deadline=None)
    @given(cases(max_n=10), st.data())
    def test_euler_curve_equals_per_scale(self, case, data):
        # at the default budget, and at one between the exact total and the
        # bound, where the exact count runs and must not raise
        s, grid = case
        dist = pairwise_distances(s)
        want = [euler_characteristic(vr_complex(s, t, dist=dist)) for t in grid]
        size = vr_complex(s, grid[-1], dist=dist).simplex_count()
        bound = euler_bound(len(s), *_sorted_pairs(s, np.asarray(grid), False)[:2])
        assert bound >= size
        assert vr_euler_curve(s, grid) == want
        assert vr_euler_curve(s, grid, budget=data.draw(st.integers(size, bound))) == want

    @settings(max_examples=150, deadline=None)
    @given(edge_streams())
    def test_euler_curve_on_abstract_graphs(self, stream):
        # every step's value, and the budget decided at the exact total and
        # one below it, whether the bound passes it or not
        n, edges, steps, num_steps = stream
        want, total = brute_euler_curve(n, edges, steps, num_steps)
        curve = partial(_euler_curve, n, [a for a, _ in edges], [b for _, b in edges], steps,
                        num_steps)
        assert curve(DEFAULT_SIMPLEX_BUDGET) == curve(total) == want
        with pytest.raises(SimplexBudgetError):
            curve(total - 1)

    @pytest.mark.parametrize("m", range(1, 15))
    def test_cross_polytope(self, m):
        # chi = 1 + (-1)^(m-1) from 3^m - 1 simplices, with the budget at the
        # total and one below it.  The edges arrive in lexicographic order,
        # so the last blocks are cross-polytopes on up to 2m - 4 vertices,
        # with no cone.
        edge_i, edge_j, _ = cross_polytope(m)
        curve = partial(_euler_curve, 2 * m, edge_i, edge_j, [0] * len(edge_i), 1)
        size = 3 ** m - 1
        assert curve(DEFAULT_SIMPLEX_BUDGET) == curve(size) == [1 + (-1) ** (m - 1)]
        with pytest.raises(SimplexBudgetError):
            curve(size - 1)

    def test_limit(self):
        # the clique polynomial of a cross-polytope on 12 vertices is
        # (1 + 2x)^6; stopped early, the count returned is more than the
        # limit.  Its signed sum is 1.
        k = 6
        cand, nbr = (1 << 2 * k) - 1, cross_polytope(k)[2]
        for limit in range(-1, 3 ** k + 1, 7):
            got = _clique_sum(cand, nbr, 1, limit)
            assert got == 3 ** k or got > limit
        assert _clique_sum(cand, nbr, 1, 3 ** k) == 3 ** k
        assert _clique_sum(cand, nbr, -1, math.inf) == 1

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_budget_parity_dense_block(self, offset):
        # nearly every pair of 18 circle points is within 0.45
        s = sample(circle(), 18, 0, 0)
        complex_ = vr_complex(s, 0.45)
        size = complex_.simplex_count()
        assert size > 30_000  # 142 of the 153 pairs are edges
        if offset < 0:
            with pytest.raises(SimplexBudgetError):
                vr_euler_curve(s, [0.45], budget=size + offset)
        else:
            assert vr_euler_curve(s, [0.45], budget=size) == [euler_characteristic(complex_)]

    def test_exact_pass_only_past_the_bound(self, monkeypatch):
        # no count (x = 1) while the bound holds; past it, one count of the
        # complex at max(grid), each vertex's cliques above it (at most n
        # calls), all at the block where the bound passed, before that
        # block's signed sum (x = -1), and none after.  A signed sum is
        # called only for a block with |C| > 1 and no cone (a vertex of C
        # adjacent to the rest of C): a cone zeroes its block with no call
        calls = []

        def recording(cand, nbr, x, limit):
            calls.append((x, cand))
            return _clique_sum(cand, nbr, x, limit)

        def has_cone(cand, nbr):
            members = [v for v in range(len(nbr)) if cand >> v & 1]
            return any(all(nbr[v] >> w & 1 for w in members if w != v) for v in members)

        monkeypatch.setattr(complexes, "_clique_sum", recording)
        s = sample(circle(), 18, 0, 0)
        n = len(s)
        edge_i, edge_j, _ = _sorted_pairs(s, np.asarray([0.45]), False)
        bound = euler_bound(n, edge_i, edge_j)
        size = vr_complex(s, 0.45).simplex_count()
        assert size < bound - 1
        full = [0] * n
        for i, j in zip(edge_i, edge_j):
            full[i] |= 1 << j
            full[j] |= 1 << i
        want = vr_euler_curve(s, [0.45])
        for budget in (DEFAULT_SIMPLEX_BUDGET, bound, bound - 1, size, size - 1):
            signed, passed = [], None  # the signed sums in order; those before the bound passed
            coned = 0  # the blocks with |C| > 1 and a cone
            nbr, running = [0] * n, n
            for i, j in zip(edge_i, edge_j):
                cand = nbr[i] & nbr[j]
                running += 1 << cand.bit_count()
                if running > budget and passed is None:
                    passed = len(signed)
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
                if cand.bit_count() > 1:
                    if has_cone(cand, nbr):
                        coned += 1
                    else:
                        signed.append((-1, cand))
            assert signed and coned  # both kinds of block occur
            calls.clear()
            if budget < size:
                with pytest.raises(SimplexBudgetError):
                    vr_euler_curve(s, [0.45], budget=budget)
            else:
                assert vr_euler_curve(s, [0.45], budget=budget) == want
            counts = [call for call in calls if call[0] == 1]
            if passed is None:
                assert calls == signed
                continue
            assert 0 < len(counts) <= n
            assert counts == [(1, full[v] & -(2 << v)) for v in range(len(counts))]
            after = signed[passed:] if budget >= size else []
            assert calls == signed[:passed] + counts + after

    def test_octahedron_past_pi(self):
        # past pi the antipodes join too: the 5-simplex, 63 simplices, from
        # 15 edges.  The bound n + sum 2^|C| passes 58 at the 14th edge
        # (59), where the graph holds 47 simplices, so the count must take
        # in the 15th edge's 16 as well
        octahedron = PointSample(sphere2(), np.vstack([np.eye(3), -np.eye(3)]))
        grid = [math.pi / 2, 3.5]
        edge_i, edge_j, _ = _sorted_pairs(octahedron, np.asarray(grid), False)
        assert [euler_bound(6, edge_i[:k], edge_j[:k]) for k in (12, 13, 14, 15)] == \
            [27, 43, 59, 75]
        for budget in range(20, 80):  # raises iff the 63 simplices exceed it
            if budget < 63:
                with pytest.raises(SimplexBudgetError):
                    vr_euler_curve(octahedron, grid, budget=budget)
            else:
                assert vr_euler_curve(octahedron, grid, budget=budget) == [2, 1]


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
        # lack: reducing against such a column would never end (a torus b1
        # reduction reduces many columns; a circle one skips its lone column)
        s = sample(flat_torus(2), 60, 0, 0)
        f = vr_filtration(s, np.linspace(0.05, 0.25, 9).tolist(), 2)
        bad = dataclasses.replace(f, first=[x | (x & -x) >> 1 for x in f.first])
        with pytest.raises(RuntimeError, match="cofacet index fault"):
            betti_curve(bad, 1)

    def test_merged_cofacets_raise(self):
        # with every block's offset 0, cofacets of one edge from different
        # blocks share a row, where they would cancel
        s = sample(flat_torus(2), 60, 0, 0)
        f = vr_filtration(s, np.linspace(0.05, 0.25, 9).tolist(), 2)
        bad = dataclasses.replace(f, offsets=[0] * len(f.offsets))
        with pytest.raises(RuntimeError, match=r"cofacet index fault: the \d+ cofacets of edge"):
            betti_curve(bad, 1)


def reference_sweep(closed):
    """The one-scale core's first removals as a sweep: each vertex in index
    order goes if a vertex still left has a closed neighbourhood holding its
    own (``closed``, bitmasks).  Such a vertex is a neighbour, so only
    neighbours are checked."""
    left, removed = (1 << len(closed)) - 1, []
    for v, near in enumerate(closed):
        if any(closed[w] & near == near for w in _iter_bits(near & left) if w != v):
            left ^= 1 << v
            removed.append(v)
    return removed


def everyone(closed):
    """Every vertex of the graph, as a bitmask."""
    return (1 << len(closed)) - 1


def survivors(closed):
    """The vertices that the sweep leaves, as a bitmask."""
    return everyone(closed) - sum(1 << v for v in reference_sweep(closed))


def sweep_then_rounds(closed):
    """The vertices that the one-scale core removes, in order: the sweep's,
    then those that _strong_collapse's rounds remove from the survivors."""
    return reference_sweep(closed) + _strong_collapse(closed, survivors(closed))


def closed_rows(s, t):
    """The closed neighbourhoods of the sample's graph at scale t, as bitmasks."""
    near = pairwise_distances(s) <= t
    return [sum(1 << u for u in np.flatnonzero(row).tolist()) | 1 << v
            for v, row in enumerate(near)]


class TestOneScaleCore:
    # At one scale a Vietoris-Rips Betti number is read off the core that a
    # strong collapse leaves; Betti numbers are homotopy invariants, so it
    # must equal the whole complex's.

    @settings(max_examples=150, deadline=None)
    @given(cases(), st.integers(0, 2), st.data())
    def test_equals_per_scale_betti(self, case, k, data):
        s, grid = case
        grid = [data.draw(st.sampled_from(grid))]
        invariant = betti_invariant(k)
        curve = core_curve(s, grid[0], invariant, k + 1)
        assert curve == sample_curve(s, VR, invariant, grid)
        assert curve == filtration_curve(s, grid, invariant, k + 1) == \
            reference_curve(s, grid, invariant, k + 1)

    @staticmethod
    def check_collapse(nbhd, removed):
        """Every removed vertex is dominated when it goes, and none left is,
        for the closed neighbourhoods ``nbhd`` (sets): the vertices left."""
        left = set(range(len(nbhd)))

        def dominated(v):
            near = nbhd[v] & left
            return any(near <= nbhd[w] for w in left - {v})

        for v in removed:
            assert v in left and dominated(v)
            left.remove(v)
        assert left and not any(map(dominated, left))
        return left

    @settings(max_examples=100, deadline=None)
    @given(cases(max_n=8), st.data())
    def test_collapse_removes_dominated_vertices(self, case, data):
        # on both routes (the sweep and then rounds on the survivors, as the
        # one-scale core runs it, and rounds alone, as the last step's core
        # does) the collapse leaves no dominated vertex, and the core's Betti
        # numbers are the brute-force ones of the whole complex; the inputs
        # are built from the distances by hand
        s, grid = case
        t = data.draw(st.sampled_from(grid))
        dist = pairwise_distances(s)
        n = len(s)
        nbhd = [{u for u in range(n) if u == v or dist[v, u] <= t} for v in range(n)]
        closed = [sum(1 << u for u in nbhd[v]) for v in range(n)]
        left = self.check_collapse(nbhd, sweep_then_rounds(closed))
        # a strong-collapse core is unique up to isomorphism (Barmak & Minian,
        # 2012), so the routes may remove other vertices but as many
        assert len(self.check_collapse(nbhd, _strong_collapse(closed, everyone(closed)))) == \
            len(left)
        for k in range(3):
            f = vr_core_filtration(s, t, k + 1)
            assert len(f.neighbours) == len(left)
            assert betti_curve(f, k) == [betti_oracle_bruteforce(vr_complex(s, t, k + 1), k)]

    def test_coincident_points(self, circle_points):
        # coincident points dominate each other; one of them stays
        s = circle_points([0.1, 0.1, 0.1, 0.6])
        for t, b0 in ((0.0, 2), (0.5, 1)):
            f = vr_core_filtration(s, t, 1)
            assert len(f.neighbours) == 1 + (t == 0.0) and betti_curve(f, 0) == [b0]

    @pytest.mark.parametrize("manifold, n, t, k", [
        ("circle", 100, 0.1, 1), ("circle", 60, 0.1, 2),
        ("torus", 40, 0.25, 1), ("torus", 40, 0.3, 2), ("sphere", 40, 0.6, 2)])
    def test_benchmark_sizes(self, manifold, n, t, k):
        # the core is smaller than the complex, and no vertex of it is
        # dominated, which a collapse stopped early would leave
        s = sample(MANIFOLDS[manifold], n, 0, 0)
        invariant = betti_invariant(k)
        f = vr_core_filtration(s, t, k + 1)
        nbhd = [{v} for v in range(len(f.neighbours))]
        for a, b in f.edges:
            nbhd[a].add(b)
            nbhd[b].add(a)
        assert len(nbhd) < n
        assert not any(nbhd[v] <= nbhd[w] for v, w in permutations(range(len(nbhd)), 2))
        assert betti_curve(f, k) == reference_curve(s, [t], invariant, k + 1)

    @pytest.mark.parametrize("sweep", [True, False], ids=["common", "no-common"])
    @pytest.mark.parametrize("manifold, n, t", [
        ("circle", 200, 0.32), ("circle", 2000, math.log(2000) / 2000),
        ("torus", 150, 0.25), ("sphere", 150, 0.7)])
    def test_collapse_is_complete_at_scale(self, manifold, n, t, sweep):
        # sizes where a removal's neighbours wait for later rounds: the
        # collapse leaves no dominated vertex, after the sweep that the
        # one-scale core's A @ A rule stands for, and without it (the last
        # step's core)
        closed = closed_rows(sample(MANIFOLDS[manifold], n, 0, 0), t)
        nbhd = [set(_iter_bits(row)) for row in closed]
        removed = sweep_then_rounds(closed) if sweep else \
            _strong_collapse(closed, everyone(closed))
        assert len(self.check_collapse(nbhd, removed)) < n

    @staticmethod
    def check_core(s, t, max_dim=1):
        # the rounds get the whole graph and the sweep's survivors (a rule
        # that keeps other vertices hands them another set), the core's
        # vertices are those that the sweep and the rounds leave, and its
        # edges are vr_complex's between them, in row order
        closed = closed_rows(s, t)
        graphs = []

        def build(rows, left, *args):
            graphs.append((rows, left))
            return _core_filtration(rows, left, *args)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(complexes, "_core_filtration", build)
            f = vr_core_filtration(s, t, max_dim)
        assert graphs == [(closed, survivors(closed))]
        removed = set(sweep_then_rounds(closed))
        core = [v for v in range(len(s)) if v not in removed]
        assert len(f.neighbours) == len(core)
        assert [(core[a], core[b]) for a, b in f.edges] == \
            [e for e in vr_complex(s, t, 1).simplices(1) if set(e) <= set(core)]

    @settings(max_examples=100, deadline=None)
    @given(cases(max_n=12), st.data())
    def test_core_edges_are_the_complexes(self, case, data):
        # the core is built from the closed neighbourhoods alone, with no
        # distances
        s, grid = case
        self.check_core(s, data.draw(st.sampled_from(grid)))

    @settings(max_examples=150, deadline=None)
    @given(cases(max_n=12), st.data())
    def test_rule_is_the_sweep(self, case, data):
        # the one-scale core's A @ A rule removes what the sweep removes, on
        # samples with coincident points appended (twins, whose lower labels
        # go) and at every depth
        s, grid = case
        twins = data.draw(st.lists(st.integers(0, len(s) - 1), max_size=4))
        points = np.concatenate([s.points, s.points[twins]])
        points.setflags(write=False)
        self.check_core(PointSample(s.manifold, points), data.draw(st.sampled_from(grid)),
                        data.draw(st.integers(1, 4)))


def last_step_core(f):
    """The core that betti_curve reads b_k at the last step off."""
    closed = [nbr | 1 << v for v, nbr in enumerate(f.neighbours)]
    return _core_filtration(closed, everyone(closed), f.max_dim)


def record_cores(monkeypatch):
    """The cores that betti_curve builds from now on, in order."""
    cores = []

    def build(*args, **kwargs):
        cores.append(_core_filtration(*args, **kwargs))
        return cores[-1]
    monkeypatch.setattr(homology, "_core_filtration", build)
    return cores


def cycles_core(m):
    """A core builder that ignores its graph and builds m disjoint 4-cycles,
    whose b1 is m."""
    closed = [1 << v | 1 << (v & ~3 | (v + 1) & 3) | 1 << (v & ~3 | (v - 1) & 3)
              for v in range(4 * m)]
    return lambda *args, **kwargs: _core_filtration(closed, everyone(closed), 2)


class TestLastStepCore:
    # When a multi-scale Vietoris-Rips Betti reduction leaves one column in
    # its top dimension, betti_curve asks the strong-collapse core of the
    # last step's graph for b_k there, which says whether that column is
    # essential (no pivot, skipped) or paired (reduced).  Each curve is
    # checked against the per-scale reference, which reduces every column.

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([("circle", 0.02, 0.32), ("torus", 0.05, 0.4), ("sphere", 0.2, 1.2)]),
           st.integers(10, 40), st.integers(0, 2**32 - 1), st.integers(1, 2),
           st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
    def test_equals_the_unhinted_curve(self, scales, n, seed, k, fractions):
        kind, lo, hi = scales
        s = sample(MANIFOLDS[kind], n, seed, 0)
        grid = sorted({lo + (hi - lo) * x for x in fractions})
        f = vr_filtration(s, grid, k + 1)
        curve = reference_curve(s, grid, betti_invariant(k), k + 1)
        assert sample_curve(s, VR, betti_invariant(k), grid) == betti_curve(f, k) == curve
        assert betti_curve(last_step_core(f), k) == curve[-1:]

    def test_asked_only_for_a_lone_column(self, monkeypatch):
        # circle b1 on the benchmark grid leaves only the essential column;
        # a torus b2 reduction leaves many, and reduces them all
        grid = np.linspace(0.02, 0.32, 16).tolist()
        cores = record_cores(monkeypatch)
        for seed in range(3):
            s = sample(circle(), 50, seed, 0)
            assert betti_curve(vr_filtration(s, grid, 2), 1) == \
                reference_curve(s, grid, betti_invariant(1), 2)
            assert [betti_curve(core, 1) for core in cores] == [[1]]
            cores.clear()
        f = vr_filtration(sample(flat_torus(2), 60, 0, 0), np.linspace(0.1, 0.45, 8).tolist(), 3)
        betti_curve(f, 2)
        assert cores == []

    def test_cech_never_asks(self, monkeypatch, circle_points):
        # a circle Cech complex is no flag complex, so the core of its graph
        # says nothing of it, and its build has no block index: on the
        # benchmark grid, and on a 4-cycle whose reduction leaves one column,
        # the core builder is never called
        monkeypatch.setattr(homology, "_core_filtration", cycles_core(2))
        grid = np.linspace(0.02, 0.32, 16).tolist()
        for seed in range(3):
            s = sample(circle(), 20, seed, 0)
            assert filtration_curve(s, grid, betti_invariant(1), 2, "cech") == \
                reference_curve(s, grid, betti_invariant(1), 2, "cech")
        quad = circle_points([0, 0.25, 0.5, 0.75])  # a 4-cycle from t = 0.125 to 0.25
        assert betti_curve(cech_filtration_circle(quad, [0.13, 0.2], 2), 1) == [1, 1]

    def test_four_cycle_lone_column_is_paired(self, monkeypatch, circle_points):
        # the fourth cycle edge is the one column left, and a triangle at
        # 0.5 kills its class: a core with b1 = 1 would keep b1 = 1 there
        s = circle_points([0, 0.25, 0.5, 0.75])
        grid = [0.25, 0.5]
        f = vr_filtration(s, grid, 2)
        cores = record_cores(monkeypatch)
        assert sample_curve(s, VR, betti_invariant(1), grid) == betti_curve(f, 1) == [1, 0]
        assert [betti_curve(core, 1) for core in cores] == [[0], [0]]
        monkeypatch.setattr(homology, "_core_filtration", cycles_core(1))
        assert betti_curve(f, 1) == [1, 1]

    @pytest.mark.parametrize("answer", [2, 3])
    def test_fault_raises(self, monkeypatch, circle_points, answer):
        # a core whose b1 cannot be that of a complex with one column left
        # raises, and skips nothing
        f = vr_filtration(circle_points([0, 0.25, 0.5, 0.75]), [0.25, 0.5], 2)
        monkeypatch.setattr(homology, "_core_filtration", cycles_core(answer))
        with pytest.raises(RuntimeError, match=f"b1 at the last step is {answer} .* to reduce"):
            betti_curve(f, 1)


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
        # a grid may end at half a pairwise distance d, where the pair at d is
        # not an edge: the open condition d < 2 max(grid) alone decides it
        dist = pairwise_distances(s)
        ends = sorted({d / 2.0 for d in dist[np.triu_indices(len(s), k=1)].tolist() if d > 0})
        if ends and data.draw(st.booleans()):
            end = data.draw(st.sampled_from(ends))
            grid = [t for t in grid if t < end] + [end]
        md = invariant.max_dim
        assert filtration_curve(s, grid, invariant, md, "cech") == \
            reference_curve(s, grid, invariant, md, "cech")

    def test_zero_scale_rejected(self):
        s = sample(circle(), 5, 3, 0)
        with pytest.raises(ValueError):
            cech_filtration_circle(s, [0.0, 0.1], 2)
        with pytest.raises(ValueError):
            estimate_curve(circle(), CECH, betti_invariant(1), 5, [0.0, 0.1], 4, 3)

    def test_wrong_manifold_rejected(self):
        with pytest.raises(UnsupportedDomainError):
            cech_filtration_circle(sample(sphere2(), 4, 1, 0), [0.3], 2)


class TestValidation:
    def test_grid_checks(self):
        s = sample(circle(), 4, 0, 0)
        for grid in ([], [0.2, 0.1], [0.1, 0.1], [-0.1, 0.2], [float("nan")],
                     [0.1, float("nan")], [float("inf")], [0.1, float("inf")]):
            with pytest.raises(ValueError):
                vr_filtration(s, grid, 2)
            with pytest.raises(ValueError):
                vr_euler_curve(s, grid)
            with pytest.raises(ValueError):
                cech_filtration_circle(s, grid, 2)
        # the core's one scale is checked as a one-scale grid
        for t, message in ((-0.1, "nonnegative"), (float("nan"), "nonnegative"),
                           (float("inf"), "finite")):
            with pytest.raises(ValueError, match=f"grid scales must be {message}"):
                vr_core_filtration(s, t, 2)

    def test_max_dim_bounds(self):
        s = sample(circle(), 4, 0, 0)
        for max_dim in (0, -2, "2", "full"):
            with pytest.raises(ValueError):
                vr_filtration(s, [0.1], max_dim)
            with pytest.raises(ValueError):
                cech_filtration_circle(s, [0.1], max_dim)
            with pytest.raises(ValueError):
                vr_core_filtration(s, 0.1, max_dim)
            with pytest.raises(ValueError):
                vr_complex(s, 0.1, max_dim)
            with pytest.raises(ValueError):
                cech_complex_circle(s, 0.1, max_dim)
        with pytest.raises(ValueError):  # a core is built for a Betti number only
            vr_core_filtration(s, 0.1, -1)
        with pytest.raises(ValueError):  # vr_euler_curve reads the untruncated complex
            vr_filtration(s, [0.1], -1)

    def test_curves_need_enough_kept(self):
        s = sample(circle(), 6, 0, 0)
        with pytest.raises(ValueError):
            betti_curve(vr_filtration(s, [0.1], 1), 1)
        with pytest.raises(ValueError):
            vr_filtration(s, [0.1], -1)  # the untruncated complex is vr_euler_curve's
        with pytest.raises(ValueError):
            euler_curve(vr_filtration(s, [0.1], 2))
