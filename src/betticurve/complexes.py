"""Vietoris-Rips and Cech complexes at one scale, and filtrations for a grid.

A filtration (:func:`vr_filtration`, :func:`cech_filtration_circle`) builds
the complex once at the largest grid scale and tags every simplex with the
grid step at which it enters; the per-scale functions (:func:`vr_complex`,
:func:`cech_complex_circle`) are the independent reference it is tested
against.

VR uses the closed condition (pairwise distance <= t, matching "diameter of
the simplex <= t"); Cech uses open balls (simplex present iff the open balls
of radius t have a common point).  Mixing the conventions is deliberate and is
what makes the interleaving inclusions exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import SimplexBudgetError, UnsupportedDomainError
from .manifolds import CIRCLE, PointSample, pairwise_distances

DEFAULT_SIMPLEX_BUDGET = 10_000_000


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """A downward-closed simplex set on integer vertex labels, grouped by dim.

    ``max_dim_built`` is the truncation dimension; -1 means the complex is
    complete (no simplices were cut off).
    """

    num_vertices: int
    simplices_by_dim: dict[int, list[tuple[int, ...]]]
    max_dim_built: int

    @property
    def is_full(self) -> bool:
        return self.max_dim_built == -1

    @property
    def dimension(self) -> int:
        return max((k for k, s in self.simplices_by_dim.items() if s), default=-1)

    def simplices(self, dim: int) -> list[tuple[int, ...]]:
        return self.simplices_by_dim.get(dim, [])

    def simplex_count(self) -> int:
        return sum(len(s) for s in self.simplices_by_dim.values())

    def as_simplex_set(self) -> set[tuple[int, ...]]:
        out: set[tuple[int, ...]] = set()
        for group in self.simplices_by_dim.values():
            out.update(group)
        return out


def _normalize_max_dim(max_dim) -> int:
    if max_dim == -1:
        return -1
    if not isinstance(max_dim, int) or max_dim < 1:
        raise ValueError(f"max_dim must be a positive integer or -1 (untruncated), "
                         f"got {max_dim!r}")
    return max_dim


def _iter_bits(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _expand_cliques(n: int, edges: list[tuple[int, int]], nbr: list[int],
                    max_dim: int, budget: int, accept=None) -> SimplicialComplex:
    """Levelwise clique expansion of the graph (edges, nbr).

    ``accept(simplex)`` is an optional extra membership test applied to every
    candidate of dimension >= 2 (the property must be downward closed, so
    pruning on failure is sound).  Enumerates simplices in lexicographic
    order; raises when the total simplex count would exceed ``budget``.
    """
    by_dim: dict[int, list[tuple[int, ...]]] = {0: [(v,) for v in range(n)]}
    count = n
    if count > budget:
        raise SimplexBudgetError(budget)
    if max_dim == 0:
        return SimplicialComplex(n, by_dim, 0 if edges else -1)
    by_dim[1] = [tuple(e) for e in edges]
    count += len(edges)
    if count > budget:
        raise SimplexBudgetError(budget)
    above = [~((1 << (v + 1)) - 1) for v in range(n)]
    frontier = [((i, j), cand) for i, j in by_dim[1]
                if (cand := nbr[i] & nbr[j] & above[j])]
    dim = 1
    while frontier and (max_dim == -1 or dim < max_dim):
        dim += 1
        nxt = []
        out = []
        for simplex, cand in frontier:
            for v in _iter_bits(cand):
                new = simplex + (v,)
                if accept is not None and not accept(new):
                    continue
                count += 1
                if count > budget:
                    raise SimplexBudgetError(budget)
                out.append(new)
                sub = cand & nbr[v] & above[v]
                if sub:
                    nxt.append((new, sub))
        if not out:
            frontier = []
            break
        by_dim[dim] = out
        frontier = nxt
    # a finite max_dim still yields a complete complex if nothing was cut off
    built = -1 if (max_dim == -1 or not frontier) else max_dim
    return SimplicialComplex(n, by_dim, built)


def _edges_and_adjacency(dist: np.ndarray, threshold: float, strict: bool):
    n = dist.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    if strict:
        mask = dist[iu, ju] < threshold
    else:
        mask = dist[iu, ju] <= threshold
    edges = list(zip(iu[mask].tolist(), ju[mask].tolist()))
    nbr = [0] * n
    for i, j in edges:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return edges, nbr


def vr_complex(s: PointSample, t: float, max_dim=-1, *,
               dist: np.ndarray | None = None,
               budget: int = DEFAULT_SIMPLEX_BUDGET) -> SimplicialComplex:
    """Clique complex of the graph with edges at pairwise distance <= t."""
    if not t >= 0:  # false for NaN too
        raise ValueError("scale t must be nonnegative")
    md = _normalize_max_dim(max_dim)
    if dist is None:
        dist = pairwise_distances(s)
    edges, nbr = _edges_and_adjacency(dist, t, strict=False)
    return _expand_cliques(len(s), edges, nbr, md, budget)


def _circle_arcs_intersect(positions: np.ndarray, simplex: tuple[int, ...], t: float) -> bool:
    # Open arcs of radius t around the simplex's points meet iff some point of
    # the circle is within < t of all of them; the minimax distance equals
    # (1 - largest circular gap) / 2, attained at the midpoint of the
    # complement of the largest gap.
    pts = np.sort(positions[list(simplex)])
    gaps = np.diff(pts)
    gmax = max(gaps.max(initial=0.0), 1.0 - pts[-1] + pts[0])
    return (1.0 - gmax) / 2.0 < t


def cech_complex_circle(s: PointSample, t: float, max_dim=-1, *,
                        budget: int = DEFAULT_SIMPLEX_BUDGET) -> SimplicialComplex:
    """Nerve of the open arcs of radius t around the sample points."""
    if s.manifold.kind != CIRCLE:
        raise UnsupportedDomainError("cech_complex_circle requires a circle sample")
    if not t > 0:  # false for NaN too
        raise ValueError("scale t must be positive")
    md = _normalize_max_dim(max_dim)
    dist = pairwise_distances(s)
    # two open arcs of radius t meet iff the distance is < 2t
    edges, nbr = _edges_and_adjacency(dist, 2.0 * t, strict=True)
    positions = s.points
    accept = lambda simplex: _circle_arcs_intersect(positions, simplex, t)
    return _expand_cliques(len(s), edges, nbr, md, budget, accept=accept)


@dataclass(frozen=True, eq=False)
class Filtration:
    """The complex at max(grid), each simplex tagged with the grid step at
    which it enters.

    A simplex enters at the first step s whose per-scale complex (the one
    :func:`vr_complex` or :func:`cech_complex_circle` builds at ``grid[s]``)
    contains it, so the simplices with step <= s form exactly that complex.
    ``counts[d][s]`` is the number of d-simplices entering at step s, for
    every dimension built (up to ``max_dim``; -1 means untruncated).

    A Vietoris-Rips filtration built full or to dimension <= 2 (for b0 or
    b1) keeps its edges and counts the rest; every other one keeps every
    simplex through ``max_dim`` (a full circle Cech one, its edges).
    Counted simplices are never listed (see :func:`_filtration`); the budget
    counts them all.  Kept simplices are in filtration order (nondecreasing
    step, so every prefix ending at a step boundary is a per-scale complex):
    ``edges[p]`` is the p-th edge, ``keys[d][p]`` the vertex bitmask of the
    p-th d-simplex, ``steps[d][p]`` its step and ``neighbours[v]`` v's
    neighbours at max(grid).  Only a Vietoris-Rips build to dimension 2 has
    ``first`` and ``offsets``, one entry per edge: block p is the triangles
    whose longest edge is the p-th, ``first[p]`` (its ends' common
    neighbourhood on arrival) has their third vertices, and ``offsets[p]``
    counts the triangles in earlier blocks.  A triangle's index is its
    block's offset plus the rank of its third vertex in ``first[p]``.
    """

    num_vertices: int
    grid: tuple[float, ...]
    max_dim: int
    counts: list[list[int]]
    edges: list[tuple[int, int]]
    keys: list[list[int]]
    steps: list[list[int]]
    neighbours: list[int]
    first: list[int]
    offsets: list[int]


def check_grid(grid, positive: bool = False) -> tuple[float, ...]:
    """The grid as a tuple of floats, if it is a nonempty, strictly
    increasing list of finite nonnegative (or, with ``positive``, positive)
    scales."""
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    if not (grid[0] > 0 if positive else grid[0] >= 0):  # false for NaN too
        raise ValueError("grid scales must be positive" if positive
                         else "grid scales must be nonnegative")
    if any(not a < b for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if not math.isfinite(grid[-1]):  # the largest scale, by the checks above
        raise ValueError("grid scales must be finite")
    return grid


def _clique_polynomial(cand: int, nbr: list[int], x: int, limit: int) -> int:
    """The cliques S of the vertex set ``cand`` (a bitmask) in the graph
    ``nbr``, the empty one included, as the sum of x**len(S), for x = 2**w
    with w > len(cand).

    No coefficient (the cliques of one size, at most C(len(cand), j) <
    2**len(cand)) reaches x, and neither does one of any partial sum, so
    sums, shifts and products never carry: the polynomial is packed in one
    int, w bits per coefficient.  It recurses by P(C) = P(C - v) +
    x * P(C & N(v)), on the vertex v with the fewest neighbours in C, after
    factoring out every cone of C (a vertex adjacent to all the rest, which
    doubles the cliques: a factor 1 + x).  Distinct leaves of the recursion
    stand for distinct cliques, so it visits at most about twice as many
    nodes as C has cliques.  It stops once its leaves pass ``limit``, and the
    part of the sum it returns then counts more than ``limit`` cliques.
    """
    total, leaves = 0, 0
    stack = [(cand, 1)]  # a subset of cand and its weight: the polynomial factored out
    while stack and leaves <= limit:
        c, weight = stack.pop()
        while c:
            cones, pivot, fewest = 0, 0, c.bit_count()
            rest = c
            while rest:
                low = rest & -rest
                rest ^= low
                common = c & nbr[low.bit_length() - 1]
                if common == c ^ low:
                    cones |= low
                elif (size := common.bit_count()) < fewest:
                    fewest, pivot, pivot_common = size, low, common
            if cones:
                weight *= pow(1 + x, cones.bit_count())
                c ^= cones
            if c:  # its cliques without the pivot stay in c, those with it go on the stack
                stack.append((pivot_common & c, weight * x))
                c ^= pivot
        total += weight
        leaves += 1
    return total


def _filtration(n: int, dist: np.ndarray, edge_step, grid: tuple[float, ...],
                max_dim: int, budget: int, simplex_step=None) -> Filtration:
    """Incremental clique expansion in sorted edge order up to max(grid).

    ``edge_step(d)`` maps pairwise distances to entry steps (len(grid) for an
    edge absent at max(grid)).  Edges are added in order of distance, and the
    simplices whose longest edge is the edge just added (its block) are the
    cliques of ``cand``, the common neighbourhood of its endpoints in the
    graph built so far, so every simplex is found exactly once, when its
    longest edge arrives.  Its step is that edge's step, or later where
    ``simplex_step(vertex_bits)`` (applied from dimension 2, downward closed
    like ``accept`` in :func:`_expand_cliques`) says so.  What is kept is as
    in :class:`Filtration`.

    A Vietoris-Rips build that keeps nothing above its edges (full, or to
    dimension 2 for b1) lists no simplex of a block: the block's triangles
    are the vertices of ``cand`` (its popcount), and its d-simplices for
    d >= 3 the cliques of d - 1 vertices of ``cand``, counted for every d at
    once by :func:`_clique_polynomial`.  Every other build walks the cliques
    of ``cand`` depth first and lists them; a Vietoris-Rips walk meets the
    blocks in edge order, so its simplices are in step order as they come.

    Raises when the complex at max(grid) has more than ``budget`` simplices,
    which is when some per-scale build on the grid would.  The total is
    checked after the vertices, after the edges, and then after each counted
    block or each walked simplex; a block's clique count stops early once
    the cliques it has found exceed the budget, so the work stays bounded by
    the budget.
    """
    num_steps = len(grid)
    counted = simplex_step is None and max_dim <= 2  # Vietoris-Rips, full or for b0/b1
    indexed = simplex_step is None and max_dim == 2  # has first/offsets (see Filtration)
    top = max(n - 1, 1) if max_dim == -1 else max_dim
    kept_dim = 1 if counted or max_dim == -1 else max_dim
    iu, ju = np.triu_indices(n, k=1)
    pair_dist = dist[iu, ju]
    step = edge_step(pair_dist)
    keep = step < num_steps
    order = np.argsort(pair_dist[keep], kind="stable")
    edges = list(zip(iu[keep][order].tolist(), ju[keep][order].tolist()))
    edge_steps = step[keep][order].tolist()

    counts = [[0] * num_steps for _ in range(top + 1)]
    counts[0][0] = n
    total = n
    if total > budget:
        raise SimplexBudgetError(budget)
    total += len(edges)
    if total > budget:
        raise SimplexBudgetError(budget)
    for s in edge_steps:
        counts[1][s] += 1

    keys = [[1 << v for v in range(n)], [(1 << i) | (1 << j) for i, j in edges]]
    steps = [[0] * n, edge_steps]
    for _ in range(2, kept_dim + 1):
        keys.append([])
        steps.append([])
    first, offsets = [], []
    nbr = [0] * n
    for (i, j), edge_s in zip(edges, edge_steps):
        cand = nbr[i] & nbr[j]
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
        if indexed:
            first.append(cand)
            offsets.append(sum(counts[2]))
        if not cand or top < 2:
            continue
        if counted:
            size = cand.bit_count()
            total += size
            counts[2][edge_s] += size
            if top > 2 and size > 1:
                w = size + 1
                mask = (1 << w) - 1
                # the limit leaves room for the empty clique and the size
                # single vertices, counted already as the edge and triangles;
                # the cliques of two or more vertices are dimensions 3 and up
                poly = _clique_polynomial(cand, nbr, 1 << w, budget - total + size + 1) >> 2 * w
                dim = 3
                while poly:
                    found = poly & mask
                    total += found
                    counts[dim][edge_s] += found
                    poly >>= w
                    dim += 1
            if total > budget:
                raise SimplexBudgetError(budget)
            continue
        # Depth-first over the cliques of cand: an entry (key, cand, dim, s)
        # extends the simplex `key` (entered at step s) by each vertex v of
        # cand to a dim-simplex, and the vertices of cand above v that are
        # adjacent to v are the candidates one dimension up.
        stack = [((1 << i) | (1 << j), cand, 2, edge_s)]
        while stack:
            key, cand, dim, s0 = stack.pop()
            while cand:
                low = cand & -cand
                cand ^= low
                new = key | low
                s = s0
                if simplex_step is not None:
                    s = max(s, simplex_step(new))
                    if s >= num_steps:
                        continue
                total += 1
                if total > budget:
                    raise SimplexBudgetError(budget)
                counts[dim][s] += 1
                if dim <= kept_dim:
                    keys[dim].append(new)
                    steps[dim].append(s)
                if dim < top:
                    sub = cand & nbr[low.bit_length() - 1]
                    if sub:
                        stack.append((new, sub, dim + 1, s))

    while max_dim == -1 and len(counts) > 2 and not any(counts[-1]):
        counts.pop()  # dimensions the complex does not reach
    if simplex_step is not None:
        # a simplex may enter after its longest edge: restore filtration order
        for dim in range(2, kept_dim + 1):
            order = sorted(range(len(steps[dim])), key=steps[dim].__getitem__)
            keys[dim] = [keys[dim][p] for p in order]
            steps[dim] = [steps[dim][p] for p in order]
    return Filtration(n, grid, max_dim, counts, edges, keys, steps, nbr, first, offsets)


def vr_filtration(s: PointSample, grid, max_dim=-1, *,
                  budget: int = DEFAULT_SIMPLEX_BUDGET) -> Filtration:
    """One filtration for the Vietoris-Rips complexes at every grid scale.

    Its step-s prefix is ``vr_complex(s, grid[s], max_dim)`` simplex for
    simplex: an edge enters at the first scale t with distance <= t, and a
    simplex with its longest edge.  Built to a finite ``max_dim`` it keeps
    the dimensions below it; built full it keeps the edges.
    """
    grid = check_grid(grid)
    md = _normalize_max_dim(max_dim)
    scales = np.asarray(grid)
    return _filtration(len(s), pairwise_distances(s),
                       lambda d: np.searchsorted(scales, d, side="left"),
                       grid, md, budget)


def cech_filtration_circle(s: PointSample, grid, max_dim=-1, *,
                           budget: int = DEFAULT_SIMPLEX_BUDGET) -> Filtration:
    """One filtration for the circle Cech complexes at every grid scale.

    Its step-s prefix is ``cech_complex_circle(s, grid[s], max_dim)``: an edge
    enters at the first scale t with distance < 2t, and a larger simplex at
    the later of its longest edge's step and the first t above the minimax
    distance (1 - largest gap) / 2, computed as :func:`_circle_arcs_intersect`
    does.  Built to a finite ``max_dim`` it keeps every simplex.
    """
    if s.manifold.kind != CIRCLE:
        raise UnsupportedDomainError("cech_filtration_circle requires a circle sample")
    grid = check_grid(grid, positive=True)
    md = _normalize_max_dim(max_dim)
    positions = s.points.tolist()
    doubled = 2.0 * np.asarray(grid)

    def arc_step(key: int) -> int:
        pts = sorted(positions[v] for v in _iter_bits(key))
        gmax = 1.0 - pts[-1] + pts[0]
        for a, b in zip(pts, pts[1:]):
            gmax = max(gmax, b - a)
        return bisect_right(grid, (1.0 - gmax) / 2.0)

    return _filtration(len(s), pairwise_distances(s),
                       lambda d: np.searchsorted(doubled, d, side="right"),
                       grid, md, budget, simplex_step=arc_step)


def edge_count(s: PointSample, t: float) -> int:
    """Number of point pairs at distance <= t."""
    if not t >= 0:  # false for NaN too
        raise ValueError("scale t must be nonnegative")
    dist = pairwise_distances(s)
    iu, ju = np.triu_indices(len(s), k=1)
    return int(np.count_nonzero(dist[iu, ju] <= t))
