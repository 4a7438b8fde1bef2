"""Vietoris-Rips and Cech complexes at one scale, and filtrations for a grid.

A filtration (:func:`vr_filtration`, :func:`cech_filtration_circle`) builds
the complex once at the largest grid scale and tags every simplex with the
grid step at which it enters; :func:`vr_core_filtration` builds, for one
scale, that of the Vietoris-Rips complex's strong-collapse core.  The
untruncated Vietoris-Rips complex is read for its Euler characteristic
alone, by :func:`vr_euler_curve`: one signed clique sum per edge, with its
simplices counted exactly only when a bound on them passes the budget.  A
filtration's edges, and the Euler curve's, come from a pair search over the
sample (:func:`_sorted_pairs`), which computes the distances of the pairs
that the largest scale can join only, bit-equal to those of the n x n
matrix (``pairwise_distances``).  The per-scale functions
(:func:`vr_complex`, :func:`cech_complex_circle`) and
:func:`vr_core_filtration` take that matrix; the per-scale functions are the
independent reference the filtrations and the Euler curve are tested
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
from itertools import accumulate

import numpy as np

from .errors import SimplexBudgetError, UnsupportedDomainError
from .manifolds import (CIRCLE, SPHERE2, PointSample, _circle_gaps, pair_distances,
                        pairwise_distances)

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
    near = dist < threshold if strict else dist <= threshold
    iu, ju = np.nonzero(np.triu(near, 1))  # the i < j pairs, row by row
    edges = list(zip(iu.tolist(), ju.tolist()))
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
    return (1.0 - _circle_gaps(positions[list(simplex)]).max()) / 2.0 < t


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

    A Vietoris-Rips filtration is built to a finite dimension (its Euler
    characteristic has :func:`vr_euler_curve`).  Built to dimension <= 2
    (for b0 or b1) it keeps its edges, and for b1 counts its triangles from
    the block index below; every other filtration keeps every simplex
    through ``max_dim`` (a full circle Cech one, its edges, and counts the
    rest).  Counted simplices are never listed (see :func:`_filtration`);
    the budget counts them all.  Kept simplices are in filtration order
    (nondecreasing step, so every prefix ending at a step boundary is a
    per-scale complex): ``edges[p]`` is the p-th edge, ``keys[d][p]`` the
    vertex bitmask of the p-th d-simplex and ``neighbours[v]`` v's
    neighbours at max(grid).  No step is stored: for every d, kept or
    counted, the d-simplices of step s are rows ``sum(counts[d][:s])`` to
    ``sum(counts[d][:s + 1])``.  A Vietoris-Rips build to dimension >= 2
    has ``first`` and ``offsets`` (the block index), one entry per edge:
    block p is the triangles whose longest edge is the p-th, ``first[p]``
    (its ends' common neighbourhood on arrival) has their third vertices,
    and ``offsets[p]`` counts the triangles in earlier blocks.  A
    triangle's index (stored or not) is its block's offset plus its third
    vertex's rank in ``first[p]``.
    """

    grid: tuple[float, ...]
    max_dim: int
    counts: list[list[int]]
    edges: list[tuple[int, int]]
    keys: list[list[int]]
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


def _clique_sum(cand: int, nbr: list[int], x: int, limit: float) -> int:
    """The cliques S of the vertex set ``cand`` (a bitmask) in the graph
    ``nbr``, the empty one included, as the sum of x**len(S), for x = 1 (the
    cliques' count) or x = -1 (their signed count).

    It recurses by P(C) = P(C - v) + x * P(C & N(v)), on the vertex v with
    the fewest neighbours in C.  A cone of C (a vertex adjacent to all the
    rest) is a factor 1 + x: at x = 1 each doubles the cliques and is
    factored out, and at x = -1 the first one found zeroes its branch, which
    is dropped.  Distinct leaves of the recursion stand for distinct
    cliques, so it visits at most about twice as many nodes as C has
    cliques.  It stops once its leaves pass ``limit``; at x = 1 the part of
    the sum it returns then counts more than ``limit`` cliques.
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
                    if x < 0:
                        break
                elif (size := common.bit_count()) < fewest:
                    fewest, pivot, pivot_common = size, low, common
            if cones:
                if x < 0:  # a factor 1 + x = 0
                    weight = 0
                    break
                weight <<= cones.bit_count()
                c ^= cones
            if c:  # its cliques without the pivot stay in c, those with it go on the stack
                stack.append((pivot_common & c, weight * x))
                c ^= pivot
        total += weight
        leaves += 1
    return total


# Slack of the sphere's Gram prefilter: a pair whose computed distance d
# (pair_distances) is <= T < pi has a Gram entry g >= cos(T) - 2e-15, so
# cutting at cos(T) - 1e-12 drops no such pair.  In absolute errors, with
# unit vectors stored within 4e-16 of norm 1, g within 4e-16 of p.q (a
# 3-term dot product) and arccos, arcsin and cos within 4 ulp (at most
# 2e-15 for values below 4):
# - g <= 0.99, d = arccos(max(g, -1)): the exact arccos is <= T + 2e-15, so
#   max(g, -1) >= cos(T) - 2e-15 (cos is 1-Lipschitz), and g >= -1 - 2e-15
#   anyway, which covers g < -1 (then d is pi within 2e-15 and cos(T) is -1
#   within 1e-29);
# - g > 0.99 (T < 0.15 matters only): d = 2 arcsin(c / 2) for the computed
#   chord c, so the exact |p - q| <= 2 sin(T / 2) + 3e-16, and 2 p.q =
#   |p|^2 + |q|^2 - |p - q|^2 >= 2 - 4 sin(T / 2)^2 - 2e-15 = 2 cos(T) - 2e-15.
# cos decreases on [0, pi] only: once T >= pi every pair is a candidate.
_GRAM_SLACK = 1e-12


def _sorted_pairs(s: PointSample, scales: np.ndarray, strict: bool):
    """The pairs (i, j), i < j, of the sample within max(scales), sorted by
    distance d (ties in row order), and the step of each: the first s with
    d <= scales[s] (d < scales[s] when ``strict``), for increasing ``scales``.
    They come as three flat lists of ints, the p-th pair's i, j and step at
    index p of each.

    Each pair's d is the float of ``pairwise_distances(s)[i, j]``
    (:func:`~betticurve.manifolds.pair_distances` computes both), but only
    candidate pairs are computed: on the sphere those whose Gram entry can
    be within max(scales) (see ``_GRAM_SLACK``), on the circle and the torus
    every i < j pair.  The candidates are listed in row order, so the stable
    sort keeps the ties of the whole matrix.
    """
    top = float(scales[-1])
    index = np.arange(len(s))
    candidate = index[:, None] < index
    gram = s.points @ s.points.T if s.manifold.kind == SPHERE2 else None
    if gram is not None and top < math.pi:
        candidate &= gram >= math.cos(top) - _GRAM_SLACK
    i, j = np.divmod(np.flatnonzero(candidate), len(s))  # row by row; 2-d np.nonzero is slower
    d = pair_distances(s, i, j, None if gram is None else gram[i, j])
    near = np.flatnonzero(d < top if strict else d <= top)
    order = near[np.argsort(d[near], kind="stable")]
    steps = np.searchsorted(scales, d[order], side="right" if strict else "left")
    return i[order].tolist(), j[order].tolist(), steps.tolist()


def _filtration(n: int, edge_i: list[int], edge_j: list[int], edge_steps: list[int],
                grid: tuple, max_dim: int, budget: int, simplex_step=None) -> Filtration:
    """Incremental clique expansion, on n vertices, of the graph whose p-th
    edge joins ``edge_i[p]`` and ``edge_j[p]`` at step ``edge_steps[p]``,
    the edges added in that order (steps nondecreasing: the three lists
    :func:`_sorted_pairs` gives).  They are zipped into pairs only for the
    ``edges`` the filtration keeps, which homology reads; the loop reads the
    lists, and sets adjacency bits from one table, ``keys[0]``, whose v-th
    entry is 1 << v.

    The simplices whose longest edge (the last to arrive) is the edge just
    added (its block) are the cliques of ``cand``, the common neighbourhood
    of its endpoints in the graph built so far, so every simplex is found
    exactly once, when its longest edge arrives.  Its step is that edge's
    step, or later where ``simplex_step(vertex_bits)`` (applied from
    dimension 2, downward closed like ``accept`` in :func:`_expand_cliques`)
    says so.  The edges' steps give ``counts[1]`` and each block's step and
    are then dropped: ``counts`` places every row.  What is kept is as in
    :class:`Filtration`.

    A Vietoris-Rips build for b0 stops at its edges, and one for b1 lists
    no triangle: its block index holds them, and each block's |cand| adds
    to ``counts[2]``.  Every other build walks the cliques of ``cand``
    depth first and files each kept simplex under its step as it finds it;
    the lists are joined in step order at the end.  A Vietoris-Rips walk
    meets the blocks in edge order, and a block's triangles first, by
    rising third vertex: it keeps the order it finds them in (block p's
    triangles are rows ``offsets[p]`` on).  A circle Cech simplex may enter
    after its longest edge, and lands under its own step.

    Raises when the complex at max(grid) has more than ``budget`` simplices,
    which is when some per-scale build on the grid would.  The total is
    checked after the vertices, after the edges, after each walked simplex
    and, for b1, once after the loop, whose work is O(edges) there.
    """
    num_steps = len(grid)
    indexed = simplex_step is None and max_dim >= 2  # has first/offsets (see Filtration)
    top = max(n - 1, 1) if max_dim == -1 else max_dim
    walked = top > 2 if indexed else top >= 2  # a Vietoris-Rips b1 build indexes its triangles
    kept_dim = max_dim if walked and max_dim != -1 else 1

    counts = [[0] * num_steps for _ in range(top + 1)]
    counts[0][0] = n
    total = n
    if total > budget:
        raise SimplexBudgetError(budget)
    total += len(edge_steps)
    if total > budget:
        raise SimplexBudgetError(budget)

    edges = list(zip(edge_i, edge_j))
    bit = [1 << v for v in range(n)]
    keys = [bit, [bit[i] | bit[j] for i, j in edges]]
    by_step = [[[] for _ in grid] for _ in range(2, kept_dim + 1)]  # kept keys of each step
    first, offsets = [], []
    triangles = 0  # in the blocks so far, when indexed
    nbr = [0] * n
    for i, j, edge_s in zip(edge_i, edge_j, edge_steps):
        cand = nbr[i] & nbr[j]
        nbr[i] |= bit[j]
        nbr[j] |= bit[i]
        counts[1][edge_s] += 1
        if indexed:
            first.append(cand)
            offsets.append(triangles)
            triangles += (size := cand.bit_count())
            if not walked:  # a b1 build counts its triangles, block by block
                counts[2][edge_s] += size
        if not cand or not walked:
            continue
        # Depth-first over the cliques of cand: an entry (key, cand, dim, s)
        # extends the simplex `key` (entered at step s) by each vertex v of
        # cand to a dim-simplex, and the vertices of cand above v that are
        # adjacent to v are the candidates one dimension up.
        stack = [(bit[i] | bit[j], cand, 2, edge_s)]
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
                    by_step[dim - 2][s].append(new)
                if dim < top:
                    sub = cand & nbr[low.bit_length() - 1]
                    if sub:
                        stack.append((new, sub, dim + 1, s))

    if indexed and not walked and total + triangles > budget:
        raise SimplexBudgetError(budget)
    while max_dim == -1 and len(counts) > 2 and not any(counts[-1]):
        counts.pop()  # dimensions the complex does not reach
    keys += [[key for found in dim_by_step for key in found] for dim_by_step in by_step]
    return Filtration(grid, max_dim, counts, edges, keys, nbr, first, offsets)


def vr_filtration(s: PointSample, grid, max_dim, *,
                  budget: int = DEFAULT_SIMPLEX_BUDGET) -> Filtration:
    """One filtration for the Vietoris-Rips complexes at every grid scale,
    built to the positive dimension ``max_dim``.

    Its step-s prefix is ``vr_complex(s, grid[s], max_dim)`` simplex for
    simplex: an edge enters at the first scale t with distance <= t, and a
    simplex with its longest edge.  Built for b0 or b1 (``max_dim`` <= 2) it
    keeps its edges, and for b1 counts its triangles; built deeper it keeps
    every simplex through ``max_dim`` (see :class:`Filtration`).  The edges
    are the pairs within max(grid) that :func:`_sorted_pairs` finds, with
    the distances of ``pairwise_distances(s)`` but without that matrix, and
    come as its three lists of ends and steps.  The untruncated complex is
    read for its Euler characteristic alone, by :func:`vr_euler_curve`,
    which lists nothing.
    """
    grid = check_grid(grid)
    if max_dim == -1:
        raise ValueError("vr_filtration takes a positive max_dim, got -1 "
                         "(vr_euler_curve reads the untruncated complex)")
    md = _normalize_max_dim(max_dim)
    return _filtration(len(s), *_sorted_pairs(s, np.asarray(grid), False),
                       grid, md, budget)


def _euler_curve(n: int, edge_i: list[int], edge_j: list[int], edge_steps: list[int],
                 num_steps: int, budget: int) -> list[int]:
    """The Euler characteristic, at each of ``num_steps`` steps, of the flag
    complex on n vertices whose edges arrive as in :func:`_filtration` (the
    three lists of :func:`_sorted_pairs`).

    Edge ab's block is {a, b} joined with each clique S of C, the common
    neighbourhood of a and b on arrival (S empty too), of dimension |S| + 1,
    so the block adds -P_C(-1) to its step's Euler characteristic, for the
    signed clique sum P_C(-1) of :func:`_clique_sum`.  A cone of C (a vertex
    adjacent to all the rest) makes it 0: most blocks have one, so C is
    scanned, lowest vertex first, up to the first cone before any call, and
    only a block with no cone calls :func:`_clique_sum`.

    The budget: a block has at most 2**|C| simplices, so n + sum 2**|C|
    bounds the total.  That bound is summed as the blocks arrive, each
    before its signed sum, so the signed work runs only on blocks it has
    certified.  If it passes the budget at block q, the complex at max(grid)
    (the graph of every edge) is counted once, each simplex under its
    lowest vertex, P_C(1) for C the neighbours above it; that raises as
    soon as the total exceeds the budget (each count stops once it alone
    would), or else certifies the signed sums from block q on.
    """
    if n > budget:
        raise SimplexBudgetError(budget)
    increments = [0] * num_steps
    increments[0] = n
    bound = n
    bit = [1 << v for v in range(n)]
    nbr = [0] * n
    for i, j, s in zip(edge_i, edge_j, edge_steps):
        cand = nbr[i] & nbr[j]
        size = cand.bit_count()
        bound += 1 << size
        nbr[i] |= bit[j]
        nbr[j] |= bit[i]
        if bound > budget:
            full = [0] * n
            for a, b in zip(edge_i, edge_j):
                full[a] |= bit[b]
                full[b] |= bit[a]
            total = 0
            for v in range(n):
                total += _clique_sum(full[v] & -(2 << v), full, 1, budget - total)
                if total > budget:
                    raise SimplexBudgetError(budget)
            bound = -math.inf  # the count has certified every block
        if size > 1:
            rest = cand
            while rest:
                low = rest & -rest
                if cand & nbr[low.bit_length() - 1] == cand ^ low:
                    break  # a cone: the block adds 0
                rest ^= low
            else:
                increments[s] -= _clique_sum(cand, nbr, -1, math.inf)
        elif not size:  # the edge alone; one vertex is a cone
            increments[s] -= 1
    return list(accumulate(increments))


def vr_euler_curve(s: PointSample, grid, *,
                   budget: int = DEFAULT_SIMPLEX_BUDGET) -> list[int]:
    """The Euler characteristic of ``vr_complex(s, t)`` at every scale t of
    the grid, from one pass over the edges that :func:`_sorted_pairs` finds,
    as signed clique sums (:func:`_euler_curve`): no simplex above the edges
    is listed.  Raises as the per-scale builds would, when the complex at
    max(grid) has more than ``budget`` simplices; that complex is counted,
    once, only if a bound on its size passes the budget.
    """
    grid = check_grid(grid)
    return _euler_curve(len(s), *_sorted_pairs(s, np.asarray(grid), False), len(grid), budget)


def _bitmask_rows(matrix: np.ndarray) -> list[int]:
    """Each row of a square boolean matrix as an int, bit j for column j."""
    n = matrix.shape[0]
    width = n + 7 >> 3
    rows = np.packbits(matrix, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(rows[v * width:(v + 1) * width], "little") for v in range(n)]


def _count_cliques(nbr: list[int], depth: int, limit: int) -> int:
    """The cliques of 1 to ``depth`` vertices of the graph ``nbr`` (open
    neighbourhoods), counted without listing the largest: each clique of
    ``depth - 1`` vertices adds the popcount of its common neighbours above
    it.  It stops once the count passes ``limit``."""
    total = 0
    stack = [((1 << len(nbr)) - 1, 1)]  # the candidates above a clique, the size they make
    while stack and total <= limit:
        cand, size = stack.pop()
        total += cand.bit_count()
        if size < depth:
            while cand:
                low = cand & -cand
                cand ^= low
                if sub := cand & nbr[low.bit_length() - 1]:
                    stack.append((sub, size + 1))
    return total


def _strong_collapse(closed: list[int], left: int) -> list[int]:
    """The vertices a strong collapse removes from the vertex set ``left`` (a
    bitmask), in order: each is dominated when it goes (some other vertex w
    left has N[v] & left <= N[w], for the closed neighbourhoods ``closed``),
    and none of those left is.

    The vertices of ``left`` are checked in rounds, in index order, each
    against its neighbours left.  Removing x changes N[u] & left only for
    x's neighbours u (N[w] is fixed), so only they can become dominated: a
    removal queues those still left for the next round, not this one, where
    a lower neighbour would be checked again at once while the round may
    still remove more of its neighbours.  The rounds stop when one queues no
    vertex still left.  Every vertex u left was then checked after the last
    removal among its neighbours (the first round checks every vertex of
    ``left``), so N[u] & left, which holds every vertex that could dominate u
    and decides whether one does, has not changed since: none is dominated.
    """
    todo = left
    removed = []
    while todo:
        again = 0
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            near = closed[v] & left
            others = near ^ low
            while others:
                w = others & -others
                others ^= w
                if closed[w.bit_length() - 1] & near == near:
                    left ^= low
                    removed.append(v)
                    again |= near ^ low
                    break
        todo = again & left
    return removed


def _core_filtration(closed: list[int], left: int, grid: tuple[float, ...],
                     max_dim: int) -> Filtration:
    """The filtration, at the one-scale grid (t,), of the core that a strong
    collapse (:func:`_strong_collapse`) leaves of the graph that the vertex
    set ``left`` (a bitmask) induces in the graph with closed neighbourhoods
    ``closed``: its edges between core vertices, relabelled in vertex order
    and listed in row order (at one step no order changes a Betti number).
    It counts no budget: a core is a subcomplex of a complex that its caller
    has counted."""
    left -= sum(1 << v for v in _strong_collapse(closed, left))
    label = {v: a for a, v in enumerate(_iter_bits(left))}
    rows = [[label[w] for w in _iter_bits(closed[v] & left & -(2 << v))] for v in label]
    edge_i = [a for a, row in enumerate(rows) for _ in row]
    edge_j = [b for row in rows for b in row]
    return _filtration(len(label), edge_i, edge_j, [0] * len(edge_j), grid, max_dim, math.inf)


def vr_core_filtration(s: PointSample, grid, max_dim, *,
                       budget: int = DEFAULT_SIMPLEX_BUDGET) -> Filtration:
    """The Vietoris-Rips filtration, at a one-scale grid (t,), of the core
    that a strong collapse leaves of ``vr_complex(s, t)``.

    A dominated vertex v (N[v] within N[w] for another vertex w, among the
    vertices left) is removed until none is left.  Each removal is a
    deformation retraction of the flag complex (Boissonnat & Pritam, SoCG
    2020), so the core has the Betti numbers of the whole complex, in every
    dimension.  Its edges are those of the whole complex between core
    vertices (:func:`_core_filtration`).

    The budget counts the whole complex through ``max_dim`` without listing
    it, and raises as :func:`vr_filtration` would.  Through the triangles the
    count comes from C = A @ A, for the closed adjacency matrix A, whose
    entry C[v, w] is |N[v] & N[w]|: an edge vw is in C[v, w] - 2 triangles.
    Deeper, a walk over the cliques counts them (:func:`_count_cliques`).

    The same C gives the first removals, by one rule: v goes if some w has
    N[v] <= N[w] (C[v, w] = C[v, v]) and ranks above v by (|N[w]|, w).  That
    is the sweep that checks the vertices once in index order, each against
    the vertices still left: domination is transitive, so a dominator of v
    with a maximal neighbourhood and the highest index among its twins
    (equal closed neighbourhoods) is never removed, and the sweep removes v
    exactly when v has a strict dominator or a twin with a higher index.
    The rounds of :func:`_strong_collapse` then start from the vertices the
    sweep leaves, ``left``, in the closed neighbourhoods of the whole graph.
    """
    grid = check_grid(grid)
    if len(grid) != 1:
        raise ValueError(f"vr_core_filtration takes a one-scale grid, got {len(grid)} scales")
    if max_dim == -1:  # a core is built for a Betti number, to a finite depth
        raise ValueError("vr_core_filtration takes a positive max_dim, got -1")
    md = _normalize_max_dim(max_dim)
    n = len(s)
    near = pairwise_distances(s) <= grid[0]
    np.fill_diagonal(near, True)  # closed neighbourhoods
    closed = _bitmask_rows(near)
    adjacency = near.astype(np.float64)  # exact: every sum below is an integer < 2**53
    common = adjacency @ adjacency
    degree = common.diagonal()  # |N[v]|
    if md in (1, 2):
        edges = (int(degree.sum()) - n) // 2
        size = n + edges
        if md == 2:  # C[v, w] summed over the ordered edges (v, w): 6 triangles + 4 edges
            ordered = round(float(np.sum(common * adjacency) - degree.sum()))
            size += (ordered - 4 * edges) // 6
    else:
        size = _count_cliques([mask ^ (1 << v) for v, mask in enumerate(closed)], md + 1, budget)
    if size > budget:
        raise SimplexBudgetError(budget)
    rank = degree * n + np.arange(n)  # by |N[v]|, then by index
    swept = ((common == degree[:, None]) & (rank > rank[:, None])).any(axis=1)
    left = int.from_bytes(np.packbits(~swept, bitorder="little").tobytes(), "little")
    return _core_filtration(closed, left, grid, md)


def cech_filtration_circle(s: PointSample, grid, max_dim=-1, *,
                           budget: int = DEFAULT_SIMPLEX_BUDGET) -> Filtration:
    """One filtration for the circle Cech complexes at every grid scale.

    Its step-s prefix is ``cech_complex_circle(s, grid[s], max_dim)``: an edge
    enters at the first scale t with distance < 2t, and a larger simplex at
    the later of its longest edge's step and the first t above the minimax
    distance (1 - largest gap) / 2, computed as :func:`_circle_arcs_intersect`
    does.  Built to a finite ``max_dim`` it keeps every simplex.  The edges
    are the pairs at distance < 2 max(grid) that :func:`_sorted_pairs` finds,
    with the distances of ``pairwise_distances(s)`` but without that matrix.
    """
    if s.manifold.kind != CIRCLE:
        raise UnsupportedDomainError("cech_filtration_circle requires a circle sample")
    grid = check_grid(grid, positive=True)
    md = _normalize_max_dim(max_dim)
    positions = s.points.tolist()

    def arc_step(key: int) -> int:
        pts = sorted(positions[v] for v in _iter_bits(key))
        gmax = 1.0 - pts[-1] + pts[0]
        for a, b in zip(pts, pts[1:]):
            gmax = max(gmax, b - a)
        return bisect_right(grid, (1.0 - gmax) / 2.0)

    # open: two arcs of radius t meet iff the distance is < 2t
    return _filtration(len(s), *_sorted_pairs(s, 2.0 * np.asarray(grid), True),
                       grid, md, budget, simplex_step=arc_step)

