"""Betti numbers over GF(2), Euler characteristic, and a brute-force oracle.

Coefficients are fixed to GF(2): boundary matrices become bit matrices and a
Betti number is ``#i-simplices - rank d_i - rank d_{i+1}``.  The curves at
every step of one :class:`~betticurve.complexes.Filtration`
(:func:`betti_curve`, :func:`euler_curve`) read steps only, never a scale (a
Vietoris-Rips Euler curve comes from
:func:`~betticurve.complexes.vr_euler_curve` instead); :func:`betti` and
:func:`euler_characteristic` evaluate a single complex.  Homology is
unreduced (a point has b0 = 1).  GF(2) Betti numbers can differ from rational
ones on spaces with 2-torsion; the model manifolds used here have none.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import and_

from .errors import SimplexBudgetError
from .complexes import Filtration, SimplicialComplex, _core_filtration, _iter_bits

BRUTEFORCE_SIMPLEX_LIMIT = 1 << 14


@dataclass(frozen=True)
class InvariantSpec:
    """A topological invariant whose magnitude is bounded by the simplex count.

    kind is "betti" (with ``dim``) or "euler".
    """

    kind: str
    dim: int = 0

    def __post_init__(self):
        if self.kind not in ("betti", "euler"):
            raise ValueError(f"unknown invariant kind {self.kind!r}")
        if self.kind == "betti" and self.dim < 0:
            raise ValueError("Betti dimension must be nonnegative")

    def evaluate(self, complex_: SimplicialComplex) -> int:
        if self.kind == "betti":
            return betti(complex_, self.dim)
        return euler_characteristic(complex_)

    @property
    def max_dim(self) -> int:
        """Dimension the complex must be built to: k + 1 for b_k, which
        depends only on the (k+1)-skeleton, and -1 (the full complex) for
        the Euler characteristic, which needs every dimension."""
        return self.dim + 1 if self.kind == "betti" else -1


def betti_invariant(dim: int) -> InvariantSpec:
    return InvariantSpec("betti", dim)


def euler_invariant() -> InvariantSpec:
    return InvariantSpec("euler")


def _gf2_rank(columns: list[int]) -> int:
    """Rank of a GF(2) matrix given as bit-packed columns."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                rank += 1
                break
            col ^= piv
    return rank


def _boundary_columns(complex_: SimplicialComplex, dim: int) -> list[int]:
    """Columns of the boundary map from dim-simplices to (dim-1)-simplices."""
    if dim == 0:
        return []
    faces = {s: i for i, s in enumerate(complex_.simplices(dim - 1))}
    cols = []
    for simplex in complex_.simplices(dim):
        bits = 0
        for drop in range(len(simplex)):
            facet = simplex[:drop] + simplex[drop + 1:]
            bits ^= 1 << faces[facet]
        cols.append(bits)
    return cols


def betti(complex_: SimplicialComplex, i: int) -> int:
    """dim H_i over GF(2), by bit-packed column reduction of boundary maps."""
    if i < 0:
        raise ValueError("Betti dimension must be nonnegative")
    if not complex_.is_full and complex_.max_dim_built < i + 1:
        raise ValueError(
            f"betti({i}) needs the complex built to dimension >= {i + 1}, "
            f"got max_dim_built={complex_.max_dim_built}")
    n_i = len(complex_.simplices(i))
    rank_i = _gf2_rank(_boundary_columns(complex_, i))
    rank_up = _gf2_rank(_boundary_columns(complex_, i + 1))
    return n_i - rank_i - rank_up


def euler_characteristic(complex_: SimplicialComplex) -> int:
    """Alternating sum of simplex counts; only defined on full complexes."""
    if not complex_.is_full:
        raise ValueError(
            "Euler characteristic requires a full (untruncated) complex; "
            f"this one was truncated at dimension {complex_.max_dim_built}")
    return sum((-1) ** k * len(s) for k, s in complex_.simplices_by_dim.items())


def _coboundary(f: Filtration):
    """The coboundary of the p-th dim-simplex over its cofacets' indices (see
    :class:`~betticurve.complexes.Filtration`): their stored positions
    wherever the triangles are stored, or, in a Vietoris-Rips filtration for
    b1, which stores none, the index of a triangle from the block of its
    longest edge, found in an n x n table of edge positions."""
    keys, nbr, first, offsets = f.keys, f.neighbours, f.first, f.offsets
    common = lambda key: reduce(and_, map(nbr.__getitem__, _iter_bits(key)))
    if len(keys) > 2:  # stored positions; some circle Cech cliques are missing
        position = {key: q for group in keys for q, key in enumerate(group)}

        def stored(dim: int, p: int) -> int:
            # one int from bytes: summing shifted ints adds the full width per cofacet
            key, rows = keys[dim][p], bytearray(len(keys[dim + 1]) + 7 >> 3)
            for v in _iter_bits(common(key)):
                q = position.get(key | 1 << v)
                if q is not None:
                    rows[q >> 3] |= 1 << (q & 7)
            return int.from_bytes(rows, "little")
        return stored
    pos = [[len(f.edges)] * len(nbr) for _ in nbr]  # the edge count where there is none
    for p, (a, b) in enumerate(f.edges):
        pos[a][b] = pos[b][a] = p
    width = sum(f.counts[2]) + 7 >> 3

    def triangles(dim: int, p: int) -> int:  # dim is 1: edges are all this build keeps
        key, cand, rows = keys[1][p], common(keys[1][p]), bytearray(width)
        pa, pb = (pos[v] for v in f.edges[p])
        cofacets = cand.bit_count()
        while cand:  # a triangle's rank in its block is that of its third vertex
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            ra, rb = pa[v], pb[v]  # the longest edge, by comparisons: max() is slower
            r = p if p > ra and p > rb else ra if ra > rb else rb
            third = (key | low) ^ keys[1][r]
            q = offsets[r] + (first[r] & (third - 1)).bit_count()
            rows[q >> 3] |= 1 << (q & 7)
        col = int.from_bytes(rows, "little")
        if col.bit_count() != cofacets:  # two cofacets were given one row
            raise RuntimeError(f"cofacet index fault: the {cofacets} cofacets of edge {p} "
                               f"{f.edges[p]} fill {col.bit_count()} rows")
        return col

    return triangles


def betti_curve(filtration: Filtration, i: int) -> list[int]:
    """dim H_i over GF(2) of the complex at every step of the filtration.

    b_i(s) = N_i(s) - R_i(s) - R_{i+1}(s), where N_i(s) counts the
    i-simplices with step <= s and R_d(s), the rank of the boundary map on
    the d-simplices with step <= s, counts the negative d-simplices (those
    that kill a class) among them.  Filtration prefixes ending at a step
    boundary are the per-scale complexes, so these are their ranks.  Rows
    are in step order, so N_d(s) is the end of step s, a sum of
    ``counts[d]``, and R_d(s) the number of negative d-rows before it.
    Negative edges come from union-find in edge order; higher ones are the
    pivots (cofacet indices) of a coboundary reduction (persistent
    cohomology, whose pairs are those of homology) over dimensions 1..i,
    taking columns in reverse filtration order and skipping, by clearing,
    the columns of simplices already known to be negative, whose reduced
    coboundaries are zero.  With the block index (in every Vietoris-Rips
    filtration for b_k, k >= 1), an edge p with ``first[p]`` nonzero pairs
    with triangle ``offsets[p]``, its earliest cofacet, whose latest facet it
    is, and its column is built only if another is reduced against it.  Each
    step of a reduction must move the pivot later; if a column lacks the
    pivot it is recorded under, the cofacet index is faulty and RuntimeError
    is raised rather than reducing forever.

    The columns left in dimension i are positive i-simplices, and those of
    the b_i(last step) essential classes are among them.  So when exactly
    one is left in a filtration of more than one step with the block index
    (a flag complex's: a circle Cech one has none), b_i at the last step is
    read off the strong-collapse core of that step's graph (``neighbours``),
    which has that complex's Betti numbers: 1 means the column is essential
    and has no pivot, so it is skipped; 0 means it is paired and is reduced;
    any other answer raises RuntimeError.
    """
    if i < 0:
        raise ValueError("Betti dimension must be nonnegative")
    if i and filtration.max_dim <= i:  # every filtration keeps its edges
        raise ValueError(
            f"betti_curve({i}) needs a filtration built to dimension >= {i + 1} "
            f"(a full one keeps only its edges), got max_dim={filtration.max_dim}")
    parent = list(range(len(filtration.neighbours)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cleared = set()  # the negative simplices of the dimension below
    for p, (a, b) in enumerate(filtration.edges):
        if len(cleared) == len(parent) - 1:
            break  # one component is left
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            cleared.add(p)
    negative = [(), cleared]  # the rows that kill a class, by dimension

    coboundary = None  # built for the first column that is reduced
    for dim in range(1, i + 1):
        owner: dict[int, int] = {}  # pivot -> the column reduced onto it
        reduced: dict[int, int] = {}  # columns built so far, by position
        columns = []  # to reduce, in reverse filtration order
        for p in range(len(filtration.keys[dim]) - 1, -1, -1):
            if p in cleared:
                continue
            if dim == 1 and filtration.offsets and filtration.first[p]:
                # its unreduced coboundary has a pivot no later column shares;
                # no later edge is a facet of that triangle, so no column
                # reduced before p would have reached it
                owner[filtration.offsets[p]] = p
            else:
                columns.append(p)
        if dim == i and len(columns) == 1 and filtration.offsets and len(filtration.counts[0]) > 1:
            closed = [nbr | 1 << v for v, nbr in enumerate(filtration.neighbours)]
            core = _core_filtration(closed, (1 << len(closed)) - 1, i + 1)
            essential = betti_curve(core, i)[0]
            if essential not in (0, 1):
                raise RuntimeError(
                    f"b{i} at the last step is {essential!r} with one {i}-simplex "
                    f"{tuple(_iter_bits(filtration.keys[i][columns[0]]))} left to reduce")
            if essential:
                columns = []
        if columns and coboundary is None:
            coboundary = _coboundary(filtration)
        for p in columns:
            col, low = coboundary(dim, p), -1
            while col:
                last, low = low, (col & -col).bit_length() - 1
                if low <= last:  # the column just added lacked pivot `last`; it would loop
                    raise RuntimeError(
                        f"cofacet index fault: the coboundary of {dim}-simplex {other} "
                        f"{tuple(_iter_bits(filtration.keys[dim][other]))} lacks pivot {last}")
                other = owner.get(low)
                if other is None:
                    owner[low] = p
                    reduced[p] = col
                    break
                if other not in reduced:
                    reduced[other] = coboundary(dim, other)
                col ^= reduced[other]
        negative.append(owner)
        cleared = owner

    rows, rows_up = sorted(negative[i]), sorted(negative[i + 1])
    return [end - bisect_left(rows, end) - bisect_left(rows_up, end_up)
            for end, end_up in zip(accumulate(filtration.counts[i]),
                                   accumulate(filtration.counts[i + 1]))]


def euler_curve(filtration: Filtration) -> list[int]:
    """Euler characteristic of the complex at every step: cumulative
    alternating simplex counts, no linear algebra.  A full filtration is a
    circle Cech one; the Vietoris-Rips curve is
    :func:`~betticurve.complexes.vr_euler_curve`'s."""
    if filtration.max_dim != -1:
        raise ValueError(
            "Euler characteristic requires a full (untruncated) complex; "
            f"this filtration was built to dimension {filtration.max_dim}")
    increments = [sum(-c[s] if d % 2 else c[s] for d, c in enumerate(filtration.counts))
                  for s in range(len(filtration.counts[0]))]
    return list(accumulate(increments))


def _dense_gf2_rank(rows: list[list[int]]) -> int:
    """Deliberately naive dense Gaussian elimination over GF(2)."""
    if not rows or not rows[0]:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    mat = [row[:] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if mat[r][col] == 1:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(nrows):
            if r != rank and mat[r][col] == 1:
                for c in range(ncols):
                    mat[r][c] ^= mat[rank][c]
        rank += 1
    return rank


def betti_oracle_bruteforce(complex_: SimplicialComplex, i: int) -> int:
    """Independent slow-path Betti computation for cross-validation.

    Builds dense 0/1 boundary matrices and runs textbook Gaussian elimination;
    shares no code with :func:`betti` beyond the simplex lists.
    """
    if i < 0:
        raise ValueError("Betti dimension must be nonnegative")
    if not complex_.is_full and complex_.max_dim_built < i + 1:
        raise ValueError("complex not built deep enough for this Betti number")
    total = complex_.simplex_count()
    if total > BRUTEFORCE_SIMPLEX_LIMIT:
        raise SimplexBudgetError(
            BRUTEFORCE_SIMPLEX_LIMIT,
            f"brute-force oracle limited to {BRUTEFORCE_SIMPLEX_LIMIT} simplices, got {total}")

    def dense_boundary(dim: int) -> list[list[int]]:
        lower = complex_.simplices(dim - 1)
        upper = complex_.simplices(dim)
        if dim == 0 or not upper:
            return []
        index = {s: r for r, s in enumerate(lower)}
        mat = [[0] * len(upper) for _ in lower]
        for c, simplex in enumerate(upper):
            for drop in range(len(simplex)):
                facet = simplex[:drop] + simplex[drop + 1:]
                mat[index[facet]][c] = 1
        return mat

    n_i = len(complex_.simplices(i))
    return n_i - _dense_gf2_rank(dense_boundary(i)) - _dense_gf2_rank(dense_boundary(i + 1))


def connected_components(complex_: SimplicialComplex) -> int:
    """Component count of the 1-skeleton via union-find (independent b0 check)."""
    parent = list(range(complex_.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in complex_.simplices(1):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(v) for v in range(complex_.num_vertices)})
