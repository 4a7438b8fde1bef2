import numpy as np
import pytest

from betticurve.manifolds import PointSample, circle


@pytest.fixture
def circle_points():
    """Build a PointSample from explicit circle coordinates."""

    def make(coords):
        pts = np.asarray(coords, dtype=float)
        pts.setflags(write=False)
        return PointSample(circle(), pts)

    return make


def brute_force_vr_simplices(dist: np.ndarray, t: float) -> set[tuple[int, ...]]:
    """Independent VR oracle: all nonempty subsets with pairwise distance <= t."""
    from itertools import combinations

    n = dist.shape[0]
    out: set[tuple[int, ...]] = set()
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            if all(dist[i, j] <= t for i, j in combinations(subset, 2)):
                out.add(subset)
    return out


def check_downward_closure(complex_) -> None:
    """Assert every facet of every stored simplex is stored."""
    simplex_set = complex_.as_simplex_set()
    for dim, group in complex_.simplices_by_dim.items():
        assert sorted(set(group)) == sorted(group), f"duplicates in dim {dim}"
        for simplex in group:
            assert list(simplex) == sorted(simplex)
            assert all(0 <= v < complex_.num_vertices for v in simplex)
            if dim > 0:
                for drop in range(len(simplex)):
                    facet = simplex[:drop] + simplex[drop + 1:]
                    assert facet in simplex_set, f"missing facet {facet} of {simplex}"
    assert complex_.simplices_by_dim.get(0, []) == \
        [(v,) for v in range(complex_.num_vertices)]
