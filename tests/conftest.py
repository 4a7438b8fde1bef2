import contextlib
import os
import signal

import numpy as np
import pytest

from betticurve.estimator import _trial_values
from betticurve.manifolds import PointSample, circle

PARENT_PID = "BETTICURVE_TEST_PARENT_PID"


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


def killing_trial(*args):
    """``estimator._trial_values`` that kills its own process with SIGKILL at
    (n=10, trial 1), unless that process is $BETTICURVE_TEST_PARENT_PID."""
    if args[-1] == (10, 1) and os.getpid() != int(os.environ[PARENT_PID]):
        os.kill(os.getpid(), signal.SIGKILL)
    return _trial_values(*args)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block runs longer than
    ``seconds``, so that a fan-out waiting on a dead worker fails instead of
    hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
