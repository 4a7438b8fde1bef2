"""Model manifolds with analytic uniform measures.

Three models are supported: the unit-circumference circle R/Z, the flat torus
(R/Z)^d and the unit 2-sphere.  Each carries the uniform probability measure
and an exact geodesic distance, so downstream statistical checks have no
numerical knobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDomainError

_MASK64 = (1 << 64) - 1

CIRCLE = "circle"
FLAT_TORUS = "flat_torus"
SPHERE2 = "sphere2"


def mix_seed(master_seed: int, trial_index: int) -> int:
    """Derive a 64-bit per-trial stream seed from (master_seed, trial_index).

    SplitMix64 finalizer applied to ``master_seed XOR trial_index``.  The
    derivation is pure, so trials can be generated on any worker in any order
    and still see identical randomness.
    """
    z = (master_seed ^ trial_index) & _MASK64
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class ManifoldModel:
    """A model manifold with uniform probability measure.

    Use the module-level constructors :func:`circle`, :func:`flat_torus` and
    :func:`sphere2` rather than building instances directly.
    """

    kind: str
    torus_dim: int = 1

    def __post_init__(self):
        if self.kind not in (CIRCLE, FLAT_TORUS, SPHERE2):
            raise ValueError(f"unknown manifold kind {self.kind!r}")
        if self.kind == FLAT_TORUS and self.torus_dim < 1:
            raise ValueError("flat torus dimension must be >= 1")


def circle() -> ManifoldModel:
    return ManifoldModel(CIRCLE)


def flat_torus(d: int) -> ManifoldModel:
    return ManifoldModel(FLAT_TORUS, torus_dim=d)


def sphere2() -> ManifoldModel:
    return ManifoldModel(SPHERE2)


@dataclass(frozen=True, eq=False)
class PointSample:
    """An ordered sample of points on a manifold."""

    manifold: ManifoldModel
    points: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]


def sample(manifold: ManifoldModel, n: int, master_seed: int,
           trial_index: int = 0) -> PointSample:
    """Draw n i.i.d. uniform points, deterministically per (seed, trial)."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(mix_seed(master_seed, trial_index)))
    if manifold.kind == CIRCLE:
        pts = rng.random(n)
    elif manifold.kind == FLAT_TORUS:
        pts = rng.random((n, manifold.torus_dim))
    else:
        pts = rng.standard_normal((n, 3))
        norms = np.linalg.norm(pts, axis=1)
        while np.any(norms < 1e-300):  # reject the (measure-zero) zero vector
            bad = norms < 1e-300
            pts[bad] = rng.standard_normal((int(bad.sum()), 3))
            norms = np.linalg.norm(pts, axis=1)
        pts = pts / norms[:, None]
    pts.setflags(write=False)
    return PointSample(manifold, pts)


def pair_distances(s: PointSample, i: np.ndarray, j: np.ndarray,
                   g: np.ndarray | None = None) -> np.ndarray:
    """The geodesic distance of each pair (i, j) of sample points, for index
    arrays that broadcast together; on the sphere, from the pairs' entries
    ``g`` of the Gram matrix ``points @ points.T``.

    This is the one place that writes each manifold's distance, so a pair's
    distance is the same float whichever pairs are asked for with it.
    """
    pts = s.points
    if s.manifold.kind != SPHERE2:
        d = np.abs(pts[i] - pts[j])
        d = np.minimum(d, 1.0 - d)
        return d if s.manifold.kind == CIRCLE else np.sqrt(np.sum(d * d, axis=-1))
    d = np.arccos(np.clip(g, -1.0, 1.0))
    # arccos loses half the digits of a small angle (points 1e-9 apart would
    # be at distance 0): take the close pairs, a point and itself among them,
    # from their chord instead
    close = np.unravel_index(np.flatnonzero(g > 0.99), g.shape)  # a boolean mask is slower
    i, j = (np.broadcast_to(index, g.shape)[close] for index in (i, j))
    d[close] = 2.0 * np.arcsin(np.linalg.norm(pts[i] - pts[j], axis=-1) / 2.0)
    return d


def pairwise_distances(s: PointSample) -> np.ndarray:
    """Full n x n geodesic distance matrix (vectorized)."""
    index = np.arange(len(s))
    g = s.points @ s.points.T if s.manifold.kind == SPHERE2 else None
    return pair_distances(s, index[:, None], index, g)


def _circle_gaps(points: np.ndarray) -> np.ndarray:
    """Circular gaps between consecutive sorted circle points (wrap included)."""
    srt = np.sort(points)
    gaps = np.diff(srt)
    wrap = 1.0 - srt[-1] + srt[0]
    return np.append(gaps, wrap)


@dataclass(frozen=True)
class CoveringRadiusEstimate:
    """Exact covering radius of a circle sample."""

    value: float


def covering_radius(s: PointSample) -> CoveringRadiusEstimate:
    """Smallest r such that balls of radius r around the sample cover M.

    Exact on the circle (half the largest circular gap); no other manifold has
    an exact method here.
    """
    if s.manifold.kind != CIRCLE:
        raise UnsupportedDomainError("covering radius is implemented for the circle only")
    if len(s) == 0:
        raise ValueError("covering radius of an empty sample is undefined")
    return CoveringRadiusEstimate(float(_circle_gaps(s.points).max()) / 2.0)


def covering_tail_bound(manifold: ManifoldModel, epsilon: float, n: int) -> float:
    """Upper bound on P(covering radius > epsilon) for n uniform circle points.

    Uses k = ceil(1/eps) arcs of radius eps/2 on a uniform grid: the sample
    fails to be an eps-cover only if some arc is missed, giving the bound
    k * (1 - mu(arc))^n, clamped to [0, 1].
    """
    if manifold.kind != CIRCLE:
        raise UnsupportedDomainError("covering tail bound is implemented for the circle only")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    k = math.ceil(1.0 / epsilon)
    arc = min(epsilon, 1.0)
    return min(1.0, k * (1.0 - arc) ** n)
