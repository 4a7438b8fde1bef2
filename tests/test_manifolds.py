import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from betticurve.errors import UnsupportedDomainError
from betticurve.manifolds import (ManifoldModel, PointSample, circle, covering_radius,
                                  covering_tail_bound, flat_torus, mix_seed,
                                  pairwise_distances, sample, sphere2)

ALL_MANIFOLDS = [circle(), flat_torus(2), flat_torus(3), sphere2()]
# the largest geodesic distance on each
DIAMETERS = {circle(): 0.5, flat_torus(2): math.sqrt(2) / 2, flat_torus(3): math.sqrt(3) / 2,
             sphere2(): math.pi}


class TestSampling:
    def test_deterministic_given_seed_and_trial(self):
        for m in ALL_MANIFOLDS:
            a = sample(m, 3, master_seed=987, trial_index=0)
            b = sample(m, 3, master_seed=987, trial_index=0)
            np.testing.assert_array_equal(a.points, b.points)

    def test_trials_differ(self):
        a = sample(circle(), 5, 1, 0)
        b = sample(circle(), 5, 1, 1)
        assert not np.array_equal(a.points, b.points)

    def test_sphere_points_normalized(self):
        s = sample(sphere2(), 1000, 5, 0)
        norms = np.linalg.norm(s.points, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_circle_mean_matches_uniform(self):
        n = 10**5
        s = sample(circle(), n, 123, 0)
        sigma = math.sqrt(1.0 / 12.0)
        assert abs(float(np.mean(s.points)) - 0.5) < 4 * sigma / math.sqrt(n)

    def test_fundamental_domain(self):
        s = sample(flat_torus(3), 500, 2, 0)
        assert np.all((s.points >= 0) & (s.points < 1))

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            sample(circle(), 0, 1, 0)

    def test_unknown_manifold_rejected(self):
        with pytest.raises(ValueError, match="unknown manifold kind 'klein'"):
            ManifoldModel("klein")

    def test_mix_seed_is_64_bit_and_spreads(self):
        seeds = {mix_seed(0, k) for k in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)


def two_point_distance(manifold, p, q) -> float:
    pts = np.array([p, q], dtype=float)
    return float(pairwise_distances(PointSample(manifold, pts))[0, 1])


class TestGeodesicDistance:
    """Geodesic distances as `pairwise_distances` computes them."""

    def test_circle_wraparound(self):
        assert two_point_distance(circle(), 0.1, 0.9) == pytest.approx(0.2)

    def test_sphere_antipodal(self):
        d = two_point_distance(sphere2(), (1, 0, 0), (-1, 0, 0))
        assert d == pytest.approx(math.pi)

    @pytest.mark.parametrize("angle", [1e-9, 1e-5])
    def test_sphere_small_angles(self, angle):
        # the reference is the angle between the stored vectors, from their
        # cross and dot products in exact arithmetic
        p = (math.cos(0.3), math.sin(0.3), 0.0)
        q = (math.cos(0.3 + angle), math.sin(0.3 + angle), 0.0)
        (px, py, _), (qx, qy, _) = (map(Fraction, v) for v in (p, q))
        exact = math.atan2(px * qy - py * qx, px * qx + py * qy)
        assert exact == pytest.approx(angle, rel=1e-6)
        assert two_point_distance(sphere2(), p, q) == pytest.approx(exact, rel=1e-12)

    def test_torus_wrap_then_norm(self):
        d = two_point_distance(flat_torus(2), (0.9, 0.9), (0.1, 0.1))
        assert d == pytest.approx(math.sqrt(0.08))

    @given(st.floats(0, 0.999), st.floats(0, 0.999))
    def test_circle_symmetric_and_bounded(self, p, q):
        d = two_point_distance(circle(), p, q)
        assert d == two_point_distance(circle(), q, p)
        assert 0 <= d <= 0.5

    @pytest.mark.parametrize("manifold", ALL_MANIFOLDS,
                             ids=["circle", "flat_torus(2)", "flat_torus(3)", "sphere2"])
    def test_metric_properties_on_random_triples(self, manifold):
        s = sample(manifold, 60, 77, 0)
        dist = pairwise_distances(s)
        assert np.allclose(dist, dist.T)
        assert np.all(dist >= 0)
        assert np.all(np.diag(dist) == 0)
        assert np.all(dist <= DIAMETERS[manifold] + 1e-12)
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 60, size=(10_000, 3))
        i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
        assert np.all(dist[i, k] <= dist[i, j] + dist[j, k] + 1e-12)


class TestCoveringRadius:
    def test_circle_exact_examples(self, circle_points):
        assert covering_radius(circle_points([0, 0.25, 0.5, 0.75])).value == pytest.approx(0.125)
        assert covering_radius(circle_points([0, 0.5])).value == pytest.approx(0.25)
        assert covering_radius(circle_points([0, 0.1])).value == pytest.approx(0.45)
        assert covering_radius(circle_points([0.3])).value == pytest.approx(0.5)

    def test_circle_cover_witness(self):
        # balls of radius rho + delta cover a dense probe set (with the deepest
        # gap midpoints included); balls of radius rho - delta do not
        for trial in range(20):
            s = sample(circle(), 7, 31, trial)
            rho = covering_radius(s).value
            srt = np.sort(s.points)
            mids = (srt + np.diff(np.append(srt, srt[0] + 1.0)) / 2.0) % 1.0
            probes = np.concatenate([np.arange(10_000) / 10_000.0, mids])
            d = np.abs(probes[:, None] - s.points[None, :])
            depth = np.min(np.minimum(d, 1.0 - d), axis=1).max()
            delta = 10 * np.finfo(float).eps
            assert depth <= rho + delta
            assert depth > rho - delta

    def test_empty_sample_rejected(self):
        empty = PointSample(circle(), np.empty(0))
        with pytest.raises(ValueError, match="empty sample is undefined"):
            covering_radius(empty)

    def test_grid_resolution_required_off_circle(self):
        # only the circle has an exact covering radius; the others are refused
        for m in (sphere2(), flat_torus(2)):
            with pytest.raises(UnsupportedDomainError):
                covering_radius(sample(m, 10, 1, 0))


class TestCoveringTailBound:
    def test_formula_values(self):
        assert covering_tail_bound(circle(), 0.2, 50) == pytest.approx(5 * 0.8**50)
        assert covering_tail_bound(circle(), 1.0, 1) == 0.0
        assert covering_tail_bound(circle(), 0.2, 1) == 1.0

    def test_non_circle_unsupported(self):
        with pytest.raises(UnsupportedDomainError):
            covering_tail_bound(sphere2(), 0.2, 10)

    def test_bad_arguments_rejected(self):
        for epsilon in (0.0, -0.1):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                covering_tail_bound(circle(), epsilon, 10)
        for n in (0, -3):
            with pytest.raises(ValueError, match="n must be >= 1"):
                covering_tail_bound(circle(), 0.2, n)

    def test_empirical_tail_respects_bound(self):
        trials = 2000
        eps = 0.2
        prev = 1.1
        for n in (5, 10):
            exceed = sum(
                covering_radius(sample(circle(), n, 55, j)).value > eps
                for j in range(trials))
            frac = exceed / trials
            se = math.sqrt(frac * (1 - frac) / trials)
            assert frac <= covering_tail_bound(circle(), eps, n) + 3 * se
            assert frac <= prev
            prev = frac
