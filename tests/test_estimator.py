import functools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from betticurve import estimator, homology
from betticurve.circle_oracle import circle_homotopy_prob
from betticurve.estimator import (CECH, VR, convergence_study, estimate_curve,
                                  max_discrete_slope, sample_curve)
from betticurve.homology import betti, betti_invariant, euler_invariant
from betticurve.manifolds import circle, flat_torus, sample, sphere2
from betticurve.complexes import vr_complex, vr_filtration
from betticurve.errors import SimplexBudgetError, WorkerError
from conftest import PARENT_PID, deadline, killing_trial

B0 = betti_invariant(0)
B1 = betti_invariant(1)
B2 = betti_invariant(2)
EULER = euler_invariant()


@pytest.fixture
def fan_outs(monkeypatch):
    """Records each ``estimator._fan_out`` as [w, the child processes it starts]."""
    import multiprocessing
    made = []

    class CountedProcess(multiprocessing.Process):
        def start(self):
            made[-1][1] += 1
            super().start()

    def fan_out(trial, jobs, w, fan_out=estimator._fan_out):
        made.append([w, 0])
        return fan_out(trial, jobs, w)

    monkeypatch.setattr(estimator, "_fan_out", fan_out)
    monkeypatch.setattr(multiprocessing, "Process", CountedProcess)
    return made


RAN_DIR = "BETTICURVE_TEST_RAN_DIR"
_real_trial_values = estimator._trial_values


def recording_trial(*args):
    """``_trial_values`` that leaves a file per job it starts, in the
    directory named by $BETTICURVE_TEST_RAN_DIR (child processes inherit it);
    jobs with n > 30 only sleep, so that a study is still running them when
    an earlier job fails."""
    n, trial_index = args[-1]
    Path(os.environ[RAN_DIR], f"{n}-{trial_index}").touch()
    if n > 30:
        time.sleep(0.05)
        return [0.0]
    return _real_trial_values(*args)


def one_failure_trial(*args):
    """``_trial_values`` of a study with 4 trials per n, from n = 1: it leaves
    a file per job it starts, named by job index, as ``recording_trial``
    does; job 3 (n = 1, trial 3) overruns at once, and every other job only
    sleeps 0.1 s."""
    n, trial_index = args[-1]
    job = 4 * (n - 1) + trial_index
    Path(os.environ[RAN_DIR], str(job)).touch()
    if job == 3:
        raise SimplexBudgetError(1, None, args[4], trial_index, n)
    time.sleep(0.1)
    return [0.0]


class TestValidation:
    def test_bad_complex_kind(self):
        with pytest.raises(ValueError):
            estimate_curve(circle(), "alpha", B1, 5, [0.1], 10, 0)
        with pytest.raises(ValueError, match="complex_kind must be 'vr' or 'cech'"):
            sample_curve(sample(circle(), 5, 0, 0), "alpha", B1, [0.1])  # not silently VR

    def test_cech_off_circle_rejected(self):
        with pytest.raises(ValueError):
            estimate_curve(sphere2(), CECH, B1, 5, [0.1], 10, 0)

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            estimate_curve(circle(), VR, B1, 5, [0.1], 1, 0)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            estimate_curve(circle(), VR, B1, 5, [0.2, 0.1], 10, 0)
        with pytest.raises(ValueError):
            estimate_curve(circle(), VR, B1, 5, [0.1, 0.1], 10, 0)
        with pytest.raises(ValueError):
            estimate_curve(circle(), VR, B1, 5, [-0.1, 0.1], 10, 0)
        with pytest.raises(ValueError):
            estimate_curve(circle(), VR, B1, 5, [], 10, 0)

    def test_workers_positive(self):
        with pytest.raises(ValueError):
            estimate_curve(circle(), VR, B1, 5, [0.1], 10, 0, workers=0)

    def test_sample_sizes_are_integers(self, monkeypatch):
        # a float n is refused before any trial runs, where int() would
        # truncate it to another study; a numpy integer is an int
        monkeypatch.setattr(estimator, "_run_trials",
                            lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(TypeError):
            estimate_curve(circle(), VR, B1, 10.7, [0.1], 3, 0)
        with pytest.raises(TypeError):
            convergence_study(circle(), VR, B1, 0.1, [10.7, 20.2], 3, 0, 1.0)
        monkeypatch.undo()
        est = estimate_curve(circle(), VR, B1, np.int64(10), [0.1, 0.2], 3, 0)
        assert type(est.n) is int
        same = estimate_curve(circle(), VR, B1, 10, [0.1, 0.2], 3, 0)
        np.testing.assert_array_equal(est.mean, same.mean)
        np.testing.assert_array_equal(est.variance, same.variance)
        table = convergence_study(circle(), VR, B1, 0.1, [np.int64(10), 20], 3, 0, 1.0)
        assert table.n_values == (10, 20) and all(type(n) is int for n in table.n_values)
        np.testing.assert_array_equal(
            table.mean, convergence_study(circle(), VR, B1, 0.1, [10, 20], 3, 0, 1.0).mean)


class TestKnownCurves:
    def test_two_points_have_no_cycle(self):
        est = estimate_curve(circle(), VR, B1, 2, [0.05, 0.2, 0.4], 200, 3)
        np.testing.assert_array_equal(est.mean, 0.0)
        np.testing.assert_array_equal(est.variance, 0.0)
        np.testing.assert_array_equal(est.stderr, 0.0)

    def test_two_point_euler_curve(self):
        # chi = 2 - [d <= t], so E[chi] = 2 - 2t for t in [0, 1/2]
        trials = 40_000
        grid = [0.1, 0.25, 0.4, 0.6]
        est = estimate_curve(circle(), VR, EULER, 2, grid, trials, 11)
        for t, m, se in zip(grid, est.mean, est.stderr):
            expected = 2 - 2 * t if t <= 0.5 else 1.0
            assert abs(m - expected) < 4 * se + 1e-9

    def test_b0_expectation_bounds(self):
        est = estimate_curve(circle(), VR, B0, 6, [0.01, 0.3], 500, 7)
        assert 1.0 <= est.mean[1] <= est.mean[0] <= 6.0

    def test_b1_matches_exact_oracle_small_n(self):
        trials = 20_000
        n, t = 8, 0.2
        est = estimate_curve(circle(), VR, B1, n, [t], trials, 19)
        # at small scales b1 is Bernoulli: the complex is either a circle or
        # a disjoint union of contractible arcs
        p = circle_homotopy_prob(n, t)
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(est.mean[0] - p) < 4 * se + 1e-9
        assert abs(est.variance[0] - p * (1 - p)) < 0.02

    def test_torus_smoke(self):
        est = estimate_curve(flat_torus(2), VR, B0, 10, [0.05, 0.4], 50, 21)
        assert est.mean[0] >= est.mean[1] >= 1.0


def circle_trial_curves(complex_kind, invariant, n, grid, seed, trials):
    """Each trial's curve on the circle, as estimate_curve evaluates it."""
    return np.array([sample_curve(sample(circle(), n, seed, j), complex_kind, invariant, grid)
                     for j in range(trials)], dtype=float)


def check_moments(values, mean, variance):
    """A sample's mean at 4 standard errors of the exact variance, and its
    variance at 4 standard errors of the squared deviations from the exact
    mean."""
    deviations = (values - mean) ** 2
    assert abs(values.mean() - mean) <= 4 * math.sqrt(variance / len(values)) + 1e-12
    assert abs(deviations.mean() - variance) <= \
        4 * deviations.std(ddof=1) / math.sqrt(len(values)) + 1e-12


class TestExactCircleMoments:
    """Exact circle moments for the Euler characteristic, b0 and Cech b1.

    Let G be the number of the n circular gaps longer than t.  For
    Vietoris-Rips at t < 1/3 the complex is a circle when G = 0 and G
    contractible pieces otherwise, so chi = G, b0 = G + [G = 0] and
    b1 = [G = 0].  One gap exceeds t with probability (1 - t)^(n-1), two
    with (1 - 2t)^(n-1).  A circle Cech complex at t < 1/4 is a good cover's
    nerve, so it has the homotopy type of the union of the open arcs: a
    circle iff every gap is below 2t.  A mean is checked at 4 standard
    errors of the exact variance, and a variance at 4 standard errors of
    the per-trial squared deviations from the exact mean.
    """

    TRIALS = 4000
    SEED = 1604

    @classmethod
    def values(cls, complex_kind, invariant, n, grid):
        return circle_trial_curves(complex_kind, invariant, n, grid, cls.SEED, cls.TRIALS)

    @pytest.mark.parametrize("n", [5, 12])
    def test_vietoris_rips_euler_and_b0(self, n):
        grid = [0.05, 0.12, 0.2, 0.32]
        chi, b0 = (self.values(VR, invariant, n, grid) for invariant in (EULER, B0))
        for step, t in enumerate(grid):
            m = n * (1 - t) ** (n - 1)
            p = circle_homotopy_prob(n, t)
            var_chi = m + n * (n - 1) * (1 - 2 * t) ** (n - 1) - m * m
            check_moments(chi[:, step], m, var_chi)
            check_moments(b0[:, step], m + p, var_chi + p * (1 - p) - 2 * p * m)

    @pytest.mark.parametrize("n", [5, 12])
    def test_cech_b1(self, n):
        grid = [0.05, 0.1, 0.15]
        b1 = self.values(CECH, B1, n, grid)
        for step, t in enumerate(grid):
            p = circle_homotopy_prob(n, 2 * t)
            stderr = math.sqrt(p * (1 - p) / self.TRIALS)
            assert abs(b1[:, step].mean() - p) <= 4 * stderr + 1e-12


# Off the circle: (manifold, probability that two points are within t,
# probability that three span a triangle or None, grid).  On the flat 2-torus
# a disc of radius t <= 1/2 has area pi t^2, and for t <= 1/4 three points
# are pairwise within t with probability pi (pi - 3 sqrt(3) / 4) t^4, the
# integral over 0 <= u <= t of 2 pi u lens(u, t), lens(u, t) the area common
# to two discs of radius t at distance u.  On the unit sphere a geodesic cap
# of radius t has area fraction (1 - cos t) / 2.  On the flat 3-torus a ball
# of radius t <= 1/2 has volume 4 pi t^3 / 3.
OFF_CIRCLE = {
    "torus": (flat_torus(2), lambda t: math.pi * t ** 2,
              lambda t: math.pi * (math.pi - 3 * math.sqrt(3) / 4) * t ** 4,
              [0.05, 0.1, 0.15, 0.2, 0.25]),
    "torus3": (flat_torus(3), lambda t: 4 * math.pi * t ** 3 / 3, None,
               [0.1, 0.2, 0.3, 0.4, 0.5]),
    "sphere": (sphere2(), lambda t: (1 - math.cos(t)) / 2, None, [0.2, 0.4, 0.6, 0.8, 1.0]),
}
OFF_CIRCLE_N, OFF_CIRCLE_TRIALS, OFF_CIRCLE_SEED = 20, 3000, 2101


@functools.cache
def off_circle_trials(name):
    """Per trial on the named manifold, each an array of shape (trials,
    len(grid)): the edge and triangle counts N_1 and N_2 at every grid
    scale, and the b0 and b1 curves."""
    manifold, _, _, grid = OFF_CIRCLE[name]
    n1, n2, b0, b1 = [], [], [], []
    for j in range(OFF_CIRCLE_TRIALS):
        s = sample(manifold, OFF_CIRCLE_N, OFF_CIRCLE_SEED, j)
        counts = vr_filtration(s, grid, 2).counts
        n1.append(np.cumsum(counts[1]))
        n2.append(np.cumsum(counts[2]))
        b0.append(sample_curve(s, VR, B0, grid))
        b1.append(sample_curve(s, VR, B1, grid))
    return tuple(np.array(x, dtype=float) for x in (n1, n2, b0, b1))


class TestSimplexCountMoments:
    """Exact simplex-count moments off the circle, at n = 20.

    On a homogeneous space the indicators of two edges are independent even
    when they share a vertex (given the shared point, the other two are
    uniform and independent), so with p(t) the probability that two points
    are within t, the edge count N_1 has mean C(n, 2) p and variance
    C(n, 2) p (1 - p).  The triangle count N_2 on the torus has mean C(n, 3)
    times the triangle probability; its mean is checked at 4 standard errors
    of the trials' own spread.
    """

    @pytest.mark.parametrize("name", sorted(OFF_CIRCLE))
    def test_edge_count(self, name):
        _, edge, _, grid = OFF_CIRCLE[name]
        n1 = off_circle_trials(name)[0]
        pairs = math.comb(OFF_CIRCLE_N, 2)
        for step, t in enumerate(grid):
            check_moments(n1[:, step], pairs * edge(t), pairs * edge(t) * (1 - edge(t)))

    def test_torus_triangle_count(self):
        _, _, triangle, grid = OFF_CIRCLE["torus"]
        n2 = off_circle_trials("torus")[1]
        for step, t in enumerate(grid):
            mean = math.comb(OFF_CIRCLE_N, 3) * triangle(t)
            stderr = n2[:, step].std(ddof=1) / math.sqrt(OFF_CIRCLE_TRIALS)
            assert abs(n2[:, step].mean() - mean) <= 4 * stderr + 1e-12

    @pytest.mark.parametrize("name", sorted(OFF_CIRCLE))
    def test_components_at_least_vertices_minus_edges(self, name):
        # each edge joins at most two components, per sample
        n1, _, b0, _ = off_circle_trials(name)
        assert np.all(b0 >= OFF_CIRCLE_N - n1)


class TestLipschitzInExpectation:
    """The paper's first theorem in expectation, on the circle at t < 1/3.

    k + 1 points span a Vietoris-Rips simplex at scale t with probability
    (k + 1) t^k, so E[N_d(t)] = C(n, d + 1)(d + 1) t^d for the d-simplex
    count N_d.  An entering d-simplex moves b_d or b_(d-1) by one, so on
    [0, T] E[b_k] is Lipschitz with constant L_k = C(n, k + 1)(k + 1)k
    T^(k-1) + C(n, k + 2)(k + 2)(k + 1) T^k, the slopes of E[N_k] and
    E[N_(k+1)] at T.  E[chi] = m = n(1 - t)^(n-1) has the exact slope
    -n(n - 1)(1 - t)^(n-2).  The increments between consecutive scales are
    taken per trial, on one sample (common random numbers).  Their mean is
    checked against the exact difference of m, m + p or p (p the circle
    oracle's probability) within 4 standard errors, and its slope against
    the bound with the same allowance.  An integer increment with mean mu
    has variance at least {mu}(1 - {mu}), {mu} its fractional part, which is
    the floor of the variance used: at n = 12 and t <= 0.1, p is about 1e-8
    and no trial sees b1 change.
    """

    TRIALS = 4000
    SEED = 1805
    GRID = [0.05, 0.1, 0.15, 0.2, 0.25, 0.32]

    @pytest.mark.parametrize("n", [5, 12])
    @pytest.mark.parametrize("invariant", [EULER, B0, B1], ids=["euler", "b0", "b1"])
    def test_mean_increments(self, invariant, n):
        grid, top, k = self.GRID, self.GRID[-1], invariant.dim
        m = lambda t: n * (1 - t) ** (n - 1)
        p = lambda t: circle_homotopy_prob(n, t)
        if invariant.kind == "euler":
            mean = m
            slope = lambda a: n * (n - 1) * (1 - a) ** (n - 2)  # |m'| falls with t
        else:
            mean = (lambda t: m(t) + p(t)) if k == 0 else p
            lipschitz = (math.comb(n, k + 1) * (k + 1) * k * top ** (k - 1)
                         + math.comb(n, k + 2) * (k + 2) * (k + 1) * top ** k)
            slope = lambda a: lipschitz
        values = circle_trial_curves(VR, invariant, n, grid, self.SEED, self.TRIALS)
        for step in range(1, len(grid)):
            a, b = grid[step - 1], grid[step]
            increments, exact = values[:, step] - values[:, step - 1], mean(b) - mean(a)
            frac = exact - math.floor(exact)
            stderr = math.sqrt(max(increments.var(ddof=1), frac * (1 - frac)) / self.TRIALS)
            assert abs(increments.mean() - exact) <= 4 * stderr + 1e-12
            assert abs(increments.mean()) / (b - a) <= slope(a) + 4 * stderr / (b - a)

    @pytest.mark.parametrize("name, k", [("torus", 0), ("torus", 1), ("torus3", 0),
                                         ("sphere", 0)])
    def test_mean_increments_off_circle(self, name, k):
        # b_k moves by at most the k- and (k+1)-simplices entering, so its mean
        # increment by at most the increment of E[N_1] (b0), or of
        # E[N_1] + E[N_2] (b1, on the torus, where E[N_2] is exact)
        _, edge, triangle, grid = OFF_CIRCLE[name]
        n = OFF_CIRCLE_N
        bound = lambda t: math.comb(n, 2) * edge(t) + (k and math.comb(n, 3) * triangle(t))
        values = off_circle_trials(name)[2 + k]
        for step in range(1, len(grid)):
            increments = values[:, step] - values[:, step - 1]
            stderr = increments.std(ddof=1) / math.sqrt(OFF_CIRCLE_TRIALS)
            assert abs(increments.mean()) <= \
                bound(grid[step]) - bound(grid[step - 1]) + 4 * stderr


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = estimate_curve(circle(), VR, B1, 10, [0.1, 0.2], 30, 5)
        b = estimate_curve(circle(), VR, B1, 10, [0.1, 0.2], 30, 5)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.variance, b.variance)

    def test_worker_count_does_not_change_bits(self):
        serial = estimate_curve(circle(), VR, B1, 12, [0.08, 0.15, 0.25], 24, 9)
        parallel = estimate_curve(circle(), VR, B1, 12, [0.08, 0.15, 0.25], 24, 9,
                                  workers=3)
        np.testing.assert_array_equal(serial.mean, parallel.mean)
        np.testing.assert_array_equal(serial.variance, parallel.variance)
        np.testing.assert_array_equal(serial.stderr, parallel.stderr)

    def test_cech_path_deterministic(self):
        a = estimate_curve(circle(), CECH, B1, 8, [0.1, 0.2], 20, 13)
        b = estimate_curve(circle(), CECH, B1, 8, [0.1, 0.2], 20, 13, workers=2)
        np.testing.assert_array_equal(a.mean, b.mean)

    def test_per_trial_coupling_is_monotone_for_b0(self):
        # with common random numbers, b0 is nonincreasing in t trial by trial,
        # hence so is the mean
        est = estimate_curve(circle(), VR, B0, 15, np.linspace(0.01, 0.3, 6), 100, 2)
        assert np.all(np.diff(est.mean) <= 1e-12)


class TestConvergenceStudy:
    def test_table_shape_and_error(self):
        table = convergence_study(circle(), VR, B1, 0.1, [4, 8, 16], 400, 3,
                                  target=circle_homotopy_prob(16, 0.1),
                                  target_source="exact circle oracle")
        assert table.n_values == (4, 8, 16)
        assert table.mean.shape == (3,)
        np.testing.assert_allclose(
            table.abs_error, np.abs(table.mean - table.target))

    def test_error_shrinks_toward_oracle(self):
        t = 0.12
        target = circle_homotopy_prob(60, t)
        assert target > 0.85
        table = convergence_study(circle(), VR, B1, t, [5, 20, 60], 600, 17,
                                  target=target)
        assert table.abs_error[-1] < table.abs_error[0]
        assert table.abs_error[-1] < 0.1

    def test_worker_count_does_not_change_bits(self):
        # n values of unequal cost share one pool's chunks
        tables = [convergence_study(circle(), VR, B1, 0.12, [5, 20, 60], 30, 8, target=1.0,
                                    workers=workers)
                  for workers in (1, 2, 3)]
        for table in tables[1:]:
            for name in ("mean", "variance", "stderr", "abs_error"):
                np.testing.assert_array_equal(getattr(table, name), getattr(tables[0], name))

    def test_one_fan_out_per_study(self, fan_outs):
        serial = convergence_study(circle(), VR, B1, 0.12, [5, 20, 60], 30, 8, target=1.0)
        assert fan_outs == []
        pooled = convergence_study(circle(), VR, B1, 0.12, [5, 20, 60], 30, 8, target=1.0,
                                   workers=2)
        assert fan_outs == [[2, 1]]  # this process and one child
        np.testing.assert_array_equal(pooled.mean, serial.mean)
        np.testing.assert_array_equal(pooled.variance, serial.variance)
        np.testing.assert_array_equal(pooled.stderr, serial.stderr)

    def test_never_more_workers_than_jobs(self, fan_outs):
        # w = min(workers, jobs) processes: this one and w - 1 children
        estimate_curve(circle(), VR, B1, 5, [0.1], 4, 0, workers=8)
        estimate_curve(circle(), VR, B1, 5, [0.1], 4, 0, workers=3)
        convergence_study(circle(), VR, B1, 0.1, [4, 8], 2, 0, target=1.0, workers=8)
        assert fan_outs == [[4, 3], [3, 2], [4, 3]]

    def test_killed_worker_raises_at_once(self, monkeypatch):
        # a child killed by SIGKILL (as by the out-of-memory killer) sends
        # nothing; its pipe reads EOF, and the study raises, naming the worker
        # and its exit code, instead of waiting for it, and leaves no child
        import multiprocessing
        monkeypatch.setenv(PARENT_PID, str(os.getpid()))
        monkeypatch.setattr(estimator, "_trial_values", killing_trial)
        start = time.monotonic()
        with deadline(10), pytest.raises(WorkerError,
                                         match=r"^worker process 1 of 2 exited with code -9 "):
            convergence_study(circle(), VR, B1, 0.1, [10, 20], 8, 0, 1.0, workers=2)
        assert time.monotonic() - start < 3.0
        assert multiprocessing.active_children() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_study(circle(), VR, B1, 0.1, [0, 8], 100, 0, target=0.5)
        # the scale goes through check_grid: t = 0 is a Vietoris-Rips scale, no Cech one
        with pytest.raises(ValueError, match="grid scales must be positive"):
            convergence_study(circle(), CECH, B1, 0.0, [4, 8], 100, 0, target=0.5)
        with pytest.raises(ValueError, match="grid scales must be nonnegative"):
            convergence_study(circle(), VR, B1, float("nan"), [4, 8], 100, 0, target=0.5)
        with pytest.raises(ValueError):
            convergence_study(circle(), VR, B1, 0.1, [8, 4], 100, 0, target=0.5)
        with pytest.raises(ValueError):
            convergence_study(circle(), VR, B1, 0.1, [], 100, 0, target=0.5)


class TestLipschitzDiagnostic:
    """`max_discrete_slope`, criterion 4's check that a curve is Lipschitz in t."""

    def test_constant_curve_has_zero_slope(self):
        est = estimate_curve(circle(), VR, B1, 2, [0.05, 0.15, 0.25], 50, 1)
        assert max_discrete_slope(est.grid, est.mean) == (0.0, (0.05, 0.15))

    def test_two_point_euler_slope_near_two(self):
        est = estimate_curve(circle(), VR, EULER, 2, np.linspace(0.05, 0.45, 9),
                             40_000, 23)
        # E[chi] = 2 - 2t on this range, so every discrete slope is near 2
        slope, _ = max_discrete_slope(est.grid, est.mean)
        assert abs(slope - 2.0) < 0.5

    def test_argmax_interval_is_grid_interval(self):
        est = estimate_curve(circle(), VR, B1, 10, [0.05, 0.15, 0.25], 200, 29)
        _, (lo, hi) = max_discrete_slope(est.grid, est.mean)
        assert (lo, hi) in {(0.05, 0.15), (0.15, 0.25)}

    def test_needs_two_grid_points(self):
        est = estimate_curve(circle(), VR, B1, 5, [0.1], 10, 0)
        with pytest.raises(ValueError):
            max_discrete_slope(est.grid, est.mean)

    def test_max_discrete_slope_direct(self):
        slope, interval = max_discrete_slope([0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
        assert slope == 2.0
        assert interval == (0.0, 1.0)
        with pytest.raises(ValueError):
            max_discrete_slope([0.0], [1.0])

    def test_grid_must_be_strictly_increasing(self):
        # a decreasing grid would report a negative slope, a repeated point inf
        for grid in ([0.3, 0.2, 0.1], [0.1, 0.2, 0.2], [0.1, float("nan"), 0.3]):
            with pytest.raises(ValueError, match="strictly increasing"):
                max_discrete_slope(grid, [0.0, 1.0, 3.0])


class TestBudgetPropagation:
    def test_budget_abort_surfaces(self):
        with pytest.raises(SimplexBudgetError):
            estimate_curve(circle(), VR, EULER, 18, [0.45], 5, 3, budget=200)

    def test_budget_error_pickle_round_trip(self):
        import pickle

        exc = pickle.loads(pickle.dumps(SimplexBudgetError(100)))
        assert isinstance(exc, SimplexBudgetError)
        assert exc.budget == 100
        assert str(exc) == "simplex budget of 100 exceeded"
        custom = pickle.loads(pickle.dumps(SimplexBudgetError(7, "too big")))
        assert (custom.budget, str(custom)) == (7, "too big")
        assert (custom.master_seed, custom.trial_index, custom.n) == (None, None, None)
        named = pickle.loads(pickle.dumps(
            SimplexBudgetError(7, master_seed=5, trial_index=3, n=11)))
        assert (named.budget, str(named), named.master_seed, named.trial_index, named.n) == \
            (7, "simplex budget of 7 exceeded", 5, 3, 11)

    def test_budget_error_crosses_workers_intact(self):
        with pytest.raises(SimplexBudgetError) as info:
            estimate_curve(circle(), VR, EULER, 18, [0.45], 4, 3, workers=2, budget=100)
        assert info.value.budget == 100
        assert str(info.value) == "simplex budget of 100 exceeded"

    @pytest.mark.parametrize("invariant, grid", [
        pytest.param(invariant, grid, id=name + suffix)
        for grid, suffix in (([0.1, 0.3, 0.45], ""), ([0.45], "-one-scale"))
        for invariant, name in ((B1, "betti1"), (B2, "betti2"), (EULER, "euler"))])
    def test_budget_counts_the_invariants_depth(self, invariant, grid):
        # b_k builds and counts the simplices of dimension <= k+1, the Euler
        # characteristic all of them: the run aborts exactly below the
        # largest of those counts over the trials, and names the first trial
        # that has more.  At one scale a Betti number reduces the
        # strong-collapse core, but its budget still counts the whole
        # complex, dimension k+1 without listing it.
        samples = [sample(flat_torus(2), 9, 17, j) for j in range(2)]
        assert vr_complex(samples[0], grid[-1]).dimension >= 4  # so the counts differ
        sizes = [vr_complex(s, grid[-1], invariant.max_dim).simplex_count() for s in samples]
        size = max(sizes)
        with pytest.raises(SimplexBudgetError) as info:
            estimate_curve(flat_torus(2), VR, invariant, 9, grid, 2, 17, budget=size - 1)
        assert (info.value.master_seed, info.value.trial_index, info.value.n) == \
            (17, sizes.index(size), 9)
        estimate_curve(flat_torus(2), VR, invariant, 9, grid, 2, 17, budget=size)

    def test_overrun_names_the_same_trial_for_any_worker_count(self):
        # several trials exceed the budget; the error names the first of them
        # in trial order, whichever process ran it
        grid, budget = [0.1, 0.3, 0.45], 48
        sizes = [vr_complex(sample(flat_torus(2), 9, 17, j), grid[-1], 2).simplex_count()
                 for j in range(6)]
        over = [j for j, size in enumerate(sizes) if size > budget]
        assert len(over) > 1 and over[0] > 0
        for workers in (1, 2):
            with pytest.raises(SimplexBudgetError) as info:
                estimate_curve(flat_torus(2), VR, B1, 9, grid, 6, 17, workers=workers,
                               budget=budget)
            assert (info.value.master_seed, info.value.trial_index) == (17, over[0])
            assert str(info.value) == f"simplex budget of {budget} exceeded"

    def test_convergence_overrun_names_its_n(self):
        # every n runs with the same master seed, so the trial alone does not
        # say where to replay: n=5 stays within the budget, n=30 does not
        for workers in (1, 2):
            with pytest.raises(SimplexBudgetError) as info:
                convergence_study(circle(), VR, B1, 0.3, (5, 30), 4, 0, 1.0, workers=workers,
                                  budget=200)
            assert (info.value.master_seed, info.value.trial_index, info.value.n) == (0, 0, 30)
        estimate_curve(circle(), VR, B1, 5, [0.3], 4, 0, budget=200)

    def test_convergence_overrun_cancels_the_larger_n(self, tmp_path, monkeypatch):
        # one fan-out runs the whole study, 60 jobs in two strides: this
        # process's even jobs and one child's odd ones.  Every n=30 job
        # overruns, so each stride ends at its first n=30 job, or before it
        # once the other's failure is known; jobs with n > 30 sleep, and none
        # past n = 33 may start
        monkeypatch.setenv(RAN_DIR, str(tmp_path))
        monkeypatch.setattr(estimator, "_trial_values", recording_trial)
        n_values = (5, 30) + tuple(range(31, 44))
        with pytest.raises(SimplexBudgetError) as info:
            convergence_study(circle(), VR, B1, 0.3, n_values, 4, 0, 1.0, workers=2,
                              budget=200)
        assert (info.value.master_seed, info.value.trial_index, info.value.n) == (0, 0, 30)
        ran = {int(name.split("-")[0]) for name in os.listdir(tmp_path)}
        assert {5, 30} <= ran
        assert max(ran) <= 33

    def test_one_stride_overrun_stops_the_other(self, tmp_path, monkeypatch):
        # only the child's stride overruns, at job 3 (n=1, trial 3): this
        # process learns of it between its own jobs, so it starts at most one
        # job past job 3, every job before job 3 runs, and the error names it
        monkeypatch.setenv(RAN_DIR, str(tmp_path))
        monkeypatch.setattr(estimator, "_trial_values", one_failure_trial)
        with pytest.raises(SimplexBudgetError) as info:
            convergence_study(circle(), VR, B1, 0.3, range(1, 7), 4, 5, 1.0, workers=2)
        assert (info.value.master_seed, info.value.trial_index, info.value.n) == (5, 3, 1)
        ran = sorted(int(name) for name in os.listdir(tmp_path))
        assert ran[:4] == [0, 1, 2, 3]
        assert len(ran) <= 5 and all(job % 2 == 0 for job in ran[4:])

    def test_one_scale_betti_reduces_the_core(self, monkeypatch):
        # a Vietoris-Rips Betti number at one scale is read off the
        # strong-collapse core; on a longer grid off the whole complex's
        # filtration, and a longer grid whose reduction leaves one column
        # (circle b1 at n=30 here) also builds the last step's core, in
        # betti_curve.  The Euler characteristic, at any grid, comes from
        # vr_euler_curve's signed clique sums.  A circle Cech curve is read
        # off its filtration.  Each filtration is read by the reader that
        # sample_curve calls itself.
        built = []
        for module, name in ((estimator, "vr_filtration"), (estimator, "vr_core_filtration"),
                             (estimator, "vr_euler_curve"), (estimator, "cech_filtration_circle"),
                             (estimator, "betti_curve"), (estimator, "euler_curve"),
                             (homology, "_core_filtration")):
            def record(*args, name=name, build=getattr(module, name), **kwargs):
                built.append(name)
                return build(*args, **kwargs)
            monkeypatch.setattr(module, name, record)
        for complex_kind, invariant, grid, n in (
                (VR, B1, [0.2], 6), (VR, B1, [0.1, 0.2], 6), (VR, EULER, [0.2], 6),
                (VR, B2, [0.2], 6), (VR, B1, [0.2, 0.3], 30), (CECH, B1, [0.1], 6),
                (CECH, EULER, [0.1, 0.2], 6)):
            estimate_curve(circle(), complex_kind, invariant, n, grid, 2, 0)
        # betti_curve is recorded as it is called, before the core it builds
        assert built == ["vr_core_filtration", "betti_curve"] * 2 + \
            ["vr_filtration", "betti_curve"] * 2 + ["vr_euler_curve"] * 2 + \
            ["vr_core_filtration", "betti_curve"] * 2 + \
            ["vr_filtration", "betti_curve", "_core_filtration"] * 2 + \
            ["cech_filtration_circle", "betti_curve"] * 2 + \
            ["cech_filtration_circle", "euler_curve"] * 2

    def test_trial_values_match_direct_evaluation(self):
        # one trial recomputed by hand equals the estimator's internals
        n, t, seed = 9, 0.18, 41
        est = estimate_curve(circle(), VR, B1, n, [t], 2, seed)
        vals = []
        for j in range(2):
            s = sample(circle(), n, seed, j)
            vals.append(betti(vr_complex(s, t, 2), 1))
        assert est.mean[0] == np.mean(vals)
