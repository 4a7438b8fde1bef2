import math

import numpy as np
import pytest

from betticurve.circle_oracle import circle_homotopy_prob
from betticurve.estimator import (CECH, VR, convergence_study, estimate_curve,
                                  max_discrete_slope)
from betticurve.homology import betti, betti_invariant, euler_invariant
from betticurve.manifolds import circle, flat_torus, sample, sphere2
from betticurve.complexes import vr_complex

B0 = betti_invariant(0)
B1 = betti_invariant(1)
EULER = euler_invariant()


class TestValidation:
    def test_bad_complex_kind(self):
        with pytest.raises(ValueError):
            estimate_curve(circle(), "alpha", B1, 5, [0.1], 10, 0)

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

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_study(circle(), VR, B1, 0.0, [4, 8], 100, 0, target=0.5)
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


class TestBudgetPropagation:
    def test_budget_abort_surfaces(self):
        from betticurve.errors import SimplexBudgetError
        with pytest.raises(SimplexBudgetError):
            estimate_curve(circle(), VR, EULER, 18, [0.45], 5, 3, budget=200)

    def test_budget_error_pickle_round_trip(self):
        import pickle

        from betticurve.errors import SimplexBudgetError
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
        from betticurve.errors import SimplexBudgetError
        with pytest.raises(SimplexBudgetError) as info:
            estimate_curve(circle(), VR, EULER, 18, [0.45], 4, 3, workers=2, budget=100)
        assert info.value.budget == 100
        assert str(info.value) == "simplex budget of 100 exceeded"

    @pytest.mark.parametrize("invariant", [B1, EULER], ids=["betti1", "euler"])
    def test_budget_counts_the_invariants_depth(self, invariant):
        # b1 builds and counts the simplices of dimension <= 2, the Euler
        # characteristic all of them: the run aborts exactly below the
        # largest of those counts over the trials
        from betticurve.errors import SimplexBudgetError
        grid = [0.1, 0.3, 0.45]
        depth = 2 if invariant is B1 else -1
        samples = [sample(flat_torus(2), 9, 17, j) for j in range(2)]
        assert vr_complex(samples[0], grid[-1]).dimension >= 3  # so the counts differ
        size = max(vr_complex(s, grid[-1], depth).simplex_count() for s in samples)
        with pytest.raises(SimplexBudgetError):
            estimate_curve(flat_torus(2), VR, invariant, 9, grid, 2, 17, budget=size - 1)
        estimate_curve(flat_torus(2), VR, invariant, 9, grid, 2, 17, budget=size)

    def test_overrun_names_the_same_trial_for_any_worker_count(self):
        # several trials exceed the budget; the error names the first of them
        # in trial order, whichever process ran it
        from betticurve.errors import SimplexBudgetError
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
        from betticurve.errors import SimplexBudgetError
        with pytest.raises(SimplexBudgetError) as info:
            convergence_study(circle(), VR, B1, 0.3, (5, 30), 4, 0, 1.0, budget=200)
        assert (info.value.master_seed, info.value.trial_index, info.value.n) == (0, 0, 30)
        estimate_curve(circle(), VR, B1, 5, [0.3], 4, 0, budget=200)

    def test_trial_values_match_direct_evaluation(self):
        # one trial recomputed by hand equals the estimator's internals
        n, t, seed = 9, 0.18, 41
        est = estimate_curve(circle(), VR, B1, n, [t], 2, seed)
        vals = []
        for j in range(2):
            s = sample(circle(), n, seed, j)
            vals.append(betti(vr_complex(s, t, 2), 1))
        assert est.mean[0] == np.mean(vals)
