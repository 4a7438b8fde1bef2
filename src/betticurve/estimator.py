"""Monte Carlo estimation of invariant curves with deterministic parallelism.

Each trial draws one sample and evaluates the invariant at every grid point on
that same sample (common random numbers across the grid, which makes curve
differences low-variance).  It does so from one filtration per trial: the
complex is built once, at max(grid), to the depth the invariant needs
(dimension k+1 for b_k, every dimension for the Euler characteristic), with
every simplex tagged by the grid step at which it enters, and the simplex
budget counts exactly those simplices.  The whole curve is read off it (Euler
characteristic by cumulative signed counts, Betti numbers by one persistent
cohomology reduction).  The per-scale functions ``vr_complex`` and
``cech_complex_circle`` with ``betti`` and ``euler_characteristic`` stay as
the independent reference path the filtration is tested against, value for
value.  A trial's sample depends only on (master_seed, trial_index) and its
size n.

A run is a list of (n, trial_index) jobs: one n for a curve, every n of a
convergence study.  With one worker they run in this process; with more, one
process pool runs the whole list (one per run, never with more processes than
jobs).  Either way the values come back in job order and are aggregated per
n in trial order, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .complexes import (DEFAULT_SIMPLEX_BUDGET, cech_filtration_circle, check_grid,
                        vr_filtration)
from .errors import SimplexBudgetError
from .homology import InvariantSpec
from .manifolds import CIRCLE, ManifoldModel, sample

VR = "vr"
CECH = "cech"


@dataclass(frozen=True, eq=False)
class CurveEstimate:
    """Monte Carlo estimate of a scale-to-invariant curve."""

    n: int
    trials: int
    grid: tuple[float, ...]
    mean: np.ndarray
    variance: np.ndarray
    stderr: np.ndarray


@dataclass(frozen=True, eq=False)
class ConvergenceTable:
    """Per-n estimates at a fixed scale, against a reference target value."""

    t: float
    n_values: tuple[int, ...]
    trials: int
    mean: np.ndarray
    variance: np.ndarray
    stderr: np.ndarray
    target: float
    target_source: str

    @property
    def abs_error(self) -> np.ndarray:
        return np.abs(self.mean - self.target)


def _trial_values(manifold, complex_kind, invariant, grid, master_seed, budget,
                  job) -> list[float]:
    n, trial_index = job
    s = sample(manifold, n, master_seed, trial_index)
    build = vr_filtration if complex_kind == VR else cech_filtration_circle
    try:
        filtration = build(s, grid, invariant.max_dim, budget=budget)
    except SimplexBudgetError as exc:  # name the trial, so that it can be replayed alone
        raise SimplexBudgetError(exc.budget, str(exc), master_seed, trial_index, n) from None
    return [float(v) for v in invariant.curve(filtration)]


def _check_run(manifold, complex_kind, n_values, grid, trials, workers) -> tuple[float, ...]:
    """The grid as :func:`check_grid` returns it, once every argument of the
    run is valid (``n_values`` is a tuple of ints)."""
    if complex_kind not in (VR, CECH):
        raise ValueError(f"complex_kind must be '{VR}' or '{CECH}', got {complex_kind!r}")
    if complex_kind == CECH and manifold.kind != CIRCLE:
        raise ValueError("Cech estimation is supported on the circle only")
    if trials < 2:
        raise ValueError("at least 2 trials are required (sample variance is undefined otherwise)")
    if not n_values:
        raise ValueError("n_values must be nonempty")
    if any(not a < b for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    if n_values[0] < 1:
        raise ValueError("sample size n must be >= 1")
    grid = check_grid(grid, positive=complex_kind == CECH)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return grid


def _moments(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, ddof=1 variance and standard error per grid scale of one n's
    trials (a list of per-trial value lists)."""
    arr = np.asarray(values, dtype=float)
    variance = arr.var(axis=0, ddof=1)
    return arr.mean(axis=0), variance, np.sqrt(variance / len(values))


def _run_trials(manifold, complex_kind, invariant, n_values, grid, trials, master_seed,
                budget, workers) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`_moments` of each n's trials: the (n, trial_index) jobs of every
    n, run in that order.

    One worker runs them in this process; more share one process pool, never
    larger than the number of jobs.  Either way the values arrive in job
    order and each n's are aggregated as soon as they are all in.  The first
    job to raise (in job order) raises here, and the jobs not yet handed to a
    worker are cancelled.
    """
    trial = partial(_trial_values, manifold, complex_kind, invariant, grid, master_seed,
                    budget)
    jobs = [(n, j) for n in n_values for j in range(trials)]
    if workers == 1:
        values = map(trial, jobs)
        return [_moments(list(islice(values, trials))) for _ in n_values]
    workers = min(workers, len(jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        values = pool.map(trial, jobs, chunksize=math.ceil(len(jobs) / (4 * workers)))
        return [_moments(list(islice(values, trials))) for _ in n_values]


def estimate_curve(manifold: ManifoldModel, complex_kind: str, invariant: InvariantSpec,
                   n: int, grid, trials: int, master_seed: int, *, workers: int = 1,
                   budget: int = DEFAULT_SIMPLEX_BUDGET) -> CurveEstimate:
    """Estimate mean and variance of the invariant at every grid scale.

    A trial that exceeds the simplex budget aborts the whole run: silently
    dropping trials would bias the estimates.
    """
    grid = _check_run(manifold, complex_kind, (n,), grid, trials, workers)
    [(mean, variance, stderr)] = _run_trials(manifold, complex_kind, invariant, (n,), grid,
                                             trials, master_seed, budget, workers)
    return CurveEstimate(n=n, trials=trials, grid=grid,
                         mean=mean, variance=variance, stderr=stderr)


def convergence_study(manifold: ManifoldModel, complex_kind: str, invariant: InvariantSpec,
                      t: float, n_values, trials: int, master_seed: int,
                      target: float, *, target_source: str = "reference value",
                      workers: int = 1,
                      budget: int = DEFAULT_SIMPLEX_BUDGET) -> ConvergenceTable:
    """Estimate the invariant at one fixed scale for an increasing list of n.

    Every n runs with the same master seed, and each n's trials aggregate
    exactly as :func:`estimate_curve` aggregates them.  All (n, trial) jobs
    of the study go through one run, so ``workers > 1`` opens one process
    pool for the whole study; the values come back in (n, trial) order, and
    a budget overrun names the first failing (master_seed, trial_index, n)
    in that order.
    """
    if not t > 0:  # false for NaN too
        raise ValueError("scale t must be positive")
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    n_values = tuple(int(n) for n in n_values)
    grid = _check_run(manifold, complex_kind, n_values, (t,), trials, workers)
    per_n = _run_trials(manifold, complex_kind, invariant, n_values, grid, trials,
                        master_seed, budget, workers)
    # each n's moments are arrays over the one-scale grid (t,)
    mean, variance, stderr = (np.asarray([at_n[0] for at_n in moment]) for moment in zip(*per_n))
    return ConvergenceTable(
        t=float(t), n_values=n_values, trials=trials, mean=mean, variance=variance,
        stderr=stderr, target=float(target), target_source=target_source)


def max_discrete_slope(grid, values) -> tuple[float, tuple[float, float]]:
    """Largest |difference quotient| of a sampled curve and where it occurs."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.shape != values.shape or grid.size < 2:
        raise ValueError("need matching grids of length >= 2")
    slopes = np.abs(np.diff(values)) / np.diff(grid)
    k = int(np.argmax(slopes))
    return float(slopes[k]), (float(grid[k]), float(grid[k + 1]))
