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
value.  A trial's randomness depends only on (master_seed, trial_index), and
per-trial values are assembled in trial order before aggregation, so results
are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

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

    manifold: ManifoldModel
    invariant: InvariantSpec
    complex_kind: str
    n: int
    trials: int
    master_seed: int
    grid: tuple[float, ...]
    mean: np.ndarray
    variance: np.ndarray
    stderr: np.ndarray


@dataclass(frozen=True, eq=False)
class ConvergenceTable:
    """Per-n estimates at a fixed scale, against a reference target value."""

    manifold: ManifoldModel
    invariant: InvariantSpec
    complex_kind: str
    t: float
    n_values: tuple[int, ...]
    trials: int
    master_seed: int
    mean: np.ndarray
    variance: np.ndarray
    stderr: np.ndarray
    target: float
    target_source: str

    @property
    def abs_error(self) -> np.ndarray:
        return np.abs(self.mean - self.target)


def _trial_values(manifold, complex_kind, invariant, n, grid, master_seed, budget,
                  trial_index) -> list[float]:
    s = sample(manifold, n, master_seed, trial_index)
    build = vr_filtration if complex_kind == VR else cech_filtration_circle
    try:
        filtration = build(s, grid, invariant.max_dim, budget=budget)
    except SimplexBudgetError as exc:  # name the trial, so that it can be replayed alone
        raise SimplexBudgetError(exc.budget, str(exc), master_seed, trial_index, n) from None
    return [float(v) for v in invariant.curve(filtration)]


def estimate_curve(manifold: ManifoldModel, complex_kind: str, invariant: InvariantSpec,
                   n: int, grid, trials: int, master_seed: int, *, workers: int = 1,
                   budget: int = DEFAULT_SIMPLEX_BUDGET) -> CurveEstimate:
    """Estimate mean and variance of the invariant at every grid scale.

    A trial that exceeds the simplex budget aborts the whole run: silently
    dropping trials would bias the estimates.
    """
    if complex_kind not in (VR, CECH):
        raise ValueError(f"complex_kind must be '{VR}' or '{CECH}', got {complex_kind!r}")
    if complex_kind == CECH and manifold.kind != CIRCLE:
        raise ValueError("Cech estimation is supported on the circle only")
    if trials < 2:
        raise ValueError("at least 2 trials are required (sample variance is undefined otherwise)")
    if n < 1:
        raise ValueError("sample size n must be >= 1")
    grid = check_grid(grid, positive=complex_kind == CECH)
    if workers < 1:
        raise ValueError("workers must be >= 1")

    trial = partial(_trial_values, manifold, complex_kind, invariant, n, grid,
                    master_seed, budget)
    if workers == 1:
        values = list(map(trial, range(trials)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(trial, range(trials),
                                   chunksize=math.ceil(trials / (4 * workers))))

    arr = np.asarray(values, dtype=float)
    mean = arr.mean(axis=0)
    variance = arr.var(axis=0, ddof=1)
    return CurveEstimate(
        manifold=manifold, invariant=invariant, complex_kind=complex_kind,
        n=n, trials=trials, master_seed=master_seed, grid=grid,
        mean=mean, variance=variance, stderr=np.sqrt(variance / trials))


def convergence_study(manifold: ManifoldModel, complex_kind: str, invariant: InvariantSpec,
                      t: float, n_values, trials: int, master_seed: int,
                      target: float, *, target_source: str = "reference value",
                      workers: int = 1,
                      budget: int = DEFAULT_SIMPLEX_BUDGET) -> ConvergenceTable:
    """Estimate the invariant at one fixed scale for an increasing list of n."""
    if not t > 0:  # false for NaN too
        raise ValueError("scale t must be positive")
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    n_values = tuple(int(n) for n in n_values)
    if not n_values:
        raise ValueError("n_values must be nonempty")
    if any(not a < b for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    means, variances, stderrs = [], [], []
    for n in n_values:
        est = estimate_curve(manifold, complex_kind, invariant, n, (t,), trials,
                             master_seed, workers=workers, budget=budget)
        means.append(est.mean[0])
        variances.append(est.variance[0])
        stderrs.append(est.stderr[0])
    return ConvergenceTable(
        manifold=manifold, invariant=invariant, complex_kind=complex_kind,
        t=float(t), n_values=n_values, trials=trials, master_seed=master_seed,
        mean=np.asarray(means), variance=np.asarray(variances),
        stderr=np.asarray(stderrs), target=float(target), target_source=target_source)


def max_discrete_slope(grid, values) -> tuple[float, tuple[float, float]]:
    """Largest |difference quotient| of a sampled curve and where it occurs."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.shape != values.shape or grid.size < 2:
        raise ValueError("need matching grids of length >= 2")
    slopes = np.abs(np.diff(values)) / np.diff(grid)
    k = int(np.argmax(slopes))
    return float(slopes[k]), (float(grid[k]), float(grid[k + 1]))
