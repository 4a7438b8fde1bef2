"""Monte Carlo estimation of invariant curves with deterministic parallelism.

Each trial draws one sample and evaluates the invariant at every grid point on
that same sample (common random numbers across the grid, which makes curve
differences low-variance).  It does so from one filtration per trial: the
complex is built once, at max(grid), with every simplex tagged by the grid
step at which it enters, and the whole curve is read off it (Euler
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

import numpy as np

from .complexes import (DEFAULT_SIMPLEX_BUDGET, cech_filtration_circle, check_grid,
                        vr_filtration)
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


@dataclass(frozen=True)
class LipschitzDiagnostic:
    """Discrete-slope summary of a curve.

    ``theoretical_bound`` is the generic a-priori Lipschitz constant
    2 * C(n,2) * 2^n * K; it is astronomically loose and reported for
    reference only, never as a gate.
    """

    max_slope: float
    argmax_interval: tuple[float, float]
    slopes: tuple[float, ...]
    theoretical_bound: float


def _trial_values(manifold, complex_kind, invariant, n, grid, master_seed,
                  trial_index, max_dim, budget) -> list[float]:
    s = sample(manifold, n, master_seed, trial_index)
    build = vr_filtration if complex_kind == VR else cech_filtration_circle
    filtration = build(s, grid, max_dim, kept_dim=invariant.kept_dim, budget=budget)
    return [float(v) for v in invariant.curve(filtration)]


def _trial_chunk(args) -> list[list[float]]:
    (manifold, complex_kind, invariant, n, grid, master_seed,
     start, stop, max_dim, budget) = args
    return [_trial_values(manifold, complex_kind, invariant, n, grid,
                          master_seed, j, max_dim, budget)
            for j in range(start, stop)]


def _validate_common(manifold, complex_kind, invariant, trials, max_dim):
    if complex_kind not in (VR, CECH):
        raise ValueError(f"complex_kind must be '{VR}' or '{CECH}', got {complex_kind!r}")
    if complex_kind == CECH and manifold.kind != CIRCLE:
        raise ValueError("Cech estimation is supported on the circle only")
    if trials < 2:
        raise ValueError("at least 2 trials are required (sample variance is undefined otherwise)")
    if max_dim is None:
        max_dim = invariant.dim + 1 if invariant.kind == "betti" else -1
    if invariant.kind == "betti" and max_dim != -1 and max_dim < invariant.dim + 1:
        raise ValueError(
            f"betti({invariant.dim}) needs max_dim >= {invariant.dim + 1}, got {max_dim}")
    if invariant.kind == "euler" and max_dim != -1:
        raise ValueError("Euler characteristic requires a full complex (max_dim='full')")
    return max_dim


def estimate_curve(manifold: ManifoldModel, complex_kind: str, invariant: InvariantSpec,
                   n: int, grid, trials: int, master_seed: int, *,
                   max_dim: int | None = None, workers: int = 1,
                   budget: int = DEFAULT_SIMPLEX_BUDGET) -> CurveEstimate:
    """Estimate mean and variance of the invariant at every grid scale.

    A trial that exceeds the simplex budget aborts the whole run: silently
    dropping trials would bias the estimates.
    """
    max_dim = _validate_common(manifold, complex_kind, invariant, trials, max_dim)
    if n < 1:
        raise ValueError("sample size n must be >= 1")
    grid = check_grid(grid, positive=complex_kind == CECH)
    if workers < 1:
        raise ValueError("workers must be >= 1")

    if workers == 1:
        values = [_trial_values(manifold, complex_kind, invariant, n, grid,
                                master_seed, j, max_dim, budget)
                  for j in range(trials)]
    else:
        bounds = np.linspace(0, trials, workers * 4 + 1).astype(int)
        tasks = [(manifold, complex_kind, invariant, n, grid, master_seed,
                  int(a), int(b), max_dim, budget)
                 for a, b in zip(bounds, bounds[1:]) if a < b]
        values = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_trial_chunk, tasks):
                values.extend(chunk)

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
                      max_dim: int | None = None, workers: int = 1,
                      budget: int = DEFAULT_SIMPLEX_BUDGET) -> ConvergenceTable:
    """Estimate the invariant at one fixed scale for an increasing list of n."""
    if t <= 0:
        raise ValueError("scale t must be positive")
    n_values = tuple(int(n) for n in n_values)
    if not n_values:
        raise ValueError("n_values must be nonempty")
    if any(not a < b for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    means, variances, stderrs = [], [], []
    for n in n_values:
        est = estimate_curve(manifold, complex_kind, invariant, n, (t,), trials,
                             master_seed, max_dim=max_dim, workers=workers, budget=budget)
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


def lipschitz_diagnostic(curve: CurveEstimate) -> LipschitzDiagnostic:
    """Discrete slopes of an estimated curve.

    The slopes estimate the local Lipschitz modulus of the expectation curve
    up to Monte Carlo noise of order stderr / grid-step.
    """
    if len(curve.grid) < 2:
        raise ValueError("lipschitz diagnostic needs a grid of length >= 2")
    grid = np.asarray(curve.grid)
    slopes = np.abs(np.diff(curve.mean)) / np.diff(grid)
    k = int(np.argmax(slopes))
    try:
        bound = 2.0 * math.comb(curve.n, 2) * curve.invariant.growth_limit(2 ** curve.n) \
            * curve.manifold.ball_measure_lipschitz
        bound = float(bound)
    except OverflowError:
        bound = math.inf
    return LipschitzDiagnostic(
        max_slope=float(slopes[k]),
        argmax_interval=(float(grid[k]), float(grid[k + 1])),
        slopes=tuple(float(x) for x in slopes),
        theoretical_bound=bound)
