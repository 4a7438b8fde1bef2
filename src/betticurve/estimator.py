"""Monte Carlo estimation of invariant curves with deterministic parallelism.

Each trial draws one sample and evaluates the invariant at every grid point on
that same sample (common random numbers across the grid, which makes curve
differences low-variance).  It does so with one builder call and one reader
call per trial (``sample_curve``).  The builder takes the scales: it builds
the complex once, at max(grid), to the depth the invariant needs (dimension
k+1 for b_k, every dimension for the Euler characteristic), with every
simplex tagged by the grid step at which it enters, and the simplex budget
counts exactly those simplices.  The reader takes the steps and reads the
whole curve off that filtration (``euler_curve``, the Euler characteristic
by cumulative signed counts; ``betti_curve``, Betti numbers by one
persistent cohomology reduction).  A Vietoris-Rips Betti number on a
one-scale grid (every ``convergence_study`` trial, and an ``estimate_curve``
at one scale) has no other scale to share the filtration with: its builder
is ``vr_core_filtration``, at that one scale, whose one-step filtration is
of the complex's strong-collapse core, homotopy equivalent to the whole
complex and so with the same Betti numbers, while the budget still counts
the whole complex.  A Vietoris-Rips Euler characteristic has no filtration:
``vr_euler_curve`` adds each edge's signed clique sum to its step, and
counts the simplices exactly, for the budget, only when the bound
n + sum 2**|C| over the edges passes it.  The per-scale functions
``vr_complex`` and ``cech_complex_circle`` with ``betti`` and
``euler_characteristic`` stay as the independent reference path every route
is tested against, value for value.  A trial's sample depends only on
(master_seed, trial_index) and its size n.

A run is a list of (n, trial_index) jobs: one n for a curve, every n of a
convergence study.  With one worker they run in this process.  With more,
w = min(workers, jobs) processes share them in static strides: this process
runs jobs[0::w] itself, and w - 1 child processes run jobs[r::w] (1 <= r < w)
and send their values back over a pipe.  A failure ends its stride, and
before each job every process checks the lowest failing job index known so
far: no job after it starts, every job before it runs, and the first failing
job in job order raises.  Either way the values are aggregated per n in
trial order, so results are bit-identical for any worker count.  Only a run
that forks imports the process machinery.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .complexes import (DEFAULT_SIMPLEX_BUDGET, cech_filtration_circle, check_grid,
                        vr_core_filtration, vr_euler_curve, vr_filtration)
from .errors import SimplexBudgetError, WorkerError
from .homology import InvariantSpec, betti_curve, euler_curve
from .manifolds import CIRCLE, ManifoldModel, PointSample, sample

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


def _check_complex_kind(complex_kind: str) -> None:
    if complex_kind not in (VR, CECH):
        raise ValueError(f"complex_kind must be '{VR}' or '{CECH}', got {complex_kind!r}")


def sample_curve(s: PointSample, complex_kind: str, invariant: InvariantSpec, grid,
                 budget: int = DEFAULT_SIMPLEX_BUDGET) -> list[int]:
    """The invariant of the sample's complex at every grid scale.

    A Vietoris-Rips Euler characteristic comes from signed clique sums
    (``vr_euler_curve``), with no filtration.  Every other curve is one
    builder call and one reader call.  The builder is chosen by complex and
    number of scales: the circle Cech filtration, the Vietoris-Rips
    strong-collapse core at a one-scale grid's scale, or the Vietoris-Rips
    filtration on more scales.  The reader is chosen by invariant:
    ``euler_curve`` or ``betti_curve``, which read grid steps only."""
    _check_complex_kind(complex_kind)
    if complex_kind == CECH:
        f = cech_filtration_circle(s, grid, invariant.max_dim, budget=budget)
    elif invariant.kind == "euler":
        return vr_euler_curve(s, grid, budget=budget)
    elif len(grid) == 1:
        f = vr_core_filtration(s, grid[0], invariant.max_dim, budget=budget)
    else:
        f = vr_filtration(s, grid, invariant.max_dim, budget=budget)
    return euler_curve(f) if invariant.kind == "euler" else betti_curve(f, invariant.dim)


def _trial_values(manifold, complex_kind, invariant, grid, master_seed, budget,
                  job) -> list[float]:
    n, trial_index = job
    s = sample(manifold, n, master_seed, trial_index)
    try:
        values = sample_curve(s, complex_kind, invariant, grid, budget)
    except SimplexBudgetError as exc:  # name the trial, so that it can be replayed alone
        raise SimplexBudgetError(exc.budget, str(exc), master_seed, trial_index, n) from None
    return [float(v) for v in values]


def _check_run(manifold, complex_kind, n_values, grid, trials, workers) -> tuple[float, ...]:
    """The grid as :func:`check_grid` returns it, once every argument of the
    run is valid (``n_values`` is a tuple of ints)."""
    _check_complex_kind(complex_kind)
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


def _stride(trial, jobs, first, step, lowest_failure) -> tuple[list, tuple | None]:
    """The values of jobs[first::step] run in order, and the first failure
    (its job index and exception) or None.  Before each job it asks
    ``lowest_failure()`` for the lowest failing job index known so far, and
    stops at the first job past it."""
    values = []
    for i in range(first, len(jobs), step):
        if i > lowest_failure():
            break
        try:
            values.append(trial(jobs[i]))
        except Exception as exc:  # a failure ends its stride
            return values, (i, exc)
    return values, None


def _child_stride(trial, jobs, first, step, stop, out) -> None:
    """A child process's stride: the lowest failing index arrives on
    ``stop``; the values and the failure leave on ``out``."""
    lowest = len(jobs)

    def lowest_failure():
        nonlocal lowest
        while stop.poll():  # the parent sends only ever lower indices
            lowest = stop.recv()
        return lowest

    out.send(_stride(trial, jobs, first, step, lowest_failure))


def _fan_out(trial, jobs, w) -> list:
    """The values of ``jobs`` in job order, from w > 1 processes: this one
    runs jobs[0::w], and child r runs jobs[r::w].

    Between its own jobs this process takes in each child's one message (its
    values and its failure), and pushes the lowest failing index known to
    the children still running.  The first failing job in job order raises
    here once every process has stopped; a child that ends without its
    message raises :class:`WorkerError`.  The children are daemonic, and
    terminated and joined if this process raises.
    """
    from multiprocessing import Pipe, Process
    from multiprocessing.connection import wait

    strides = [None] * w
    first_failure = None
    running = {}  # a child's result connection -> (r, process, stop connection)
    processes = []

    def note(failure):  # keep the lowest failure, and tell the running children
        nonlocal first_failure
        if failure is None or (first_failure and first_failure[0] < failure[0]):
            return
        first_failure = failure
        for _, _, stop in running.values():
            try:
                stop.send(failure[0])
            except OSError:  # that child is gone; its result connection will say so
                pass

    def settle(conn):
        r, process, stop = running.pop(conn)
        stop.close()
        try:
            strides[r], failure = conn.recv()
        except EOFError:
            process.join()
            raise WorkerError(f"worker process {r} of {w} exited with code "
                              f"{process.exitcode} before it sent its values") from None
        finally:
            conn.close()
        note(failure)

    def lowest_failure():
        for conn in wait(list(running), timeout=0):
            settle(conn)
        return len(jobs) if first_failure is None else first_failure[0]

    try:
        for r in range(1, w):
            stop_in, stop = Pipe(duplex=False)
            result, out = Pipe(duplex=False)
            process = Process(target=_child_stride, args=(trial, jobs, r, w, stop_in, out),
                              daemon=True)
            processes.append(process)
            process.start()
            # a child's end closed here, so that its result connection reads EOF
            # once the child is gone
            stop_in.close()
            out.close()
            running[result] = (r, process, stop)
        strides[0], failure = _stride(trial, jobs, 0, w, lowest_failure)
        note(failure)
        while running:
            for conn in wait(list(running)):
                settle(conn)
    finally:
        for conn, (_, process, stop) in running.items():
            process.terminate()
            conn.close()
            stop.close()
        for process in processes:
            process.join()
    if first_failure is not None:
        raise first_failure[1]
    values = [None] * len(jobs)
    for r, stride in enumerate(strides):
        values[r::w] = stride
    return values


def _run_trials(manifold, complex_kind, invariant, n_values, grid, trials, master_seed,
                budget, workers) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`_moments` of each n's trials: the (n, trial_index) jobs of every
    n, run in that order.

    One worker runs them in this process, and each n's values are aggregated
    as soon as they are all in.  More share them in strides through
    :func:`_fan_out`, w = min(workers, jobs) processes with this one among
    them.  The first job to raise (in job order) raises here: in a fan-out,
    every job before it runs and no job after it starts once its failure is
    known.
    """
    trial = partial(_trial_values, manifold, complex_kind, invariant, grid, master_seed,
                    budget)
    jobs = [(n, j) for n in n_values for j in range(trials)]
    if workers == 1:
        values = map(trial, jobs)
    else:
        values = iter(_fan_out(trial, jobs, min(workers, len(jobs))))
    return [_moments(list(islice(values, trials))) for _ in n_values]


def estimate_curve(manifold: ManifoldModel, complex_kind: str, invariant: InvariantSpec,
                   n: int, grid, trials: int, master_seed: int, *, workers: int = 1,
                   budget: int = DEFAULT_SIMPLEX_BUDGET) -> CurveEstimate:
    """Estimate mean and variance of the invariant at every grid scale.

    A trial that exceeds the simplex budget aborts the whole run: silently
    dropping trials would bias the estimates.
    """
    n = operator.index(n)
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
    of the study go through one run, so ``workers > 1`` forks once for the
    whole study, into strides of the (n, trial) order; the values come back
    in that order, and a budget overrun names the first failing
    (master_seed, trial_index, n) in it, with no job after it started once
    it is known.
    """
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    n_values = tuple(map(operator.index, n_values))
    grid = _check_run(manifold, complex_kind, n_values, (t,), trials, workers)
    per_n = _run_trials(manifold, complex_kind, invariant, n_values, grid, trials,
                        master_seed, budget, workers)
    # each n's moments are arrays over the one-scale grid (t,)
    mean, variance, stderr = (np.asarray([at_n[0] for at_n in moment]) for moment in zip(*per_n))
    return ConvergenceTable(
        t=float(t), n_values=n_values, trials=trials, mean=mean, variance=variance,
        stderr=stderr, target=float(target), target_source=target_source)


def max_discrete_slope(grid, values) -> tuple[float, tuple[float, float]]:
    """Largest |difference quotient| of a sampled curve and where it occurs,
    on a strictly increasing grid."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.shape != values.shape or grid.size < 2:
        raise ValueError("need matching grids of length >= 2")
    steps = np.diff(grid)
    if not np.all(steps > 0):  # false for NaN too
        raise ValueError("grid must be strictly increasing")
    slopes = np.abs(np.diff(values)) / steps
    k = int(np.argmax(slopes))
    return float(slopes[k]), (float(grid[k]), float(grid[k + 1]))
