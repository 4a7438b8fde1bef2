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
w = min(workers, jobs) processes share them: this process and w - 1 children
forked by ``os.fork`` (so pooled runs need POSIX) claim chunks of
consecutive jobs, in increasing order, from one queue written before the
first fork (at most 1024 chunks), and each child sends its values back over
its own pipe.  A process whose job fails empties the queue, so no chunk
after the failing one's is claimed: every job before it runs, and the first
failing job in job order raises.  Either way the values are aggregated per n
in trial order, so results are bit-identical for any worker count.  Pooled
processes share no writable memory, and only a run that forks imports the
module it waits with (``select``).
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


_QUEUE_TOKENS = 1024  # 4-byte chunk tokens: 4096 bytes, one write that fits any pipe


def _fan_out(trial, jobs, w) -> list:
    """The values of ``jobs`` in job order, from w > 1 processes: this one
    and w - 1 forked children, which claim chunks of consecutive jobs from
    one queue.

    The queue is a pipe written whole before the first fork, one 4-byte
    token per chunk in chunk order, so each process claims chunks in
    increasing order and runs each one's jobs in order.  A process whose job
    raises reads the queue to its end, so that no process claims a chunk
    after the failing one's: every other process finishes only the chunk it
    holds, and every job before the failing one runs.  A child pickles its
    values and its failure to its own result pipe (an exception that does
    not survive pickling as a :class:`WorkerError` with its type name and
    message) and leaves by ``os._exit``, so that it runs no exit handler and
    flushes no buffer it inherited.  Between its own jobs this process reads
    the result pipes that are ready; one that ends before its child sent
    everything raises :class:`WorkerError` at once, as does a fork that
    fails.  The first failing job in job order raises here once every
    process has stopped.  Children still running when this process raises
    are killed and reaped.
    """
    import os
    import pickle
    import select

    size = -(-len(jobs) // _QUEUE_TOKENS)  # jobs per chunk
    queue, tokens = os.pipe()
    os.write(tokens, np.arange(-(-len(jobs) // size), dtype="<i4").tobytes())
    os.close(tokens)  # the queue reads EOF once it is empty

    def claim(before_job):
        """This process's values {job index: value}, and its failure (job
        index, exception) or None; ``before_job()`` runs before each job."""
        values = {}
        while token := os.read(queue, 4):
            first = int.from_bytes(token, "little") * size
            for i in range(first, min(first + size, len(jobs))):
                before_job()
                try:
                    values[i] = trial(jobs[i])
                except Exception as exc:  # a failure empties the queue: no later chunk is claimed
                    while os.read(queue, 4 * _QUEUE_TOKENS):
                        pass
                    return values, (i, exc)
        return values, None

    def child(r, out):
        values, failure = claim(lambda: None)
        if failure is not None:
            exc = failure[1]
            try:  # an exception the parent could not rebuild goes as a stand-in
                pickle.loads(pickle.dumps(exc))
            except Exception:
                failure = failure[0], WorkerError(
                    f"worker process {r} of {w} raised {type(exc).__qualname__}: {exc}")
        with open(out, "wb") as f:
            pickle.dump((values, failure), f)

    poller = select.poll()
    children = {}  # a child's result pipe -> (r, pid, the bytes read from it)
    results = []

    def read(fd):
        r, pid, message = children[fd]
        data = os.read(fd, 1 << 16)
        if data:
            message += data
            return
        del children[fd]
        poller.unregister(fd)
        os.close(fd)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code != 0:  # a child exits with 0 only once its whole message is written
            raise WorkerError(f"worker process {r} of {w} exited with code {code} "
                              f"before it sent its values")
        results.append(pickle.loads(message))

    def read_ready():
        for fd, _ in poller.poll(0):
            read(fd)

    try:
        for r in range(1, w):
            fd, out = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(fd)
                os.close(out)
                raise WorkerError(f"worker process {r} of {w} could not be forked: "
                                  f"{exc}") from exc
            if pid == 0:
                code = 1
                try:
                    child(r, out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(out)  # so that the pipe reads EOF once the child is gone
            children[fd] = r, pid, bytearray()
            poller.register(fd, select.POLLIN)
        results.append(claim(read_ready))
        while children:
            for fd, _ in poller.poll():
                read(fd)
    finally:
        os.close(queue)
        for fd, (_, pid, _) in children.items():  # left only when this process raises
            from signal import SIGKILL
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    values = [None] * len(jobs)
    for done, _ in results:
        for i, value in done.items():
            values[i] = value
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=operator.itemgetter(0))[1]
    return values


def _run_trials(manifold, complex_kind, invariant, n_values, grid, trials, master_seed,
                budget, workers) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`_moments` of each n's trials: the (n, trial_index) jobs of every
    n, run in that order.

    One worker runs them in this process, and each n's values are aggregated
    as soon as they are all in.  More claim chunks of them from one queue
    through :func:`_fan_out`, w = min(workers, jobs) processes with this one
    among them.  The first job to raise (in job order) raises here: in a
    fan-out, every job before it runs, and once it has failed no process
    claims a chunk after its chunk.
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
    whole study, and its processes claim chunks of the (n, trial) order; the
    values come back in that order, and a budget overrun names the first
    failing (master_seed, trial_index, n) in it; once it has failed, no
    process claims a later chunk of jobs.
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
