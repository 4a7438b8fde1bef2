"""Command-line entry point.

Subcommands: ``curve`` (Monte Carlo invariant curve), ``oracle`` (exact circle
values), ``converge`` (fixed-scale convergence table) and ``selftest``.
Outputs are CSV or JSON with the run's configuration embedded, plus a
gnuplot script next to every curve CSV.  The configuration is the parsed
command line: its command's options, defaults included, each default
declared once, in ``build_parser``.  ``run(argparse.Namespace(**config))``
re-runs a recorded configuration; a line from an older version, which holds
more keys, re-runs the same way, its extra keys ignored.  Exit codes: 0 ok,
1 selftest failure, 2 usage/domain error, 3 resource limit (a simplex budget
overrun, or a worker process lost, as to the out-of-memory killer, or not
forked).
"""

from __future__ import annotations

import argparse
import errno
import json
import locale  # noqa: F401  loaded with the CLI, or argparse's gettext loads it in main's parse
import math
import os
import re
import sys

import numpy as np

from . import circle_oracle, estimator, manifolds
from .complexes import cech_complex_circle, check_grid, vr_complex, vr_euler_curve
from .errors import SimplexBudgetError, WorkerError
from .homology import InvariantSpec, betti_invariant, euler_invariant
from .manifolds import ManifoldModel, PointSample

FORMAT_VERSION = "betticurve-1"
SELFTEST_MIN_TRIALS = 500

EXIT_OK = 0
EXIT_SELFTEST_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def manifold_model(config: argparse.Namespace) -> ManifoldModel:
    if config.manifold == "circle":
        return manifolds.circle()
    if config.manifold == "torus":
        return manifolds.flat_torus(config.torus_dim)
    if config.manifold == "sphere":
        return manifolds.sphere2()
    raise ValueError(f"unknown manifold {config.manifold!r}")


def invariant_spec(config: argparse.Namespace) -> InvariantSpec:
    """``euler``, or ``betti<k>`` with k in decimal, unsigned and without a
    leading zero."""
    if config.invariant == "euler":
        return euler_invariant()
    if match := re.fullmatch(r"betti(0|[1-9][0-9]*)", config.invariant):
        return betti_invariant(int(match[1]))
    raise ValueError(f"unknown invariant {config.invariant!r}")


def resolved_grid(config: argparse.Namespace) -> tuple[float, ...]:
    if config.grid and (config.t_min, config.t_max, config.steps) != (None, None, None):
        raise ValueError("provide either --grid or --t-min/--t-max/--steps, not both")
    if config.grid:
        grid = config.grid
    elif config.t_min is None or config.t_max is None or config.steps is None:
        raise ValueError("provide either --grid or --t-min/--t-max/--steps")
    elif config.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {config.steps}")
    elif config.steps == 1 and config.t_min != config.t_max:
        raise ValueError("--steps 1 needs --t-min equal to --t-max")
    else:
        grid = np.linspace(config.t_min, config.t_max, config.steps)
    return check_grid(grid)


def _fmt(x) -> str:
    """Shortest round-trip, locale-independent decimal representation."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_table(config: argparse.Namespace, header: list[str], rows: list[list],
                 path: str) -> None:
    settings = dict(sorted(vars(config).items()))
    if config.fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(f"# format_version: {FORMAT_VERSION}\n")
            fh.write(f"# config: {json.dumps(settings)}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join("" if v is None else _fmt(v) for v in row) + "\n")
    else:
        columns = {name: [row[k] for row in rows] for k, name in enumerate(header)}
        doc = {"format_version": FORMAT_VERSION, "config": settings, "columns": columns}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def _output_path(path: str) -> str:
    """``path``, refused before any trial runs if its directory is missing or
    it is a directory, with the error that writing it would raise; the file
    itself is neither created nor truncated here."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return path


def _plot_script_path(csv_path: str) -> str:
    return os.path.splitext(csv_path)[0] + ".gp"


def _write_plot_script(csv_path: str, with_oracle: bool) -> str:
    gp_path = _plot_script_path(csv_path)
    csv_name = os.path.basename(csv_path)
    lines = [
        f"# gnuplot script for {csv_name}: expectation and variance vs scale",
        'set datafile separator ","',
        'set xlabel "scale t"',
        "set key top left",
        f'plot "{csv_name}" using 1:4 with lines lw 2 title "mean", \\',
        f'     "{csv_name}" using 1:4:6 with yerrorbars pt 7 ps 0.4 title "stderr", \\',
    ]
    if with_oracle:
        lines.append(f'     "{csv_name}" using 1:5 with lines dt 2 title "variance", \\')
        lines.append(f'     "{csv_name}" using 1:7 with lines lc rgb "black" title "exact"')
    else:
        lines.append(f'     "{csv_name}" using 1:5 with lines dt 2 title "variance"')
    with open(gp_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return gp_path


def _oracle_value(config: argparse.Namespace, t: float) -> float | None:
    """Exact P(b1 = 1) where the oracle covers the run; empty elsewhere."""
    if (config.manifold == "circle" and config.complex_kind == "vr"
            and config.invariant == "betti1" and config.n <= circle_oracle.MAX_ORACLE_N
            and circle_oracle.in_oracle_domain(t)):
        return circle_oracle.circle_homotopy_prob(config.n, t)
    return None


def run_curve(config: argparse.Namespace) -> int:
    grid = resolved_grid(config)
    out = _output_path(config.output or "curve." + config.fmt)
    if config.fmt == "csv":
        gp_path = _plot_script_path(out)
        if gp_path == out:
            raise ValueError(f"--output {out} is the path of its own gnuplot script; "
                             "give the CSV another extension")
        _output_path(gp_path)
    est = estimator.estimate_curve(
        manifold_model(config), config.complex_kind, invariant_spec(config),
        config.n, grid, config.trials, config.master_seed, workers=config.workers)
    rows = []
    for k, t in enumerate(grid):
        rows.append([t, config.n, config.trials,
                     float(est.mean[k]), float(est.variance[k]), float(est.stderr[k]),
                     _oracle_value(config, t)])
    _write_table(config, ["t", "n", "trials", "mean", "variance", "stderr", "oracle_p"],
                 rows, out)
    if config.fmt == "csv":
        _write_plot_script(out, with_oracle=any(r[6] is not None for r in rows))
    print(f"wrote {out}")
    return EXIT_OK


def run_oracle(config: argparse.Namespace) -> int:
    grid = resolved_grid(config)
    out = _output_path(config.output or "oracle." + config.fmt)
    for r in grid:  # the whole grid, before any point is evaluated
        if not circle_oracle.in_oracle_domain(r):
            raise ValueError(f"grid point r={r} outside the validity domain (0, 1/3)")
    rows = []
    for r in grid:  # b1 is Bernoulli(p): E[b1] = p, Var[b1] = p(1-p)
        p = circle_oracle.circle_homotopy_prob(config.n, r)
        rows.append([r, config.n, p, p, p * (1.0 - p)])
    _write_table(config, ["r", "n", "p", "expected_b1", "variance_b1"], rows, out)
    print(f"wrote {out}")
    return EXIT_OK


def run_converge(config: argparse.Namespace) -> int:
    if config.t is None or not config.n_values:
        raise ValueError("converge needs --t and --n-values")
    if config.target is None:
        raise ValueError("converge needs --target")
    out = _output_path(config.output or "converge." + config.fmt)
    table = estimator.convergence_study(
        manifold_model(config), config.complex_kind, invariant_spec(config),
        config.t, config.n_values, config.trials, config.master_seed,
        config.target, workers=config.workers)
    rows = []
    for k, n in enumerate(table.n_values):
        rows.append([n, table.t, config.trials, float(table.mean[k]),
                     float(table.variance[k]), float(table.stderr[k]),
                     float(table.abs_error[k]), table.target])
    _write_table(config, ["n", "t", "trials", "mean", "variance", "stderr",
                          "abs_error", "target"], rows, out)
    print(f"wrote {out}")
    return EXIT_OK


def _selftest_checks(config: argparse.Namespace):
    trials = config.trials
    seed = config.master_seed
    circ = manifolds.circle()

    # every route of the estimator, one row each: (name, complex, sample,
    # invariant, grid, exact curve or None); a fixed sample's curve must
    # equal its per-scale build, and the exact curve where a row gives one
    quad = PointSample(circ, np.array([0.0, 0.25, 0.5, 0.75]))  # edges at d = 0.25 and 0.5
    # the six points +-e_i of the sphere: at t = pi/2, an octahedron (a 2-sphere)
    octahedron = PointSample(manifolds.sphere2(), np.vstack([np.eye(3), -np.eye(3)]))
    bench = np.linspace(0.02, 0.32, 16).tolist()
    circle_at = lambda n: manifolds.sample(circ, n, seed, 30_000)
    torus_at = lambda n: manifolds.sample(manifolds.flat_torus(2), n, seed, 30_001)
    b1, b2 = betti_invariant(1), betti_invariant(2)
    rows = [
        # one scale, the strong-collapse core: the closed rule d <= t makes the cycle
        ("vr-b1 4-cycle t=0.25", "vr", quad, b1, [0.25], [1]),
        # a lone column, which the triangles at 0.5 pair (the last step's core)
        ("vr-b1 4-cycle t=0.25,0.5", "vr", quad, b1, [0.25, 0.5], [1, 0]),
        ("vr-b2 octahedron", "vr", octahedron, b2, [math.pi / 2], [1]),
        ("vr-euler octahedron", "vr", octahedron, euler_invariant(), [math.pi / 2], [2]),
        # past pi every pair is joined, the antipodes too: the 5-simplex
        ("vr-euler octahedron past pi", "vr", octahedron, euler_invariant(), [math.pi / 2, 3.5],
         [2, 1]),
        ("vr-b1 circle n=50", "vr", circle_at(50), b1, bench, None),  # an essential lone column
        ("cech-b1 circle n=20", "cech", circle_at(20), b1, bench, None),
        # the untruncated circle Cech filtration, read by euler_curve
        ("cech-euler circle n=12", "cech", circle_at(12), euler_invariant(), bench, None),
        # many columns: the b1 coboundary's triangle index, then b2's stored positions
        ("vr-b1 torus n=30", "vr", torus_at(30), b1, [0.1, 0.2, 0.3], None),
        ("vr-b2 torus n=40", "vr", torus_at(40), b2, [0.2, 0.26, 0.32], None),
    ]
    builds = {"vr": vr_complex, "cech": cech_complex_circle}

    def route(name, kind, s, invariant, grid, exact):
        curve = estimator.sample_curve(s, kind, invariant, grid)
        per_scale = [invariant.evaluate(builds[kind](s, t, invariant.max_dim)) for t in grid]
        yield (name, curve == per_scale and exact in (None, curve),
               f"estimator={curve} per-scale={per_scale} exact={exact}")

    def euler_budget():  # past the bound n + sum 2^|C|, the exact count decides
        # 6 + 12 + 8 simplices at pi/2; past pi, the 5-simplex's 63, whose bound
        # passes 58 at the 14th of 15 edges: the count must take in the 15th too
        for name, grid, want, fits, over in (("", [math.pi / 2], [2], 26, 25),
                                             (" past pi", [math.pi / 2, 3.5], [2, 1], 63, 58)):
            got = vr_euler_curve(octahedron, grid, budget=fits)
            try:
                raised = vr_euler_curve(octahedron, grid, budget=over)
            except SimplexBudgetError as exc:
                raised = str(exc)
            yield (f"vr-euler-budget octahedron{name}",
                   got == want and raised == f"simplex budget of {over} exceeded",
                   f"budget {fits}: {got} (want {want}); budget {over}: {raised}")

    def oracle_exact():  # the oracle's precision ladder against the exact stopped sum
        n = 300
        points = (0.2, math.log(n) / n, 2 / n, 1 / n * (1 + 1e-9))
        got = [circle_oracle.circle_homotopy_prob(n, r) for r in points]
        want = [circle_oracle._stevens_sum(n, *r.as_integer_ratio())[0] for r in points]
        yield (f"oracle-exact n={n}", [p.hex() for p in got] == [p.hex() for p in want],
               f"oracle={got} exact={want}")

    def oracle_vs_mc():  # exact closed-form oracle vs Monte Carlo first Betti number
        grid = (0.15, 0.22, 0.3)
        est = estimator.estimate_curve(circ, "vr", betti_invariant(1), 10, grid,
                                       trials, seed, workers=config.workers)
        for k, r in enumerate(grid):
            p = circle_oracle.circle_homotopy_prob(10, r)
            band = 4.0 * math.sqrt(p * (1.0 - p) / trials) + 1e-12
            yield (f"oracle-vs-mc n=10 r={r}", abs(float(est.mean[k]) - p) <= band,
                   f"mean={est.mean[k]:.4f} exact={p:.4f} band={band:.4f}")

    def euler_two_points():  # two-point Euler characteristic curve: 2(1-t) for t <= 1/2
        grid = (0.1, 0.3)
        est = estimator.estimate_curve(circ, "vr", euler_invariant(), 2, grid,
                                       trials, seed, workers=config.workers)
        for k, t in enumerate(grid):
            expect = 2.0 * (1.0 - t)
            band = 4.0 * float(est.stderr[k]) + 1e-12
            yield (f"euler-two-points t={t}", abs(float(est.mean[k]) - expect) <= band,
                   f"mean={est.mean[k]:.4f} exact={expect:.4f} band={band:.4f}")

    def interleaving():  # Cech(r) <= VR(2r) <= Cech(2r + eps) for every eps > 0
        rng = np.random.Generator(np.random.PCG64(manifolds.mix_seed(seed, 10_000)))
        bad = 0
        for k in range(100):
            n = int(rng.integers(3, 9))
            r = float(rng.uniform(0.03, 0.3))
            s = manifolds.sample(circ, n, seed, 20_000 + k)
            cech = cech_complex_circle(s, r).as_simplex_set()
            vr = vr_complex(s, 2 * r).as_simplex_set()
            cech_eps = cech_complex_circle(s, 2 * r + 1e-9).as_simplex_set()
            bad += not cech <= vr <= cech_eps
        yield ("cech-vr-interleaving", bad == 0, f"{bad}/100 samples violated the inclusions")

    checks = [(row[0], route(*row)) for row in rows] + [
        ("vr-euler-budget octahedron", euler_budget()), ("oracle-exact", oracle_exact()),
        ("oracle-vs-mc", oracle_vs_mc()),
        ("euler-two-points", euler_two_points()), ("cech-vr-interleaving", interleaving())]
    for name, check in checks:  # generators: each runs only as it is drawn, in the guard
        try:
            yield from check
        except Exception as exc:  # a check that raises fails alone; the later ones still run
            yield (name, False, f"{type(exc).__name__}: {exc}")


def run_selftest(config: argparse.Namespace) -> int:
    if config.trials < SELFTEST_MIN_TRIALS:
        raise ValueError(f"selftest needs at least {SELFTEST_MIN_TRIALS} trials for its "
                         f"statistical bands, got {config.trials}")
    if config.workers < 1:  # refused before any check runs, as curve and converge refuse it
        raise ValueError("workers must be >= 1")
    failures = 0
    for name, ok, detail in _selftest_checks(config):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"selftest: {failures} check(s) failed")
        return EXIT_SELFTEST_FAIL
    print("selftest: all checks passed")
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betticurve",
        description="Expectation and variance curves of topological invariants "
                    "of random geometric complexes on model manifolds.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, estimation=True):
        p.add_argument("--seed", type=int, default=0, dest="master_seed")
        p.add_argument("--output", type=str)
        p.add_argument("--fmt", choices=("csv", "json"), default="csv")
        if estimation:
            p.add_argument("--manifold", choices=("circle", "torus", "sphere"), default="circle")
            p.add_argument("--torus-dim", type=int, default=2)
            p.add_argument("--complex", choices=("vr", "cech"), default="vr", dest="complex_kind")
            p.add_argument("--invariant", default="betti1")
            p.add_argument("--trials", type=int, default=1000)
            p.add_argument("--workers", type=int, default=1)

    def add_grid(p):
        p.add_argument("--t-min", type=float)
        p.add_argument("--t-max", type=float)
        p.add_argument("--steps", type=int)
        p.add_argument("--grid", type=_float_list, default=[])

    p_curve = sub.add_parser("curve", help="Monte Carlo invariant curve over a scale grid")
    add_common(p_curve)
    add_grid(p_curve)
    p_curve.add_argument("--n", type=int, default=20)

    p_oracle = sub.add_parser("oracle", help="exact circle first-Betti-number values")
    add_common(p_oracle, estimation=False)
    add_grid(p_oracle)
    p_oracle.add_argument("--n", type=int, default=20)

    p_conv = sub.add_parser("converge", help="fixed-scale convergence table in n")
    add_common(p_conv)
    p_conv.add_argument("--t", type=float)
    p_conv.add_argument("--n-values", type=_int_list, default=[])
    p_conv.add_argument("--target", type=float)

    p_self = sub.add_parser("selftest", help="fast statistical and structural self-checks")
    p_self.add_argument("--seed", type=int, default=0, dest="master_seed")
    p_self.add_argument("--trials", type=int, default=2000)
    p_self.add_argument("--workers", type=int, default=1)

    return parser


def run(config: argparse.Namespace) -> int:
    handlers = {"curve": run_curve, "oracle": run_oracle,
                "converge": run_converge, "selftest": run_selftest}
    return handlers[config.subcommand](config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except SimplexBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.trial_index is not None:
            print(f"error: in trial {exc.trial_index} of seed {exc.master_seed} at n={exc.n}",
                  file=sys.stderr)
        return EXIT_RESOURCE
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:  # OSError: an --output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
