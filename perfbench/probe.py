"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 probe.py import '<spec json>'   import betticurve.cli, report the time
    python3 probe.py cli '<spec json>'      run betticurve.cli.main on spec["argv"]
    python3 probe.py replay '<spec json>'   replay the workload's trials serially

The spec always carries "src", the source tree the package must be imported
from.  The result is one JSON object on the last line of stdout; ``replay``
also writes its spans to spec["spans_path"] when it ends.
"""

from __future__ import annotations

import contextlib
import json
import platform
import statistics
import sys
import time
from pathlib import Path

perf_counter = time.perf_counter


def _peak_rss_kib() -> int:
    """Peak RSS of this process's memory image, in KiB (Linux VmHWM).

    Not ru_maxrss: Linux carries that over an exec from the parent process,
    so a child of a large parent would start at the parent's peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _import_cli(src: str):
    """Import betticurve.cli; return it, the import time and the peak RSS
    (KiB) of the interpreter with numpy loaded, before betticurve is.

    numpy and numpy.random (which the library's sampling imports on first
    use, ~6 MiB) are imported first, so that the RSS they add is told apart.
    """
    t0 = perf_counter()
    import numpy.random  # noqa: F401
    numpy_kib = _peak_rss_kib()
    import betticurve.cli as cli
    setup_s = perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"betticurve was imported from {cli.__file__}, not from {src}")
    return cli, setup_s, numpy_kib


def reference_kernel() -> float:
    """Seconds for a fixed piece of interpreter work.

    Big-integer products, tuple-keyed dict stores and bit shifts, the kinds of
    work the library's oracle, complexes and homology do.  Timed next to each
    command, it measures how fast the shared host runs at that moment.
    """
    t0 = perf_counter()
    big = 7 ** 1500
    mod = big + 12345
    x, bits, table = 3, 0, {}
    for i in range(2000):
        x = (x * big + i) % mod
        table[(i & 255, i >> 8)] = x & 0xFFFF
        bits ^= x >> (i & 63)
    return perf_counter() - t0


class BoundaryClock:
    """Time spent inside the library calls that cli.py makes, outermost only."""

    def __init__(self):
        self.inside_s = 0.0
        self._depth = 0

    def wrap(self, module, name):
        fn = getattr(module, name)

        def timed(*args, **kwargs):
            self._depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.inside_s += perf_counter() - t0

        setattr(module, name, timed)


def run_cli(spec: dict) -> dict:
    ref_before = reference_kernel()
    cli, setup_s, numpy_kib = _import_cli(spec["src"])
    clock = None
    if spec.get("boundaries"):
        from betticurve import circle_oracle, estimator
        clock = BoundaryClock()
        for module, name in ((estimator, "estimate_curve"), (estimator, "convergence_study"),
                             (circle_oracle, "circle_homotopy_prob")):
            clock.wrap(module, name)
    t0 = perf_counter()
    rc = cli.main(spec["argv"])
    wall_s = perf_counter() - t0
    # betticurve's modules plus the command's data, in this process only:
    # pool workers are not counted
    rss_growth_mb = (_peak_rss_kib() - numpy_kib) / 1024.0
    ref_s = (ref_before + reference_kernel()) / 2
    import numpy
    return {"rc": rc, "setup_s": setup_s, "wall_s": wall_s, "ref_s": ref_s,
            "rss_growth_mb": rss_growth_mb,
            "library_s": None if clock is None else clock.inside_s,
            "python": platform.python_version(), "numpy": numpy.__version__}


class Tracer:
    """In-memory spans: [name, start, end, parent index, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = perf_counter()


class NoTracer:
    """The untraced replay: same calls, no clock reads, no records."""

    _none = contextlib.nullcontext([None] * 5)

    def span(self, name: str):
        return self._none


def span_cost_s(tracer, calls: int = 20000) -> float:
    """Seconds one empty span of ``tracer`` costs, from a timed loop."""
    span = tracer.span
    t0 = perf_counter()
    for _ in range(calls):
        with span("cost"):
            pass
    return (perf_counter() - t0) / calls


def replay(spec: dict, tracer) -> dict:
    """Serial re-execution of the workload from the library's public functions.

    Mirrors estimator.estimate_curve / convergence_study (trial j draws
    sample(manifold, n, seed, j); the invariant is evaluated at every grid
    scale; aggregation is mean and ddof=1 variance), the CLI's oracle
    column and cli.run_oracle, so its columns must equal the CLI's byte for
    byte.
    """
    from fractions import Fraction

    import numpy as np
    from betticurve.circle_oracle import circle_homotopy_prob
    from betticurve.complexes import vr_complex
    from betticurve.homology import betti_invariant, euler_invariant
    from betticurve.manifolds import circle, pairwise_distances, sample, sphere2

    span = tracer.span
    p = spec["params"]
    if p["cmd"] == "oracle":
        probs = []
        for t in p["grid"]:
            with span("circle_oracle.prob"):
                probs.append(circle_homotopy_prob(p["n"], t))
        return {"p": probs, "expected_b1": probs,
                "variance_b1": [x * (1.0 - x) for x in probs]}
    manifold = {"circle": circle, "sphere": sphere2}[p["manifold"]]()
    inv = p["invariant"]
    invariant = euler_invariant() if inv == "euler" else betti_invariant(int(inv[len("betti"):]))
    max_dim = invariant.dim + 1 if invariant.kind == "betti" else -1
    eval_span = "homology.betti" if invariant.kind == "betti" else "homology.euler"
    runs = ([(p["n"], p["grid"])] if p["cmd"] == "curve"
            else [(n, [p["t"]]) for n in p["n_values"]])
    means, variances = [], []
    for n, grid in runs:
        with span("estimator.estimate"):
            values = []
            for j in range(p["trials"]):
                with span("estimator.trial"):
                    with span("manifolds.sample"):
                        s = sample(manifold, n, p["seed"], j)
                    with span("manifolds.distances"):
                        dist = pairwise_distances(s)
                    row = []
                    for t in grid:
                        with span("complexes.build") as rec:
                            c = vr_complex(s, t, max_dim, dist=dist)
                        rec[4] = c.simplex_count()
                        with span(eval_span) as rec:
                            row.append(float(invariant.evaluate(c)))
                        if invariant.kind == "betti":
                            rec[4] = len(c.simplices(invariant.dim)) + len(c.simplices(invariant.dim + 1))
                    values.append(row)
            arr = np.asarray(values, dtype=float)
            means.extend(float(x) for x in arr.mean(axis=0))
            variances.extend(float(x) for x in arr.var(axis=0, ddof=1))
    out = {"mean": means, "variance": variances}
    if p["cmd"] == "curve" and p["manifold"] == "circle" and inv == "betti1":
        oracle = []
        for t in p["grid"]:
            if 0 < Fraction(t) < Fraction(1, 3):
                with span("circle_oracle.prob"):
                    oracle.append(circle_homotopy_prob(p["n"], t))
            else:
                oracle.append(None)
        out["oracle_p"] = oracle
    return out


def run_replays(spec: dict) -> dict:
    """Alternate untraced and traced replays until the deadline (at least one pair)."""
    _import_cli(spec["src"])
    tracer = Tracer()
    replays = []
    deadline = perf_counter() + spec["seconds"]
    while not replays or perf_counter() < deadline:
        # alternate which of the pair goes first, so neither always runs cold
        for traced in ((False, True) if len(replays) % 4 == 0 else (True, False)):
            first = len(tracer.spans)
            t0 = perf_counter()
            with (tracer.span("replay") if traced else contextlib.nullcontext()):
                columns = replay(spec, tracer if traced else NoTracer())
            replays.append({"traced": traced, "wall_s": perf_counter() - t0,
                            "first_span": first, "end_span": len(tracer.spans),
                            "columns": columns})
    with open(spec["spans_path"], "w") as fh:
        json.dump(tracer.spans, fh)
    # what a traced span costs more than an untraced one, as a median of
    # interleaved timed loops; tracing overhead is this times the span count
    extra = [span_cost_s(Tracer()) - span_cost_s(NoTracer()) for _ in range(5)]
    return {"replays": replays, "span_cost_s": statistics.median(extra)}


def main(argv: list[str]) -> None:
    mode, spec = argv[0], json.loads(argv[1])
    sys.path.insert(0, spec["src"])
    if mode == "import":
        result = {"setup_s": _import_cli(spec["src"])[1]}
    elif mode == "cli":
        result = run_cli(spec)
    elif mode == "replay":
        result = run_replays(spec)
    else:
        sys.exit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
