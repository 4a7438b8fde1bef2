#!/usr/bin/env python3
"""Benchmark of the betticurve command line tool.

Run from the repository root:

    python3 perfbench/run.py --workload circle-b1-curve --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` runs the workload's ``betticurve`` command again and again for
``--seconds``, each time in a fresh interpreter that imports
``betticurve.cli`` (timed: ``setup_s``) and calls ``cli.main`` (timed:
``wall_s``), and reports medians of the end-to-end metrics.  The host is
shared and its speed drifts by ±25% within minutes, so the time of
``cli.main`` is reported as ``wall_per_ref``: divided by the time of a fixed
reference kernel run in the same interpreter just before and just after it
(probe.reference_kernel).  The unnormalised medians are in the provenance
line.  ``rss_growth_mb`` is how far the peak RSS of the process running
``cli.main`` rises above the interpreter with numpy loaded: betticurve's
modules plus the command's data (pool workers are not counted).
``--trace 1`` runs the command once, then replays it serially from the
library's public functions in a second fresh interpreter, alternating
untraced and traced replays, and reports the per-layer metrics computed from
the spans.

Every output is checked: the non-comment CSV lines must match the digest
pinned in ``digests.json``, circle b1 means must pass an exact binomial test
against ``circle_homotopy_prob``, oracle rows must be probabilities
nondecreasing in r with variance p(1 - p), and a traced run's replayed
columns must equal the CLI's byte for byte.  Metric names and units come from
``BENCHMARK.json``.  The last line of stdout is the JSON result; the lines
before it give each metric with its unit and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"
PINS_PATH = HERE / "digests.json"

INPUT_SETS = 32  # the seed picks one of these; each one's output digest is pinned
# A trial's stream is mix_seed(master_seed XOR trial_index), so master seeds a
# small distance apart replay the same samples in another order.  Master seeds
# 2**20 apart share no stream below 2**20 trials.
SEED_STRIDE = 1 << 20
MIN_ITERATIONS = 3
TIME_LIMIT_S = 170.0  # the whole run, children included, ends within this
# Two-sided tail of a 4-sigma normal band, used as the level of the exact
# binomial test that replaces the band at small trial counts.
BAND_ALPHA = math.erfc(4.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class Workload:
    name: str
    cmd: str
    full: dict
    smoke: dict

    def params(self, input_set: int, size: str) -> dict:
        p = dict(self.full if size == "full" else self.smoke, cmd=self.cmd,
                 seed=input_set * SEED_STRIDE)
        if self.cmd == "oracle":  # the oracle draws nothing: the grid is the input
            p["t_max"] += input_set * 1e-6
        if "steps" in p:
            import numpy as np  # the CLI resolves its grid the same way
            p["grid"] = [float(x) for x in np.linspace(p["t_min"], p["t_max"], p["steps"])]
        return p


WORKLOADS = {w.name: w for w in (
    # ROADMAP reference config: homology ~70%, complexes ~29%, ~16% of simplices new per scale.
    Workload("circle-b1-curve", "curve",
             dict(manifold="circle", invariant="betti1", n=50, t_min=0.02, t_max=0.32,
                  steps=16, trials=20, workers=1),
             dict(manifold="circle", invariant="betti1", n=20, t_min=0.02, t_max=0.32,
                  steps=4, trials=2, workers=1)),
    # Full complexes on the sphere: complexes do ~all the work; memory and sphere-distance guard.
    Workload("sphere-euler-curve", "curve",
             # many small trials: at n=100, t<=1 clique counts are heavy-tailed
             # (per-trial time CV ~1.4), so no run length gives repeatable times
             dict(manifold="sphere", invariant="euler", n=200, t_min=0.05, t_max=0.45,
                  steps=12, trials=100, workers=1),
             dict(manifold="sphere", invariant="euler", n=30, t_min=0.1, t_max=0.5,
                  steps=3, trials=2, workers=1)),
    # Criterion-3 study: one scale, so grid reuse has nothing to reuse; the only process fan-out (4 pools).
    Workload("circle-b1-converge", "converge",
             dict(manifold="circle", invariant="betti1", t=0.1, n_values=[10, 25, 50, 100],
                  target=1.0, trials=200, workers=2),
             dict(manifold="circle", invariant="betti1", t=0.1, n_values=[10, 25],
                  target=1.0, trials=4, workers=2)),
    # Exact Fraction arithmetic of circle_oracle, ~1% of the circle curve's time otherwise.
    Workload("circle-oracle-exact", "oracle",
             dict(n=1000, t_min=0.02, t_max=0.32, steps=6),
             dict(n=100, t_min=0.02, t_max=0.32, steps=2)),
)}


def cli_argv(p: dict, output: str) -> list[str]:
    if p["cmd"] == "oracle":
        return ["oracle", "--n", str(p["n"]), "--t-min", repr(p["t_min"]),
                "--t-max", repr(p["t_max"]), "--steps", str(p["steps"]),
                "--seed", str(p["seed"]), "--output", output]
    common = ["--manifold", p["manifold"], "--invariant", p["invariant"],
              "--trials", str(p["trials"]), "--seed", str(p["seed"]),
              "--workers", str(p["workers"]), "--output", output]
    if p["cmd"] == "curve":
        return ["curve", "--n", str(p["n"]), "--t-min", repr(p["t_min"]),
                "--t-max", repr(p["t_max"]), "--steps", str(p["steps"])] + common
    return ["converge", "--t", repr(p["t"]), "--n-values", ",".join(map(str, p["n_values"])),
            "--target", repr(p["target"])] + common


def evaluations(p: dict) -> int:
    """Invariant or oracle evaluations one command performs."""
    if p["cmd"] == "oracle":
        return p["steps"]
    if p["cmd"] == "curve":
        return p["trials"] * p["steps"]
    return p["trials"] * len(p["n_values"])


# ---------------------------------------------------------------- children

class ChildFailed(Exception):
    pass


def run_child(mode: str, spec: dict, deadline: float) -> dict:
    """Run probe.py in a fresh interpreter; kill its whole process group on timeout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.Popen([sys.executable, str(PROBE), mode, json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} child timed out")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {err.strip()[-500:]}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"{mode} child printed no result") from None


# ------------------------------------------------------------------ checks

def read_table(path: Path) -> tuple[list[str], list[list[str]], str]:
    """Header, rows and sha256 of the numeric (non-'#') lines of a CLI CSV."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]], digest


def _binomial_tails(k: int, trials: int, p: float) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Binomial(trials, p)."""
    if p <= 0.0 or p >= 1.0:
        at = 0 if p <= 0.0 else trials
        return (1.0 if k >= at else 0.0), (1.0 if k <= at else 0.0)
    logs = [math.lgamma(trials + 1) - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
            + i * math.log(p) + (trials - i) * math.log1p(-p) for i in range(trials + 1)]
    pmf = [math.exp(x) for x in logs]
    return sum(pmf[:k + 1]), sum(pmf[k:])


def check_b1_row(n: int, t: float, trials: int, mean: float, variance: float,
                 p: float) -> str | None:
    """b1 is 0 or 1 below t = 1/3, with P(b1 = 1) = p = circle_homotopy_prob(n, t)."""
    k = round(mean * trials)
    expect_var = k * (trials - k) / (trials * (trials - 1))
    if abs(variance - expect_var) > 1e-12:
        return f"n={n} t={t}: variance {variance} != {expect_var} for 0/1 values"
    if not 0.0 <= p <= 1.0:
        return f"n={n} t={t}: oracle probability {p} outside [0, 1]"
    low, high = _binomial_tails(k, trials, p)
    if min(low, high) < BAND_ALPHA / 2:
        return f"n={n} t={t}: {k}/{trials} circles is outside the 4-sigma level of p={p}"
    return None


def check_oracle(p: dict, col: dict) -> list[str]:
    """p = P(b1 = 1) is a probability, nondecreasing in r; b1 has mean p, variance p(1 - p)."""
    errors = []
    if col["r"] != [repr(t) for t in p["grid"]] or any(int(n) != p["n"] for n in col["n"]):
        errors.append("oracle grid or n differs from the request")
    probs = [float(x) for x in col["p"]]
    if any(not 0.0 <= x <= 1.0 for x in probs):
        errors.append("oracle p outside [0, 1]")
    if any(b < a for a, b in zip(probs, probs[1:])):
        errors.append("oracle p decreases as r grows")
    for x, m, v in zip(probs, col["expected_b1"], col["variance_b1"]):
        if float(m) != x or float(v) != x * (1.0 - x):
            errors.append(f"p={x}: need expected_b1 = p and variance_b1 = p(1 - p)")
    return errors


def check_output(p: dict, header: list[str], rows: list[list[str]]) -> list[str]:
    """Workload-specific checks of one CLI table (the digest is checked apart)."""
    col = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    if p["cmd"] == "oracle":
        return check_oracle(p, col)
    errors = []
    trials = p["trials"]
    if any(int(x) != trials for x in col["trials"]):
        errors.append("trials column differs from the request")
    for m, v, se in zip(col["mean"], col["variance"], col["stderr"]):
        if float(v) < 0 or float(se) != math.sqrt(float(v) / trials):
            errors.append(f"row mean={m}: need variance >= 0 and stderr = sqrt(variance/trials)")
        if abs(float(m) * trials - round(float(m) * trials)) > 1e-9 * trials:
            errors.append(f"row mean={m}: integer invariants need a multiple of 1/{trials}")
    scales = [float(t) for t in col["t"]]
    if p["cmd"] == "curve":
        ns = [p["n"]] * len(rows)
        if col["t"] != [repr(t) for t in p["grid"]]:
            errors.append("curve grid differs from the requested one")
    else:
        ns = [int(n) for n in col["n"]]
        if ns != p["n_values"]:
            errors.append("converge n column differs from the request")
        for m, e in zip(col["mean"], col["abs_error"]):
            if float(e) != abs(float(m) - p["target"]):
                errors.append(f"abs_error {e} != |{m} - {p['target']}|")
    if p["manifold"] == "circle" and p["invariant"] == "betti1":
        from betticurve.circle_oracle import circle_homotopy_prob
        oracle_col = col.get("oracle_p", [None] * len(rows))
        for n, t, m, v, o in zip(ns, scales, col["mean"], col["variance"], oracle_col):
            exact = circle_homotopy_prob(n, t) if 0 < t < 1 / 3 else None
            if o is not None and o != ("" if exact is None else repr(exact)):
                errors.append(f"t={t}: oracle column {o!r} != circle_homotopy_prob {exact!r}")
            if exact is not None:
                err = check_b1_row(n, t, trials, float(m), float(v), exact)
                if err:
                    errors.append(err)
    return errors


def table_errors(path: Path, params: dict, pinned: str | None) -> list[str]:
    header, rows, digest = read_table(path)
    errors = check_output(params, header, rows)
    if digest != pinned:
        errors.append(f"digest {digest[:16]} != pinned {str(pinned)[:16]}")
    return errors


# ------------------------------------------------------------------ metrics

def median(xs):
    """The middle sample (the lower one of an even count), so counts stay whole."""
    return statistics.median_low(xs) if xs else 0.0


def percentile(xs: list[float], q: float) -> float:
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


LEAF_LAYERS = ("manifolds.sample", "manifolds.distances", "complexes.build",
               "homology.betti", "homology.euler", "circle_oracle.prob")


def layer_metrics(spans: list, replays: list[dict], span_cost_s: float, cli_run: dict,
                  workers: int) -> tuple[dict, dict]:
    """Per-layer metrics from the traced replays' spans (medians over replays)."""
    per_replay, trial_ms = [], []
    for rep in replays:
        if not rep["traced"]:
            continue
        own = spans[rep["first_span"]:rep["end_span"]]
        time_in = {name: 0.0 for name in LEAF_LAYERS + ("estimator.estimate",)}
        calls = {name: 0 for name in time_in}
        counts = {name: [] for name in time_in}
        for name, start, end, _, count in own:
            if name in time_in:
                time_in[name] += end - start
                calls[name] += 1
                if count is not None:
                    counts[name].append(count)
        # simplices in the complex at a trial's largest scale: the VR complexes
        # of one sample are nested, so that complex is the union over the grid
        last_build = {}
        for name, _, _, parent, count in own:
            if name == "complexes.build":
                last_build[parent] = count
        trial_ms += [(e - s) * 1e3 for name, s, e, _, _ in own if name == "estimator.trial"]
        in_estimator = sum(time_in[n] for n in LEAF_LAYERS if n != "circle_oracle.prob")
        built, betti_cols = sum(counts["complexes.build"]), sum(counts["homology.betti"])
        # traced minus untraced replay time is below the replays' run-to-run
        # noise, so the overhead is the span count times one span's extra cost
        tracing_s = len(own) * span_cost_s
        per_replay.append({
            "manifolds.sample_s": time_in["manifolds.sample"],
            "manifolds.sample_calls": calls["manifolds.sample"],
            "manifolds.distances_s": time_in["manifolds.distances"],
            "complexes.build_s": time_in["complexes.build"],
            "complexes.build_calls": calls["complexes.build"],
            "complexes.simplices_built": built,
            "complexes.simplices_per_s": built / time_in["complexes.build"] if built else 0.0,
            "complexes.peak_simplices": max(counts["complexes.build"], default=0),
            "complexes.unique_frac": sum(last_build.values()) / built if built else 0.0,
            "homology.betti_s": time_in["homology.betti"],
            "homology.betti_calls": calls["homology.betti"],
            "homology.columns": betti_cols,
            "homology.columns_per_s": betti_cols / time_in["homology.betti"] if betti_cols else 0.0,
            "homology.euler_s": time_in["homology.euler"],
            "circle_oracle.prob_s": time_in["circle_oracle.prob"],
            "circle_oracle.calls": calls["circle_oracle.prob"],
            "estimator.self_s": time_in["estimator.estimate"] - in_estimator,
            "trace.coverage": sum(time_in[n] for n in LEAF_LAYERS) / rep["wall_s"],
            "trace.overhead_frac": tracing_s / (rep["wall_s"] - tracing_s),
        })
    metrics = {name: median([r[name] for r in per_replay]) for name in per_replay[0]}
    untraced = median([r["wall_s"] for r in replays if not r["traced"]])
    metrics.update({
        "estimator.trial_ms_p50": percentile(trial_ms, 0.5),
        "estimator.trial_ms_p90": percentile(trial_ms, 0.9),
        "estimator.parallel_eff": (untraced / (workers * cli_run["wall_s"])
                                   if trial_ms else 0.0),
        "cli.self_s": cli_run["wall_s"] - cli_run["library_s"],
    })
    samples = {"traced_replays": len(per_replay), "untraced_replays": len(replays) - len(per_replay),
               "trial_ms": len(trial_ms), "span_cost_s": span_cost_s,
               "replay_wall_s": {"untraced": untraced, "traced": median(
                   [r["wall_s"] for r in replays if r["traced"]])}}
    return metrics, samples


def replay_mismatches(replay_columns: dict, header: list[str], rows: list[list[str]]) -> list[str]:
    col = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    bad = []
    for name, values in replay_columns.items():
        want = ["" if v is None else repr(v) for v in values]
        if col.get(name) != want:
            bad.append(f"replayed {name} column differs from the CLI's")
    return bad


# ------------------------------------------------------------------- runs

def provenance(workload: Workload, seed: int, input_set: int, size: str, params: dict,
               versions: dict, samples: dict) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "betticurve").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {"workload": workload.name, "seed": seed, "input_set": input_set, "size": size,
            "python": versions.get("python"), "numpy": versions.get("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "source_sha256": source.hexdigest(), "run_size": {
                k: v for k, v in params.items() if k not in ("grid", "cmd")},
            "samples": samples}


def measure(workload: Workload, seed: int, seconds: float, trace: bool, *,
            size: str = "full", pins: dict | None = None,
            min_iterations: int = MIN_ITERATIONS) -> dict:
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    if pins is None:
        pins = json.loads(PINS_PATH.read_text())
    input_set = seed % INPUT_SETS
    params = workload.params(input_set, size)
    pinned = pins.get(size, {}).get(workload.name, {}).get(str(input_set))
    tmp = ROOT / ".perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    out = tmp / "out.csv"
    base = {"src": str(SRC), "argv": cli_argv(params, str(out))}
    attempted = failed = 0
    errors: list[str] = []
    runs: list[dict] = []

    def cli_once(**extra) -> dict | None:
        nonlocal attempted, failed
        attempted += 1
        out.unlink(missing_ok=True)
        try:
            got = run_child("cli", dict(base, **extra), deadline)
            errs = ([f"exit code {got['rc']}"] if got["rc"] != 0
                    else table_errors(out, params, pinned))
        except (ChildFailed, OSError, ValueError, KeyError, IndexError) as exc:
            got, errs = None, [str(exc)]
        if errs:
            failed += 1
            errors.extend(errs)
            return None
        return got

    try:
        if not trace:
            run_child("import", {"src": str(SRC)}, deadline)  # compile and cache first
            while attempted < min_iterations or time.monotonic() - started < seconds:
                if time.monotonic() > deadline - 30:
                    break
                got = cli_once()
                if got is not None:
                    runs.append(got)
            evals = evaluations(params)
            wall_per_ref = median([r["wall_s"] / r["ref_s"] for r in runs])
            metrics = {
                "wall_per_ref": wall_per_ref,
                "evals_per_ref": evals / wall_per_ref if wall_per_ref else 0.0,
                "setup_s": median([r["setup_s"] for r in runs]),
                "rss_growth_mb": median([r["rss_growth_mb"] for r in runs]),
            }
            samples = {"iterations": len(runs), "evaluations_per_iteration": evals,
                       "wall_s": median([r["wall_s"] for r in runs]),
                       "ref_s": median([r["ref_s"] for r in runs])}
        else:
            cli_run = cli_once(boundaries=True)
            metrics, samples = {}, {}
            if cli_run is not None:
                runs.append(cli_run)
                header, rows, _ = read_table(out)
                spec = dict(base, params=params, spans_path=str(tmp / "spans.json"),
                            seconds=max(0.0, seconds - (time.monotonic() - started)))
                try:
                    got = run_child("replay", spec, deadline)
                    replays = got["replays"]
                    attempted += len(replays)
                    for rep in replays:
                        bad = replay_mismatches(rep["columns"], header, rows)
                        failed += bool(bad)
                        errors.extend(bad)
                    spans = json.loads((tmp / "spans.json").read_text())
                    metrics, samples = layer_metrics(spans, replays, got["span_cost_s"],
                                                     cli_run, params.get("workers", 1))
                except ChildFailed as exc:
                    attempted += 1
                    failed += 1
                    errors.append(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    return {"attempted": attempted, "failed": failed, "errors": errors, "metrics": metrics,
            "provenance": provenance(workload, seed, input_set, size, params,
                                     runs[0] if runs else {}, samples)}


def report(result: dict, units: dict) -> dict:
    """Print metrics and provenance; return the final JSON object."""
    for err in dict.fromkeys(result["errors"]):
        print(f"check failed: {err}", file=sys.stderr)
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items() if name in result["metrics"]}
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(f"failed_frac: {result['failed'] / max(1, result['attempted'])}")
    print(json.dumps({"provenance": result["provenance"]}))
    return {"correct": result["failed"] == 0 and len(metrics) == len(units),
            "attempted": max(1, result["attempted"]), "failed": result["failed"],
            "metrics": metrics}


def metric_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def smoke() -> None:
    """Every workload at tiny size, untraced and traced, plus a corrupted digest."""
    for workload in WORKLOADS.values():
        for trace in (False, True):
            units = metric_units(trace)
            final = report(measure(workload, 0, 0.0, trace, size="smoke", min_iterations=1), units)
            if not final["correct"] or set(final["metrics"]) != set(units):
                raise SystemExit(f"smoke: {workload.name} trace={int(trace)} failed: {final}")
            if any(m["unit"] != units[name] for name, m in final["metrics"].items()):
                raise SystemExit(f"smoke: {workload.name} printed a wrong unit")
    pins = json.loads(PINS_PATH.read_text())
    name = "circle-b1-curve"
    pins["smoke"][name]["0"] = "0" * 64
    result = measure(WORKLOADS[name], 0, 0.0, False, size="smoke", pins=pins, min_iterations=2)
    if result["failed"] != result["attempted"] or result["attempted"] < 1:
        raise SystemExit(f"smoke: a corrupted digest gave failed_frac "
                         f"{result['failed']}/{result['attempted']}, want 1")
    print("smoke: ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: all workloads at tiny size, then a corrupted digest")
    args = parser.parse_args(argv)
    if not (SRC / "betticurve" / "cli.py").is_file():
        print(f"error: no betticurve source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        smoke()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(result, metric_units(bool(args.trace)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
