#!/usr/bin/env python3
"""Convergence of E[b1] toward b1(circle) = 1 as the sample densifies.

Runs the fixed-scale convergence table for a geometric ladder of sample
sizes and prints it, with the exact oracle value at the largest n for
context.
"""

import argparse
import sys

from betticurve.circle_oracle import MAX_ORACLE_N, circle_homotopy_prob, in_oracle_domain
from betticurve.estimator import VR, convergence_study
from betticurve.homology import betti_invariant
from betticurve.manifolds import circle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", type=float, default=0.1)
    parser.add_argument("--n-values", type=int, nargs="+",
                        default=[10, 25, 50, 100])
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    table = convergence_study(
        circle(), VR, betti_invariant(1), args.t, args.n_values,
        args.trials, args.seed, target=1.0,
        target_source="first Betti number of the circle",
        workers=args.workers)

    print(f"t = {table.t}, trials = {table.trials}, target = {table.target} "
          f"({table.target_source})")
    print(f"{'n':>6} {'mean':>10} {'variance':>10} {'stderr':>10} {'abs_err':>10}")
    for k, n in enumerate(table.n_values):
        print(f"{n:>6} {table.mean[k]:>10.4f} {table.variance[k]:>10.4f} "
              f"{table.stderr[k]:>10.4f} {table.abs_error[k]:>10.4f}")

    n_max = max(args.n_values)
    if n_max <= MAX_ORACLE_N and in_oracle_domain(args.t):
        p = circle_homotopy_prob(n_max, args.t)
        print(f"exact P(n={n_max}, r={args.t}) = {p:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
