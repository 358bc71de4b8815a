"""Sweep the normalized characteristic function over a lambda window.

Prints (lambda, Delta/max(1, lambda^2)) rows and marks sign changes, which
bracket eigenvalues.  The window is evaluated in one batched call, on one
grid resolved for its largest |lambda|.  Useful for checking a new problem
file before running the full spectrum search.

    python3 scripts/lambda_sweep.py --problem problems/cosine.yaml \
        --lo 4 --hi 12 --steps 65
"""

import argparse

import numpy as np

from nodalrec import char_fn_normalized, load_problem


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--problem", required=True)
    ap.add_argument("--lo", type=float, default=4.0)
    ap.add_argument("--hi", type=float, default=12.0)
    ap.add_argument("--steps", type=int, default=65)
    args = ap.parse_args()

    problem = load_problem(args.problem)
    lams = np.linspace(args.lo, args.hi, args.steps)
    vals = char_fn_normalized(problem, lams)

    crossings = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    for i, (lam, v) in enumerate(zip(lams, vals)):
        mark = "  <- sign change" if i - 1 in crossings else ""
        print(f"{lam:10.5f} {v: .6e}{mark}")
    print(f"{crossings.size} sign changes in [{args.lo}, {args.hi}]")


if __name__ == "__main__":
    main()
