"""Batch command-line front end.

Subcommands: forward, spectrum, nodes, synth-nodes, reconstruct, roundtrip,
paper-example.  Every failure path prints "error-category: <category>" on
stderr and exits with the matching code: 2 config, 3 parse or file I/O,
4 numeric failure, 5 built-in example mismatch.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import io as formats
from .asymptotics import synthesize_nodal_data
from .errors import ConfigError, FixtureMismatchError, NodalrecError
from .fixtures import worked_example_problem
from .forward import solve_batch
from .inverse import reconstruct
from .problem import load_problem
from .spectrum import compute_spectrum, nodal_data

_EXIT_BY_CATEGORY = {
    "config": 2,
    "parse": 3,
    "invalid-problem": 3,
    "io": 3,
    "fixture-mismatch": 5,
}
_EXIT_NUMERIC = 4

ROUNDTRIP_NUMERIC_CAP = 400
ROUNDTRIP_SYNTHETIC_CAP = 1000

PAPER_EXAMPLE_BUDGETS = {
    "theta": 1e-3,
    "beta": 1e-3,
    "m": 1e-2,
    "V_sup": 1e-2,
    "Lprime_sup": 5e-2,
}


class _Parser(argparse.ArgumentParser):
    """Argparse failures are config errors; keep the category contract."""

    def error(self, message):
        print("error-category: config", file=sys.stderr)
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="nodalrec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, problem=True, n_range=True, tol=True):
        if problem:
            p.add_argument("--problem", required=True, help="problem definition YAML")
        if n_range:
            p.add_argument("--n-min", type=int, default=None)
            p.add_argument("--n-max", type=int, default=None)
        if tol:
            p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--out", default=".", help="output file or directory")

    p = sub.add_parser("forward", help="integrate the system at given lambda values")
    common(p, n_range=False, tol=False)
    p.add_argument("--lam", type=float, nargs="+", required=True)
    p.add_argument("--points", type=int, default=None)

    p = sub.add_parser("spectrum", help="eigenvalues n-min..n-max")
    common(p)

    p = sub.add_parser("nodes", help="numeric nodal data n-min..n-max")
    common(p)

    p = sub.add_parser("synth-nodes", help="asymptotic-formula nodal data")
    common(p, tol=False)

    p = sub.add_parser("reconstruct", help="inverse problem from a nodal CSV")
    p.add_argument("--data", required=True, help="nodal CSV (n,j,x)")
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--grid-points", type=int, default=65)
    p.add_argument("--known-m", type=float, default=None)
    p.add_argument("--out", default=".")

    p = sub.add_parser("roundtrip", help="generate data, reconstruct, report errors")
    common(p)
    p.add_argument("--mode", choices=("numeric", "synthetic"), default="numeric")
    p.add_argument("--grid-points", type=int, default=65)
    p.add_argument("--known-m", type=float, default=None)
    p.add_argument("--allow-large", action="store_true",
                   help="lift the n-max safety cap")

    p = sub.add_parser("paper-example", help="built-in worked example, checked "
                       "against its known coefficients")
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--out", default=None, help="also write reconstruction files")

    return parser


def _check_args(args):
    """Fill the n-range defaults of the commands that have those options,
    then check the options; raises ConfigError."""
    opts = vars(args)
    if args.command == "roundtrip" and args.mode == "numeric":
        n_range = (20, 120)
    elif args.command in ("roundtrip", "paper-example"):
        n_range = (50, 400)
    else:
        n_range = (5, 30)
    defaulted = set()
    for key, default in zip(("n_min", "n_max"), n_range):
        if key in opts and opts[key] is None:
            opts[key] = default
            defaulted.add(key)
    if args.command != "paper-example":  # paper-example writes files only when given --out
        args.out = args.out or "."
    if opts.get("n_min", 5) < 5:
        raise ConfigError(f"n-min must be >= 5, got {args.n_min}")
    if "n_max" in opts and args.n_max < args.n_min:
        hint = (f"; {args.n_max} is the default n-max of {args.command}, give --n-max"
                if "n_max" in defaulted else "")
        raise ConfigError(f"n-max must be >= n-min, got {args.n_max} < {args.n_min}{hint}")
    tol = opts.get("tol", 1.0)
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    lam = opts.get("lam", ())
    if not all(math.isfinite(x) for x in lam):
        raise ConfigError(f"lam must be finite, got {' '.join(map(str, lam))}")
    known_m = opts.get("known_m")
    if known_m is not None and not math.isfinite(known_m):
        raise ConfigError(f"known-m must be finite, got {known_m}")
    if opts.get("points") is not None and args.points < 2:
        raise ConfigError(f"points must be >= 2, got {args.points}")
    if opts.get("grid_points", 16) < 16:
        raise ConfigError(f"grid-points must be >= 16, got {args.grid_points}")


def _out_path(output_dir, default_name):
    """--out may name the CSV itself or a directory to put it in."""
    if output_dir.endswith(".csv"):
        parent = os.path.dirname(output_dir)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return output_dir
    os.makedirs(output_dir, exist_ok=True)
    return os.path.join(output_dir, default_name)


def _run_forward(args):
    problem = load_problem(args.problem)
    os.makedirs(args.out, exist_ok=True)
    for i, lam in enumerate(args.lam):
        sol = solve_batch(problem, [lam], points=args.points)
        path = os.path.join(args.out, f"trajectory_{i}.csv")
        formats.write_trajectory_csv(
            sol, path, comment=f"lambda={formats.format_float(lam)}")
        print(f"wrote {path}")


def _run_spectrum(args):
    problem = load_problem(args.problem)
    spec = compute_spectrum(problem, (args.n_min, args.n_max), tol=args.tol)
    path = _out_path(args.out, "spectrum.csv")
    formats.write_spectrum_csv(spec, path)
    print(f"wrote {path} ({len(spec.entries)} eigenvalues)")


def _run_nodes(args):
    problem = load_problem(args.problem)
    data = nodal_data(problem, (args.n_min, args.n_max), tol=args.tol)
    for n, msg in sorted(data.failures.items()):
        print(f"warning: n={n}: {msg}", file=sys.stderr)
    path = _out_path(args.out, "nodes.csv")
    formats.write_nodal_csv(data, path)
    print(f"wrote {path} ({len(data.nodes)} eigenfunctions)")


def _run_synth_nodes(args):
    problem = load_problem(args.problem)
    data = synthesize_nodal_data(problem, (args.n_min, args.n_max))
    path = _out_path(args.out, "nodes.csv")
    formats.write_nodal_csv(data, path)
    print(f"wrote {path} ({len(data.nodes)} eigenfunctions, synthetic)")


def _print_summary(result):
    d = result.diagnostics
    print(f"theta_hat={result.theta_hat!r} beta_hat={result.beta_hat!r} "
          f"m_hat={result.m_hat!r} offset={d['offset']} "
          f"stage1_dispersion={d['stage1_dispersion']:.3e} "
          f"stage2_dispersion={d['stage2_dispersion']:.3e}")


def _run_reconstruct(args):
    data = formats.read_nodal_csv(args.data)
    result = reconstruct(data, grid_size=args.grid_points,
                         n_min=args.n_min, known_m=args.known_m)
    summary_path, curves_path = formats.write_reconstruction(result, args.out)
    _print_summary(result)
    print(f"wrote {summary_path}")
    print(f"wrote {curves_path}")


def _roundtrip_errors(problem, result):
    grid = result.V_hat.x
    V_true = problem.coeffs.V(grid)
    Lp_true = problem.coeffs.chi.diag_skew(grid)
    return {
        "theta": abs(result.theta_hat - problem.bc.theta),
        "beta": abs(result.beta_hat - problem.bc.beta),
        "m": abs(result.m_hat - problem.coeffs.m),
        "V_sup": float(np.max(np.abs(result.V_hat.values - V_true))),
        "Lprime_sup": float(np.max(np.abs(result.Lprime_hat.values - Lp_true))),
    }


def _run_roundtrip(args):
    cap = ROUNDTRIP_NUMERIC_CAP if args.mode == "numeric" else ROUNDTRIP_SYNTHETIC_CAP
    if args.n_max > cap and not args.allow_large:
        raise ConfigError(
            f"n-max {args.n_max} exceeds the {args.mode} cap {cap}; "
            f"pass --allow-large to proceed")
    problem = load_problem(args.problem)
    if args.mode == "numeric":
        data = nodal_data(problem, (args.n_min, args.n_max), tol=args.tol)
        for n, msg in sorted(data.failures.items()):
            print(f"warning: n={n}: {msg}", file=sys.stderr)
    else:
        data = synthesize_nodal_data(problem, (args.n_min, args.n_max))
    result = reconstruct(data, grid_size=args.grid_points,
                         n_min=args.n_min, known_m=args.known_m)
    errors = _roundtrip_errors(problem, result)
    summary_path, curves_path = formats.write_reconstruction(result, args.out)
    report_path = os.path.join(args.out, "report.json")
    with open(report_path, "w") as fh:
        json.dump({"mode": args.mode,
                   "n_min": args.n_min, "n_max": args.n_max,
                   "errors": errors}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _print_summary(result)
    for k in ("theta", "beta", "m", "V_sup", "Lprime_sup"):
        print(f"error {k} = {errors[k]:.6e}")
    print(f"wrote {report_path}")


def _run_paper_example(args):
    problem = worked_example_problem()
    data = synthesize_nodal_data(problem, (args.n_min, args.n_max))
    result = reconstruct(data)
    errors = _roundtrip_errors(problem, result)
    targets = {"theta": problem.bc.theta, "beta": problem.bc.beta, "m": problem.coeffs.m}
    failed = []
    for key, budget in PAPER_EXAMPLE_BUDGETS.items():
        err = errors[key]
        name = key if key.endswith("_sup") else f"{key}_hat"
        status = "PASS" if err <= budget else "FAIL"
        if key in targets:
            print(f"{status} {name} = {getattr(result, name)!r} (target {targets[key]!r}, "
                  f"error {err:.3e}, budget {budget:g})")
        else:
            print(f"{status} {name} = {err:.6e} (budget {budget:g})")
        if status == "FAIL":
            failed.append(name)
    if args.out:
        formats.write_reconstruction(result, args.out)
        print(f"wrote reconstruction files to {args.out}")
    if failed:
        raise FixtureMismatchError(
            f"built-in example out of budget: {', '.join(failed)}")


_RUNNERS = {
    "forward": _run_forward,
    "spectrum": _run_spectrum,
    "nodes": _run_nodes,
    "synth-nodes": _run_synth_nodes,
    "reconstruct": _run_reconstruct,
    "roundtrip": _run_roundtrip,
    "paper-example": _run_paper_example,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        _RUNNERS[args.command](args)
    except NodalrecError as exc:
        print(f"error-category: {exc.category}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BY_CATEGORY.get(exc.category, _EXIT_NUMERIC)
    except OSError as exc:
        print("error-category: io", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
