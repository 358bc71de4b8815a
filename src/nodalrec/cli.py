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
from dataclasses import dataclass

import numpy as np

from . import io as formats
from .asymptotics import synthesize_nodal_data
from .errors import ConfigError, FixtureMismatchError, NodalrecError
from .fixtures import worked_example_problem, worked_example_reference
from .forward import integrate_ivp
from .inverse import ReconstructOptions, reconstruct
from .problem import ensure_valid, load_problem
from .spectrum import compute_spectrum, nodal_data

COMMANDS = (
    "forward", "spectrum", "nodes", "synth-nodes",
    "reconstruct", "roundtrip", "paper-example",
)

_EXIT_BY_CATEGORY = {
    "config": 2,
    "parse": 3,
    "invalid-problem": 3,
    "io": 3,
    "fixture-mismatch": 5,
}
_EXIT_NUMERIC = 4

ROUNDTRIP_NUMERIC_CAP = 120
ROUNDTRIP_SYNTHETIC_CAP = 1000

PAPER_EXAMPLE_BUDGETS = {
    "theta_hat": 1e-3,
    "beta_hat": 1e-3,
    "V_sup": 1e-2,
    "m_hat": 1e-2,
    "Lprime_sup": 5e-2,
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    problem_path: str = None
    n_min: int = 5
    n_max: int = 30
    grid_points: int = 65
    tol: float = 1e-9
    mode: str = "numeric"
    known_m: float = None
    output_dir: str = "."
    lam: tuple = ()
    points: int = None
    data_path: str = None
    allow_large: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.n_min < 5:
            raise ConfigError(f"n-min must be >= 5, got {self.n_min}")
        if self.n_max < self.n_min:
            raise ConfigError(f"n-max must be >= n-min, got {self.n_max} < {self.n_min}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")
        if not all(math.isfinite(lam) for lam in self.lam):
            raise ConfigError(f"lam must be finite, got {' '.join(map(str, self.lam))}")
        if self.known_m is not None and not math.isfinite(self.known_m):
            raise ConfigError(f"known-m must be finite, got {self.known_m}")
        if self.grid_points < 16:
            raise ConfigError(f"grid-points must be >= 16, got {self.grid_points}")
        if self.mode not in ("numeric", "synthetic"):
            raise ConfigError(f"mode must be numeric or synthetic, got {self.mode!r}")


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


def _config_from_args(args):
    defaults = {"n_min": 5, "n_max": 30}
    if args.command == "roundtrip":
        defaults = {"n_min": 20, "n_max": 120} if args.mode == "numeric" \
            else {"n_min": 50, "n_max": 400}
    elif args.command == "paper-example":
        defaults = {"n_min": 50, "n_max": 400}
    n_min = getattr(args, "n_min", None)
    n_max = getattr(args, "n_max", None)
    return RunConfig(
        command=args.command,
        problem_path=getattr(args, "problem", None),
        n_min=defaults["n_min"] if n_min is None else n_min,
        n_max=defaults["n_max"] if n_max is None else n_max,
        grid_points=getattr(args, "grid_points", 65),
        tol=getattr(args, "tol", 1e-9),
        mode=getattr(args, "mode", "numeric"),
        known_m=getattr(args, "known_m", None),
        output_dir=getattr(args, "out", None) or
            ("" if args.command == "paper-example" else "."),
        lam=tuple(getattr(args, "lam", ()) or ()),
        points=getattr(args, "points", None),
        data_path=getattr(args, "data", None),
        allow_large=getattr(args, "allow_large", False),
    )


def _out_path(output_dir, default_name):
    """--out may name the CSV itself or a directory to put it in."""
    if output_dir.endswith(".csv"):
        parent = os.path.dirname(output_dir)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return output_dir
    os.makedirs(output_dir, exist_ok=True)
    return os.path.join(output_dir, default_name)


def _load(config):
    problem = load_problem(config.problem_path)
    ensure_valid(problem)
    return problem


def _run_forward(config):
    problem = _load(config)
    os.makedirs(config.output_dir, exist_ok=True)
    for i, lam in enumerate(config.lam):
        traj = integrate_ivp(problem, lam, points=config.points)
        path = os.path.join(config.output_dir, f"trajectory_{i}.csv")
        formats.write_trajectory_csv(
            traj, path, comment=f"lambda={formats.format_float(lam)}")
        print(f"wrote {path}")


def _run_spectrum(config):
    problem = _load(config)
    spec = compute_spectrum(problem, (config.n_min, config.n_max), tol=config.tol)
    path = _out_path(config.output_dir, "spectrum.csv")
    formats.write_spectrum_csv(spec, path)
    print(f"wrote {path} ({len(spec.entries)} eigenvalues)")


def _run_nodes(config):
    problem = _load(config)
    data = nodal_data(problem, (config.n_min, config.n_max), tol=config.tol)
    for n, msg in sorted(data.failures.items()):
        print(f"warning: n={n}: {msg}", file=sys.stderr)
    path = _out_path(config.output_dir, "nodes.csv")
    formats.write_nodal_csv(data, path)
    print(f"wrote {path} ({len(data.nodes)} eigenfunctions)")


def _run_synth_nodes(config):
    problem = _load(config)
    data = synthesize_nodal_data(problem, (config.n_min, config.n_max))
    path = _out_path(config.output_dir, "nodes.csv")
    formats.write_nodal_csv(data, path)
    print(f"wrote {path} ({len(data.nodes)} eigenfunctions, synthetic)")


def _reconstruct_options(config):
    return ReconstructOptions(n_min=config.n_min, known_m=config.known_m)


def _print_summary(result):
    d = result.diagnostics
    print(f"theta_hat={result.theta_hat!r} beta_hat={result.beta_hat!r} "
          f"m_hat={result.m_hat!r} offset={d['offset']} "
          f"stage1_dispersion={d['stage1_dispersion']:.3e} "
          f"stage2_dispersion={d['stage2_dispersion']:.3e}")


def _run_reconstruct(config):
    data = formats.read_nodal_csv(config.data_path)
    result = reconstruct(data, grid_size=config.grid_points,
                         options=_reconstruct_options(config))
    summary_path, curves_path = formats.write_reconstruction(result, config.output_dir)
    _print_summary(result)
    print(f"wrote {summary_path}")
    print(f"wrote {curves_path}")


def _roundtrip_errors(problem, result):
    grid = result.V_hat.x
    V_true = np.asarray(problem.coeffs.V(grid), dtype=float)
    V_true = np.broadcast_to(V_true, grid.shape)
    Lp_true = np.broadcast_to(
        np.asarray(problem.coeffs.chi.diag_skew(grid), dtype=float), grid.shape)
    return {
        "theta": abs(result.theta_hat - problem.bc.theta),
        "beta": abs(result.beta_hat - problem.bc.beta),
        "m": abs(result.m_hat - problem.coeffs.m),
        "V_sup": float(np.max(np.abs(result.V_hat.values - V_true))),
        "Lprime_sup": float(np.max(np.abs(result.Lprime_hat.values - Lp_true))),
    }


def _run_roundtrip(config):
    cap = ROUNDTRIP_NUMERIC_CAP if config.mode == "numeric" else ROUNDTRIP_SYNTHETIC_CAP
    if config.n_max > cap and not config.allow_large:
        raise ConfigError(
            f"n-max {config.n_max} exceeds the {config.mode} cap {cap}; "
            f"pass --allow-large to proceed")
    problem = _load(config)
    if config.mode == "numeric":
        data = nodal_data(problem, (config.n_min, config.n_max), tol=config.tol)
        for n, msg in sorted(data.failures.items()):
            print(f"warning: n={n}: {msg}", file=sys.stderr)
    else:
        data = synthesize_nodal_data(problem, (config.n_min, config.n_max))
    result = reconstruct(data, grid_size=config.grid_points,
                         options=_reconstruct_options(config))
    errors = _roundtrip_errors(problem, result)
    os.makedirs(config.output_dir, exist_ok=True)
    summary_path, curves_path = formats.write_reconstruction(result, config.output_dir)
    report_path = os.path.join(config.output_dir, "report.json")
    with open(report_path, "w") as fh:
        json.dump({"mode": config.mode,
                   "n_min": config.n_min, "n_max": config.n_max,
                   "errors": errors}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _print_summary(result)
    for k in ("theta", "beta", "m", "V_sup", "Lprime_sup"):
        print(f"error {k} = {errors[k]:.6e}")
    print(f"wrote {report_path}")


def _run_paper_example(config):
    problem = worked_example_problem()
    ref = worked_example_reference()
    data = synthesize_nodal_data(problem, (config.n_min, config.n_max))
    result = reconstruct(data, grid_size=config.grid_points)
    grid = result.V_hat.x
    values = {
        "theta_hat": (result.theta_hat, math.pi / 4,
                      abs(result.theta_hat - math.pi / 4)),
        "beta_hat": (result.beta_hat, math.pi / 4,
                     abs(result.beta_hat - math.pi / 4)),
        "m_hat": (result.m_hat, 1.0, abs(result.m_hat - 1.0)),
        "V_sup": (float(np.max(np.abs(result.V_hat.values - ref["V"](grid)))), 0.0, None),
        "Lprime_sup": (float(np.max(np.abs(result.Lprime_hat.values - ref["Lprime"](grid)))),
                       0.0, None),
    }
    failed = []
    for name, (got, want, err) in values.items():
        budget = PAPER_EXAMPLE_BUDGETS[name]
        err = got if err is None else err
        ok = err <= budget
        status = "PASS" if ok else "FAIL"
        if name.endswith("_sup"):
            print(f"{status} {name} = {got:.6e} (budget {budget:g})")
        else:
            print(f"{status} {name} = {got!r} (target {want!r}, error {err:.3e}, "
                  f"budget {budget:g})")
        if not ok:
            failed.append(name)
    if config.output_dir:
        formats.write_reconstruction(result, config.output_dir)
        print(f"wrote reconstruction files to {config.output_dir}")
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
        config = _config_from_args(args)
        _RUNNERS[config.command](config)
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
