"""Independent references and the checkers that compare program output to them.

Nothing here imports nodalrec: every reference is computed from closed forms
or from scipy, so a fault in the program cannot leak into its own check.

- Known coefficients: theta, beta, m, V and L' of the problem that generated
  the data, compared with a reconstruction under fixed budgets.
- Constant mass (V = 0, chi = 0, theta = beta = 0): eigenvalues are
  sqrt(n^2 + m^2) and the n-th eigenfunction's first component vanishes
  exactly at j pi / n, j = 1..n-1.
- Exponential kernel with constant mass: chi_ij(x, t) = c_ij exp(-a (x - t))
  turns the integro-differential system into a constant-coefficient linear
  ODE in (y1, y2, u1, u2), with u_col(x) = int_0^x exp(-a (x - t)) y_col(t) dt
  and u_col' = y_col - a u_col.  Delta(lambda) then comes from one matrix
  exponential, and each root from brentq inside a sign-change bracket.
- CSV read-back: the data read must equal the data written, bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq


@dataclass(frozen=True)
class Verdict:
    ok: bool
    dev: float
    detail: str


# ---------------------------------------------------------------------------
# references


def constant_mass_eigenvalues(ns, m):
    """lambda_n = sqrt(n^2 + m^2) for the constant-mass operator."""
    return {int(n): math.sqrt(n * n + m * m) for n in ns}


def constant_mass_nodes(n):
    """Interior zeros j pi / n, j = 1..n-1, of the n-th eigenfunction's phi1."""
    return np.arange(1, n) * math.pi / n


def exp_kernel_delta(lam, theta, beta, m, c11, c12, c21, c22, a):
    """Delta(lambda) of the constant-mass operator with kernel entries
    chi_ij(x, t) = c_ij exp(-a (x - t)), by the matrix exponential of the
    equivalent 4 x 4 system over [0, pi]."""
    A = np.array([
        [0.0, -(m + lam), c21, c22],
        [lam - m, 0.0, -c11, -c12],
        [1.0, 0.0, -a, 0.0],
        [0.0, 1.0, 0.0, -a],
    ])
    z0 = np.array([lam * math.sin(theta), -lam * math.cos(theta), 0.0, 0.0])
    y1, y2, _, _ = expm(A * math.pi) @ z0
    return y1 * lam * math.cos(beta) + y2 * lam * math.sin(beta)


def exp_kernel_eigenvalues(ns, theta, beta, m, c11, c12, c21, c22, a):
    """lambda_n for each n: the single root of Delta / lambda^2 within 0.5 of
    the leading asymptote n + (beta - theta)/pi, bracketed on a 51-point
    scan and solved by brentq.  Raises ValueError when the window holds no
    sign change or more than one."""

    def f(lam):
        return exp_kernel_delta(lam, theta, beta, m, c11, c12, c21, c22, a) / max(1.0, lam * lam)

    out = {}
    for n in ns:
        seed = n + (beta - theta) / math.pi
        grid = np.linspace(seed - 0.5, seed + 0.5, 51)
        vals = np.array([f(x) for x in grid])
        cells = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        if cells.size != 1:
            raise ValueError(f"{cells.size} sign changes near n = {n}")
        k = int(cells[0])
        out[int(n)] = brentq(f, grid[k], grid[k + 1], xtol=1e-14, rtol=1e-15, maxiter=200)
    return out


# ---------------------------------------------------------------------------
# checkers


def check_spectrum(entries, reference, tol):
    """Every reference index present and |lambda_n - reference_n| <= tol;
    dev is the largest deviation."""
    missing = sorted(set(reference) - set(entries))
    if missing:
        return Verdict(False, math.inf, f"missing indices {missing[:5]}")
    dev = max(abs(float(entries[n]) - reference[n]) for n in reference)
    return Verdict(dev <= tol, dev, f"max |lambda_n - ref| = {dev:.3e} (<= {tol:g})")


def check_constant_mass_nodes(nodes, ns, tol):
    """n - 1 nodes per index, each within tol of j pi / n."""
    dev = 0.0
    for n in ns:
        xs = np.asarray(nodes.get(n, ()), dtype=float)
        if xs.size != n - 1:
            return Verdict(False, math.inf, f"n = {n}: {xs.size} nodes, expected {n - 1}")
        dev = max(dev, float(np.max(np.abs(xs - constant_mass_nodes(n)))) if n > 1 else 0.0)
    return Verdict(dev <= tol, dev, f"max |x_n^j - j pi/n| = {dev:.3e} (<= {tol:g})")


def check_coefficients(rec, known, budgets):
    """Reconstruction errors against the known coefficients, each within its
    budget.  known holds theta, beta, m and callables V (and Lprime when
    budgeted); dev is the sup error of V on the reconstruction grid."""
    grid = np.asarray(rec.V_hat.x, dtype=float)
    errs = {
        "theta": abs(rec.theta_hat - known["theta"]),
        "beta": abs(rec.beta_hat - known["beta"]),
        "m": abs(rec.m_hat - known["m"]),
        "V_sup": float(np.max(np.abs(rec.V_hat.values - known["V"](grid)))),
    }
    if "Lprime_sup" in budgets:
        errs["Lprime_sup"] = float(np.max(np.abs(rec.Lprime_hat.values - known["Lprime"](grid))))
    ok = all(errs[k] <= budgets[k] for k in budgets)
    detail = ", ".join(f"{k}={errs[k]:.3e} (<= {budgets[k]:g})" for k in budgets)
    return Verdict(ok, errs["V_sup"], detail)


def check_readback(written, read):
    """Same indices, same source tag, and every node bit-identical."""
    if written.source != read.source:
        return Verdict(False, math.inf, f"source {read.source!r} != {written.source!r}")
    if sorted(written.nodes) != sorted(read.nodes):
        return Verdict(False, math.inf, "index sets differ")
    for n, xs in written.nodes.items():
        a = np.asarray(xs, dtype=float)
        b = np.asarray(read.nodes[n], dtype=float)
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            return Verdict(False, math.inf, f"n = {n}: nodes differ after the round trip")
    count = sum(len(xs) for xs in written.nodes.values())
    return Verdict(True, 0.0, f"{count} nodes over {len(written.nodes)} indices read back bit for bit")
