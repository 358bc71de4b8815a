"""Stage-form classical RK4 on the augmented state: the reference for the
forward solver's step maps.

The solver applies each RK4 step as a precomputed polynomial map in lambda.
This module keeps the textbook form, four derivative evaluations per step
of Z' = (F(x) + lambda J) Z, so a test can compare the two to rounding.  It
shares only ``AugmentedSystem.coefficients`` with the solver.
"""

import math

import numpy as np

from nodalrec.forward import AugmentedSystem, initial_state


def _deriv(z, lamJ, F, B):
    dz = np.empty_like(z)
    dz[..., :2, :] = F @ z + lamJ * z[..., 1::-1, :]
    dz[..., 2:, :] = B @ z[..., :2, :]
    return dz


def step(z, lamJ, h, c0, cm, c1):
    """One RK4 step of length h from z; c0, cm, c1 are the coefficients() at
    the step's start, midpoint and end, and lamJ is (-lambda, lambda) stacked
    on the axis of y1, y2.  z has shape (..., 2 + S, B)."""
    k1 = _deriv(z, lamJ, *c0)
    k2 = _deriv(z + (0.5 * h) * k1, lamJ, *cm)
    k3 = _deriv(z + (0.5 * h) * k2, lamJ, *cm)
    k4 = _deriv(z + h * k3, lamJ, *c1)
    return z + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def solve(problem, lam, n_steps):
    """Z of shape (2 + S, n_steps + 1, B) on the uniform grid over [0, pi]."""
    system = AugmentedSystem(problem)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    x = np.linspace(0.0, math.pi, n_steps + 1)
    h = math.pi / n_steps
    (Fn, Bn), (Fm, Bm) = system.coefficients(x), system.coefficients(x[:-1] + 0.5 * h)
    lamJ = np.stack([-lam, lam])
    z = np.zeros((system.size, lam.size))
    z[:2] = initial_state(problem.bc, lam)
    Z = np.empty((system.size, n_steps + 1, lam.size))
    Z[:, 0] = z
    for i in range(n_steps):
        z = step(z, lamJ, h, (Fn[i], Bn[i]), (Fm[i], Bm[i]), (Fn[i + 1], Bn[i + 1]))
        Z[:, i + 1] = z
    return Z


def char_fn(problem, lam, n_steps):
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    y1, y2 = solve(problem, lam, n_steps)[:2, -1]
    bc = problem.bc
    return y1 * (lam * math.cos(bc.beta) + bc.d1) + y2 * (lam * math.sin(bc.beta) + bc.d2)


def nodes(problem, lam, n_steps, width=1e-14):
    """Interior zeros of phi1(., lam) on the grid of n_steps steps: grid
    sign changes, then bisection to width, each query one stage-form step
    from the cell's left node."""
    system = AugmentedSystem(problem)
    Z = solve(problem, [lam], n_steps)[..., 0]
    x = np.linspace(0.0, math.pi, n_steps + 1)
    h = math.pi / n_steps
    sign = np.where(Z[0] >= 0, 1.0, -1.0)
    cells = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    zL, xL, lamJ = Z[:, cells].T[..., None], x[cells], np.array([[-lam], [lam]])

    def phi1(xq):
        return step(zL, lamJ, (xq - xL)[:, None, None], system.coefficients(xL),
                    system.coefficients(0.5 * (xL + xq)), system.coefficients(xq))[:, 0, 0]

    a, b, fa = xL, xL + h, zL[:, 0, 0]
    while np.max(b - a, initial=0.0) > width:
        mid = 0.5 * (a + b)
        fm = phi1(mid)
        left = (fm > 0) == (fa > 0)  # the root lies right of mid
        a, fa, b = np.where(left, mid, a), np.where(left, fm, fa), np.where(left, b, mid)
    roots = 0.5 * (a + b)
    return roots[(roots > h) & (roots < math.pi - h)]
