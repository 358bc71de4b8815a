"""Integral-equation consistency oracle for the forward solver.

The exact solution of the first-order system also satisfies two Volterra
integral equations (variation of constants around the pure rotation).
``integral_residual`` measures how far a computed trajectory is from them,
with the memory term recomputed from the trajectory samples, so it checks
the stepper by an independent route.
"""

import math

import numpy as np

from nodalrec.problem import ZeroKernel, ensure_valid


def _memory_samples(problem, traj):
    """I1, I2 at every grid node, recomputed from the trajectory samples by
    composite trapezoid (independently of whatever the stepper tracked)."""
    x = traj.grid
    n = x.size
    I = np.zeros((2, n))
    phi = np.stack([traj.phi1, traj.phi2])
    entries = [(row - 1, col - 1, k) for row, col, k in problem.coeffs.chi.entries
               if not isinstance(k, ZeroKernel)]
    for i in range(1, n):
        ts = x[: i + 1]
        w = np.full(i + 1, traj.step)
        w[0] = w[-1] = 0.5 * traj.step
        for row, col, k in entries:
            I[row, i] += np.dot(np.asarray(k.eval(x[i], ts), float) * w, phi[col, : i + 1])
    return I


def integral_residual(problem, traj, samples=17):
    """Largest violation of the two Volterra integral equations that the
    exact solution satisfies:

      phi1(x) = lambda sin(theta+lambda x) + b1 sin(lambda x) + b2 cos(lambda x)
                + int_0^x [ (p phi1 + I1) sin lambda(x-t) + (r phi2 + I2) cos lambda(x-t) ] dt
      phi2(x) = -lambda cos(theta+lambda x) - b1 cos(lambda x) + b2 sin(lambda x)
                + int_0^x [ -(p phi1 + I1) cos lambda(x-t) + (r phi2 + I2) sin lambda(x-t) ] dt

    evaluated at `samples` grid nodes spread over (0, pi].  This is an
    independent route to the same solution (variation of constants around
    the pure rotation), so it cross-checks the stepper including its
    memory-term quadrature.  Returns the max absolute residual.
    """
    ensure_valid(problem)
    lam = traj.lam
    bc = problem.bc
    x = traj.grid
    n = x.size
    p = np.asarray(problem.coeffs.V(x), float) + problem.coeffs.m
    r = np.asarray(problem.coeffs.V(x), float) - problem.coeffs.m
    I = _memory_samples(problem, traj)
    F1 = p * traj.phi1 + I[0]
    F2 = r * traj.phi2 + I[1]

    idx = np.unique(np.linspace(1, n - 1, samples).astype(int))
    worst = 0.0
    for i in idx:
        xi = x[i]
        ts = x[: i + 1]
        w = np.full(i + 1, traj.step)
        w[0] = w[-1] = 0.5 * traj.step
        s = np.sin(lam * (xi - ts))
        c = np.cos(lam * (xi - ts))
        rhs1 = (
            lam * math.sin(bc.theta + lam * xi)
            + bc.b1 * math.sin(lam * xi)
            + bc.b2 * math.cos(lam * xi)
            + np.dot(w, F1[: i + 1] * s + F2[: i + 1] * c)
        )
        rhs2 = (
            -lam * math.cos(bc.theta + lam * xi)
            - bc.b1 * math.cos(lam * xi)
            + bc.b2 * math.sin(lam * xi)
            + np.dot(w, -F1[: i + 1] * c + F2[: i + 1] * s)
        )
        worst = max(worst, abs(rhs1 - traj.phi1[i]), abs(rhs2 - traj.phi2[i]))
    return worst
