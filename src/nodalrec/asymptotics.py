"""Large-lambda closed forms: solution expansions, eigenvalue seeds, nodal
predictions, and synthetic nodal data.

Everything here is an explicit formula in the problem data and the derived
integrals nu(x) = int_0^x V, K(x) = int_0^x (chi11+chi22)(t,t) dt,
L(x) = int_0^x (chi12-chi21)(t,t) dt (problem.integrals, computed once per
problem).  The expansions keep every term
through order 1/lambda (resp. 1/n^2 for nodes) and drop the remainder;
acceptance tests bound the dropped remainder against the direct integrator.
"""

import math

import numpy as np

from .forward import initial_state
from .io import NodalData, _blocks


def asymptotic_constants(problem):
    """C_hat, the n-independent part of the 1/lambda_n coefficient in the
    eigenvalue formula, from the boundary data, m and L(pi)."""
    ints = problem.integrals
    bc = problem.bc
    m = problem.coeffs.m
    th, be = bc.theta, bc.beta
    skew_cross = math.sin(be - th) * math.cos(th + be)
    return (
        bc.b1 * math.sin(th)
        - bc.b2 * math.cos(th)
        - m * skew_cross
        + m * m * math.pi / 2.0
        - ints.L_end / 2.0
        - bc.d1 * math.sin(be)
        + bc.d2 * math.cos(be)
    )


def phi_asym(problem, x, lam):
    """Expansion of (phi1, phi2)(x, lambda) with all terms through 1/lambda.

    Vectorized over x; lam is a nonzero scalar.  In the complex form
    z = phi1 + i phi2 (see ``KernelMatrix.complex_form``) the expansion reads

      z = exp(iD) alpha + exp(-iD) beta + gamma,   D = lambda x - nu,

      alpha = alpha0 exp(Lambda),
      Lambda = -(i/2)(m^2 x - L - iK)/lambda + S(x)/lambda^2,
      beta = [m (1/(2 lambda) + V/(2 lambda^2)) - Q(x,x)/(2 lambda^2)] conj(alpha),
      gamma = -[P(x,0) alpha0 - Q(x,0) conj(alpha0)]/lambda^2,

    where S (``problem.diagonal_phase``, built once per problem by
    ``nodalrec.problem._diagonal_phase``) integrates along the diagonal the
    V-weighted mass and kernel terms (m^2 - L' - iK') V, the derivative
    d_t P(x,t) at t = x, and m (chi22 - chi11)(x,x)/2.  The dropped
    remainder is O(1/lambda^2).  alpha0 is fixed so that x = 0 reproduces
    the initial state exactly, for every problem and every lambda != 0.
    """
    if lam == 0:
        raise ValueError("expansion requires lambda != 0")
    ints = problem.integrals
    m = problem.coeffs.m
    chi = problem.coeffs.chi
    lam = float(lam)
    inv1, inv2 = 1.0 / lam, 1.0 / (lam * lam)
    S = problem.diagonal_phase

    def coefficients(x):
        # exp(iD + Lambda) and the real-linear map z(x) = E alpha0 + F conj(alpha0)
        Lam = (
            -0.5j * (m * m * x - ints.L_at(x) - 1j * ints.K_at(x)) * inv1
            + (np.interp(x, ints.grid, S.real) + 1j * np.interp(x, ints.grid, S.imag)) * inv2
        )
        lead = np.exp(1j * (lam * x - ints.nu_at(x)) + Lam)
        P_x0, Q_x0 = chi.complex_form(x, 0.0)
        _, Q_xx = chi.complex_form(x, x)
        V = np.asarray(problem.coeffs.V(x), dtype=float)
        mix = m * (0.5 * inv1 + 0.5 * V * inv2) - 0.5 * Q_xx * inv2
        return lead, lead - P_x0 * inv2, mix * np.conj(lead) + Q_x0 * inv2

    # z(0) = a alpha0 + c conj(alpha0) with a = 1 + O(1/lambda^2) and
    # c = O(1/lambda).  Two fixed-point rounds give alpha0 to relative
    # O(1/lambda^3) for every lambda (the exact 2x2 solve is singular where
    # |a| = |c|); the leftover mismatch rides on the leading term, whose
    # factor is exactly 1 at x = 0.
    y1, y2 = initial_state(problem.bc, lam)[:, 0]
    z0 = complex(y1, y2)
    _, a, c = coefficients(np.array(0.0))
    alpha0 = (2.0 - a + abs(c) ** 2) * z0 - c * np.conj(z0)
    miss = z0 - (a * alpha0 + c * np.conj(alpha0))
    lead, E, F = coefficients(np.asarray(x, dtype=float))
    z = E * alpha0 + F * np.conj(alpha0) + lead * miss
    if z.ndim == 0:
        return float(z.real), float(z.imag)
    return z.real, z.imag


def char_fn_asym(problem, lam):
    """Expansion of Delta(lambda)/lambda^2 with all terms through 1/lambda.

    Vectorized over lam.  Leading term sin(lambda pi + theta - beta); the
    1/lambda terms carry b's, d's, m, K(pi), L(pi).
    """
    ints = problem.integrals
    bc = problem.bc
    m = problem.coeffs.m
    th, be = bc.theta, bc.beta
    lam = np.asarray(lam, dtype=float)
    phase = lam * math.pi
    lead = np.sin(phase + th - be)
    corr = (
        bc.b1 * np.sin(phase - be)
        + bc.b2 * np.cos(phase - be)
        + m * np.sin(phase) * math.cos(th + be)
        - (m * m * math.pi / 2.0) * np.cos(phase + th - be)
        - (ints.K_end / 2.0) * np.sin(phase + th - be)
        + (ints.L_end / 2.0) * np.cos(phase + th - be)
        + bc.d1 * np.sin(phase + th)
        - bc.d2 * np.cos(phase + th)
    )
    out = lead + corr / lam
    return float(out) if out.ndim == 0 else out


def lambda_asym(problem, n):
    """Eigenvalue seed lambda_n ~ n + (beta-theta)/pi + C_hat/(n pi); n may
    be an array of indices, none of them 0."""
    n_arr = np.asarray(n, dtype=float)
    if (n_arr == 0).any():
        raise ValueError("the eigenvalue seed needs n != 0, got n = 0")
    C_hat = asymptotic_constants(problem)
    out = n_arr + (problem.bc.beta - problem.bc.theta) / math.pi + C_hat / (n_arr * math.pi)
    return float(out) if out.ndim == 0 else out


def node_asym(problem, n, j):
    """Predicted j-th node of phi1(., lambda_n) through order 1/n^2.

    The curvature corrections are evaluated at the zeroth-order position
    x* = j pi / n (one-step substitution).  Known defect (README; ROADMAP
    item 7): the 1/n^2 coefficient misses two terms, one from expanding
    1/lambda_n to third order and one from substituting nu at x*, so n^2
    times the distance to the operator's nodes stays near 0.7 to 2.5
    instead of falling.  j may run from 0 to n; the extreme values can fall
    outside (0, pi) and are the caller's burden to clip.  n and j may be
    integer arrays broadcast against each other, each entry equal to the
    scalar call; scalars give a float.
    """
    n, j = np.broadcast_arrays(np.asarray(n, dtype=int), np.asarray(j, dtype=int))
    if (n < 1).any():
        raise ValueError(f"n must be positive, got {n[n < 1].flat[0]}")
    bad = (j < 0) | (j > n)
    if bad.any():
        raise ValueError(f"node index j = {j[bad].flat[0]} out of range [0, {n[bad].flat[0]}]")
    ints = problem.integrals
    bc = problem.bc
    m = problem.coeffs.m
    th = bc.theta
    skew = bc.beta - bc.theta
    n = n.astype(float)  # exact: each product and quotient below rounds as with int n
    xs = j * math.pi / n
    nu = ints.nu_at(xs)
    L = ints.L_at(xs)
    bracket = (
        2.0 * bc.b1 * math.sin(th)
        - 2.0 * bc.b2 * math.cos(th)
        + 2.0 * m * math.cos(th) * math.sin(th)
        + m * m * xs
        - L
    )
    out = (
        xs
        - xs * skew / (n * math.pi)
        + (nu - th) / n
        - (nu - th) * skew / (n * n * math.pi)
        + bracket / (2.0 * n * n)
    )
    return float(out) if out.ndim == 0 else out


def synthesize_nodal_data(problem, n_range):
    """NodalData built from node_asym over n in the inclusive range.

    Evaluates j = 0..n and keeps the values landing strictly inside
    (0, pi); each kept list is sorted ascending.  Tagged source=synthetic.
    One node_asym call per block of whole lists (``nodalrec.io._blocks``)
    bounds the working memory; each value equals the scalar call.
    """
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError(f"bad index range [{n_lo}, {n_hi}]")
    sizes = np.arange(n_lo, n_hi + 1) + 1  # j = 0..n
    nodes = {}
    for lo, hi in _blocks(sizes.tolist()):
        block = sizes[lo:hi]
        starts = np.cumsum(block) - block
        j = np.arange(starts[-1] + block[-1]) - np.repeat(starts, block)
        vals = node_asym(problem, np.repeat(block - 1, block), j)
        for n, xs in zip(range(n_lo + lo, n_lo + hi), np.split(vals, starts[1:])):
            nodes[n] = np.sort(xs[(xs > 0.0) & (xs < math.pi)])
    return NodalData(nodes=nodes, source="synthetic")
