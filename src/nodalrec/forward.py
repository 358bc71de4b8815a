"""Forward solver: the initial-value problem at fixed real lambda.

The system is integrated in first-order form,

    y1' = (r(x) - lambda) y2 + I2(x),
    y2' = (lambda - p(x)) y1 - I1(x),

where I_row(x) = integral_0^x [chi_{row,1}(x,t) y1(t) + chi_{row,2}(x,t)
y2(t)] dt is the Volterra memory term.  The left endpoint condition is
built in through the initial value

    phi(0, lambda) = (lambda sin(theta) + b2, -(lambda cos(theta) + b1)),

which annihilates the x = 0 boundary form identically in lambda.

Stepper: classical 4th-order Runge-Kutta on a uniform grid, batched over a
vector of lambda values.  The memory term is carried by ODE states: for a
degenerate kernel chi_{row,col}(x, t) = sum_s a_s(x) b_s(t) the integrals
W_s(x) = int_0^x b_s(t) y_col(t) dt obey W_s' = b_s(x) y_col(x), and
I_row = sum_s a_s W_s, so the whole problem is one linear system on the
augmented state (y1, y2, W_1..W_S) (AugmentedSystem), O(N) per trajectory.
Separable terms are used as declared; general entries are interpolated in
t by Chebyshev polynomials first (a degenerate-kernel approximation whose
degree is checked against the kernel, or the entry is refused).  A kernel
that is structurally zero collapses each step to a closed-form 2x2
propagator, algebraically identical to the RK4 update; endpoint-only
evaluations then reduce the propagator chain by pairwise products, which
also keeps the rounding error logarithmic in the step count.

Resolution policy: the per-step phase |lambda| h may never exceed
GUARD_LIMIT = 0.2 (hard precondition).  When the caller does not fix the
point count, it is chosen so the phase stays under 0.05 with a floor of
DEFAULT_MIN_POINTS steps; the floor keeps the absolute trajectory error
near 1e-8 at moderate lambda, comfortably inside the 1e-6 budget of the
closed-form oracle checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidProblemError, MagnitudeError, ResolutionError
from .problem import SeparableKernel, ZeroKernel, ensure_valid

DEFAULT_MIN_POINTS = 768
GUARD_LIMIT = 0.2
DEFAULT_GUARD = 0.05
MAGNITUDE_LIMIT = 1e150

# lambda-batch chunk cap for the zero-kernel propagator path (floats per
# (steps x batch) work array; bounds peak memory at large step counts)
_CHUNK_FLOATS = 2_000_000


def _lam_max(lam):
    return float(np.max(np.abs(np.atleast_1d(lam)))) if np.size(lam) else 0.0


def resolution_points(lam, guard=DEFAULT_GUARD):
    """Step count keeping the per-step phase max|lambda|*h at or under guard."""
    lam_max = _lam_max(lam)
    if not (0.0 < guard <= GUARD_LIMIT):
        raise ResolutionError(f"guard must be in (0, {GUARD_LIMIT}], got {guard}")
    need = int(math.ceil(lam_max * math.pi / guard)) if lam_max > 0 else 0
    return max(DEFAULT_MIN_POINTS, need)


def initial_state(bc, lam):
    """phi(0, lambda) for a batch of lambda; shape (2, B)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    y1 = lam * math.sin(bc.theta) + bc.b2
    y2 = -(lam * math.cos(bc.theta) + bc.b1)
    return np.stack([y1, y2])


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution pair for one lambda on the uniform grid over [0, pi]."""

    lam: float
    grid: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray

    @property
    def step(self):
        return float(self.grid[1] - self.grid[0])

    @property
    def endpoint(self):
        return float(self.phi1[-1]), float(self.phi2[-1])

    def bc_residual(self, bc):
        return (self.lam * math.cos(bc.theta) + bc.b1) * float(self.phi1[0]) + (
            self.lam * math.sin(bc.theta) + bc.b2
        ) * float(self.phi2[0])


@dataclass
class BatchSolution:
    """Trajectories for a batch of lambda values on a shared grid.

    Z has shape (2 + S, N+1, B): the solution pair and the S memory states
    of AugmentedSystem (S = 0 for kernel-free problems).  Y = Z[:2].
    """

    lam: np.ndarray
    grid: np.ndarray
    Z: np.ndarray

    @property
    def Y(self):
        return self.Z[:2]

    @property
    def step(self):
        return float(self.grid[1] - self.grid[0])

    def trajectory(self, b):
        return Trajectory(
            lam=float(self.lam[b]),
            grid=self.grid,
            phi1=self.Y[0, :, b].copy(),
            phi2=self.Y[1, :, b].copy(),
        )


# ---------------------------------------------------------------------------
# the augmented linear system

CHEB_SIZES = (8, 16, 32, 64)
CHEB_TOL = 1e-10

# fixed sample of the triangle 0 <= t <= x <= pi on which the Chebyshev
# interpolant of a general kernel entry is checked
_SAMPLE_X = np.linspace(0.0, math.pi, 33)
_SAMPLE_T = _SAMPLE_X[:, None] * np.linspace(0.0, 1.0, 33)


def _values(fn, *args):
    """fn(*args) as a float array of the arguments' broadcast shape."""
    return np.broadcast_to(np.asarray(fn(*args), dtype=float), np.broadcast(*args).shape)


def _chebyshev(K):
    """Chebyshev nodes of the first kind on (0, pi), and the matrix taking
    samples at them to the coefficients of T_0..T_{K-1}(2t/pi - 1)."""
    angles = math.pi * (np.arange(K) + 0.5) / K
    to_coeffs = (2.0 / K) * np.cos(np.outer(np.arange(K), angles))
    to_coeffs[0] *= 0.5
    return 0.5 * math.pi * (1.0 + np.cos(angles)), to_coeffs


def _chebyshev_T(K, t):
    """T_0..T_{K-1}(2t/pi - 1); shape t.shape + (K,)."""
    s = np.clip(2.0 * np.asarray(t, dtype=float) / math.pi - 1.0, -1.0, 1.0)
    return np.cos(np.arccos(s)[..., None] * np.arange(K))


def _chebyshev_size(name, kernel):
    """Smallest K in CHEB_SIZES whose interpolant in t reproduces the kernel
    within CHEB_TOL * max(1, max|chi|) on the sampled triangle.  The nodes
    cover all of (0, pi), so the kernel must also be finite where t > x."""
    hint = f"; give {name} as chi_separable terms"
    x = _SAMPLE_X[:, None]
    with np.errstate(all="ignore"):
        exact = _values(kernel.eval, x, _SAMPLE_T)
        bound = CHEB_TOL * max(1.0, float(np.max(np.abs(exact))))
        for K in CHEB_SIZES:
            nodes, to_coeffs = _chebyshev(K)
            vals = _values(kernel.eval, x, nodes)
            for t, v in ((_SAMPLE_T, exact), (np.broadcast_to(nodes, vals.shape), vals)):
                if not np.isfinite(v).all():
                    i, j = np.argwhere(~np.isfinite(v))[0]
                    raise InvalidProblemError(
                        f"{name} is not finite at (x, t) = ({_SAMPLE_X[i]:.4g}, {t[i, j]:.4g}); "
                        f"its interpolation in t needs chi(x, t) for all t in [0, pi]{hint}")
            interp = np.einsum("ijk,ik->ij", _chebyshev_T(K, _SAMPLE_T), vals @ to_coeffs.T)
            miss = float(np.max(np.abs(interp - exact)))
            if miss <= bound:
                return K
    raise InvalidProblemError(
        f"{name}: its Chebyshev interpolant in t misses the kernel by {miss:.2g} > {bound:.2g} "
        f"on the triangle t <= x at K = {CHEB_SIZES[-1]}{hint}")


class AugmentedSystem:
    """The linear system Z' = (F(x) + lambda J) Z on Z = (y1, y2, W_1..W_S).

    Memory state s has a column c_s and a weight b_s: W_s' = b_s(x) y_{c_s},
    and the memory term is I(x) = A(x) W with a 2 x S coefficient table A.
    A separable term a(x) b(t) of chi_{row,col} is one state (col, b) with
    A[row, s] = a.  The general entries of a column share K Chebyshev states
    (col, T_k(2t/pi - 1)); their A coefficients come from chi(x, t_j) at the
    K Chebyshev nodes (a degenerate-kernel approximation), with K from
    _chebyshev_size.
    """

    def __init__(self, problem):
        self.V, self.m = problem.coeffs.V, problem.coeffs.m
        self.cols = []
        self._weights = []  # (first state, last state + 1, b(x) -> x.shape + (k,))
        self._couplings = []  # (row, first state, last state + 1, a(x) -> x.shape + (k,))
        general = {}
        for row, col, k in problem.coeffs.chi.entries:
            if isinstance(k, SeparableKernel):
                for a, b in k.terms:
                    self._add(col - 1, 1, lambda x, b=b: _values(b, x)[..., None],
                              [(row - 1, lambda x, a=a: _values(a, x)[..., None])])
            elif not isinstance(k, ZeroKernel):
                general.setdefault(col - 1, []).append((row - 1, f"chi{row}{col}", k))
        for col, items in general.items():
            K = max(_chebyshev_size(name, k) for _, name, k in items)
            nodes, to_coeffs = _chebyshev(K)
            self._add(col, K, lambda x, K=K: _chebyshev_T(K, x), [
                (row, lambda x, k=k, nodes=nodes, to_coeffs=to_coeffs:
                    _values(k.eval, x[..., None], nodes) @ to_coeffs.T)
                for row, _, k in items
            ])
        self.cols = np.array(self.cols, dtype=int)
        self.size = 2 + self.cols.size

    def _add(self, col, k, weight, couplings):
        lo, hi = len(self.cols), len(self.cols) + k
        self.cols.extend([col] * k)
        self._weights.append((lo, hi, weight))
        self._couplings.extend((row, lo, hi, a) for row, a in couplings)

    def coefficients(self, x):
        """(F, b) at the points x: the y-rows of F, shape x.shape + (2, 2 + S),
        and the weights b_s, shape x.shape + (S, 1)."""
        x = np.asarray(x, dtype=float)
        F = np.zeros(x.shape + (2, self.size))
        v = _values(self.V, x)
        F[..., 0, 1] = v - self.m
        F[..., 1, 0] = -(v + self.m)
        b = np.empty(x.shape + (self.cols.size, 1))
        for lo, hi, weight in self._weights:
            b[..., lo:hi, 0] = weight(x)
        for row, lo, hi, a in self._couplings:
            # I1 enters y2' with a minus sign, I2 enters y1' with a plus sign
            F[..., 1 - row, 2 + lo : 2 + hi] += (2 * row - 1) * a(x)
        return F, b

    def _deriv(self, z, lamJ, F, b):
        dz = np.empty_like(z)
        dz[..., :2, :] = F @ z + lamJ * z[..., 1::-1, :]
        dz[..., 2:, :] = b * z[..., self.cols, :]
        return dz

    def step(self, z, lamJ, h, c0, cm, c1):
        """One classical RK4 step of length h from z; c0, cm, c1 are the
        coefficients() at the step's start, midpoint and end, and lamJ is
        (-lambda, lambda) stacked on the axis of y1, y2.

        Shapes: z (..., 2 + S, B), broadcasting against the coefficients'
        leading axes, so the grid loop steps one (2 + S, B) batch and node
        refinement steps one (2 + S, 1) state per query.
        """
        k1 = self._deriv(z, lamJ, *c0)
        k2 = self._deriv(z + (0.5 * h) * k1, lamJ, *cm)
        k3 = self._deriv(z + (0.5 * h) * k2, lamJ, *cm)
        k4 = self._deriv(z + h * k3, lamJ, *c1)
        return z + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _grid_tables(system, n_steps):
    """Grid, step, and the system's coefficients() at the nodes and midpoints."""
    x = np.linspace(0.0, math.pi, n_steps + 1)
    h = math.pi / n_steps
    return x, h, system.coefficients(x), system.coefficients(x[:-1] + 0.5 * h)


# ---------------------------------------------------------------------------
# zero-kernel path: closed-form per-step RK4 propagator


def _step_propagators(h, Fn, Fm, lam):
    """Per-step 2x2 propagator entries for the linear (kernel-free) system.

    Expanding the four RK4 stages of Y' = A(x) Y with A = ((0, u), (v, 0)),
    u = r - lambda, v = lambda - p, gives Y_{i+1} = T_i Y_i with the entries
    below; they are bit-for-bit the RK4 update, just reassociated.  Fn, Fm
    are the coefficient tables at the nodes and midpoints.  Shapes: (N, B).
    """
    u0 = Fn[:-1, 0, 1, None] - lam
    u1 = Fn[1:, 0, 1, None] - lam
    um = Fm[:, 0, 1, None] - lam
    v0 = lam + Fn[:-1, 1, 0, None]
    v1 = lam + Fn[1:, 1, 0, None]
    vm = lam + Fm[:, 1, 0, None]
    h2 = h * h
    alpha = 1.0 + h2 * um * v0 / 4.0
    beta = 1.0 + h2 * vm * u0 / 4.0
    gamma = 1.0 + h2 * um * vm / 2.0
    t11 = 1.0 + h2 / 6.0 * (um * v0 + um * vm + u1 * vm * alpha)
    t12 = h / 6.0 * (u0 + 2.0 * um + 2.0 * um * beta + u1 * gamma)
    t21 = h / 6.0 * (v0 + 2.0 * vm + 2.0 * vm * alpha + v1 * gamma)
    t22 = 1.0 + h2 / 6.0 * (vm * u0 + vm * um + v1 * um * beta)
    return t11, t12, t21, t22


def _reduce_propagators(t11, t12, t21, t22):
    """Pairwise product T_{N-1} ... T_1 T_0; returns four (B,) arrays."""
    while t11.shape[0] > 1:
        if t11.shape[0] % 2 == 1:
            pad = np.zeros((1,) + t11.shape[1:])
            one = pad + 1.0
            t11 = np.concatenate([t11, one])
            t12 = np.concatenate([t12, pad])
            t21 = np.concatenate([t21, pad])
            t22 = np.concatenate([t22, one])
        a1, b1, c1, d1 = t11[0::2], t12[0::2], t21[0::2], t22[0::2]
        a2, b2, c2, d2 = t11[1::2], t12[1::2], t21[1::2], t22[1::2]
        t11 = a2 * a1 + b2 * c1
        t12 = a2 * b1 + b2 * d1
        t21 = c2 * a1 + d2 * c1
        t22 = c2 * b1 + d2 * d1
    return t11[0], t12[0], t21[0], t22[0]


def _solve_zero(problem, lam, n_steps, want_trajectory):
    x, h, (Fn, _), (Fm, _) = _grid_tables(AugmentedSystem(problem), n_steps)
    B = lam.shape[0]
    chunk = max(1, _CHUNK_FLOATS // max(1, n_steps))
    if want_trajectory:
        Y = np.empty((2, n_steps + 1, B))
        for lo in range(0, B, chunk):
            sl = slice(lo, min(lo + chunk, B))
            t11, t12, t21, t22 = _step_propagators(h, Fn, Fm, lam[sl])
            y = initial_state(problem.bc, lam[sl])
            Y[:, 0, sl] = y
            y1, y2 = y[0], y[1]
            for i in range(n_steps):
                y1, y2 = t11[i] * y1 + t12[i] * y2, t21[i] * y1 + t22[i] * y2
                Y[0, i + 1, sl] = y1
                Y[1, i + 1, sl] = y2
        return BatchSolution(lam=lam, grid=x, Z=Y)
    out = np.empty((2, B))
    for lo in range(0, B, chunk):
        sl = slice(lo, min(lo + chunk, B))
        t11, t12, t21, t22 = _step_propagators(h, Fn, Fm, lam[sl])
        a, b, c, d = _reduce_propagators(t11, t12, t21, t22)
        y = initial_state(problem.bc, lam[sl])
        out[0, sl] = a * y[0] + b * y[1]
        out[1, sl] = c * y[0] + d * y[1]
    return out


# ---------------------------------------------------------------------------
# kernel path: RK4 on the augmented state


def _solve_kernel(problem, lam, n_steps, want_trajectory):
    system = AugmentedSystem(problem)
    x, h, (Fn, bn), (Fm, bm) = _grid_tables(system, n_steps)
    lamJ = np.stack([-lam, lam])
    z = np.zeros((system.size, lam.shape[0]))
    z[:2] = initial_state(problem.bc, lam)
    Z = np.empty((system.size, n_steps + 1) + lam.shape) if want_trajectory else None
    for i in range(n_steps):
        if Z is not None:
            Z[:, i] = z
        z = system.step(z, lamJ, h, (Fn[i], bn[i]), (Fm[i], bm[i]), (Fn[i + 1], bn[i + 1]))
    if Z is None:
        return z[:2]
    Z[:, n_steps] = z
    return BatchSolution(lam=lam, grid=x, Z=Z)


def _check_magnitude(arr, lam):
    if not np.all(np.isfinite(arr)):
        raise MagnitudeError(
            "non-finite solution samples; the solution grew past floating-point "
            "range (the characteristic function is normalized by lambda^2, "
            "consider rescaling the problem)"
        )
    peak = float(np.max(np.abs(arr), initial=0.0))
    if peak > MAGNITUDE_LIMIT:
        raise MagnitudeError(
            f"solution magnitude {peak:.3g} exceeds {MAGNITUDE_LIMIT:.1e} "
            f"(largest |lambda| = {float(np.max(np.abs(lam))):.6g})"
        )


def _check_resolution(lam, points):
    """Enforce the oscillation guard |lambda|*h <= GUARD_LIMIT."""
    if points < 2:
        raise ResolutionError("points must be at least 2", required_points=2)
    lam_max = _lam_max(lam)
    if lam_max * math.pi / points > GUARD_LIMIT:
        required = int(math.ceil(lam_max * math.pi / GUARD_LIMIT))
        raise ResolutionError(
            f"oscillation guard violated: |lambda| h = {lam_max * math.pi / points:.4g} "
            f"> {GUARD_LIMIT}; need at least {required} points for lambda = {lam_max:.6g}",
            required_points=required,
        )


def _solve(problem, lam, points, want_trajectory):
    """Check the arguments, then solve on the zero-kernel or the kernel path:
    a BatchSolution, or the endpoint states (2, B)."""
    ensure_valid(problem)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if not np.isfinite(lam).all():
        raise ValueError(f"lambda must be finite, got {float(lam[~np.isfinite(lam)][0])}")
    n_steps = resolution_points(lam) if points is None else int(points)
    _check_resolution(lam, n_steps)
    solve = _solve_zero if problem.coeffs.chi.mode == "zero" else _solve_kernel
    out = solve(problem, lam, n_steps, want_trajectory)
    _check_magnitude(out.Y if want_trajectory else out, lam)
    return out


def solve_batch(problem, lam, points=None):
    """Integrate the IVP for a batch of lambda values; returns BatchSolution."""
    return _solve(problem, lam, points, want_trajectory=True)


def endpoint_states(problem, lam, points=None):
    """phi(pi, lambda) for a batch of lambda; shape (2, B).  Avoids storing
    trajectories."""
    return _solve(problem, lam, points, want_trajectory=False)


def integrate_ivp(problem, lam, points=None):
    """Trajectory of the IVP solution phi(., lambda) for a single real lambda."""
    if np.ndim(lam) != 0:
        raise TypeError("integrate_ivp takes a scalar lambda; use solve_batch for batches")
    return solve_batch(problem, float(lam), points=points).trajectory(0)


def char_fn(problem, lam, points=None):
    """Delta(lambda) = phi1(pi)(lambda cos beta + d1) + phi2(pi)(lambda sin beta + d2).

    Scalar in, float out; array in, array out.
    """
    scalar = np.ndim(lam) == 0
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    end = endpoint_states(problem, lam_arr, points=points)
    bc = problem.bc
    val = end[0] * (lam_arr * math.cos(bc.beta) + bc.d1) + end[1] * (
        lam_arr * math.sin(bc.beta) + bc.d2
    )
    return float(val[0]) if scalar else val


def char_fn_normalized(problem, lam, points=None):
    """Delta(lambda) / max(1, lambda^2); bounded near roots, used for bracketing."""
    scalar = np.ndim(lam) == 0
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    val = char_fn(problem, lam_arr, points=points)
    out = val / np.maximum(1.0, lam_arr * lam_arr)
    return float(out[0]) if scalar else out

