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
I_row = sum_s a_s W_s, so the whole problem is one linear system
Z' = (F(x) + lambda J) Z on Z = (y1, y2, W_1..W_S) (AugmentedSystem).
Separable terms are used as declared; general entries are interpolated in
t by Chebyshev polynomials first (a degenerate-kernel approximation whose
degree is checked against the kernel, or the entry is refused).  One RK4
step is then a matrix polynomial of degree 4 in lambda whose coefficients
depend only on the grid: _step_maps builds them for a block of steps, and
trajectory solves apply them to their lambda batch (_stepper), O(N) per
trajectory.  A product of consecutive step maps is again an exact
polynomial map in lambda (a propagator matrix), so the endpoint-only
solves behind char_fn step over runs of _SPAN = 32 steps multiplied out
(_compose): the same RK4 grid in 32 times fewer numpy calls, with results
that differ from single steps by rounding only.  A product has degree 128,
but at |lambda| h <= 0.2 the coefficients of high degree cannot reach the
result.  So each block is multiplied out and applied only up to the cap C
(_caps) past which a majorant of its terms (_majorant: the single steps'
per-degree norms raised to the _SPAN-th power) sums to at most 2^-60 of
the product's lambda-free term at the batch's max|lambda| (C = 23 on a
search grid at |lambda| h = 0.05, 42 at the guard 0.2).  Maps in the
coupled layout (more than 6 memory states, see _step_maps) are not
composed: endpoint solves take their single steps.  An eigenvalue search
builds its grid's maps, single and composed, once (grid_maps, capped at
the largest lambda it evaluates) and passes them as maps= to each of its
batched evaluations, which read them up to their own cap; it releases the
composed ones before the trajectory solve that follows, and nodal_data the
single ones when that solve returns, before node refinement.  A
standalone call builds them lazily, one block at a time, capped at its
own batch, so its memory does not grow with the grid.  Node refinement
(_single_steps) takes each query's RK4 step in stage form from the
query's state, on the coefficients of AugmentedSystem, and builds no maps.

Trajectory solves (solve_batch) take single steps and hand the states of
each block of _BLOCK steps to a consumer: one stacks them into the full
trajectories Z, the other (crossings=True) keeps only the sign changes of
phi1 and the augmented states at their left grid nodes (Crossings), which
is all node refinement needs; its memory grows with the nodes found, not
with the grid.

Resolution policy: the per-step phase |lambda| h may never exceed
GUARD_LIMIT = 0.2 (hard precondition).  When the caller does not fix the
point count, it is chosen so the phase stays under 0.05 with a floor of
DEFAULT_MIN_POINTS steps; the floor keeps the absolute trajectory error
near 1e-8 at moderate lambda, comfortably inside the 1e-6 budget of the
closed-form oracle checks.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidProblemError, MagnitudeError, ResolutionError
from .problem import SeparableKernel, ZeroKernel

DEFAULT_MIN_POINTS = 768
GUARD_LIMIT = 0.2
DEFAULT_GUARD = 0.05
MAGNITUDE_LIMIT = 1e150


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
        self.size = 2
        self._weights = []  # (first state, last state + 1, col, b(x) -> x.shape + (k,))
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

    def _add(self, col, k, weight, couplings):
        lo, hi = self.size - 2, self.size - 2 + k
        self.size += k
        self._weights.append((lo, hi, col, weight))
        self._couplings.extend((row, lo, hi, a) for row, a in couplings)

    def coefficients(self, x):
        """(F, B) at the points x: the y-rows of F, shape x.shape + (2, 2 + S),
        and the weights as an S x 2 matrix with b_s in column c_s, so that
        W' = B y; shape x.shape + (S, 2)."""
        x = np.asarray(x, dtype=float)
        F = np.zeros(x.shape + (2, self.size))
        v = _values(self.V, x)
        F[..., 0, 1] = v - self.m
        F[..., 1, 0] = -(v + self.m)
        B = np.zeros(x.shape + (self.size - 2, 2))
        for lo, hi, col, weight in self._weights:
            B[..., lo:hi, col] = weight(x)
        for row, lo, hi, a in self._couplings:
            # I1 enters y2' with a minus sign, I2 enters y1' with a plus sign
            F[..., 1 - row, 2 + lo : 2 + hi] += (2 * row - 1) * a(x)
        return F, B


# ---------------------------------------------------------------------------
# the stepper: each RK4 step as a polynomial map in lambda

# steps whose maps are built at once (and a quarter of the node-refinement
# queries stepped at once); bounds the builder's arrays independently of
# the step count
_BLOCK = 128
# consecutive steps multiplied into one map for endpoint-only solves (a
# power of two dividing _BLOCK), when the maps are in the plain layout;
# chosen by timing searches with the maps cut at the degree the search's
# lambda reaches: 16 gains half as much as 32, and 64 no more than 32
_SPAN = 32
# a dropped tail of terms at most this far below the kept ones is below the
# rounding of the product (see _caps)
_CUTOFF = 2.0**-60
_J = np.array([-1.0, 1.0])[:, None, None]  # J y = _J * (y2, y1), J = ((0, -1), (1, 0))


def _step_maps(system, x0, x1, h):
    """RK4 steps from x0 to x1 (n steps of length h) as maps with leading
    axis n, polynomial of degree 4 in lambda.

    With F = (G, C), C the 2 x S couplings, and W' = B y, the memory states
    reach the stages y_1..y_4 only through C W, so each stage is a 2 x 8
    polynomial map of v = (y, C0 W, Cm W, C1 W) (C at the start, midpoint
    and end), and W_new = W + B0 h/6 y_1 + Bm h/3 (y_2 + y_3) + B1 h/6 y_4.
    Returns (P, CC, BB): P (8, 40) maps (lambda^k v, k = 0..4) to (y_new,
    h/6 y_1, h/3 (y_2 + y_3), h/6 y_4), CC = (C0; Cm; C1), BB = (B0 Bm B1),
    so a step costs O(S) per lambda.  When z = (y, W) is no longer than v,
    the factors are multiplied out: (P,) with P (2 + S, 5 (2 + S)) mapping
    (lambda^k z) to z_new (for S = 0, the 2 x 2 RK4 propagator).  This
    layout is the stepper's one size decision: endpoint-only solves compose
    the plain layout (P,) (_compose) and take single steps in the coupled
    one.
    """
    n = x0.size
    F, B = system.coefficients(np.concatenate([x0, x0 + 0.5 * h, x1]))
    S, G = B.shape[-2], F[:, [0, 1], [1, 0]].reshape(3, n, 2)  # (r, -p)
    CC = np.concatenate(np.split(F[..., 2:], 3), axis=1)
    BB = np.concatenate(np.split(B, 3), axis=2)
    del F, B  # the maps' own arrays are all that outlives this point
    (C0, Cm, C1), (B0, Bm, B1) = np.split(CC, 3, axis=1), np.split(BB, 3, axis=2)
    coupled = S > 6  # z = (y, W) is longer than v = (y, C0 W, Cm W, C1 W)
    D = 8 if coupled else 2 + S

    # a linear form has axes (degree in lambda, row, entry of the input, step)
    def plus(L, col, C=None):  # L plus the form of v[col:col + 2] (y, or C W)
        if C is None or coupled:
            L[0, 0, col] += 1.0
            L[0, 1, col + 1] += 1.0
        else:
            L[0, :, 2:] += C.transpose(1, 2, 0)
        return L

    def mul(M, L):  # M L for matrices M of shape (n, rows, 2)
        M = M.transpose(1, 2, 0)[None, :, :, None, :]
        return M[:, :, 0] * L[:, None, 0] + M[:, :, 1] * L[:, None, 1]

    def stage(g, y, col, C, dW=None):
        """(G + lambda J) y + C W_i, J = ((0, -1), (1, 0)); dW = (c, B_j, y_j)
        gives the stage's memory increment W_i - W = c h B_j y_j."""
        k = np.zeros((y.shape[0] + 1, 2, D, n))  # lambda J raises the degree by one
        k[:-1] = g.T[:, None] * y[:, ::-1]  # G y with G = ((0, r), (-p, 0))
        k[1:] += _J * y[:, ::-1]
        if S and dW is not None:
            k[: dW[2].shape[0]] += (dW[0] * h) * mul(C @ dW[1], dW[2])
        return plus(k, col, C)

    # forms keep only the degrees they can reach: y_i has degree i - 1
    y1 = plus(np.zeros((1, 2, D, 1)), 0)
    k1 = stage(G[0], y1, 2, C0)
    y2 = plus(0.5 * h * k1, 0)
    k2 = stage(G[1], y2, 4, Cm, (0.5, B0, y1))
    y3 = plus(0.5 * h * k2, 0)
    k3 = stage(G[1], y3, 4, Cm, (0.5, Bm, y2))
    y4 = plus(h * k3, 0)
    k4 = stage(G[2], y4, 6, C1, (1.0, Bm, y3))
    k3[:3] += k2
    k4[:4] += 2.0 * k3
    k4[:2] += k1  # k4 is now k1 + 2 (k2 + k3) + k4
    y3[:2] += y2  # and y3 is y2 + y3
    rows = [plus((h / 6.0) * k4, 0)]
    feeds = ((h / 6.0) * y1, (h / 3.0) * y3, (h / 6.0) * y4)
    if coupled:
        rows += feeds
    elif S:
        W = np.zeros((k4.shape[0], S, D, n))
        for M, L in zip((B0, Bm, B1), feeds):
            W[: L.shape[0]] += mul(M, L)
        W[0, :, 2:] += np.eye(S)[..., None]
        rows.append(W)
    P = np.zeros((n, sum(L.shape[1] for L in rows), k4.shape[0], D))
    r = 0
    for L in rows:
        P[:, r : r + L.shape[1], : L.shape[0]] = L.transpose(3, 1, 0, 2)
        r += L.shape[1]
    return (P.reshape(n, r, -1), CC, BB) if coupled else (P.reshape(n, r, -1),)


def _stepper(maps, powers):
    """step(z, i) applying map i of one block of maps from _step_maps to z
    (2 + S, B).  Maps of degree d in lambda take powers = lambda^0..lambda^d
    of shape (d + 1, 1, B): d = 4 for single steps, and for composed maps
    (_compose) the cap C they are cut off at (_caps), given as the column
    slice P[..., :(C + 1)(2 + S)], a view.  The maps' form is read here,
    once per block, not at every step."""
    P = maps[0]
    lift = lambda v: (powers * v).reshape(P.shape[-1], -1)
    if len(maps) == 1:  # the maps act on z itself
        return lambda z, i: P[i] @ lift(z)
    _, CC, BB = maps

    def coupled(z, i):  # the maps act on v = (y, C W), then W is advanced
        W = z[2:]
        out = P[i] @ lift(np.concatenate([z[:2], CC[i] @ W]))
        return np.concatenate([out[:2], W + BB[i] @ out[2:]])

    return coupled


def _majorant(maps, h):
    """Bounds on the terms of the products _compose makes of one block of
    single-step maps (P,) from _step_maps with step h: for the coefficient
    Q_k of lambda^k of any run of _SPAN steps, ||Q_k|| lambda^k <= m[k]
    (lambda h)^k ||Q_0||.  Returns m, a (4 _SPAN + 1)-vector.

    The per-degree norms b_k = max ||P_k||_inf of the single steps, raised
    to the _SPAN-th power by convolution, bound ||Q_k|| (the norm is
    submultiplicative); they are taken in units of h^k, so that no power
    of lambda or h leaves floating-point range.  ||Q_0|| is at least its
    spectral radius, so at least |det Q_0|^(1 / (2 + S)), the product of
    the runs' |det P_0|^(1 / (2 + S)); padding steps have det 1."""
    P = maps[0]
    n, D = P.shape[:2]
    P = P.reshape(n, D, -1, D)  # (step, row, degree, col)
    m = np.abs(P).sum(axis=-1).max(axis=(0, 1)) / h ** np.arange(P.shape[2])
    for _ in range(_SPAN.bit_length() - 1):
        m = np.convolve(m, m)
    floor = min(1.0, float(np.min(np.abs(np.linalg.det(P[:, :, 0]))))) ** (_SPAN / D)
    with np.errstate(divide="ignore"):  # a singular step leaves no bound: every degree is kept
        return m / floor


def _caps(majorants, phase):
    """The degree C up to which the products of blocks with the given
    majorants (_majorant; blocks may be stacked on leading axes) are
    multiplied out and applied for batches with max|lambda| h <= phase:
    the smallest C whose dropped tail, bounded by sum_{k > C} m[k] phase^k
    ||Q_0||, is at most _CUTOFF ||Q_0||, far below the rounding of the
    product on the kept terms, which sum to at least ||Q_0||.  C grows with
    phase.  A majorant that overflows keeps every degree."""
    with np.errstate(all="ignore"):
        terms = majorants * phase ** np.arange(majorants.shape[-1])
        tail = np.cumsum(terms[..., :0:-1], axis=-1)[..., ::-1]  # sum_{k > C}, C < last
        small = tail <= _CUTOFF
    return np.where(small.any(axis=-1), small.argmax(axis=-1), majorants.shape[-1] - 1)


def _compose(maps, cap):
    """The single-step maps (P,) of one block from _step_maps multiplied in
    runs of _SPAN consecutive steps up to degree cap in lambda: shape
    (ceil(n / _SPAN), 2 + S, (cap + 1)(2 + S)), the products of degree
    4 _SPAN without their terms of degree above cap (_caps), in the layout
    of P, which _stepper applies alike.  A short last run is padded with
    identity steps.  Neighbours are multiplied pairwise, one batched product
    of lambda polynomials per level, one product of late_k with all of early
    per degree k; each degree sums its terms in the same order whatever the
    cap, so a kept coefficient does not depend on it."""
    M = maps[0]
    n, D = M.shape[:2]
    pad = -n % _SPAN
    if pad:
        identity = np.zeros((pad,) + M.shape[1:])
        identity[:, :, :D] = np.eye(D)
        M = np.concatenate([M, identity])
    for _ in range(_SPAN.bit_length() - 1):
        early, late = M[0::2], M[1::2]
        p = M.shape[-1] // D
        q = min(2 * p - 1, cap + 1)
        out = np.zeros((early.shape[0], D, q * D))
        for k in range(min(p, q)):  # late_k early_j is the term of degree k + j
            j = min(p, q - k)
            out[:, :, k * D : (k + j) * D] += late[:, :, k * D : (k + 1) * D] @ early[:, :, : j * D]
        M = out
    return M


def _cut(maps, h, lam_max):
    """The single-step maps (P,) of one block composed (_compose) to the cap
    for the phase lam_max h."""
    return (_compose(maps, _caps(_majorant(maps, h), lam_max * h)),)


def _single_steps(system, z, lam, x0, x1):
    """One RK4 step per column of z (2 + S, Q): column q from x0[q] to x1[q]
    at lambda = lam[q], in stage form on the coefficients of system, 4 _BLOCK
    columns at a time.  Used by node refinement."""
    out = np.empty_like(z)
    for lo in range(0, z.shape[1], 4 * _BLOCK):
        sl = slice(lo, lo + 4 * _BLOCK)
        a, b = x0[sl], x1[sl]
        h = (b - a)[:, None, None]
        (F0, Fm, F1), (B0, Bm, B1) = (np.split(c, 3) for c in system.coefficients(
            np.concatenate([a, a + 0.5 * (b - a), b])))
        lamJ = np.stack([-lam[sl], lam[sl]], axis=-1)[..., None]
        y = z[:, sl].T[..., None]  # (Q, 2 + S, 1)

        def deriv(v, F, B):  # (F + lambda J) v, with W' = B y in the memory rows
            return np.concatenate([F @ v + lamJ * v[:, 1::-1], B @ v[:, :2]], axis=1)

        k1 = deriv(y, F0, B0)
        k2 = deriv(y + (0.5 * h) * k1, Fm, Bm)
        k3 = deriv(y + (0.5 * h) * k2, Fm, Bm)
        k4 = deriv(y + h * k3, F1, B1)
        out[:, sl] = (y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))[..., 0].T
    return out


def _check_magnitude(arr, lam):
    # min and max propagate NaN and need no temporary the size of arr
    lo, hi = float(np.min(arr, initial=0.0)), float(np.max(arr, initial=0.0))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise MagnitudeError(
            "non-finite solution samples; the solution grew past floating-point "
            "range (the characteristic function is normalized by lambda^2, "
            "consider rescaling the problem)"
        )
    peak = max(hi, -lo)
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


def _map_blocks(system, n_steps):
    """The maps from _step_maps of each block of _BLOCK steps of the uniform
    grid of n_steps steps on [0, pi], built as they are taken."""
    h = math.pi / n_steps
    for lo in range(0, n_steps, _BLOCK):
        hi = min(lo + _BLOCK, n_steps)
        x = np.arange(lo, hi + 1) * h  # the nodes of np.linspace(0, pi, n_steps + 1)
        if hi == n_steps:
            x[-1] = math.pi
        yield _step_maps(system, x[:-1], x[1:], h)


@dataclass(frozen=True)
class GridMaps:
    """Every block of step maps of one problem on the grid of `points`
    steps, for reuse by all solves on that grid (maps= of solve_batch,
    endpoint_states, char_fn and char_fn_normalized).  blocks holds the
    maps of each block as _map_blocks yields them, for trajectory solves;
    spans holds their products in runs of _SPAN steps (_compose) in one
    array, for endpoint-only solves with max|lambda| <= lam_bound, each
    block's multiplied out to the cap that bound reaches (_caps) and padded
    with zeros to the largest; a batch reads each block up to its own cap,
    from the block's row of majorants (_majorant).  spans and majorants are
    None when the maps are in the coupled layout (those solves take single
    steps), or when released by without_spans; a batch without them, or
    above lam_bound, composes a block at a time."""

    problem: object
    points: int
    size: int
    blocks: tuple
    lam_bound: float
    spans: np.ndarray = None
    majorants: np.ndarray = None

    def without_spans(self):
        """These maps without the composed ones, whose memory goes back to
        the system once no other reference holds them."""
        return replace(self, spans=None, majorants=None)


def grid_maps(problem, points, *, lam_bound=None):
    """The step maps of problem on the uniform grid of points steps.
    lam_bound is the largest |lambda| the composed maps serve; by default
    every lambda the guard admits on this grid.  An eigenvalue search
    passes the largest lambda it evaluates, so that its maps are composed
    only to the degree that lambda reaches."""
    points = int(points)
    _check_resolution((), points)  # points >= 2; each solve checks its lambda against them
    system = AugmentedSystem(problem)
    size, h = system.size, math.pi / points
    if lam_bound is None:
        lam_bound = GUARD_LIMIT / h
    blocks = tuple(_map_blocks(system, points))
    spans = majorants = None
    if len(blocks[0]) == 1:  # the plain layout: one array, which returns to the system in one piece
        majorants = np.stack([_majorant(block, h) for block in blocks])
        caps = _caps(majorants, lam_bound * h)
        spans = np.zeros((-(-points // _SPAN), size, (int(caps.max()) + 1) * size))
        rows = _BLOCK // _SPAN
        for j, (block, cap) in enumerate(zip(blocks, caps.tolist())):
            P = _compose(block, cap)
            spans[j * rows : (j + 1) * rows, :, : P.shape[-1]] = P  # one block's copy at a time
    return GridMaps(problem, points, size, blocks, float(lam_bound), spans, majorants)


class _Stack:
    """Block consumer of _solve that stacks the blocks into Z: a
    BatchSolution."""

    def __init__(self, lam, n_steps, size):
        self.sol = BatchSolution(lam=lam, grid=np.linspace(0.0, math.pi, n_steps + 1),
                                 Z=np.empty((size, n_steps + 1, lam.size)))

    def __call__(self, first, states):
        self.sol.Z[:, first : first + states.shape[1]] = states

    def result(self):
        return self.sol


@dataclass
class Crossings:
    """The sign changes of phi1 on the grid of a trajectory solve, found while
    it runs (solve_batch(..., crossings=True)); no trajectory is stored.

    A sign change is sign(phi1) = where(phi1 >= 0, 1, -1) differing between
    neighbouring grid nodes.  Crossing k lies in the cell with left node
    cells[k] of lambda column cols[k], ordered by column, then cell, and
    Z[:, k] (2 + S entries) is the augmented state at that left node.
    adjacent[b] is True when column b changes sign in two adjacent cells.
    """

    lam: np.ndarray
    points: int
    cols: np.ndarray
    cells: np.ndarray
    Z: np.ndarray
    adjacent: np.ndarray

    @property
    def step(self):
        return math.pi / self.points


class _CrossingScan:
    """Block consumer of _solve that keeps the sign changes of phi1 and the
    states at their left nodes: Crossings.  Each column's crossing in the
    last cell of a block is carried to the next block, so adjacent cells
    across a block boundary are seen too."""

    def __init__(self, lam, n_steps, size):
        self.lam, self.points = lam, n_steps
        self.last = np.zeros(lam.size, dtype=bool)  # a crossing in the previous block's last cell
        self.adjacent = np.zeros(lam.size, dtype=bool)
        self.found = []  # (cells, cols, states) per block

    def __call__(self, first, states):
        sign = np.where(states[0] >= 0, 1.0, -1.0)
        cross = sign[:-1] != sign[1:]  # (cell, column)
        self.adjacent |= (self.last & cross[0]) | (cross[:-1] & cross[1:]).any(axis=0)
        self.last = cross[-1]
        cells, cols = np.nonzero(cross)
        self.found.append((first + cells, cols, states[:, cells, cols]))

    def result(self):
        cells, cols, Z = (np.concatenate(parts, axis=-1) for parts in zip(*self.found))
        order = np.lexsort((cells, cols))
        return Crossings(lam=self.lam, points=self.points, cols=cols[order], cells=cells[order],
                         Z=Z[:, order], adjacent=self.adjacent)


def _solve(problem, lam, points, maps, consumer=None):
    """Check the arguments, then step over the uniform grid on [0, pi].

    With a consumer class (_Stack or _CrossingScan), the steps are single
    steps, and each block's states, shape (2 + S, n + 1, B) with the block's
    left and right grid nodes, are checked for magnitude and handed to
    consumer(lam, n_steps, 2 + S)(first step, states); returns the
    consumer's result().  Without, returns the endpoint states (2, B) over
    the maps composed in runs of _SPAN steps, each block's applied up to the
    cap (_caps) for the batch's max|lambda| (single steps for maps in the
    coupled layout).  The maps come from maps (a GridMaps of this
    problem and step count), or are built a block at a time, so no array
    grows with the grid; a batch above maps.lam_bound composes its own,
    capped for its max|lambda|."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if not np.isfinite(lam).all():
        raise ValueError(f"lambda must be finite, got {float(lam[~np.isfinite(lam)][0])}")
    n_steps = resolution_points(lam) if points is None else int(points)
    _check_resolution(lam, n_steps)
    if maps is None:
        system = AugmentedSystem(problem)
        size, blocks, spans = system.size, _map_blocks(system, n_steps), None
    elif maps.problem is not problem:
        raise ValueError("maps were built for another problem")
    elif maps.points != n_steps:
        raise ValueError(f"maps were built for {maps.points} steps, not {n_steps}")
    else:
        size, blocks, spans = maps.size, maps.blocks, maps.spans
    if consumer is None:  # plain-layout maps composed, to the degree lambda reaches
        lam_max, h = _lam_max(lam), math.pi / n_steps
        if spans is None or lam_max > maps.lam_bound:  # no composed maps serve this batch
            blocks = (_cut(block, h, lam_max) if len(block) == 1 else block for block in blocks)
        else:
            rows = _BLOCK // _SPAN
            blocks = ((spans[j * rows : (j + 1) * rows, :, : (C + 1) * size],)
                      for j, C in enumerate(_caps(maps.majorants, lam_max * h).tolist()))
    consume = None if consumer is None else consumer(lam, n_steps, size)
    z = np.zeros((size, lam.size))
    z[:2] = initial_state(problem.bc, lam)
    powers, first = None, 0
    for block in blocks:
        P = block[0]
        terms = P.shape[-1] // P.shape[1]  # lambda^0..lambda^degree, the degree read off the maps
        if powers is None or powers.shape[0] < terms:
            powers = lam ** np.arange(terms)[:, None, None]
        step = _stepper(block, powers[:terms])
        states = None if consume is None else np.empty((size, P.shape[0] + 1, lam.size))
        for i in range(P.shape[0]):
            if states is not None:
                states[:, i] = z
            z = step(z, i)
        if states is not None:
            states[:, -1] = z
            _check_magnitude(states[:2], lam)
            consume(first, states)
        first += P.shape[0]
        del block, P, step, states  # free a built block's maps before the next is built
    if consume is None:
        _check_magnitude(z[:2], lam)
        return z[:2]
    return consume.result()


def solve_batch(problem, lam, points=None, *, maps=None, crossings=False):
    """Integrate the IVP for a batch of lambda values; returns BatchSolution.
    maps: a GridMaps of this problem and step count, or None to build them.
    crossings=True returns the Crossings of phi1 instead, found block by
    block while the solve runs, and stores no trajectory: memory
    O(crossings (2 + S)) in place of O(points B (2 + S))."""
    return _solve(problem, lam, points, maps, _CrossingScan if crossings else _Stack)


def endpoint_states(problem, lam, points=None, *, maps=None):
    """phi(pi, lambda) for a batch of lambda; shape (2, B).  Avoids storing
    trajectories."""
    return _solve(problem, lam, points, maps)


def char_fn(problem, lam, points=None, *, maps=None):
    """Delta(lambda) = phi1(pi)(lambda cos beta + d1) + phi2(pi)(lambda sin beta + d2).

    Scalar in, float out; array in, array out.
    """
    scalar = np.ndim(lam) == 0
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    end = endpoint_states(problem, lam_arr, points=points, maps=maps)
    bc = problem.bc
    val = end[0] * (lam_arr * math.cos(bc.beta) + bc.d1) + end[1] * (
        lam_arr * math.sin(bc.beta) + bc.d2
    )
    return float(val[0]) if scalar else val


def char_fn_normalized(problem, lam, points=None, *, maps=None):
    """Delta(lambda) / max(1, lambda^2); bounded near roots, used for bracketing."""
    scalar = np.ndim(lam) == 0
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    val = char_fn(problem, lam_arr, points=points, maps=maps)
    out = val / np.maximum(1.0, lam_arr * lam_arr)
    return float(out[0]) if scalar else out

