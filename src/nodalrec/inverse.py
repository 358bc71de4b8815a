"""Reconstruction from dense nodal data.

Two scaled limits drive everything.  With x*_n = j pi / n the node
predictions satisfy

    n   (x_n^j - j pi/n)                          -> f(x) = -x(beta-theta)/pi + nu(x) - theta
    n^2 (x_n^j - j pi/n) + j(beta-theta)
        - n(nu(x*) - theta)                       -> g(x) = (nu(x)-theta)(theta-beta)/pi + b1 sin(theta)
                                                            - b2 cos(theta) + m cos(theta) sin(theta)
                                                            + m^2 x / 2 - L(x)/2

and the reconstruction reads theta = -f(0), beta = -f(pi),
V = f' + (beta-theta)/pi, m = sqrt(2(g(pi)-g(0))/pi) (valid under the
L(pi) = 0 normalization), L' = -2g' - 2V(beta-theta)/pi + m^2.

The limits are accelerated by least-squares extrapolation in 1/n.  Each
sample is taken at the node nearest the requested x, which evaluates the
limit function at x*_n rather than x; a regressor proportional to
(x*_n - x) absorbs that drift exactly (its coefficient estimates the
limit function's slope).  The g-stage additionally carries a regressor
proportional to n, absorbing the amplification of stage-1 bias by the
j(beta-theta) and n nu terms; without it, a 1e-4 error in beta-theta
pollutes g by n·1e-4, which at n ~ 400 would dominate the mass budget.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CalibrationError,
    InsufficientDataError,
    MassRecoveryError,
    StageQualityError,
)
from .io import _blocks

MIN_DISTINCT_N = 8
DEFAULT_N_MIN = 5
DEFAULT_GRID_SIZE = 65
WINDOW = 9  # Savitzky-Golay window (odd), in grid samples
STAGE1_DISPERSION_LIMIT = 0.1
CALIBRATION_X = math.pi / 2
MAX_OFFSET = 2


@dataclass(frozen=True)
class SampledCurve:
    """Function samples on a shared grid, with point evaluation by the
    not-a-knot cubic spline through them (de Boor, A Practical Guide to
    Splines, ch. IV)."""

    x: np.ndarray
    values: np.ndarray
    dispersion: float = None

    def __post_init__(self):
        # read-only copies, so the spline pieces cached by `at` stay valid
        for name in ("x", "values"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.x.shape != self.values.shape or self.x.ndim != 1:
            raise ValueError("x and values must be 1-d arrays of equal length")

    def at(self, xq):
        """Spline value at xq (a number or an array); outside [x[0], x[-1]]
        the end pieces extrapolate."""
        xq = np.asarray(xq, dtype=float)
        i = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, self.x.size - 2)
        c3, c2, c1, c0 = self._pieces[:, i]
        t = xq - self.x[i]
        out = ((c3 * t + c2) * t + c1) * t + c0
        return float(out) if out.ndim == 0 else out

    @cached_property
    def _pieces(self):
        """Spline coefficients per interval [x_i, x_i+1], in powers of
        (x - x_i), highest first; shape (4, len(x) - 1)."""
        x, y = self.x, self.values
        if x.size < 2:
            raise ValueError(f"a spline needs at least 2 samples, have {x.size}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("spline samples must be finite")
        h = np.diff(x)
        if np.any(h <= 0):
            raise ValueError("spline abscissae must be strictly increasing")
        chord = np.diff(y) / h
        s = _spline_slopes(h, chord)
        t = (s[:-1] + s[1:] - 2.0 * chord) / h
        return np.stack([t / h, (chord - s[:-1]) / h - t, s[:-1], y[:-1]])


def _spline_slopes(h, chord):
    """Node slopes of the not-a-knot cubic spline, given the interval widths
    h and the chord slopes (divided differences) of the samples.

    Two samples give the chord and three the parabola through them (both
    end conditions then concern the one interior knot).  Otherwise the
    slopes solve a tridiagonal system: continuity of the second derivative
    at each interior knot, and of the third at the second and next-to-last
    knots.  It is solved by elimination without pivoting in O(n): the
    interior rows are diagonally dominant, and every pivot, the two end
    rows' included, stays positive.
    """
    if h.size == 1:
        return np.array([chord[0], chord[0]])
    if h.size == 2:
        c = (chord[1] - chord[0]) / (h[0] + h[1])
        return np.array([chord[0] - c * h[0], chord[0] + c * h[0], chord[1] + c * h[1]])
    d0, d1 = h[0] + h[1], h[-2] + h[-1]
    lower = [0.0] + h[1:].tolist() + [d1]
    diag = [h[1]] + (2.0 * (h[:-1] + h[1:])).tolist() + [h[-2]]
    upper = [d0] + h[:-1].tolist() + [0.0]
    rhs = (
        [((h[0] + 2.0 * d0) * h[1] * chord[0] + h[0] ** 2 * chord[1]) / d0]
        + (3.0 * (h[1:] * chord[:-1] + h[:-1] * chord[1:])).tolist()
        + [(h[-1] ** 2 * chord[-2] + (2.0 * d1 + h[-1]) * h[-2] * chord[-1]) / d1]
    )
    n = len(diag)
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = [0.0] * n
    s[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    return np.array(s)


@dataclass(frozen=True)
class ReconstructionResult:
    theta_hat: float
    beta_hat: float
    m_hat: float
    V_hat: SampledCurve
    Lprime_hat: SampledCurve
    f_hat: SampledCurve
    g_hat: SampledCurve
    diagnostics: dict


def _usable_indices(data, n_min):
    return [n for n in sorted(data.nodes) if n >= n_min and len(data.nodes[n]) > 0]


def _nearest(xs, x):
    """Positions in the ascending array xs of the nodes nearest x (a number
    or an array), the lower of two at equal distance."""
    i = xs.searchsorted(x)
    lo, hi = i - (i > 0), i - (i == xs.size)  # the nodes either side of x, or the end node twice
    return lo + (hi - lo) * (xs[hi] - x < x - xs[lo])


def _indexed_samples(data, ns, grid, offset):
    """Per grid point x and per n: the node whose calibrated index j targets
    x, i.e. j = round(x n / pi) clipped to the available positions.

    Returns (positions, node_values), both of shape (len(grid), len(ns)).
    This keeps |j pi/n - x| <= pi/(2n) wherever the target index exists, and
    guarantees the expansion abscissa x* = j pi/n moves with n; selecting the
    node nearest x instead lets x* pin to a constant near the endpoints
    (many n share the same extreme j), which makes the drift regressor
    collinear with the intercept and destabilizes the fit exactly where the
    endpoint values theta, beta, m are read off.
    """
    lists = [data.nodes[n] for n in ns]
    last = np.array([xs.size - 1 for xs in lists])
    # np.rint rounds half to even, as round does
    pos = np.rint(np.multiply.outer(np.asarray(grid, dtype=float), ns) / math.pi)
    pos = np.clip(pos.astype(int) - offset, 0, last)
    val = np.column_stack([xs[p] for xs, p in zip(lists, pos.T)])
    return pos, val


def calibrate_offset(data):
    """Integer origin s of the node indices: with j = position + s, the
    scaled residuals (x_n^j - j pi/n) n at the node nearest CALIBRATION_X
    must stay bounded across n.

    Shifting s by 1 shifts every residual by exactly -pi, so boundedness
    alone cannot distinguish offsets; the calibrated branch is the one
    placing the residuals in (-pi/2, pi/2], read off the median residual
    (median across n tolerates a few corrupted lists).
    """
    ns = _usable_indices(data, 1)
    if not ns:
        raise CalibrationError("no nodal data to calibrate")
    lists = [data.nodes[n] for n in ns]
    pos = np.array([_nearest(xs, CALIBRATION_X) for xs in lists])
    val = np.array([xs[p] for xs, p in zip(lists, pos)])
    narr = np.asarray(ns, dtype=float)
    f0 = (val - pos * math.pi / narr) * narr
    s = int(round(float(np.median(f0)) / math.pi))
    if abs(s) > MAX_OFFSET:
        raise CalibrationError(
            f"calibration offset {s} outside [-{MAX_OFFSET}, {MAX_OFFSET}]; "
            f"median scaled residual {float(np.median(f0)):.4g}"
        )
    resid = f0 - s * math.pi
    spread = float(np.median(np.abs(resid - np.median(resid))))
    if not np.isfinite(spread) or spread > math.pi:
        raise CalibrationError(
            f"scaled residuals do not stabilize under any offset "
            f"(median absolute deviation {spread:.4g}); data inconsistent with the nodal model"
        )
    return s


def _limits(grid, ns, j, val, stage):
    """Accelerated limits on the grid, from the sample table of the indices
    ns: the calibrated indices j and the nodes val, each of shape
    (len(grid), len(ns)), of the nodes targeting each grid point.  At grid
    point x the limit is the intercept of the least-squares fit of its row
    of samples over the columns [1, x* - x, 1/n, r], x* = j pi/n, where
    ``stage(narr, xstar, j, val)`` gives the samples and r of rows of the
    table.  It takes as many rows at a time as hold at most io._BLOCK
    samples, one at least (``_blocks``): all 65 of the default grid for
    101 indices, 8 for 951.  The dispersion is the largest residual RMS."""
    narr = np.asarray(ns, dtype=float)
    fits = []
    for lo, hi in _blocks([narr.size] * len(grid)):
        xstar = j[lo:hi] * math.pi / narr
        samples, last = stage(narr, xstar, j[lo:hi], val[lo:hi])
        columns = np.broadcast_arrays(np.ones_like(samples), xstar - grid[lo:hi, None], 1.0 / narr, last)
        for i, values in enumerate(samples):
            A = np.column_stack([c[i] for c in columns])
            coef, *_ = np.linalg.lstsq(A, values, rcond=None)
            resid = values - A @ coef
            dof = max(1, len(values) - A.shape[1])
            fits.append((coef[0], np.sqrt(np.sum(resid * resid) / dof)))
    a0, rms = np.array(fits).T
    return SampledCurve(x=grid, values=a0, dispersion=float(np.max(rms)))


def f_estimate(grid, ns, j, val):
    """Accelerated limits of n(x_n^j - j pi/n) on the grid, from the sample
    table of _limits, with r = 1/n^2."""
    return _limits(grid, ns, j, val, lambda narr, xstar, j, val: ((val - xstar) * narr, 1.0 / (narr * narr)))


def g_estimate(grid, ns, j, val, theta_hat, beta_hat, f_hat):
    """Accelerated limits of the second-order scaled residual on the grid,
    from the sample table of _limits, with r = n.

    nu_hat(x*) is reproduced from stage 1 as f_hat(x*) + x*(beta-theta)/pi
    + theta; the curvature corrections are evaluated at x* = j pi/n, the
    same abscissa the node prediction expands around.
    """
    if f_hat.dispersion is not None and f_hat.dispersion > STAGE1_DISPERSION_LIMIT:
        raise StageQualityError(
            f"stage-1 dispersion {f_hat.dispersion:.4g} exceeds "
            f"{STAGE1_DISPERSION_LIMIT:.4g}; refusing the second-stage limit"
        )
    skew = beta_hat - theta_hat

    def stage(narr, xstar, j, val):
        nu_star = f_hat.at(xstar) + xstar * skew / math.pi + theta_hat
        return narr * narr * (val - xstar) + j * skew - narr * (nu_star - theta_hat), narr

    return _limits(grid, ns, j, val, stage)


def differentiate(curve):
    """Derivative by sliding least-squares quadratic over WINDOW samples on
    the uniform grid (Savitzky & Golay 1964).  At interior points that is
    the centred stencil sum_k k y_{i+k} / (h sum_k k^2); the WINDOW // 2
    points at each end take the derivative of the quadratic fitted to the
    first or last WINDOW samples."""
    n = curve.values.size
    if n < WINDOW + 1:
        raise InsufficientDataError(f"need at least {WINDOW + 1} samples, have {n}")
    steps = np.diff(curve.x)
    if not np.allclose(steps, steps[0], rtol=1e-10, atol=1e-12):
        raise ValueError("differentiate requires a uniform grid")
    h = float(steps[0])
    y = curve.values
    half = WINDOW // 2
    k = np.arange(-half, half + 1, dtype=float)
    u = np.arange(WINDOW, dtype=float)
    deriv = np.empty(n)
    deriv[half:-half] = np.correlate(y, k, mode="valid") / (h * (k @ k))
    deriv[:half] = np.polyval(np.polyder(np.polyfit(u, y[:WINDOW], 2)), u[:half]) / h
    deriv[-half:] = np.polyval(np.polyder(np.polyfit(u, y[-WINDOW:], 2)), u[-half:]) / h
    return SampledCurve(x=curve.x, values=deriv)


def reconstruct(data, grid_size=DEFAULT_GRID_SIZE, n_min=DEFAULT_N_MIN, known_m=None):
    """Full pipeline: calibrate, f-limits on a grid, angles, V by
    differentiation, g-limits, mass, kernel skew derivative.  Nodes of
    index n < n_min are left out; a given known_m replaces the recovered
    mass."""
    if known_m is not None and not math.isfinite(known_m):
        raise ValueError(f"known_m must be finite, got {known_m!r}")
    grid_size = int(grid_size)
    if grid_size < 16:
        raise ValueError(f"grid_size must be >= 16, got {grid_size}")
    if n_min < 1:
        raise ValueError(f"n_min must be >= 1, got {n_min}")
    ns = _usable_indices(data, n_min)
    if len(ns) < MIN_DISTINCT_N:
        raise InsufficientDataError(
            f"need at least {MIN_DISTINCT_N} usable indices n >= {n_min}, have {len(ns)}"
        )
    offset = calibrate_offset(data)
    grid = np.linspace(0.0, math.pi, grid_size)

    # The index-targeted node selection keeps the fits well posed at the
    # endpoints too (x* = j pi/n still moves with n there), so every grid
    # point is fitted directly; the endpoint values feed theta, beta, m.
    j, val = _indexed_samples(data, ns, grid, offset)
    j += offset
    f_hat = f_estimate(grid, ns, j, val)
    f_vals = f_hat.values

    theta_hat = -f_vals[0]
    beta_hat = -f_vals[-1]
    skew = beta_hat - theta_hat

    V_vals = differentiate(f_hat).values + skew / math.pi
    V_hat = SampledCurve(x=grid, values=V_vals)

    g_hat = g_estimate(grid, ns, j, val, theta_hat, beta_hat, f_hat)
    g_vals = g_hat.values

    diagnostics = {
        "offset": offset,
        "n_used": len(ns),
        "n_max": max(ns),
        "stage1_dispersion": f_hat.dispersion,
        "stage2_dispersion": g_hat.dispersion,
        "V_mean_integral": float(np.trapezoid(V_vals, grid)),
        "brute_force_agreement": _brute_force_check(data, grid, f_vals, offset, max(ns)),
    }

    radicand = 2.0 * (g_vals[-1] - g_vals[0]) / math.pi
    diagnostics["m_radicand"] = radicand
    diagnostics["m_mode"] = "recovered" if known_m is None else "known"
    if known_m is not None:
        m_hat = float(known_m)
    else:
        if -1e-6 < radicand < 0.0:
            # massless problems put the radicand at +-roundoff; only a
            # decisively negative value signals a broken normalization
            radicand = 0.0
        if radicand < 0:
            partial = {
                "theta_hat": theta_hat,
                "beta_hat": beta_hat,
                "f_hat": f_hat,
                "g_hat": g_hat,
                "V_hat": V_hat,
                "diagnostics": diagnostics,
            }
            raise MassRecoveryError(
                f"mass radicand 2(g(pi)-g(0))/pi = {radicand:.4g} is negative; "
                f"mass recovery assumes the L(pi) = 0 normalization "
                f"(otherwise only m^2 pi/2 - L(pi)/2 is identifiable)",
                radicand=radicand,
                partial=partial,
            )
        m_hat = math.sqrt(radicand)

    g_deriv = differentiate(g_hat).values
    Lp_vals = -2.0 * g_deriv - 2.0 * V_vals * skew / math.pi + m_hat * m_hat
    Lprime_hat = SampledCurve(x=grid, values=Lp_vals)

    return ReconstructionResult(
        theta_hat=float(theta_hat),
        beta_hat=float(beta_hat),
        m_hat=float(m_hat),
        V_hat=V_hat,
        Lprime_hat=Lprime_hat,
        f_hat=f_hat,
        g_hat=g_hat,
        diagnostics=diagnostics,
    )


def _brute_force_check(data, grid, f_vals, offset, n_top):
    """Raw sample of index n_top vs the fitted limit at a few probe points;
    the fit must not drift away from the data it extrapolates."""
    x = grid[np.rint(np.array([0.25, 0.5, 0.75]) * (grid.size - 1)).astype(int)]
    xs = data.nodes[n_top]
    pos = _nearest(xs, x)
    raw = (xs[pos] - (pos + offset) * math.pi / n_top) * n_top
    return float(np.max(np.abs(raw - np.interp(x, grid, f_vals))))
