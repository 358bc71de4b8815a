"""Eigenvalues as zeros of the characteristic function, and nodal points as
zeros of the first solution component.

Eigenvalue search: a root within SCAN_HALF_WIDTH = 0.45 of n's closed-form
seed is n's (eigenvalues sit asymptotically 1 apart).  One batched
characteristic-function evaluation at 56 Chebyshev points of one window per
group of 16 indices (n // 16 = k) gives each window's interpolant of Delta /
(1 + lambda^2), whose real roots come from its colleague matrix (Good 1961;
Battles & Trefethen 2004; Boyd 2013).  A window counts when each seed owns
one root and each root one seed; the indices of any other are searched again
on windows seed +- 0.45 of 16 points, in one more evaluation.  The last two
coefficients estimate the interpolant's error, which bounds the root's
error (tol) and |Delta(lambda_n)| (the residual).  Each evaluation builds
the grid's step maps a block at a time and drops them, so the search's
memory does not grow with the grid; only nodal_data keeps them (GridMaps),
for its trajectory solve on the same grid.

Nodes are grid sign changes of phi1, found block by block while the
trajectory solve runs (solve_batch(..., crossings=True)).  One function
(_nodes_from_crossings) refines them by a bracketed Illinois update,
_REFINE_CHUNK crossings at a time, and cuts the roots into per-column
lists; each refinement query is one stage-form RK4 step of the forward
solver's scheme (forward._single_steps) from the exact augmented state
(solution pair and memory states) kept at the cell's left node, and each
Illinois round steps all the open brackets of its chunk in one batch.  No
trajectory is stored, and refinement builds no step maps.  nodal_data
returns the nodes in a NodalData, the container of the nodal CSV (io).
"""

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import lambda_asym
from .errors import AmbiguityError, BracketingError, ResolutionError
from .forward import (
    GUARD_LIMIT, AugmentedSystem, _chebyshev, _first_stages, _single_steps, char_fn_normalized,
    grid_maps, resolution_points, solve_batch,
)
from .io import NodalData

N_MIN = 5
SCAN_HALF_WIDTH = 0.45
# Chebyshev points per single-seed window: 16 terms of Delta / (1 +
# lambda^2) reach rounding at width 0.9 (12 leave tails near 1e-11)
WINDOW_POINTS = 16
# a wide window holds the GROUP indices with n // GROUP = k; Delta is of
# exponential type pi, so on width w its coefficients fall off past degree
# about pi w / 2: 56 reach rounding at width 17 (48 leave tails near 4e-9)
GROUP, WIDE_POINTS = 16, 56
# a root of a window's interpolant within this of the real segment [-1, 1]
# (in the window's variable) is a real root in the window
_REAL_TOL = 1e-8
NODE_TOL = 1e-12
# crossings refined at once, each stage one batch over the chunk: bounds
# refinement's arrays whatever n_max (about 7,100 crossings at n_max = 120,
# 500,000 at 1000), and is large enough that a stage pays for arithmetic
# rather than numpy calls
_REFINE_CHUNK = 4096


def _corridor_miss(n, lam, offset):
    """Why lambda_n = lam leaves the sanity corridor |lambda_n - n - offset|
    <= 1, offset = (beta - theta)/pi; None when it does not."""
    if abs(lam - n - offset) > 1.0:
        return f"lambda_{n} = {lam:.6g} outside the corridor n + {offset:.4g} +- 1"
    return None


@dataclass(frozen=True)
class Spectrum:
    """Map n -> lambda_n, and n -> the estimate of |Delta(lambda_n)|.

    offset = (beta - theta)/pi enters the sanity corridor
    |lambda_n - n - offset| <= 1 enforced on construction.
    """

    entries: dict
    residuals: dict
    offset: float = 0.0

    def __post_init__(self):
        ns = sorted(self.entries)
        lams = [self.entries[n] for n in ns]
        for a, b in zip(lams, lams[1:]):
            if not a < b:
                raise ValueError("eigenvalues must be strictly increasing in n")
        for n in ns:
            miss = _corridor_miss(n, self.entries[n], self.offset)
            if miss:
                raise ValueError(miss)

    @property
    def indices(self):
        return sorted(self.entries)

    def rows(self):
        return [(n, self.entries[n], self.residuals[n]) for n in self.indices]


# ---------------------------------------------------------------------------
# bracketed roots


def _bracketed_roots(f, a, b, fa, fb, width):
    """Shrink sign-change brackets [a, b] to at most width (or two float
    spacings, if that is wider) by a vectorized Illinois (modified regula
    falsi) update; f(x, idx) evaluates the brackets numbered idx, and only
    those still open are evaluated.

    When the same end moves twice in a row, the value kept at the other end
    is halved.  Steps stay min(width/2, (b - a)/4) inside both ends, so a
    converged iterate is followed by one just past the root that closes the
    far end; after two updates in a row that fail to halve a bracket, one
    midpoint step bounds the worst case.  Returns (a, b, root, f(root)), the
    root being the end of the final bracket with the smaller true |f|.
    """
    ends = np.array([a, b], dtype=float)
    fend = np.array([fa, fb], dtype=float)  # true values at the ends
    for j in (0, 1):
        ends[:, fend[j] == 0] = ends[j, fend[j] == 0]
    g = fend.copy()  # end values with the Illinois halving
    moved = np.full(ends.shape[1], -1)  # the end that moved last
    slow = np.zeros(ends.shape[1], dtype=int)  # updates in a row not halving
    while True:
        floor = 2.0 * np.spacing(np.max(np.abs(ends), axis=0))
        idx = np.flatnonzero(ends[1] - ends[0] > np.maximum(width, floor))
        if idx.size == 0:
            break
        (A, B), (gA, gB), w = ends[:, idx], g[:, idx], ends[1, idx] - ends[0, idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = B - gB * w / (gB - gA)
        gap = np.minimum(0.5 * width, 0.25 * w)
        halve = slow[idx] >= 2
        x = np.where(halve, A + 0.5 * w, np.fmax(np.fmin(x, B - gap), A + gap))
        fx = np.asarray(f(x, idx), dtype=float)
        j = np.where((fx > 0) == (fend[0, idx] > 0), 0, 1)  # the end x replaces
        g[1 - j, idx] *= np.where(moved[idx] == j, 0.5, 1.0)
        ends[j, idx], fend[j, idx], g[j, idx], moved[idx] = x, fx, fx, j
        ends[:, idx[fx == 0]] = x[fx == 0]
        fend[:, idx[fx == 0]] = 0.0
        slow[idx] = np.where(halve | (ends[1, idx] - ends[0, idx] <= 0.5 * w), 0, slow[idx] + 1)
    use_b = np.abs(fend[1]) < np.abs(fend[0])
    return ends[0], ends[1], np.where(use_b, ends[1], ends[0]), np.where(use_b, fend[1], fend[0])


# ---------------------------------------------------------------------------
# eigenvalues


def _window_roots(coeffs):
    """The real roots in [-1, 1] of the Chebyshev series sum_k c_k T_k(u),
    one series per column of coeffs (K, W): a list of W ascending arrays.

    Trailing zero coefficients are trimmed; the roots are the eigenvalues of
    the colleague matrix (Good 1961), one batched eigvals per degree.  A root
    counts as real and inside [-1, 1] within _REAL_TOL."""
    K, W = coeffs.shape
    nonzero = coeffs != 0
    degree = np.where(nonzero.any(axis=0), K - 1 - np.argmax(nonzero[::-1], axis=0), 0)
    roots = [np.empty(0)] * W
    for d in np.unique(degree[degree > 0]).tolist():
        cols = np.flatnonzero(degree == d)
        c = coeffs[: d + 1, cols].T
        # u T_0 = T_1, u T_k = (T_{k-1} + T_{k+1}) / 2, and T_d from p(u) = 0,
        # which enters row d - 1 with the factor 1/2 (1 when d = 1: u T_0 = T_1)
        C = np.zeros((cols.size, d, d))
        i = np.arange(d - 1)
        C[:, i, i + 1] = C[:, i + 1, i] = 0.5
        C[:, 0, 1:] *= 2.0
        C[:, -1] -= c[:, :-1] / ((1.0 if d == 1 else 2.0) * c[:, -1:])
        for col, u in zip(cols.tolist(), np.linalg.eigvals(C)):
            real = (np.abs(u.imag) <= _REAL_TOL) & (np.abs(u.real) <= 1.0 + _REAL_TOL)
            roots[col] = np.sort(u.real[real])
    return roots


def _slopes(coeffs, u):
    """p'(u_w) of the Chebyshev series in column w of coeffs (K, W), at the
    points u (W,), by the recurrences T_{k+1} = 2u T_k - T_{k-1} and
    T'_{k+1} = 2 T_k + 2u T'_k - T'_{k-1}."""
    t, t_prev, d, d_prev = u, np.ones_like(u), np.ones_like(u), np.zeros_like(u)
    out = coeffs[1] * d
    for c in coeffs[2:]:
        t, t_prev, d, d_prev = 2.0 * u * t - t_prev, t, 2.0 * t + 2.0 * u * d - d_prev, d
        out = out + c * d
    return out


def _windows(problem, seeds, groups, reach, K, n_steps, maps):
    """One window per group of consecutive seeds (positions in seeds),
    reaching `reach` past its first and last seed, evaluated in one batch at
    K first-kind Chebyshev points each on the grid of n_steps steps (maps:
    its GridMaps, or None); the real roots of each window's interpolant p
    of Delta / (1 + lambda^2) (analytic on the real axis, unlike Delta /
    max(1, lambda^2)) from its colleague matrix.  A root belongs to each
    seed within SCAN_HALF_WIDTH of it.  Returns found[i] = (roots of seed i,
    a lone root's estimated error tail / |dp/dlambda|, the window's tail
    |c_{K-2}| + |c_{K-1}|) for each seed of the groups, and the seeds of the
    windows where each seed owns one root and each root one seed."""
    if not groups:
        return {}, set()
    first, last = seeds[[g[0] for g in groups]], seeds[[g[-1] for g in groups]]
    center, radius = 0.5 * (first + last), 0.5 * (last - first) + reach
    nodes, to_coeffs = _chebyshev(K)
    u = 2.0 * nodes / math.pi - 1.0  # the first-kind Chebyshev points in (-1, 1)
    lam = center[:, None] + radius[:, None] * u
    vals = char_fn_normalized(problem, lam.ravel(), points=n_steps, maps=maps).reshape(lam.shape)
    coeffs = to_coeffs @ (vals * np.maximum(1.0, lam * lam) / (1.0 + lam * lam)).T
    tail = np.abs(coeffs[-2:]).sum(axis=0)  # bounds |p - Delta / (1 + lambda^2)|, by estimate
    windows = _window_roots(coeffs)
    sizes = [roots.size for roots in windows]
    win = np.repeat(np.arange(len(groups)), sizes)
    slopes = np.abs(_slopes(coeffs[:, win], np.concatenate(windows))) / radius[win]  # |dp/dlambda|
    slopes = np.split(slopes, np.cumsum(sizes)[:-1])
    found, accepted = {}, set()
    for w, (group, roots, slope) in enumerate(zip(groups, windows, slopes)):
        cands = center[w] + radius[w] * roots
        # within _REAL_TOL, as a root counts as inside its window
        own = np.abs(cands[:, None] - seeds[group]) <= SCAN_HALF_WIDTH * (1.0 + _REAL_TOL)
        for j, i in enumerate(group):
            lone = slope[own[:, j]][0] if own[:, j].sum() == 1 else 0.0
            found[i] = (cands[own[:, j]], float(tail[w] / lone) if lone else math.inf, tail[w])
        if (own.sum(axis=0) == 1).all() and (own.sum(axis=1) == 1).all():
            accepted.update(group)
    return found, accepted


def _search(problem, n_range, tol, points, keep_maps=False):
    """Shared engine: argument checks, then the windows (_windows): one per
    lattice group {n >= N_MIN : n // GROUP = k} the range touches, evaluated
    whole, so lambda_n does not depend on where the range starts; then one
    per index of the groups not accepted (or past GUARD_LIMIT on the grid,
    which is sized for the range's largest seed), seed +- SCAN_HALF_WIDTH.
    An n that owns no root is that n's BracketingError; more than one, or a
    root outside the corridor (see Spectrum), its AmbiguityError: its index
    is not certain; an estimated error above tol / 4, its ResolutionError.

    Returns (spectrum, failures, maps): the Spectrum of the n found, the
    failures by n, and with keep_maps the GridMaps of the grid searched on,
    built once for both evaluations; without, each evaluation builds and
    drops the maps a block at a time, and maps is None.
    """
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if n_lo < N_MIN:
        raise ValueError(f"eigenvalue indexing starts at n = {N_MIN} (got {n_lo})")
    if n_hi < n_lo:
        raise ValueError(f"bad index range [{n_lo}, {n_hi}]")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    ns = np.arange(max(N_MIN, n_lo - n_lo % GROUP), n_hi - n_hi % GROUP + GROUP)
    seeds = lambda_asym(problem, ns)
    inside = np.flatnonzero((ns >= n_lo) & (ns <= n_hi))
    n_steps = points if points is not None else resolution_points(
        float(np.max(np.abs(seeds[inside]))) + SCAN_HALF_WIDTH)
    maps = grid_maps(problem, n_steps) if keep_maps else None

    top = GUARD_LIMIT * n_steps / math.pi - 0.5  # the largest seed a wide window may end at
    groups = [g.tolist() for g in np.split(np.arange(ns.size), np.flatnonzero(np.diff(ns // GROUP)) + 1)
              if max(abs(seeds[g[0]]), abs(seeds[g[-1]])) <= top]
    found, accepted = _windows(problem, seeds, groups, 0.5, WIDE_POINTS, n_steps, maps)
    found.update(_windows(problem, seeds, [[i] for i in inside.tolist() if i not in accepted],
                          SCAN_HALF_WIDTH, WINDOW_POINTS, n_steps, maps)[0])

    failures, entries, residuals = {}, {}, {}
    offset = (problem.bc.beta - problem.bc.theta) / math.pi
    for k in inside.tolist():
        n, (cands, err, tail) = int(ns[k]), found[k]
        if cands.size == 0:
            failures[n] = BracketingError(
                f"no real root of the normalized characteristic function in "
                f"[{seeds[k] - SCAN_HALF_WIDTH:.6g}, {seeds[k] + SCAN_HALF_WIDTH:.6g}] "
                f"for n = {n}", index=n)
            continue
        if cands.size > 1:
            failures[n] = AmbiguityError(
                f"{cands.size} sign changes in the search window for n = {n}; "
                f"candidate roots {', '.join(f'{c:.6g}' for c in cands)}")
            continue
        lam_n = float(cands[0])
        miss = _corridor_miss(n, lam_n, offset)
        if miss:
            failures[n] = AmbiguityError(miss)
            continue
        if not err <= tol / 4.0:
            failures[n] = ResolutionError(
                f"lambda_{n} = {lam_n:.6g} carries an estimated error {err:.2g} above "
                f"tol/4 = {tol / 4.0:.2g} (the Chebyshev tail of its window)")
            continue
        entries[n], residuals[n] = lam_n, float((1.0 + lam_n * lam_n) * tail)
    return Spectrum(entries, residuals, offset), failures, maps


def compute_spectrum(problem, n_range, tol=1e-9, points=None):
    """Eigenvalues for every n in the inclusive range; any per-n search
    failure is raised immediately (use nodal_data for collect-and-continue)."""
    spectrum, failures, _ = _search(problem, n_range, tol, points)
    if failures:
        raise failures[min(failures)]
    return spectrum


def find_eigenvalue(problem, n, tol=1e-9, points=None):
    """(lambda_n, the estimate of |Delta(lambda_n)|) for a single index."""
    spec = compute_spectrum(problem, (n, n), tol=tol, points=points)
    return spec.entries[int(n)], spec.residuals[int(n)]


# ---------------------------------------------------------------------------
# nodes


def _nodes_from_crossings(problem, found):
    """Per-column node lists from a Crossings.  A column whose phi1 changes
    sign in two adjacent cells (node spacing < 2h cannot be trusted) comes
    back as a ResolutionError in place of its list.  The crossings of the
    other columns are refined to NODE_TOL, _REFINE_CHUNK at a time (each
    bracket shrinks on its own, so the chunks change no result); each query
    is one stage-form RK4 step from the exact augmented state at the cell's
    left node, whose first stage is computed once per crossing.  Crossings
    come ordered by column, then cell, and each root stays in its cell, so
    splitting the roots at the column boundaries gives ascending lists."""
    system, h = AugmentedSystem(problem), found.step
    picked = np.flatnonzero(~found.adjacent[found.cols])
    roots = np.empty(picked.size)
    for lo in range(0, picked.size, _REFINE_CHUNK):
        sel = picked[lo : lo + _REFINE_CHUNK]
        lam, xL, ZL = found.lam[found.cols[sel]], found.cells[sel] * h, found.Z[:, sel]
        k1 = _first_stages(system, ZL, lam, xL)

        def phi1_at(xq, idx):
            """phi1(xq) by one step from the left node of crossing idx (a copy,
            so the step's other rows are freed while the brackets shrink)."""
            step = _single_steps(system, ZL[:, idx], lam[idx], xL[idx], xq, k1[idx])
            return step[0].copy()

        right = phi1_at(xL + h, slice(None))
        roots[lo : lo + sel.size] = _bracketed_roots(phi1_at, xL, xL + h, ZL[0], right, NODE_TOL)[2]
    lists = np.split(roots, np.searchsorted(found.cols[picked], np.arange(1, found.lam.size)))
    return [ResolutionError(f"adjacent grid cells both carry sign changes of phi1 at "
                            f"lambda = {lam:.6g}; node spacing < 2h", required_points=2 * found.points)
            if adjacent else xs[(xs > h) & (xs < math.pi - h)]
            for lam, adjacent, xs in zip(found.lam, found.adjacent, lists)]


def find_nodes(problem, lambda_n, points=None):
    """Ascending interior zeros of phi1(., lambda_n), refined to 1e-12."""
    found = solve_batch(problem, [float(lambda_n)], points=points, crossings=True)
    nodes = _nodes_from_crossings(problem, found)[0]
    if isinstance(nodes, ResolutionError):
        raise nodes
    return nodes


def nodal_data(problem, n_range, tol=1e-9, points=None):
    """Numeric NodalData over the inclusive index range.

    Per-n search failures (bracketing, ambiguity, resolution) are recorded
    in .failures instead of aborting the batch.
    """
    spectrum, failures, maps = _search(problem, n_range, tol, points, keep_maps=True)
    failures = {n: f"{type(e).__name__}: {e}" for n, e in failures.items()}
    nodes = {}
    if spectrum.entries:
        ns = spectrum.indices
        crossings = solve_batch(problem, [spectrum.entries[n] for n in ns], points=maps.points,
                                maps=maps, crossings=True)
        del maps  # refinement steps from the crossing states: no grid map stays resident
        for n, xs in zip(ns, _nodes_from_crossings(problem, crossings)):
            if isinstance(xs, ResolutionError):
                failures[n] = f"ResolutionError: {xs}"
            else:
                nodes[n] = xs
    return NodalData(nodes=nodes, source="numeric", failures=failures,
                     eigenvalues=spectrum.entries)
