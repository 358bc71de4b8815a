"""Eigenvalues as zeros of the characteristic function, and nodal points as
zeros of the first solution component.

Search strategy per index n: seed at the closed-form asymptote, scan a
window of half-width 0.45 (eigenvalues sit asymptotically 1 apart, so the
window isolates one root), demand exactly one sign change, then shrink the
bracket with a safeguarded Illinois (modified regula falsi) update.
All n are advanced together so every update costs one batched
characteristic-function evaluation, over the brackets still open.

Nodes are grid sign changes of phi1 refined by the same bracketed update;
each refinement query re-integrates the last grid cell with a short
fixed-step RK4 whose memory forcing is interpolated from the stored
Volterra samples, so the kernel is never re-evaluated during refinement.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import asymptotic_constants, lambda_asym
from .errors import AmbiguityError, BracketingError, ResolutionError
from .forward import (
    DEFAULT_GUARD,
    char_fn_normalized,
    resolution_points,
    solve_batch,
)
from .problem import derived_integrals, ensure_valid

DEFAULT_N_MIN = 5
SCAN_HALF_WIDTH = 0.45
SCAN_POINTS = 12
NODE_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Map n -> lambda_n with root-finding diagnostics.

    offset = (beta - theta)/pi enters the sanity corridor
    |lambda_n - n - offset| <= 1 enforced on construction.
    """

    entries: dict
    residuals: dict
    brackets: dict
    offset: float = 0.0

    def __post_init__(self):
        ns = sorted(self.entries)
        lams = [self.entries[n] for n in ns]
        for a, b in zip(lams, lams[1:]):
            if not a < b:
                raise ValueError("eigenvalues must be strictly increasing in n")
        for n in ns:
            if abs(self.entries[n] - n - self.offset) > 1.0:
                raise ValueError(
                    f"lambda_{n} = {self.entries[n]:.6g} outside the corridor "
                    f"n + {self.offset:.4g} +- 1"
                )

    @property
    def indices(self):
        return sorted(self.entries)

    def rows(self):
        return [(n, self.entries[n], self.residuals[n]) for n in self.indices]


@dataclass(frozen=True)
class NodalData:
    """Map n -> ascending node positions in the open interval (0, pi)."""

    nodes: dict
    source: str = "numeric"
    failures: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.source not in ("numeric", "synthetic"):
            raise ValueError(f"source must be numeric or synthetic, got {self.source!r}")
        for n, xs in self.nodes.items():
            xs = np.asarray(xs, dtype=float)
            if xs.size and not (np.all(np.diff(xs) > 0)):
                raise ValueError(f"node list for n = {n} not strictly increasing")
            if xs.size and not (xs[0] > 0.0 and xs[-1] < math.pi):
                raise ValueError(f"node list for n = {n} leaves (0, pi)")

    @property
    def indices(self):
        return sorted(self.nodes)

    def rows(self):
        for n in self.indices:
            for j, x in enumerate(self.nodes[n]):
                yield n, j, float(x)


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


def _scan_and_refine(problem, n_range, tol, points, guard, n_min):
    """Shared engine: argument checks, per-n window scan, sign-change audit,
    joint bracketed refinement to width tol/4.

    Returns (found: dict n -> (lam, residual, bracket), failures: dict, n_steps).
    """
    ensure_valid(problem)
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if n_lo < n_min:
        raise ValueError(f"eigenvalue indexing starts at n = {n_min} (got {n_lo})")
    if n_hi < n_lo:
        raise ValueError(f"bad index range [{n_lo}, {n_hi}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    ns = list(range(n_lo, n_hi + 1))
    ints = derived_integrals(problem)
    consts = asymptotic_constants(problem, integrals=ints)
    seeds = np.array([lambda_asym(problem, n, constants=consts) for n in ns])
    n_steps = points if points is not None else resolution_points(
        float(np.max(np.abs(seeds))) + SCAN_HALF_WIDTH, guard=guard
    )

    offsets = np.linspace(-SCAN_HALF_WIDTH, SCAN_HALF_WIDTH, SCAN_POINTS)
    grid = (seeds[:, None] + offsets[None, :]).ravel()
    vals = char_fn_normalized(problem, grid, points=n_steps, validated=True).reshape(
        len(ns), SCAN_POINTS
    )

    failures = {}
    keep = []  # (row, cell) of every window with exactly one sign change
    for k, n in enumerate(ns):
        v = vals[k]
        sign = np.where(v >= 0, 1.0, -1.0)
        cells = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        if cells.size == 0:
            failures[n] = BracketingError(
                f"no sign change of the normalized characteristic function in "
                f"[{seeds[k]-SCAN_HALF_WIDTH:.6g}, {seeds[k]+SCAN_HALF_WIDTH:.6g}] for n = {n}",
                index=n,
                scan_points=(seeds[k] + offsets).tolist(),
                scan_values=v.tolist(),
            )
            continue
        if cells.size > 1:
            cands = []
            for c in cells:
                a, b = seeds[k] + offsets[c], seeds[k] + offsets[c + 1]
                cands.append(a + (b - a) * v[c] / (v[c] - v[c + 1]))
            failures[n] = AmbiguityError(
                f"{cells.size} sign changes in the scan window for n = {n}; "
                f"candidate roots {', '.join(f'{c:.6g}' for c in cands)}"
            )
            continue
        keep.append((k, int(cells[0])))

    found = {}
    if keep:
        rows, c = np.array(keep).T
        lo, hi, root, froot = _bracketed_roots(
            lambda lam, idx: char_fn_normalized(problem, lam, points=n_steps, validated=True),
            seeds[rows] + offsets[c], seeds[rows] + offsets[c + 1],
            vals[rows, c], vals[rows, c + 1], tol / 4.0,
        )
        for k, row in enumerate(rows):
            scale = max(1.0, root[k] * root[k])
            found[ns[row]] = (
                float(root[k]), abs(float(froot[k])) * scale, (float(lo[k]), float(hi[k]))
            )
    return found, failures, n_steps


def compute_spectrum(problem, n_range, tol=1e-9, points=None, guard=DEFAULT_GUARD,
                     n_min=DEFAULT_N_MIN):
    """Eigenvalues for every n in the inclusive range; any per-n search
    failure is raised immediately (use nodal_data for collect-and-continue)."""
    found, failures, _ = _scan_and_refine(problem, n_range, tol, points, guard, n_min)
    if failures:
        raise failures[min(failures)]
    offset = (problem.bc.beta - problem.bc.theta) / math.pi
    return Spectrum(
        entries={n: lam for n, (lam, _, _) in found.items()},
        residuals={n: res for n, (_, res, _) in found.items()},
        brackets={n: bracket for n, (_, _, bracket) in found.items()},
        offset=offset,
    )


def find_eigenvalue(problem, n, tol=1e-9, points=None, guard=DEFAULT_GUARD,
                    n_min=DEFAULT_N_MIN):
    """(lambda_n, |Delta(lambda_n)|) for a single index."""
    spec = compute_spectrum(problem, (n, n), tol=tol, points=points, guard=guard, n_min=n_min)
    return spec.entries[int(n)], spec.residuals[int(n)]


# ---------------------------------------------------------------------------
# nodes


def _refine_nodes(problem, sol, cols, cells):
    """Bracketed refinement of phi1 zeros inside grid cells to NODE_TOL,
    re-integrating the cell with RK4 substeps and linearly interpolated
    memory forcing.

    cols, cells: parallel int arrays naming (lambda column, left node index).
    Returns refined positions, same length.
    """
    h = sol.step
    V = problem.coeffs.V
    m = problem.coeffs.m
    lam = sol.lam[cols]
    xL = sol.grid[cells]
    YL = sol.Y[:, cells, cols]
    ML = sol.M[:, cells, cols]
    MR = sol.M[:, cells + 1, cols]

    def phi1_at(xq, idx):
        """phi1(xq) by 4 RK4 substeps from the left node of cells[idx]."""
        x0, lam_i, ML_i, MR_i = xL[idx], lam[idx], ML[:, idx], MR[:, idx]

        def deriv(t, y):
            v = np.asarray(V(t), dtype=float)
            M = ML_i + (MR_i - ML_i) * ((t - x0) / h)
            return np.stack([((v - m) - lam_i) * y[1] + M[1], (lam_i - (v + m)) * y[0] - M[0]])

        hq = (xq - x0) / 4
        y, t = YL[:, idx], x0
        for _ in range(4):
            k1 = deriv(t, y)
            k2 = deriv(t + 0.5 * hq, y + 0.5 * hq * k1)
            k3 = deriv(t + 0.5 * hq, y + 0.5 * hq * k2)
            k4 = deriv(t + hq, y + hq * k3)
            y, t = y + (hq / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), t + hq
        return y[0]

    return _bracketed_roots(phi1_at, xL, xL + h, YL[0], phi1_at(xL + h, slice(None)), NODE_TOL)[2]


def _nodes_from_solution(problem, sol):
    """Per-column refined node lists; raises ResolutionError when two sign
    changes land in adjacent cells (spacing < 2h cannot be trusted)."""
    h = sol.step
    n_cols = sol.Y.shape[2]
    all_cols, all_cells = [], []
    per_col_cells = []
    for b in range(n_cols):
        y1 = sol.Y[0, :, b]
        sign = np.where(y1 >= 0, 1.0, -1.0)
        cells = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        if cells.size >= 2 and np.min(np.diff(cells)) < 2:
            raise ResolutionError(
                f"adjacent grid cells both carry sign changes of phi1 at "
                f"lambda = {sol.lam[b]:.6g}; node spacing < 2h",
                required_points=2 * (sol.grid.size - 1),
            )
        per_col_cells.append(cells)
        all_cols.extend([b] * cells.size)
        all_cells.extend(cells.tolist())

    refined = np.empty(0)
    if all_cols:
        refined = _refine_nodes(
            problem, sol, np.asarray(all_cols, int), np.asarray(all_cells, int)
        )
    out = []
    pos = 0
    for b in range(n_cols):
        k = per_col_cells[b].size
        vals = np.sort(refined[pos : pos + k])
        pos += k
        vals = vals[(vals > h) & (vals < math.pi - h)]
        out.append(vals)
    return out


def find_nodes(problem, lambda_n, points=None, guard=DEFAULT_GUARD):
    """Ascending interior zeros of phi1(., lambda_n), refined to 1e-12."""
    ensure_valid(problem)
    sol = solve_batch(problem, [float(lambda_n)], points=points, guard=guard, validated=True)
    return _nodes_from_solution(problem, sol)[0]


def nodal_data(problem, n_range, tol=1e-9, points=None, guard=DEFAULT_GUARD,
               n_min=DEFAULT_N_MIN):
    """Numeric NodalData over the inclusive index range.

    Per-n search failures (bracketing, ambiguity, resolution) are recorded
    in .failures instead of aborting the batch.
    """
    found, failures, n_steps = _scan_and_refine(problem, n_range, tol, points, guard, n_min)
    failures = {n: f"{type(e).__name__}: {e}" for n, e in failures.items()}
    nodes = {}
    if found:
        order = sorted(found)
        lams = np.array([found[n][0] for n in order])
        sol = solve_batch(problem, lams, points=n_steps, guard=guard, validated=True)
        try:
            lists = _nodes_from_solution(problem, sol)
        except ResolutionError:
            # retry per-n so one under-resolved trajectory cannot sink the batch
            lists = []
            for k, n in enumerate(order):
                try:
                    single = solve_batch(
                        problem, [lams[k]], points=n_steps, guard=guard, validated=True
                    )
                    lists.append(_nodes_from_solution(problem, single)[0])
                except ResolutionError as e:
                    failures[n] = f"ResolutionError: {e}"
                    lists.append(None)
        for k, n in enumerate(order):
            if lists[k] is not None:
                nodes[n] = lists[k]
    return NodalData(nodes=nodes, source="numeric", failures=failures)
