"""Eigenvalues as zeros of the characteristic function, and nodal points as
zeros of the first solution component.

Search strategy per index n: seed at the closed-form asymptote, scan a
window of half-width 0.45 (eigenvalues sit asymptotically 1 apart, so the
window isolates one root), demand exactly one sign change, then shrink the
bracket with a safeguarded Illinois (modified regula falsi) update.
All n are advanced together so every update costs one batched
characteristic-function evaluation, over the brackets still open.

The search evaluates no lambda beyond max|seed| + SCAN_HALF_WIDTH, so its
grid's composed maps are multiplied out only to the degree that bound
reaches (grid_maps(..., lam_bound=...)).

Nodes are grid sign changes of phi1, found block by block while the
trajectory solve runs (solve_batch(..., crossings=True)), and refined by
the same bracketed update; each refinement query is one stage-form RK4
step of the forward solver's scheme (forward._single_steps) from the exact
augmented state (solution pair and memory states) kept at the cell's left
node.  No trajectory is stored, and refinement builds no step maps.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import lambda_asym
from .errors import AmbiguityError, BracketingError, ResolutionError
from .forward import (
    AugmentedSystem, _single_steps, char_fn_normalized, grid_maps, resolution_points, solve_batch,
)

N_MIN = 5
SCAN_HALF_WIDTH = 0.45
SCAN_POINTS = 12
NODE_TOL = 1e-12
# crossings refined at once: bounds refinement's arrays at large n_max
# (about 500,000 crossings at n_max = 1000) while the searches up to
# n_max = 120 (about 7,100) refine in one piece
_REFINE_CHUNK = 16384


def _corridor_miss(n, lam, offset):
    """Why lambda_n = lam leaves the sanity corridor |lambda_n - n - offset|
    <= 1, offset = (beta - theta)/pi; None when it does not."""
    if abs(lam - n - offset) > 1.0:
        return f"lambda_{n} = {lam:.6g} outside the corridor n + {offset:.4g} +- 1"
    return None


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
            miss = _corridor_miss(n, self.entries[n], self.offset)
            if miss:
                raise ValueError(miss)

    @property
    def indices(self):
        return sorted(self.entries)

    def rows(self):
        return [(n, self.entries[n], self.residuals[n]) for n in self.indices]


@dataclass(frozen=True)
class NodalData:
    """Map n -> ascending node positions in the open interval (0, pi), and
    for numeric data the eigenvalues and final brackets the search found."""

    nodes: dict
    source: str = "numeric"
    failures: dict = field(default_factory=dict)
    eigenvalues: dict = field(default_factory=dict)
    brackets: dict = field(default_factory=dict)

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


def _scan_and_refine(problem, n_range, tol, points):
    """Shared engine: argument checks, per-n window scan, sign-change audit,
    joint bracketed refinement to width tol/4, corridor check.  The grid's
    step maps are built once and serve every batched evaluation.  A root
    outside the corridor (see Spectrum) is that n's AmbiguityError: its
    index is not certain.

    Returns (spectrum, failures, maps): the Spectrum of the n found, the
    failures by n, and the GridMaps of the grid searched on, without the
    composed maps that only the search's endpoint solves use.
    """
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if n_lo < N_MIN:
        raise ValueError(f"eigenvalue indexing starts at n = {N_MIN} (got {n_lo})")
    if n_hi < n_lo:
        raise ValueError(f"bad index range [{n_lo}, {n_hi}]")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    ns = list(range(n_lo, n_hi + 1))
    seeds = lambda_asym(problem, np.array(ns))
    lam_bound = float(np.max(np.abs(seeds))) + SCAN_HALF_WIDTH  # every lambda the search evaluates
    n_steps = points if points is not None else resolution_points(lam_bound)
    maps = grid_maps(problem, n_steps, lam_bound=lam_bound)

    offsets = np.linspace(-SCAN_HALF_WIDTH, SCAN_HALF_WIDTH, SCAN_POINTS)
    grid = (seeds[:, None] + offsets[None, :]).ravel()
    vals = char_fn_normalized(problem, grid, points=n_steps, maps=maps).reshape(
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

    entries, residuals, brackets = {}, {}, {}
    offset = (problem.bc.beta - problem.bc.theta) / math.pi
    if keep:
        rows, c = np.array(keep).T
        lo, hi, root, froot = _bracketed_roots(
            lambda lam, idx: char_fn_normalized(problem, lam, points=n_steps, maps=maps),
            seeds[rows] + offsets[c], seeds[rows] + offsets[c + 1],
            vals[rows, c], vals[rows, c + 1], tol / 4.0,
        )
        for k, row in enumerate(rows):
            n, lam = ns[row], float(root[k])
            miss = _corridor_miss(n, lam, offset)
            if miss:
                failures[n] = AmbiguityError(miss)
                continue
            scale = max(1.0, root[k] * root[k])
            entries[n], residuals[n] = lam, abs(float(froot[k])) * scale
            brackets[n] = (float(lo[k]), float(hi[k]))
    return Spectrum(entries, residuals, brackets, offset), failures, maps.without_spans()


def compute_spectrum(problem, n_range, tol=1e-9, points=None):
    """Eigenvalues for every n in the inclusive range; any per-n search
    failure is raised immediately (use nodal_data for collect-and-continue)."""
    spectrum, failures, _ = _scan_and_refine(problem, n_range, tol, points)
    if failures:
        raise failures[min(failures)]
    return spectrum


def find_eigenvalue(problem, n, tol=1e-9, points=None):
    """(lambda_n, |Delta(lambda_n)|) for a single index."""
    spec = compute_spectrum(problem, (n, n), tol=tol, points=points)
    return spec.entries[int(n)], spec.residuals[int(n)]


# ---------------------------------------------------------------------------
# nodes


def _refine_nodes(problem, found, keep):
    """Bracketed refinement to NODE_TOL of the phi1 zeros in the cells of the
    crossings found[keep] (a Crossings and a boolean mask over them); each
    query is one stage-form RK4 step from the exact augmented state at the
    cell's left node.  The crossings are refined _REFINE_CHUNK at a time;
    each bracket shrinks on its own, so the chunks change no result.
    Returns the refined positions, in order."""
    system, h = AugmentedSystem(problem), found.step
    picked = np.flatnonzero(keep)
    roots = np.empty(picked.size)
    for lo in range(0, picked.size, _REFINE_CHUNK):
        sel = picked[lo : lo + _REFINE_CHUNK]
        lam, xL, ZL = found.lam[found.cols[sel]], found.cells[sel] * h, found.Z[:, sel]

        def phi1_at(xq, idx):
            """phi1(xq) by one step from the left node of crossing idx."""
            return _single_steps(system, ZL[:, idx], lam[idx], xL[idx], xq)[0]

        right = phi1_at(xL + h, slice(None))
        roots[lo : lo + sel.size] = _bracketed_roots(phi1_at, xL, xL + h, ZL[0], right, NODE_TOL)[2]
    return roots


def _nodes_from_crossings(problem, found):
    """Per-column refined node lists from a Crossings.  A column whose phi1
    changes sign in two adjacent cells (node spacing < 2h cannot be trusted)
    comes back as a ResolutionError in place of its list; the other columns
    are refined."""
    h = found.step
    keep = ~found.adjacent[found.cols]
    refined = _refine_nodes(problem, found, keep) if keep.any() else np.empty(0)
    cols = found.cols[keep]
    out = []
    for b, lam in enumerate(found.lam):
        if found.adjacent[b]:
            out.append(ResolutionError(
                f"adjacent grid cells both carry sign changes of phi1 at "
                f"lambda = {lam:.6g}; node spacing < 2h",
                required_points=2 * found.points,
            ))
            continue
        vals = np.sort(refined[cols == b])
        out.append(vals[(vals > h) & (vals < math.pi - h)])
    return out


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
    spectrum, failures, maps = _scan_and_refine(problem, n_range, tol, points)
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
                     eigenvalues=spectrum.entries, brackets=spectrum.brackets)
