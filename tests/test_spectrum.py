import copy
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import chebyshev

import nodalrec.forward as forward
import nodalrec.spectrum as spectrum
from nodalrec.asymptotics import asymptotic_constants
from nodalrec.errors import AmbiguityError, BracketingError, ResolutionError
from nodalrec.fixtures import DOCUMENTS, constant_mass_problem
from nodalrec.forward import solve_batch
from nodalrec.io import read_nodal_csv, write_nodal_csv
from nodalrec.spectrum import (
    NODE_TOL,
    NodalData,
    Spectrum,
    _bracketed_roots,
    _slopes,
    _window_roots,
    compute_spectrum,
    find_eigenvalue,
    find_nodes,
    nodal_data,
)

from nodalrec.problem import problem_from_mapping

import _rk4_oracle
from _bullets import covers
from conftest import CORRIDOR_DOC, sup, trajectory


@covers("spectrum.delta-residual-bound")
def test_residual_bound_free(free_spectrum_fine):
    # the root search ran at tol = 1e-11 on |Delta| / max(1, lam^2); the
    # stored residual is the raw |Delta(lambda_n)|
    for n, lam, res in free_spectrum_fine.rows():
        assert res <= 1e-11 * max(1.0, lam * lam)
        assert abs(lam - n) <= 1e-10


def test_residual_bound_worked(worked_spectrum_3060):
    for _, lam, res in worked_spectrum_3060.rows():
        assert res <= 1e-9 * max(1.0, lam * lam)


def test_eigenvalues_strictly_increasing(worked_spectrum_3060):
    lams = [worked_spectrum_3060.entries[n] for n in worked_spectrum_3060.indices]
    gaps = np.diff(lams)
    assert np.all(gaps > 0.9)
    assert np.all(gaps < 1.1)


def test_find_eigenvalue_matches_batch(worked_problem, worked_spectrum_3060):
    # the single-index call sizes its grid for lam ~ 35, the batch for
    # lam ~ 61, so they agree to discretization error, not root-search width
    lam, res = find_eigenvalue(worked_problem, 35)
    assert abs(lam - worked_spectrum_3060.entries[35]) <= 5e-6
    assert res <= 1e-9 * lam * lam


@covers("spectrum.nodes-increasing-alternating")
def test_nodes_increasing_and_phi1_alternates(worked_problem):
    lam, _ = find_eigenvalue(worked_problem, 12)
    nodes = find_nodes(worked_problem, lam)
    assert np.all(np.diff(nodes) > 0)
    assert 0.0 < nodes[0] and nodes[-1] < math.pi
    traj = trajectory(worked_problem, lam)
    edges = np.concatenate(([0.0], nodes, [math.pi]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    idx = np.rint(mids / traj.step).astype(int)
    signs = np.sign(traj.phi1[idx])
    assert np.all(signs != 0)
    assert np.all(signs[:-1] * signs[1:] < 0)


def _predicted_count(problem, n):
    # leading node phase runs from theta to n pi + beta + C_hat / n, one
    # node per integer multiple of pi strictly inside
    C = asymptotic_constants(problem)
    upper = n * math.pi + problem.bc.beta + C / n
    return sum(1 for j in range(0, 2 * n + 2) if problem.bc.theta < j * math.pi < upper)


@covers("spectrum.node-count")
def test_node_count_free(free_prob, free_numeric_data):
    for n in free_numeric_data.indices:
        assert len(free_numeric_data.nodes[n]) == n - 1
        assert _predicted_count(free_prob, n) == n - 1
    assert not free_numeric_data.failures


def test_node_count_worked(worked_problem, worked_numeric_nodes):
    for n in worked_numeric_nodes.indices:
        assert len(worked_numeric_nodes.nodes[n]) == _predicted_count(worked_problem, n)


def test_node_count_cosine(cosine_problem, cosine_numeric_data):
    for n in cosine_numeric_data.indices:
        assert len(cosine_numeric_data.nodes[n]) == _predicted_count(cosine_problem, n)


def test_free_nodes_uniform(free_numeric_data):
    # exact free nodes sit at j pi / n
    for n in free_numeric_data.indices:
        want = np.array([j * math.pi / n for j in range(1, n)])
        assert sup(free_numeric_data.nodes[n], want) <= 1e-10


@covers("spectrum.corridor-cauchy")
def test_corridor_limit_is_C_hat(worked_problem, worked_spectrum_3060):
    # (lambda_n - n - (beta-theta)/pi) * n pi settles onto C_hat
    C_hat = asymptotic_constants(worked_problem)
    off = worked_spectrum_3060.offset
    vals = np.array(
        [
            (worked_spectrum_3060.entries[n] - n - off) * n * math.pi
            for n in worked_spectrum_3060.indices
        ]
    )
    top = vals[-16:]
    assert (top.max() - top.min()) <= 0.1 * abs(np.mean(top))
    assert abs(vals[-1] - C_hat) <= 0.01


def test_compute_spectrum_rejects_bad_ranges(free_prob):
    with pytest.raises(ValueError):
        compute_spectrum(free_prob, (3, 10))
    with pytest.raises(ValueError):
        compute_spectrum(free_prob, (10, 5))
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            compute_spectrum(free_prob, (5, 10), tol=tol)


def test_spectrum_container_guards():
    with pytest.raises(ValueError):
        Spectrum(entries={5: 6.5}, residuals={5: 0.0}, offset=0.0)
    with pytest.raises(ValueError):
        Spectrum(entries={5: 5.2, 6: 5.1}, residuals={5: 0.0, 6: 0.0}, offset=0.0)


def test_nodal_container_guards():
    with pytest.raises(ValueError):
        NodalData(nodes={5: np.array([0.5, 0.4])})
    with pytest.raises(ValueError):
        NodalData(nodes={5: np.array([0.5, math.pi])})
    with pytest.raises(ValueError):
        NodalData(nodes={5: np.array([0.5])}, source="guessed")


def _first_bad_list(nodes):
    """The ValueError message NodalData gives for nodes, or None, by an
    independent check of one list at a time in dict order."""
    for n, xs in nodes.items():
        xs = np.asarray(xs, dtype=float)
        with np.errstate(invalid="ignore"):  # inf - inf
            if xs.size and not np.all(np.diff(xs) > 0):
                return f"node list for n = {n} not strictly increasing"
        if xs.size and not (xs[0] > 0.0 and xs[-1] < math.pi):
            return f"node list for n = {n} leaves (0, pi)"
    return None


def _nodal_data_error(nodes):
    try:
        NodalData(nodes=nodes)
    except ValueError as exc:
        return str(exc)
    return None


def _dense_lists():
    """The node lists of n = 50..1000 (499,275 nodes), all of them valid."""
    return {n: math.pi * np.arange(1, n) / n for n in range(50, 1001)}


def test_nodal_container_names_the_first_bad_list():
    # the 951 lists of n = 50..1000 are checked one at a time; a bad list
    # among them is named by the order check before the bounds check, and
    # of two bad lists the first in dict order, whether they are neighbours
    # or far apart, short or longer than a writer's block
    nodes = _dense_lists()
    assert _nodal_data_error(nodes) is None
    long = math.pi * np.arange(1, 1 << 17) / (1 << 17)  # longer than a writer's block
    for edit in ({500: nodes[500][::-1]},
                 {500: nodes[500] + 0.01},
                 {500: np.append(-1.0, nodes[500][::-1])},  # both faults
                 {500: nodes[500] - 0.01, 600: nodes[600][::-1]},
                 {500: np.array([]), 501: np.array([math.nan]), 502: nodes[502][::-1]},
                 {1000: np.append(nodes[1000], math.pi)},
                 {60: nodes[60] + 0.05, 990: nodes[990][::-1]},  # far apart
                 {990: nodes[990][::-1], 60: nodes[60] + 0.05},
                 {700: nodes[700][::-1], 701: nodes[701] - 1.0},  # neighbours
                 {701: nodes[701][::-1], 700: nodes[700] - 1.0},
                 {1001: long, 999: nodes[999][::-1]},
                 {1001: np.append(long, long[-1]), 2000: nodes[999][::-1]},
                 {1001: np.insert(long, 100000, long[100000])}):
        message = _first_bad_list({**nodes, **edit})
        assert message is not None and _nodal_data_error({**nodes, **edit}) == message
    for first in ({0: np.insert(long, 100000, long[100000])}, {0: long, 1: long[::-1]}):
        message = _first_bad_list({**first, **nodes})
        assert message is not None and _nodal_data_error({**first, **nodes}) == message
    assert _nodal_data_error(dict(reversed({**nodes, 300: nodes[300][::-1],
                                            700: nodes[700] - 1.0}.items()))) == (
        "node list for n = 700 leaves (0, pi)")


def test_nodal_container_checks_without_copying_the_nodes():
    # the check holds the float64 lists it is given as they are and makes
    # temporaries of one list at a time: under 2 bytes a node on the dense
    # lists (a copy of all of them takes 8)
    nodes = _dense_lists()
    total = sum(xs.size for xs in nodes.values())
    NodalData(nodes=nodes)
    tracemalloc.start()
    try:
        NodalData(nodes=nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / total < 2, f"{peak / total:.2f} bytes per node"


_node_value = st.one_of(st.floats(-0.5, 3.5), st.sampled_from(
    [0.0, -0.0, math.pi, math.nan, math.inf, -math.inf, 5e-324, np.nextafter(math.pi, 0.0)]))


@given(st.dictionaries(st.integers(1, 60), st.tuples(st.lists(_node_value, max_size=6),
                                                     st.booleans()), max_size=8))
def test_nodal_container_checks_like_one_list_at_a_time(drawn):
    nodes = {n: np.sort(xs) if ordered else np.array(xs, dtype=float)
             for n, (xs, ordered) in drawn.items()}
    assert _nodal_data_error(nodes) == _first_bad_list(nodes)


def test_find_nodes_requires_resolution(worked_problem):
    with pytest.raises(ResolutionError):
        find_nodes(worked_problem, 40.0, points=64)


def test_tol_below_the_window_error_is_a_resolution_failure(cosine_problem):
    # no window's Chebyshev tail reaches tol / 4 = 2.5e-31: every n is a
    # ResolutionError, recorded per n by nodal_data and raised by
    # compute_spectrum
    data = nodal_data(cosine_problem, (20, 30), tol=1e-30)
    assert not data.nodes and sorted(data.failures) == list(range(20, 31))
    assert all(msg.startswith("ResolutionError: lambda_") and "above tol/4" in msg
               for msg in data.failures.values())
    with pytest.raises(ResolutionError, match="lambda_20 = .* above tol/4"):
        compute_spectrum(cosine_problem, (20, 30), tol=1e-30)


def test_nodal_data_rejects_bad_ranges(free_prob):
    with pytest.raises(ValueError):
        nodal_data(free_prob, (4, 10))
    with pytest.raises(ValueError):
        nodal_data(free_prob, (12, 10))
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            nodal_data(free_prob, (5, 10), tol=tol)


# ---------------------------------------------------------------------------
# nodes found while the trajectory solve runs


def _reference_nodes(problem, lams, points):
    """Per-column nodes by the former two-pass route: store every trajectory
    Z, scan each column for sign changes, refine from the stored states."""
    sol = solve_batch(problem, lams, points=points)
    h, out, cols, cells = sol.step, [], [], []
    for b, lam in enumerate(sol.lam):
        sign = np.where(sol.Y[0, :, b] >= 0, 1.0, -1.0)
        c = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        out.append(c.size >= 2 and np.min(np.diff(c)) < 2)
        if not out[-1]:
            cols.extend([b] * c.size)
            cells.extend(c.tolist())
    cols, cells = np.asarray(cols, int), np.asarray(cells, int)
    system, lam, xL, ZL = (forward.AugmentedSystem(problem), sol.lam[cols], sol.grid[cells],
                           sol.Z[:, cells, cols])

    def phi1_at(xq, idx):
        return forward._single_steps(system, ZL[:, idx], lam[idx], xL[idx], xq)[0]

    refined = _bracketed_roots(phi1_at, xL, xL + h, ZL[0], phi1_at(xL + h, slice(None)),
                               NODE_TOL)[2]
    for b, failed in enumerate(out):
        vals = np.sort(refined[cols == b])
        out[b] = None if failed else vals[(vals > h) & (vals < math.pi - h)]
    return out


@pytest.mark.parametrize("which", ["cosine", "mass"])
def test_streamed_nodes_equal_stored_trajectory_scan(which, cosine_problem):
    # a full block and a partial one of 1000 steps, each handed to the scan
    # in slices of _SLICE = 128 steps, the last of 104
    problem = {"cosine": cosine_problem, "mass": constant_mass_problem()}[which]
    points = forward._BLOCK + 1000
    data = nodal_data(problem, (20, 40), points=points)
    assert data.indices == list(range(20, 41)) and not data.failures
    lams = [data.eigenvalues[n] for n in data.indices]
    for n, ref in zip(data.indices, _reference_nodes(problem, lams, points)):
        assert np.array_equal(data.nodes[n], ref), n


def test_node_refinement_in_chunks_changes_no_node(cosine_problem, cosine_numeric_data,
                                                   monkeypatch):
    # refinement takes the crossings _REFINE_CHUNK at a time and each bracket
    # shrinks on its own: the search up to n = 120 refines its crossings in
    # more than one chunk of the default size, and chunks of 1000 crossings
    # (the last one short) give its nodes bit for bit
    kept, refine, chunk = [], spectrum._nodes_from_crossings, spectrum._REFINE_CHUNK
    monkeypatch.setattr(spectrum, "_nodes_from_crossings", lambda problem, found: kept.append(
        int((~found.adjacent[found.cols]).sum())) or refine(problem, found))
    monkeypatch.setattr(spectrum, "_REFINE_CHUNK", 1000)
    data = nodal_data(cosine_problem, (20, 120))
    assert len(kept) == 1 and kept[0] > chunk and kept[0] % 1000
    assert data.indices == cosine_numeric_data.indices and not data.failures
    for n in data.indices:
        assert np.array_equal(data.nodes[n], cosine_numeric_data.nodes[n]), n


def test_node_refinement_memory_does_not_grow_with_n_max(cosine_problem, monkeypatch):
    # the chunk bounds refinement's arrays: its traced peak on the 80,000
    # crossings of cosine n = 20..400 stays within twice its peak on the
    # 7,000 of n = 20..120 (measured 4.6 and 3.5 MiB)
    peaks, refine = [], spectrum._nodes_from_crossings

    def traced(problem, found):
        tracemalloc.start()
        try:
            out = refine(problem, found)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(spectrum, "_nodes_from_crossings", traced)
    for n_max in (120, 400):
        assert not nodal_data(cosine_problem, (20, n_max)).failures
    assert peaks[1] <= 2.0 * peaks[0], peaks


def _plant_adjacent_sign_changes(monkeypatch, b, k):
    """Flip phi1 of column b at grid node k in the block states that the
    crossing scan receives, so cells k - 1 and k both carry sign changes;
    the solution carried from step to step is untouched."""
    scan = forward._CrossingScan.__call__

    def planted(self, first, states):
        if 0 <= k - first < states.shape[1]:
            states[0, k - first, b] = -states[0, k - first, b]
        return scan(self, first, states)

    monkeypatch.setattr(forward._CrossingScan, "__call__", planted)


def _peak_node(problem, lams, points, b):
    """The interior grid node where |phi1| of column b peaks."""
    phi1 = solve_batch(problem, lams, points=points).Y[0, :, b]
    return int(np.argmax(np.abs(phi1[1:-1]))) + 1


def _streamed_nodes(problem, lams, points):
    return spectrum._nodes_from_crossings(
        problem, solve_batch(problem, lams, points=points, crossings=True))


def test_adjacent_sign_changes_fail_only_their_column(free_prob, monkeypatch):
    lams = [5.0, 6.0, 7.0]
    clean = _streamed_nodes(free_prob, lams, 1024)
    assert [xs.size for xs in clean] == [4, 5, 6]
    _plant_adjacent_sign_changes(monkeypatch, 1, _peak_node(free_prob, lams, 1024, 1))
    out = _streamed_nodes(free_prob, lams, 1024)
    assert isinstance(out[1], ResolutionError)
    assert out[1].required_points == 2048
    assert "lambda = 6;" in str(out[1])
    for b in (0, 2):
        assert np.array_equal(out[b], clean[b])


def test_find_nodes_raises_on_adjacent_sign_changes(free_prob, monkeypatch):
    # find_nodes raises the ResolutionError that the node lists return for
    # a column with adjacent sign changes
    _plant_adjacent_sign_changes(monkeypatch, 0, _peak_node(free_prob, [6.0], 1024, 0))
    with pytest.raises(ResolutionError, match="lambda = 6;") as info:
        find_nodes(free_prob, 6.0, points=1024)
    assert info.value.required_points == 2048


def test_adjacent_sign_changes_across_a_block_boundary(free_prob, monkeypatch):
    # node k closes one slice of states that the crossing scan receives and
    # opens the next (at k = _BLOCK also one block of maps and the next), so
    # cell k - 1 is the first slice's last and cell k the second's first
    lams = [5.0, 6.0, 7.0]
    scan = forward._CrossingScan.__call__
    for points, k in ((1000, forward._SLICE), (2000, forward._BLOCK)):
        monkeypatch.setattr(forward._CrossingScan, "__call__", scan)
        phi1 = solve_batch(free_prob, lams, points=points).Y[0, k - 1 : k + 2]
        assert (np.abs(np.diff(np.sign(phi1), axis=0)).sum(axis=0) == 0).all()
        clean = _streamed_nodes(free_prob, lams, points)
        _plant_adjacent_sign_changes(monkeypatch, 2, k)
        firsts, planted = [], forward._CrossingScan.__call__
        monkeypatch.setattr(forward._CrossingScan, "__call__", lambda self, first, states:
                            firsts.append(first) or planted(self, first, states))
        out = _streamed_nodes(free_prob, lams, points)
        assert k in firsts  # a slice starts at node k
        assert isinstance(out[2], ResolutionError)
        assert out[2].required_points == 2 * points
        assert "lambda = 7;" in str(out[2])
        for b in (0, 1):
            assert np.array_equal(out[b], clean[b])


def test_nodal_data_records_underresolved_column(free_prob, monkeypatch):
    clean = nodal_data(free_prob, (5, 8))
    sizes = []
    original = spectrum.solve_batch

    def planted(problem, lam, points=None, *, maps=None, crossings=False):
        sizes.append(len(lam))
        _plant_adjacent_sign_changes(monkeypatch, 2, _peak_node(problem, lam, points, 2))
        return original(problem, lam, points=points, maps=maps, crossings=crossings)

    monkeypatch.setattr(spectrum, "solve_batch", planted)
    data = nodal_data(free_prob, (5, 8))
    assert sizes == [4]  # one batched solve, no per-n re-solve
    assert list(data.failures) == [7]
    assert data.failures[7].startswith("ResolutionError: adjacent grid cells")
    assert data.indices == [5, 6, 8]
    for n in data.indices:
        assert np.array_equal(data.nodes[n], clean.nodes[n])


# ---------------------------------------------------------------------------
# bracketed root finder


def _bisection_steps(a, b, width):
    return max(1, math.ceil(math.log2((b - a) / width)))


def test_bracketed_roots_mixed_batch():
    width = 1e-10
    half = 17  # bisection needs 34 or 35 steps on these brackets
    # (function, bracket, known root, evaluation budget): simple roots,
    # including the regula falsi stall x^10 - 1, take at most half the
    # bisection count; a cubic whose root sits in its flat part takes at
    # most the bisection count; an exact zero at the first iterate closes
    # at once, as do a zero 1e-13 inside the bracket and one at its end; at
    # a triple root and at a lopsided jump regula falsi stalls and every
    # third step is a midpoint step, the worst case the safeguard allows
    cases = [
        (lambda x: 2.0 * x - 0.6, (0.0, 1.0), 0.3, half),
        (math.sin, (2.0, 4.0), math.pi, half),
        (lambda x: math.tanh(50.0 * x), (-1.0, 2.0), 0.0, half),
        (lambda x: x**10 - 1.0, (0.0, 1.3), 1.0, half),
        (lambda x: x**3 - 1e-3, (0.0, 1.0), 0.1, 2 * half),
        (lambda x: x - 0.5, (0.0, 1.0), 0.5, 1),
        (lambda x: x - 1e-13, (0.0, 1.0), 1e-13, 1),
        (lambda x: 1.0 - x, (1.0, 2.0), 1.0, 0),
        (lambda x: (x - 0.7) ** 3, (0.0, 1.0), 0.7, 6 * half),
        (lambda x: -1.0 if x < 0.3 else 1e6, (0.0, 1.0), 0.3, 6 * half),
    ]
    evals = np.zeros(len(cases), dtype=int)

    def f(x, idx):
        np.add.at(evals, idx, 1)
        return np.array([cases[i][0](xi) for xi, i in zip(x, idx)])

    a0 = np.array([c[1][0] for c in cases])
    b0 = np.array([c[1][1] for c in cases])
    fa0 = np.array([c[0](x) for c, x in zip(cases, a0)])
    fb0 = np.array([c[0](x) for c, x in zip(cases, b0)])
    a, b, root, froot = _bracketed_roots(f, a0, b0, fa0, fb0, width)
    for k, (fn, _, want, budget) in enumerate(cases):
        assert b[k] - a[k] <= width
        assert a[k] <= want <= b[k]
        assert fn(a[k]) * fn(b[k]) <= 0.0
        assert root[k] in (a[k], b[k])
        assert froot[k] == fn(root[k])
        assert abs(froot[k]) == min(abs(fn(a[k])), abs(fn(b[k])))
        assert evals[k] <= budget


def test_bracketed_roots_stop_at_float_resolution():
    # a width below the float spacing must still terminate, at a bracket
    # of adjacent or next-to-adjacent floats around the root
    a, b, root, _ = _bracketed_roots(
        lambda x, idx: np.sin(x), [3.0], [4.0], [math.sin(3.0)], [math.sin(4.0)], 0.0
    )
    assert 0.0 < b[0] - a[0] <= 2.0 * np.spacing(4.0)
    assert math.sin(a[0]) > 0.0 > math.sin(b[0])
    assert abs(root[0] - math.pi) <= 2.0 * np.spacing(math.pi)


# ---------------------------------------------------------------------------
# real roots of a window's Chebyshev series


def test_window_roots_of_known_series():
    # one batch of series in T_0..T_15: samples of known functions at the
    # 16 first-kind points, and exact coefficient lists padded with zeros,
    # whose trailing zeros are trimmed before the colleague matrix is built
    # (a division by zero would be a RuntimeWarning, an error here)
    nodes, to_coeffs = forward._chebyshev(16)
    u = 2.0 * nodes / math.pi - 1.0

    def exact(*c):
        return np.pad(np.array(c, dtype=float), (0, 16 - len(c)))

    even = to_coeffs @ np.cos(2.0 * u)
    even[1::2] = 0.0  # an even function: its odd coefficients, c_15 the last, are 0
    cases = [
        (to_coeffs @ (np.exp(u) - 1.5), [math.log(1.5)]),  # one simple root
        (to_coeffs @ (np.cos(2.0 * u) - 0.5), [-math.pi / 6, math.pi / 6]),  # two roots
        (to_coeffs @ (np.exp(u) + 0.5), []),  # no root
        (exact(2.0, 1.0), []),  # the root -2 outside [-1, 1]
        (exact(0.75, 0.0, 0.5), []),  # u^2 + 0.25: only a complex pair
        (exact(-1.0, 1.0), [1.0]),  # u - 1: a root at the end u = 1
        (to_coeffs @ ((u + 1.0) * np.exp(u)), [-1.0]),  # a root at u = -1
        (even, [-math.pi / 4, math.pi / 4]),  # leading coefficient exactly 0
        (exact(-0.25 + 0.5, 0.0, 0.5), [-0.5, 0.5]),  # u^2 - 0.25, degree 2
        (exact(1.0), []),  # a constant
    ]
    roots = _window_roots(np.stack([c for c, _ in cases], axis=1))
    assert len(roots) == len(cases)
    for got, (_, want) in zip(roots, cases):
        assert got.size == len(want)
        assert np.all(np.abs(got - want) <= 1e-13), (got, want)


def test_window_slopes_match_numpy_chebyshev():
    # the derivative of each column's series at its own point, the ends
    # u = +-1 included, against numpy's Chebyshev derivative
    coeffs = np.random.default_rng(3).normal(size=(16, 5))
    at = np.array([-1.0, -0.4, 0.0, 0.7, 1.0])
    want = chebyshev.chebval(at, chebyshev.chebder(coeffs), tensor=False)
    assert np.all(np.abs(_slopes(coeffs, at) - want) <= 1e-12 * np.abs(want).max())


# ---------------------------------------------------------------------------
# guards on the eigenvalue search


def test_search_makes_one_delta_evaluation(worked_problem, worked_spectrum_3060, monkeypatch):
    # compute_spectrum and nodal_data each evaluate the characteristic
    # function once, in one batch over the Chebyshev points of every window
    calls = []
    normalized, endpoints = spectrum.char_fn_normalized, forward.endpoint_states
    monkeypatch.setattr(spectrum, "char_fn_normalized",
                        lambda *a, **k: calls.append("normalized") or normalized(*a, **k))
    monkeypatch.setattr(forward, "endpoint_states",
                        lambda *a, **k: calls.append("endpoints") or endpoints(*a, **k))
    spec = compute_spectrum(worked_problem, (30, 60))
    assert calls == ["normalized", "endpoints"]
    assert spec.entries == worked_spectrum_3060.entries
    calls.clear()
    data = nodal_data(worked_problem, (30, 60))
    assert calls == ["normalized", "endpoints"]
    assert data.eigenvalues == spec.entries


@pytest.mark.parametrize("which, n_range", [("cosine", (20, 30)), ("general", (8, 12))])
def test_eigenvalues_lie_in_sign_changes_of_stage_form_rk4(which, n_range, cosine_problem,
                                                          exp_kernel_problem):
    # tol bounds the distance of lambda_n from a root of the discrete
    # characteristic function by tol / 4: stage-form RK4 on the same grid
    # (_rk4_oracle, which shares no code with the search) changes sign
    # between lambda_n - tol / 4 and lambda_n + tol / 4
    problem = {"cosine": cosine_problem, "general": exp_kernel_problem}[which]
    tol, points = 1e-9, 768
    spec = compute_spectrum(problem, n_range, tol=tol, points=points)
    assert spec.indices == list(range(n_range[0], n_range[1] + 1))
    lams = np.array([spec.entries[n] for n in spec.indices])
    below = _rk4_oracle.char_fn(problem, lams - tol / 4.0, points)
    above = _rk4_oracle.char_fn(problem, lams + tol / 4.0, points)
    assert np.all(below * above < 0)


def test_search_builds_grid_maps_once(worked_problem, monkeypatch):
    # the search grid's step maps are built once, _BLOCK steps at a time:
    # compute_spectrum builds each block inside its one evaluation and drops
    # it there, and nodal_data keeps them (grid_maps) for its search and its
    # trajectory solve; node refinement steps each query in stage form and
    # builds no maps at all
    grid = []
    original = forward._step_maps

    def counted(system, x0, x1, h):
        grid.append(x0.size)
        return original(system, x0, x1, h)

    monkeypatch.setattr(forward, "_step_maps", counted)
    blocks = [forward._BLOCK] * 2 + [104]  # two full blocks and a partial one
    compute_spectrum(worked_problem, (20, 30), points=sum(blocks))
    assert grid == blocks
    grid.clear()
    data = nodal_data(worked_problem, (20, 30), points=sum(blocks))
    assert grid == blocks
    assert data.indices == list(range(20, 31)) and not data.failures


def _count_step_maps(monkeypatch):
    """Patch forward._step_maps to record each build: (block length, the
    number of earlier blocks whose maps are still alive, as weakrefs on
    every array of each result tell)."""
    builds, refs = [], []
    original = forward._step_maps

    def counted(system, x0, x1, h):
        builds.append((x0.size, sum(any(ref() is not None for ref in block) for block in refs)))
        maps = original(system, x0, x1, h)
        refs.append([weakref.ref(a) for a in maps if a is not None])
        return maps

    monkeypatch.setattr(forward, "_step_maps", counted)
    return builds, refs


@pytest.mark.parametrize("which, n_range", [
    ("cosine", (20, 400)), ("mass", (5, 120)), ("general", (8, 30)),
])
def test_spectrum_holds_one_block_of_step_maps_at_a_time(which, n_range, cosine_problem,
                                                        exp_kernel_problem, monkeypatch):
    # compute_spectrum keeps no GridMaps: each block of single-step maps is
    # built, composed (plain layout) or stepped over (coupled layout) and
    # freed before the next block is built, and none outlives the call
    problem = {"cosine": cosine_problem, "mass": constant_mass_problem(),
               "general": exp_kernel_problem}[which]
    builds, refs = _count_step_maps(monkeypatch)
    spec = compute_spectrum(problem, n_range)
    assert spec.indices == list(range(n_range[0], n_range[1] + 1))
    assert len(builds) > 4 and all(alive == 0 for _, alive in builds), builds
    assert all(ref() is None for block in refs for ref in block)


@pytest.mark.parametrize("which, ranges", [
    ("cosine", ((20, 120), (20, 400))), ("general", ((8, 12), (8, 30))),
])
def test_spectrum_memory_does_not_grow_with_the_grid(which, ranges, cosine_problem,
                                                     exp_kernel_problem):
    # the step maps are streamed a block at a time, so the traced peak of
    # compute_spectrum on the larger range (cosine: 25,158 steps against
    # 7,565; general: 1,912 against 781, in the coupled layout) stays within
    # 1.3 times its peak on the smaller (measured 4.8 and 4.8 MiB on cosine,
    # 1.3 and 1.3 MiB on general; with the grid's maps held whole, 10.6 and
    # 27.2, 4.7 and 10.8)
    problem = {"cosine": cosine_problem, "general": exp_kernel_problem}[which]
    compute_spectrum(problem, ranges[0])
    peaks = []
    for n_range in ranges:
        tracemalloc.start()
        try:
            compute_spectrum(problem, n_range)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.3 * peaks[0], peaks


def test_single_seed_fallback_streams_the_maps_again(monkeypatch):
    # b1 = -300 (see test_hostile_problems_fail_as_on_single_seed_windows)
    # refuses the wide windows of n = 5..31, so the search makes its second,
    # single-seed evaluation: streamed, each evaluation builds the grid's
    # blocks anew, two passes, where the maps nodal_data keeps are built in
    # one; lambda_n, the residuals and the failures are bit for bit the same
    problem = problem_from_mapping({"bc": {"theta": 0.3, "beta": 0.1, "b1": -300}})
    builds, _ = _count_step_maps(monkeypatch)
    kept, kept_failures, maps = spectrum._search(problem, (5, 40), 1e-9, None, keep_maps=True)
    blocks = [size for size, _ in builds]
    assert maps is not None and blocks == [1024, 1024, maps.points - 2048]
    builds.clear()
    streamed, failures, maps = spectrum._search(problem, (5, 40), 1e-9, None)
    assert maps is None and [size for size, _ in builds] == blocks + blocks
    assert sorted(failures) == sorted(kept_failures) == list(range(5, 21))
    assert [(type(e), str(e)) for e in failures.values()] == [
        (type(e), str(e)) for e in kept_failures.values()]
    assert streamed.indices == kept.indices == list(range(21, 41))
    for n in streamed.indices:
        assert streamed.entries[n] == kept.entries[n], n
        assert streamed.residuals[n] == kept.residuals[n], n
    with pytest.raises(type(failures[5])) as info:
        compute_spectrum(problem, (5, 40))
    assert str(info.value) == str(failures[5])
    data = nodal_data(problem, (5, 40))
    assert data.eigenvalues == streamed.entries
    assert data.failures == {n: f"{type(e).__name__}: {e}" for n, e in failures.items()}


@pytest.mark.parametrize("which, n_range", [
    ("cosine", (20, 120)), ("worked", (20, 60)), ("mass", (5, 120)), ("general", (8, 12)),
])
def test_block_length_changes_no_result(which, n_range, cosine_problem, worked_problem,
                                        exp_kernel_problem, monkeypatch):
    # the maps are built, bounded and composed _BLOCK steps at a time, in
    # runs of _SPAN steps that start at the same steps whatever _BLOCK is,
    # and trajectory states reach their consumer in slices of _SLICE steps;
    # maps in the coupled layout (the general kernel's) are built _SLICE
    # steps at a time, so _SLICE moves their block boundaries.  The
    # eigenvalues, residuals, nodes and failures are bit for bit those of
    # 128-step blocks and of 100-step slices, and nodal_data's traced peak
    # grows by at most half over that of 128-step blocks
    problem = {"cosine": cosine_problem, "worked": worked_problem,
               "mass": constant_mass_problem(), "general": exp_kernel_problem}[which]
    runs = []
    for setting in ({}, {"_BLOCK": 128}, {"_SLICE": 100}):
        with monkeypatch.context() as patch:
            for name, value in setting.items():
                patch.setattr(forward, name, value)
            spec = compute_spectrum(problem, n_range)
            tracemalloc.start()
            try:
                data = nodal_data(problem, n_range)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        runs.append((spec, data, peak))
    (spec, data, peak), (_, _, block_peak) = runs[:2]
    for ref_spec, ref_data, _ in runs[1:]:
        assert spec.indices == ref_spec.indices == data.indices == ref_data.indices
        for got, ref in ((spec.entries, ref_spec.entries), (spec.residuals, ref_spec.residuals),
                         (data.eigenvalues, ref_data.eigenvalues)):
            assert np.array_equal([got[n] for n in spec.indices], [ref[n] for n in spec.indices])
        for n in data.indices:
            assert np.array_equal(data.nodes[n], ref_data.nodes[n]), n
        assert data.failures == ref_data.failures
    if which == "cosine":
        assert peak <= 1.5 * block_peak, (peak, block_peak)


def test_nodal_data_frees_grid_maps_before_node_refinement(worked_problem, monkeypatch):
    # node refinement steps from the states kept at the crossings, so the
    # grid's single-step maps are freed when the trajectory pass returns
    steps, freed = [], []
    build, refine = spectrum.grid_maps, spectrum._nodes_from_crossings

    def building(problem, points, **kwargs):
        maps = build(problem, points, **kwargs)
        steps.append(weakref.ref(maps.blocks[0][0]))
        return maps

    def refining(problem, found):
        freed.append(all(ref() is None for ref in steps))
        return refine(problem, found)

    monkeypatch.setattr(spectrum, "grid_maps", building)
    monkeypatch.setattr(spectrum, "_nodes_from_crossings", refining)
    data = nodal_data(worked_problem, (20, 30), points=1000)
    assert len(steps) == 1 and freed == [True]
    assert data.indices == list(range(20, 31)) and not data.failures


def test_shifted_seed_raises_bracketing(free_prob, monkeypatch):
    # the free eigenvalues are n, so seeds at n + 0.5 leave no root in the
    # window [n + 0.05, n + 0.95]
    original = spectrum.lambda_asym
    monkeypatch.setattr(spectrum, "lambda_asym", lambda *a, **k: original(*a, **k) + 0.5)
    with pytest.raises(BracketingError) as info:
        compute_spectrum(free_prob, (5, 8))
    assert info.value.index == 5
    data = nodal_data(free_prob, (5, 8))
    assert not data.nodes
    assert sorted(data.failures) == [5, 6, 7, 8]
    assert all(msg.startswith("BracketingError:") for msg in data.failures.values())


def test_wide_window_raises_ambiguity(free_prob, monkeypatch):
    # a window of half-width 0.95 holds a second root as soon as the seed
    # is off by more than 0.05; seeds at n + 0.3 put n and n + 1 inside
    original = spectrum.lambda_asym
    monkeypatch.setattr(spectrum, "SCAN_HALF_WIDTH", 0.95)
    monkeypatch.setattr(spectrum, "lambda_asym", lambda *a, **k: original(*a, **k) + 0.3)
    with pytest.raises(AmbiguityError, match="2 sign changes"):
        compute_spectrum(free_prob, (5, 8))


def test_root_outside_the_corridor_is_ambiguous():
    # lambda_5 of this problem leaves the corridor, so its index is not
    # certain: compute_spectrum raises that as an ambiguity, and nodal_data
    # records the same failure for n = 5 and keeps the other indices
    problem = problem_from_mapping(CORRIDOR_DOC)
    with pytest.raises(AmbiguityError, match=r"lambda_5 = 6\.8\d* outside the corridor "
                                             r"n \+ 0\.7089 \+- 1") as info:
        compute_spectrum(problem, (5, 12))
    data = nodal_data(problem, (5, 12))
    assert data.failures == {5: f"AmbiguityError: {info.value}"}
    assert data.indices == sorted(data.eigenvalues) == list(range(6, 13))
    spec = compute_spectrum(problem, (6, 12))
    assert spec.entries == data.eigenvalues


# ---------------------------------------------------------------------------
# wide search windows against single-seed windows


def _single_seed_windows(monkeypatch):
    """Accept no wide window, so every n is searched on its own window
    seed +- SCAN_HALF_WIDTH, the fallback of the search."""
    wide = spectrum._windows
    monkeypatch.setattr(spectrum, "_windows", lambda *args: (wide(*args)[0], set()))


def _complex_pair_doc(c):
    # theta = 0.2, beta = 0.1, m = 0.5, chi11 = chi22 = chi12 = c exp(-(x - t))
    # and chi21 = -c: at c = 5 a pair 5.89 +- 0.48i sits where lambda_6 and
    # lambda_7 are expected
    return {"bc": {"theta": 0.2, "beta": 0.1}, "coeffs": {"m": 0.5, "chi_separable": {
        **{label: [{"a": f"{c}*exp(-x)", "b": "exp(t)"}] for label in ("11", "12", "22")},
        "21": [{"a": f"{-c}", "b": "1"}],
    }}}


@pytest.mark.parametrize("which, n_range, later", [
    ("cosine", (20, 120), (37, 120)), ("mass", (5, 120), (21, 120)),
])
def test_eigenvalues_do_not_depend_on_the_range_start(which, n_range, later, cosine_problem):
    # every lattice group of indices the range touches is searched whole,
    # so at the same n_max, lambda_n and its residual are bit for bit the
    # same whatever the range starts at
    problem = {"cosine": cosine_problem, "mass": constant_mass_problem()}[which]
    full, part = compute_spectrum(problem, n_range), compute_spectrum(problem, later)
    assert part.indices == list(range(later[0], later[1] + 1))
    for n in part.indices:
        assert full.entries[n] == part.entries[n], n
        assert full.residuals[n] == part.residuals[n], n


@pytest.mark.parametrize("which, n_range", [
    ("cosine", (20, 120)), ("worked", (5, 120)), ("mass", (5, 120)), ("general", (8, 12)),
])
def test_wide_windows_agree_with_single_seed_windows(which, n_range, cosine_problem, worked_problem,
                                                    exp_kernel_problem, monkeypatch):
    problem = {"cosine": cosine_problem, "worked": worked_problem,
               "mass": constant_mass_problem(), "general": exp_kernel_problem}[which]
    wide = compute_spectrum(problem, n_range)
    _single_seed_windows(monkeypatch)
    single = compute_spectrum(problem, n_range)
    assert wide.indices == single.indices == list(range(n_range[0], n_range[1] + 1))
    assert sup([wide.entries[n] - single.entries[n] for n in wide.indices]) <= 1e-12


def test_wide_window_past_the_guard_falls_back(cosine_problem, monkeypatch):
    # on 1600 steps the guard |lambda| h <= 0.2 admits lambda_100 + 0.45, but
    # not the wide window of its group n = 96..111: that group is searched on
    # single-seed windows, not refused
    spec = compute_spectrum(cosine_problem, (90, 100), points=1600)
    _single_seed_windows(monkeypatch)
    ref = compute_spectrum(cosine_problem, (90, 100), points=1600)
    assert spec.indices == ref.indices == list(range(90, 101))
    assert sup([spec.entries[n] - ref.entries[n] for n in spec.indices]) <= 1e-12


def test_wide_windows_evaluate_at_most_30_percent_of_the_lambdas(cosine_problem, monkeypatch):
    # cosine n = 20..120 on single-seed windows evaluates 101 windows x 16
    # points = 1616 lambda; the wide windows evaluate at most 30 % of that,
    # in one call
    counts = []
    original = forward.char_fn_normalized
    monkeypatch.setattr(spectrum, "char_fn_normalized",
                        lambda problem, lam, *a, **k: counts.append(np.size(lam))
                        or original(problem, lam, *a, **k))
    spec = compute_spectrum(cosine_problem, (20, 120))
    assert spec.indices == list(range(20, 121))
    assert len(counts) == 1 and counts[0] <= 0.3 * 1616, counts


@pytest.mark.parametrize("doc, n_range, failing", [
    (_complex_pair_doc(5), (5, 15), [5, 6, 7]),
    ({"bc": {"theta": 0.3, "beta": 0.1}, "coeffs": {"m": 6}}, (5, 40), [7]),
    ({"bc": {"theta": 0.3, "beta": 0.1, "b1": 200}}, (5, 40), [12]),
    ({"bc": {"theta": 0.3, "beta": 0.1, "d2": 30}}, (5, 40), [5]),
    (CORRIDOR_DOC, (5, 40), [5]),
    ({"bc": {"theta": 0.3, "beta": 0.1, "b1": -300}}, (5, 40), list(range(5, 21))),
    ({"bc": {"theta": 0.3, "beta": 0.1, "b1": -500}}, (5, 40), list(range(5, 35))),
], ids=["complex-pair", "m6", "b1", "d2", "corridor", "b1-300", "b1-500"])
def test_hostile_problems_fail_as_on_single_seed_windows(doc, n_range, failing, monkeypatch):
    # where the seeds mislabel the spectrum, or eigenvalues are not real, the
    # wide windows are not accepted and each n fails, with the same category
    # and message, as on its own single-seed window.  The b1 = -300 and -500
    # cases (C-hat about -89 and -148) put windows near lambda = 0, where the
    # interpolant of Delta / (1 + lambda^2) converges slowly (poles at +-i):
    # there the wide window's own roots would change the messages, and at
    # -500 a category, so those indices keep the single-seed fallback
    problem = problem_from_mapping(doc)
    data = nodal_data(problem, n_range)
    _single_seed_windows(monkeypatch)
    ref = nodal_data(problem, n_range)
    assert set(failing) <= set(data.failures)
    assert data.failures == ref.failures
    assert sorted(data.eigenvalues) == sorted(ref.eigenvalues)
    assert sup([data.eigenvalues[n] - ref.eigenvalues[n] for n in data.eigenvalues] + [0.0]) <= 1e-12


# ---------------------------------------------------------------------------
# node refinement against a bisection oracle


def _bisect(f, a, b, fa, fb, width):
    a, b, fa = (np.array(v, dtype=float) for v in (a, b, fa))
    every = np.arange(a.size)
    for _ in range(_bisection_steps(0.0, float(np.max(b - a)), width)):
        mid = 0.5 * (a + b)
        fm = f(mid, every)
        right = fa * fm > 0
        a = np.where(right, mid, a)
        fa = np.where(right, fm, fa)
        b = np.where(right, b, mid)
    mid = 0.5 * (a + b)
    return a, b, mid, f(mid, every)


@pytest.mark.parametrize("which, n", [("worked", 12), ("cosine", 60), ("general", 10)])
def test_node_refinement_matches_bisection(which, n, worked_problem, cosine_problem,
                                           exp_kernel_problem, monkeypatch):
    problem = {"worked": worked_problem, "cosine": cosine_problem,
               "general": exp_kernel_problem}[which]
    lam, _ = find_eigenvalue(problem, n)
    nodes = find_nodes(problem, lam)
    monkeypatch.setattr(spectrum, "_bracketed_roots", _bisect)
    oracle = find_nodes(problem, lam)
    assert nodes.size == oracle.size
    assert sup(nodes, oracle) <= 2 * NODE_TOL


def test_general_kernel_nodes_converge(exp_kernel_problem):
    # refinement restarts from the stored memory states, so halving the step
    # moves the nodes only by the 4th-order grid error (measured 6.8e-8;
    # starting refinement from zero memory states gives 2.4e-6, and the
    # former trapezoid memory 6.6e-7)
    lam, _ = find_eigenvalue(exp_kernel_problem, 10)
    coarse = find_nodes(exp_kernel_problem, lam, points=768)
    fine = find_nodes(exp_kernel_problem, lam, points=1536)
    assert coarse.size == fine.size
    assert sup(coarse, fine) <= 3e-7


def _cosine_with(terms):
    """The cosine problem with separable kernel terms added, by entry."""
    doc = copy.deepcopy(DOCUMENTS["cosine"])
    for entry, more in terms.items():
        doc["coeffs"]["chi_separable"].setdefault(entry, []).extend(more)
    return problem_from_mapping(doc)


def test_nodes_carry_partial_information_on_the_kernel(cosine_problem):
    # the paper's "partial information" (ROADMAP item 9): up to O(n^-2) the
    # nodes see the kernel only through L(x) - x L(pi)/pi, so kernel changes
    # that keep it move the n-th nodes by O(n^-3), a factor of about 8 per
    # doubling of n (measured: 8.1-8.9), while a change of L(x) - x L(pi)/pi
    # moves them by O(n^-2), a factor of about 4 (measured: 4.0)
    witnesses = {
        "chi11 = chi22 = 0.4 (K changes, L does not)":
            {"11": [{"a": "0.4", "b": "1"}], "22": [{"a": "0.4", "b": "1"}]},
        "chi21 += x - t (zero on the diagonal)":
            {"21": [{"a": "x", "b": "1"}, {"a": "-1", "b": "t"}]},
        "chi21 = 0.3 (L' shifted by a constant)": {"21": [{"a": "0.3", "b": "1"}]},
    }
    control = {"21": [{"a": "0.3*cos(x)", "b": "1"}]}
    ns = (20, 40, 80)
    base = [nodal_data(cosine_problem, (n, n)).nodes[n] for n in ns]
    for name, terms in [*witnesses.items(), ("control", control)]:
        problem = _cosine_with(terms)
        moved = [sup(nodal_data(problem, (n, n)).nodes[n], ref) for n, ref in zip(ns, base)]
        decay = [a / b for a, b in zip(moved, moved[1:])]
        if name == "control":
            assert all(3.0 <= d <= 5.0 for d in decay), (name, moved)
        else:
            assert all(d >= 6.0 for d in decay), (name, moved)


def test_nodes_carry_no_mass_at_zero_angles():
    # at theta = beta = 0, with V = 0 and no kernel, the nodes do not see a
    # constant mass m while the eigenvalues do: m = 1 and m = 2 move the
    # nodes of n = 20..40 by rounding only (measured 3.2e-11) and lambda_n
    # by 0.075 at n = 20 and 0.037 at n = 40
    one, two = nodal_data(constant_mass_problem(1.0), (20, 40)), nodal_data(
        constant_mass_problem(2.0), (20, 40))
    assert one.indices == two.indices == list(range(20, 41))
    assert not one.failures and not two.failures
    assert max(sup(one.nodes[n], two.nodes[n]) for n in one.indices) <= 1e-10
    assert min(abs(one.eigenvalues[n] - two.eigenvalues[n]) for n in one.indices) > 1e-2


def test_nodal_data_carries_its_spectrum(worked_problem, worked_numeric_nodes, worked_synth_data,
                                        tmp_path):
    # nodal_data keeps the eigenvalues of its own search; synthetic data and
    # CSV read-back have none, and the CSV is unchanged
    spec = compute_spectrum(worked_problem, (20, 60))
    assert worked_numeric_nodes.eigenvalues == spec.entries
    assert worked_synth_data.eigenvalues == {}
    with_spectrum, without = tmp_path / "a.csv", tmp_path / "b.csv"
    write_nodal_csv(worked_numeric_nodes, str(with_spectrum))
    write_nodal_csv(NodalData(nodes=worked_numeric_nodes.nodes), str(without))
    assert with_spectrum.read_bytes() == without.read_bytes()
    back = read_nodal_csv(str(with_spectrum))
    assert back.eigenvalues == {}
