import math
import weakref

import numpy as np
import pytest

import nodalrec.forward as forward
import nodalrec.spectrum as spectrum
from nodalrec.asymptotics import asymptotic_constants
from nodalrec.errors import AmbiguityError, BracketingError, ResolutionError
from nodalrec.fixtures import constant_mass_problem
from nodalrec.forward import solve_batch
from nodalrec.io import read_nodal_csv, write_nodal_csv
from nodalrec.spectrum import (
    NODE_TOL,
    NodalData,
    Spectrum,
    _bracketed_roots,
    compute_spectrum,
    find_eigenvalue,
    find_nodes,
    nodal_data,
)

from nodalrec.problem import problem_from_mapping

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
        Spectrum(entries={5: 6.5}, residuals={5: 0.0}, brackets={5: (6.0, 7.0)}, offset=0.0)
    with pytest.raises(ValueError):
        Spectrum(
            entries={5: 5.2, 6: 5.1},
            residuals={5: 0.0, 6: 0.0},
            brackets={5: (5.0, 5.5), 6: (5.0, 5.5)},
            offset=0.0,
        )


def test_nodal_container_guards():
    with pytest.raises(ValueError):
        NodalData(nodes={5: np.array([0.5, 0.4])})
    with pytest.raises(ValueError):
        NodalData(nodes={5: np.array([0.5, math.pi])})
    with pytest.raises(ValueError):
        NodalData(nodes={5: np.array([0.5])}, source="guessed")


def test_find_nodes_requires_resolution(worked_problem):
    with pytest.raises(ResolutionError):
        find_nodes(worked_problem, 40.0, points=64)


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
    # 1000 steps are 7 full blocks of 128 and a partial one of 104
    problem = {"cosine": cosine_problem, "mass": constant_mass_problem()}[which]
    data = nodal_data(problem, (20, 40), points=1000)
    assert data.indices == list(range(20, 41)) and not data.failures
    lams = [data.eigenvalues[n] for n in data.indices]
    for n, ref in zip(data.indices, _reference_nodes(problem, lams, 1000)):
        assert np.array_equal(data.nodes[n], ref), n


def test_node_refinement_in_chunks_changes_no_node(cosine_problem, cosine_numeric_data,
                                                   monkeypatch):
    # refinement takes the crossings _REFINE_CHUNK at a time and each bracket
    # shrinks on its own, so chunks of 1000 crossings (the last one short)
    # give the nodes bit for bit of the search up to n = 120, which refines
    # its crossings in one piece
    kept, refine, chunk = [], spectrum._refine_nodes, spectrum._REFINE_CHUNK
    monkeypatch.setattr(spectrum, "_refine_nodes", lambda problem, found, keep: kept.append(
        int(keep.sum())) or refine(problem, found, keep))
    monkeypatch.setattr(spectrum, "_REFINE_CHUNK", 1000)
    data = nodal_data(cosine_problem, (20, 120))
    assert len(kept) == 1 and 1000 < kept[0] <= chunk and kept[0] % 1000
    assert data.indices == cosine_numeric_data.indices and not data.failures
    for n in data.indices:
        assert np.array_equal(data.nodes[n], cosine_numeric_data.nodes[n]), n


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


def test_adjacent_sign_changes_across_a_block_boundary(free_prob, monkeypatch):
    # node 128 closes the first block of 128 steps and opens the second, so
    # cell 127 is the first block's last and cell 128 the second's first
    lams = [5.0, 6.0, 7.0]
    phi1 = solve_batch(free_prob, lams, points=1000).Y[0, 127:130]
    assert (np.abs(np.diff(np.sign(phi1), axis=0)).sum(axis=0) == 0).all()
    clean = _streamed_nodes(free_prob, lams, 1000)
    _plant_adjacent_sign_changes(monkeypatch, 2, 128)
    out = _streamed_nodes(free_prob, lams, 1000)
    assert isinstance(out[2], ResolutionError)
    assert out[2].required_points == 2000
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
# guards on the eigenvalue search


def test_search_makes_few_delta_evaluations(worked_problem, worked_spectrum_3060, monkeypatch):
    # one scan plus a few batched updates; bisecting the 0.08-wide scan
    # cells down to tol / 4 would take 29 more
    calls = []
    original = spectrum.char_fn_normalized

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectrum, "char_fn_normalized", counted)
    spec = compute_spectrum(worked_problem, (30, 60))
    assert len(calls) <= 6
    assert spec.entries == worked_spectrum_3060.entries
    for n in spec.indices:
        lo, hi = spec.brackets[n]
        assert hi - lo <= 1e-9 / 4.0
        assert spec.entries[n] in (lo, hi)


def test_search_builds_grid_maps_once(worked_problem, monkeypatch):
    # the search grid's step maps are built once, 128 steps at a time, and
    # serve the scan, every update and nodal_data's trajectory solve; node
    # refinement steps each query in stage form and builds no maps at all
    grid = []
    original = forward._step_maps

    def counted(system, x0, x1, h):
        grid.append(x0.size)
        return original(system, x0, x1, h)

    monkeypatch.setattr(forward, "_step_maps", counted)
    blocks = [128] * 7 + [104]  # ceil(1000 / 128) blocks
    compute_spectrum(worked_problem, (20, 30), points=1000)
    assert grid == blocks
    grid.clear()
    data = nodal_data(worked_problem, (20, 30), points=1000)
    assert grid == blocks
    assert data.indices == list(range(20, 31)) and not data.failures


def test_nodal_data_frees_composed_maps_before_trajectories(worked_problem, monkeypatch):
    # the composed maps serve the search's endpoint solves only; they are
    # freed before nodal_data's trajectory pass, so they are not resident
    # beside its crossing scan
    spans, freed = [], []
    evaluate, solve = spectrum.char_fn_normalized, spectrum.solve_batch

    def evaluating(problem, lam, points=None, *, maps=None):
        spans.append(weakref.ref(maps.spans))
        return evaluate(problem, lam, points=points, maps=maps)

    def solving(problem, lam, points=None, *, maps=None, crossings=False):
        freed.append(maps.spans is None and all(ref() is None for ref in spans))
        return solve(problem, lam, points=points, maps=maps, crossings=crossings)

    monkeypatch.setattr(spectrum, "char_fn_normalized", evaluating)
    monkeypatch.setattr(spectrum, "solve_batch", solving)
    data = nodal_data(worked_problem, (20, 30), points=1000)
    assert len(spans) > 1 and freed == [True]
    assert data.indices == list(range(20, 31)) and not data.failures


def test_nodal_data_frees_grid_maps_before_node_refinement(worked_problem, monkeypatch):
    # node refinement steps from the states kept at the crossings, so the
    # grid's single-step maps are freed when the trajectory pass returns
    steps, freed = [], []
    build, refine = spectrum.grid_maps, spectrum._refine_nodes

    def building(problem, points, **kwargs):
        maps = build(problem, points, **kwargs)
        steps.append(weakref.ref(maps.blocks[0][0]))
        return maps

    def refining(problem, found, keep):
        freed.append(all(ref() is None for ref in steps))
        return refine(problem, found, keep)

    monkeypatch.setattr(spectrum, "grid_maps", building)
    monkeypatch.setattr(spectrum, "_refine_nodes", refining)
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


def test_nodal_data_carries_its_spectrum(worked_problem, worked_numeric_nodes, worked_synth_data,
                                        tmp_path):
    # nodal_data keeps the eigenvalues and final brackets of its own search;
    # synthetic data and CSV read-back have none, and the CSV is unchanged
    spec = compute_spectrum(worked_problem, (20, 60))
    assert worked_numeric_nodes.eigenvalues == spec.entries
    assert worked_numeric_nodes.brackets == spec.brackets
    assert worked_synth_data.eigenvalues == {} and worked_synth_data.brackets == {}
    with_spectrum, without = tmp_path / "a.csv", tmp_path / "b.csv"
    write_nodal_csv(worked_numeric_nodes, str(with_spectrum))
    write_nodal_csv(NodalData(nodes=worked_numeric_nodes.nodes), str(without))
    assert with_spectrum.read_bytes() == without.read_bytes()
    back = read_nodal_csv(str(with_spectrum))
    assert back.eigenvalues == {} and back.brackets == {}
