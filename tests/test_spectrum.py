import math

import numpy as np
import pytest

import nodalrec.spectrum as spectrum
from nodalrec.asymptotics import asymptotic_constants
from nodalrec.errors import AmbiguityError, BracketingError, ResolutionError
from nodalrec.forward import integrate_ivp
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

from _bullets import covers
from conftest import sup


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
    traj = integrate_ivp(worked_problem, lam)
    edges = np.concatenate(([0.0], nodes, [math.pi]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    idx = np.rint(mids / traj.step).astype(int)
    signs = np.sign(traj.phi1[idx])
    assert np.all(signs != 0)
    assert np.all(signs[:-1] * signs[1:] < 0)


def _predicted_count(problem, n):
    # leading node phase runs from theta to n pi + beta + C_hat / n, one
    # node per integer multiple of pi strictly inside
    C = asymptotic_constants(problem).C_hat
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
    consts = asymptotic_constants(worked_problem)
    off = worked_spectrum_3060.offset
    vals = np.array(
        [
            (worked_spectrum_3060.entries[n] - n - off) * n * math.pi
            for n in worked_spectrum_3060.indices
        ]
    )
    top = vals[-16:]
    assert (top.max() - top.min()) <= 0.1 * abs(np.mean(top))
    assert abs(vals[-1] - consts.C_hat) <= 0.01


def test_compute_spectrum_rejects_bad_ranges(free_prob):
    with pytest.raises(ValueError):
        compute_spectrum(free_prob, (3, 10))
    with pytest.raises(ValueError):
        compute_spectrum(free_prob, (10, 5))
    with pytest.raises(ValueError):
        compute_spectrum(free_prob, (5, 10), tol=0.0)


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
    with pytest.raises(ValueError):
        nodal_data(free_prob, (5, 10), tol=0.0)


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


@pytest.mark.parametrize("which, n", [("worked", 12), ("cosine", 60)])
def test_node_refinement_matches_bisection(which, n, worked_problem, cosine_problem,
                                           monkeypatch):
    problem = {"worked": worked_problem, "cosine": cosine_problem}[which]
    lam, _ = find_eigenvalue(problem, n)
    nodes = find_nodes(problem, lam)
    monkeypatch.setattr(spectrum, "_bracketed_roots", _bisect)
    oracle = find_nodes(problem, lam)
    assert nodes.size == oracle.size
    assert sup(nodes, oracle) <= 2 * NODE_TOL
