import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nodalrec import problem as problem_module
from nodalrec.asymptotics import (
    asymptotic_constants,
    char_fn_asym,
    lambda_asym,
    node_asym,
    phi_asym,
    synthesize_nodal_data,
)
from nodalrec.fixtures import (
    constant_mass_exact,
    constant_mass_problem,
    free_problem,
    worked_example_problem,
)
from nodalrec.forward import char_fn_normalized, initial_state
from nodalrec.inverse import _indexed_samples, calibrate_offset, f_estimate
from nodalrec.problem import (
    BoundaryParams,
    CoefficientSet,
    KernelMatrix,
    ProblemDefinition,
    SeparableKernel,
    ZeroKernel,
)

from _bullets import covers
from conftest import sup, trajectory


def _bc_problem(theta, b1, b2, m=0.0, q=0.0):
    # q scales a zero-mean potential and a kernel that is nonzero at (0, 0),
    # so V(0), P(0, 0) and Q(0, 0) all enter the x = 0 value
    bc = BoundaryParams(theta=theta, beta=0.0, b1=b1, b2=b2, d1=0.0, d2=0.0)
    coeffs = CoefficientSet(
        V=lambda x: q * np.cos(np.asarray(x, dtype=float)),
        m=m,
        chi=KernelMatrix(
            k11=lambda x, t: q * (1.0 + x * t),
            k12=lambda x, t: -q * np.cos(x - t),
            k21=ZeroKernel(),
            k22=lambda x, t: 0.5 * q + 0.0 * x * t,
        ),
    )
    return ProblemDefinition(bc=bc, coeffs=coeffs)


def _four_entry_problem():
    """theta, b1, b2, V and m nonzero and all four kernel entries nonzero,
    with chi(x, 0) != 0 and chi11 != chi22 on the diagonal."""
    bc = BoundaryParams(theta=0.4, beta=0.0, b1=0.5, b2=-0.3, d1=0.0, d2=0.0)

    def sep(a, b):
        return SeparableKernel(
            ((lambda x: a(np.asarray(x, dtype=float)), lambda t: b(np.asarray(t, dtype=float))),)
        )

    coeffs = CoefficientSet(
        V=lambda x: np.cos(2.0 * np.asarray(x, dtype=float)),
        m=0.7,
        chi=KernelMatrix(
            k11=sep(lambda x: 0.5 * np.cos(x), lambda t: 1.0 + t),
            k12=sep(lambda x: np.sin(x) + 0.3, np.cos),
            k21=sep(lambda x: np.full_like(x, 0.4), lambda t: np.exp(-t)),
            k22=sep(lambda x: x, lambda t: 0.2 - 0.5 * t),
        ),
    )
    return ProblemDefinition(bc=bc, coeffs=coeffs)


@covers("asymptotics.expansion-bc")
@given(
    theta=st.floats(-1.5, 1.5),
    b1=st.floats(-2.0, 2.0),
    b2=st.floats(-2.0, 2.0),
    m=st.floats(-2.0, 2.0),
    q=st.floats(-1.0, 1.0),
    lam=st.floats(0.5, 50.0),
    flip=st.booleans(),
)
def test_expansion_reproduces_initial_state(theta, b1, b2, m, q, lam, flip):
    # the x = 0 value must collapse to the initial state exactly, for every
    # lambda != 0 including negative ones, also where the mass, potential
    # and kernel terms of the expansion are active at x = 0
    if flip:
        lam = -lam
    prob = _bc_problem(theta, b1, b2, m, q)
    want = initial_state(prob.bc, lam)
    got = phi_asym(prob, 0.0, lam)
    scale = max(1.0, abs(lam))
    assert abs(got[0] - want[0]) <= 1e-12 * scale
    assert abs(got[1] - want[1]) <= 1e-12 * scale


def test_expansion_rejects_lambda_zero(free_prob):
    with pytest.raises(ValueError):
        phi_asym(free_prob, 0.5, 0.0)


def test_diagonal_phase_built_once_per_problem(monkeypatch):
    # a lambda sweep of phi_asym builds the diagonal table (12 kernel
    # evaluations on the quadrature grid) on its first call only
    prob, calls = worked_example_problem(), []
    build = problem_module._diagonal_phase
    monkeypatch.setattr(problem_module, "_diagonal_phase",
                        lambda p, grid: calls.append(p) or build(p, grid))
    xs = np.linspace(0.0, math.pi, 9)
    first = phi_asym(prob, xs, 20.0)
    second = phi_asym(prob, xs, -35.5)
    assert calls == [prob]
    fresh = worked_example_problem()
    assert np.array_equal(prob.diagonal_phase, build(fresh, fresh.integrals.grid))
    for got, want in zip((first, second), (phi_asym(fresh, xs, 20.0), phi_asym(fresh, xs, -35.5))):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("lam", [20.0, 40.0, 80.0])
def test_expansion_matches_constant_mass_closed_form(lam):
    # against the closed-form trajectory the dropped remainder is
    # O(1/lam^2): measured sup * lam^2 stays near 0.49 (first component) and
    # 0.39 (second) over this sweep; an O(1/lam) defect would scale with lam
    prob = constant_mass_problem(1.0)
    xs = np.linspace(0.0, math.pi, 801)
    a1, a2 = phi_asym(prob, xs, lam)
    e1, e2 = constant_mass_exact(1.0, lam, xs)
    assert sup(a1, e1) * lam * lam <= 0.75
    assert sup(a2, e2) * lam * lam <= 0.75


@pytest.mark.parametrize(
    "make_problem, points, bound, extra_lams",
    [
        (worked_example_problem, 8192, 5.0, ()),
        (_four_entry_problem, 16384, 15.0, (-40.0,)),
    ],
    ids=["worked", "four-entry"],
)
def test_expansion_remainder_is_second_order(make_problem, points, bound, extra_lams):
    # against the integrator, lam^2 * sup|phi1 - expansion| must stay bounded
    # and flat: measured 3.21 -> 3.25 -> 3.67 (worked) and 11.31 -> 11.28 ->
    # 10.96 (four-entry, 9.15 at lam = -40).  Dropping any one group of terms
    # (the d_t chi or m (chi22 - chi11) diagonal integrals, the V-weighted
    # terms, Q(x, x), or the chi(x, 0) terms) makes it grow like lam.  The
    # four-entry problem needs 16384 points: at 8192 the integrator error
    # distorts the lam = 80 value.
    prob = make_problem()
    scaled = {}
    for lam in (20.0, 40.0, 80.0) + extra_lams:
        traj = trajectory(prob, lam, points=points)
        a1, _ = phi_asym(prob, traj.grid, lam)
        scaled[lam] = sup(traj.phi1, a1) * lam * lam
    assert max(scaled.values()) <= bound
    flat = [scaled[lam] for lam in (20.0, 40.0, 80.0)]
    assert max(flat) / min(flat) <= 1.25


def test_constants_worked_closed_form(worked_problem):
    # b1 = 0.3, b2 = -0.2, theta = beta = pi/4, m = 1, L(pi) = 0:
    # C = (b1-b2) sqrt(2)/2 + pi/2
    assert abs(asymptotic_constants(worked_problem) - 1.9243497173881703) <= 1e-12


def test_constants_cosine_closed_form(cosine_problem):
    # m sin(beta-theta) cos(theta+beta) and the m^2 pi/2 term; L(pi)
    # vanishes exactly but only up to cumulative-trapezoid error
    # in the tabulated integrals, hence the 5e-7
    assert abs(asymptotic_constants(cosine_problem) - 0.4841923673487177) <= 5e-7


def test_char_fn_expansion_tracks_integrator(worked_problem):
    # remainder of the normalized characteristic function; measured
    # deviation * lam^2 in [0.73, 0.81] over this sweep
    for n in range(15, 41, 5):
        lam = n + 0.37
        dev = abs(
            char_fn_normalized(worked_problem, lam) - char_fn_asym(worked_problem, lam)
        )
        assert dev <= 1.2 / (lam * lam)


@covers("asymptotics.lambda-remainder")
def test_eigenvalue_seed_remainder(worked_problem, worked_spectrum_3060):
    # lambda_n - seed must shrink faster than 1/n: the scaled residuals
    # stay tiny and their running mean drops across the index range
    sp = worked_spectrum_3060
    scaled = np.array(
        [abs(lambda_asym(worked_problem, n) - sp.entries[n]) * n for n in sp.indices]
    )
    assert scaled.max() <= 0.01
    third = len(scaled) // 3
    assert scaled[-third:].mean() < scaled[:third].mean()


@covers("asymptotics.node-remainder")
def test_node_prediction_remainder(worked_problem, worked_numeric_nodes):
    # pair synthetic against numeric nodes per n; the n^2-scaled gap is
    # flat near 2.53 over n in [20, 60] (no growth), bounded by 3.5
    per_n = {}
    for n in worked_numeric_nodes.indices:
        syn = synthesize_nodal_data(worked_problem, (n, n)).nodes[n]
        num = worked_numeric_nodes.nodes[n]
        assert len(syn) == len(num)
        per_n[n] = sup(syn, num) * n * n
    vals = np.array([per_n[n] for n in sorted(per_n)])
    assert vals.max() <= 3.5
    low = np.mean([per_n[n] for n in range(20, 31)])
    high = np.mean([per_n[n] for n in range(50, 61)])
    assert high <= 1.05 * low


def test_node_prediction_rejects_bad_indices(worked_problem):
    with pytest.raises(ValueError):
        node_asym(worked_problem, 0, 0)
    with pytest.raises(ValueError):
        node_asym(worked_problem, 10, -1)
    with pytest.raises(ValueError):
        node_asym(worked_problem, 10, 11)


def test_eigenvalue_seed_rejects_index_zero(worked_problem):
    with pytest.raises(ValueError, match="n != 0"):
        lambda_asym(worked_problem, 0)
    with pytest.raises(ValueError, match="n != 0"):
        lambda_asym(worked_problem, np.array([5, 0, 7]))
    seeds = lambda_asym(worked_problem, np.arange(5, 9))
    assert seeds.tolist() == [lambda_asym(worked_problem, n) for n in range(5, 9)]


@pytest.mark.parametrize("n", [1, 7, 50, 333, 1000])
def test_node_prediction_array_matches_scalar(worked_problem, cosine_problem, n):
    # one call over all j repeats the scalar formula bit for bit
    for problem in (worked_problem, cosine_problem):
        js = np.arange(n + 1)
        want = np.array([node_asym(problem, n, int(j)) for j in js])
        assert np.array_equal(node_asym(problem, n, js), want)
    assert isinstance(node_asym(worked_problem, n, n), float)
    with pytest.raises(ValueError, match=f"j = {n + 1} out of range"):
        node_asym(worked_problem, n, np.array([0, n + 1, -1]))
    # one call with every n of the parameter list, as a column, broadcast
    # against j = 0..n (each row clipped to its own n)
    ns = np.array([1, 7, 50, 333, 1000])[:, None]
    js = np.minimum(np.arange(n + 1), ns)
    want = np.array([[node_asym(worked_problem, int(k), int(j)) for j in row]
                     for k, row in zip(ns[:, 0], js)])
    assert np.array_equal(node_asym(worked_problem, ns, js), want)
    with pytest.raises(ValueError, match="n must be positive, got 0"):
        node_asym(worked_problem, np.array([n, 0, 3]), 0)


def test_synthesis_in_blocks_matches_each_list_alone(worked_problem):
    # the dense range is evaluated in blocks of whole lists; every list,
    # inside a block or at its edge, equals the one-index synthesis
    dense = synthesize_nodal_data(worked_problem, (50, 1000))
    assert dense.indices == list(range(50, 1001))
    for n in dense.indices:
        alone = synthesize_nodal_data(worked_problem, (n, n)).nodes[n]
        assert dense.nodes[n].tobytes() == alone.tobytes(), n


def test_synthesis_working_memory_is_one_block(worked_problem):
    # traced peak less the returned lists: one block's working set, the
    # same for 80k and 500k values (a batch over the range grows with it)
    peaks = []
    for n_range in ((50, 400), (50, 1000)):
        synthesize_nodal_data(worked_problem, n_range)  # loads what synthesis needs once
        tracemalloc.start()
        try:
            data = synthesize_nodal_data(worked_problem, n_range)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append(peak - sum(xs.nbytes for xs in data.nodes.values()))
    assert peaks[1] < 1.5 * peaks[0], f"working peaks {peaks[0]} and {peaks[1]} bytes"


def test_synthetic_free_nodes_are_uniform(free_prob):
    # all corrections vanish for the free operator: nodes at j pi / 5
    data = synthesize_nodal_data(free_prob, (5, 5))
    assert data.source == "synthetic"
    want = np.array([j * math.pi / 5 for j in range(1, 5)])
    assert sup(data.nodes[5], want) <= 1e-15


def test_synthetic_range_rejected(free_prob):
    with pytest.raises(ValueError):
        synthesize_nodal_data(free_prob, (0, 5))
    with pytest.raises(ValueError):
        synthesize_nodal_data(free_prob, (8, 5))


@covers("asymptotics.free-synthetic-f-zero")
def test_free_synthetic_f_estimate_vanishes(free_prob):
    # synthetic free data carries no potential, no rotation, no kernel;
    # every fitted f value must be zero to rounding
    synth = synthesize_nodal_data(free_prob, (5, 40))
    offset = calibrate_offset(synth)
    grid, ns = np.linspace(0.0, math.pi, 33), sorted(synth.nodes)
    pos, val = _indexed_samples(synth, ns, grid, offset)
    f_hat = f_estimate(grid, ns, pos + offset, val)
    assert float(np.max(np.abs(f_hat.values))) <= 1e-9
