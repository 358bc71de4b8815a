import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nodalrec.errors import InvalidProblemError, MagnitudeError, ResolutionError
from nodalrec.fixtures import (
    constant_mass_exact,
    constant_mass_problem,
    cosine_roundtrip_problem,
    free_problem,
    worked_example_problem,
)
from nodalrec import forward
from nodalrec.forward import (
    DEFAULT_MIN_POINTS,
    _check_magnitude,
    _compose,
    char_fn,
    char_fn_normalized,
    endpoint_states,
    grid_maps,
    initial_state,
    resolution_points,
    solve_batch,
)
from nodalrec.problem import (
    BoundaryParams,
    CoefficientSet,
    GeneralKernel,
    KernelMatrix,
    ProblemDefinition,
    problem_from_mapping,
)
from nodalrec.spectrum import compute_spectrum, find_nodes

import _rk4_oracle
from _bullets import covers
from _integral_oracle import integral_residual
from conftest import EXP_KERNEL_DOC, EXP_KERNEL_SEPARABLE_DOC, trajectory

PI = math.pi


def sup_err(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def test_resolution_floor_and_guard():
    assert resolution_points(1.0) == DEFAULT_MIN_POINTS
    pts = resolution_points(100.0)
    assert 100.0 * (PI / pts) <= 0.05 + 1e-15
    with pytest.raises(ResolutionError) as info:
        solve_batch(free_problem(), [100.0], points=512)  # lambda h = 0.61 > 0.2
    assert info.value.required_points is not None


@covers("forward.bc-residual-zero")
@given(
    theta=st.floats(min_value=-1.5, max_value=PI / 2, allow_nan=False),
    b1=st.floats(min_value=-3, max_value=3, allow_nan=False),
    b2=st.floats(min_value=-3, max_value=3, allow_nan=False),
    lam=st.floats(min_value=-30, max_value=30, allow_nan=False),
)
def test_initial_state_kills_left_bc(theta, b1, b2, lam):
    bc = BoundaryParams(theta=theta, b1=b1, b2=b2)
    y1, y2 = initial_state(bc, lam)
    resid = (lam * math.cos(theta) + b1) * y1 + (lam * math.sin(theta) + b2) * y2
    assert abs(resid) <= 1e-12 * max(1.0, lam * lam)


@covers("forward.bc-residual-zero")
def test_trajectory_bc_residual_zero():
    problem = worked_example_problem()
    bc, lam = problem.bc, 7.3
    y1, y2 = solve_batch(problem, [lam]).Y[:, 0, 0]
    resid = (lam * math.cos(bc.theta) + bc.b1) * y1 + (lam * math.sin(bc.theta) + bc.b2) * y2
    assert abs(resid) <= 1e-12 * 7.3**2


@covers("forward.halving-order")
def test_constant_mass_closed_form_and_order():
    problem = constant_mass_problem(1.0)
    lam = 5.0
    coarse = trajectory(problem, lam)
    exact1, _ = constant_mass_exact(1.0, lam, coarse.grid)
    e_coarse = sup_err(coarse.phi1, exact1)
    assert e_coarse <= 1e-6

    fine = trajectory(problem, lam, points=2 * (coarse.grid.size - 1))
    exact1f, _ = constant_mass_exact(1.0, lam, fine.grid)
    e_fine = sup_err(fine.phi1, exact1f)
    assert e_coarse / e_fine >= 8.0


def test_pure_rotation_exact():
    # V = 0, m = 0, no kernel: phi1 = lam sin(theta + lam x), phi2 = -lam cos(theta + lam x)
    problem = free_problem(theta=0.4)
    lam = 3.0
    traj = trajectory(problem, lam)
    assert sup_err(traj.phi1, lam * np.sin(0.4 + lam * traj.grid)) < 1e-7
    assert sup_err(traj.phi2, -lam * np.cos(0.4 + lam * traj.grid)) < 1e-7


def test_zero_kernel_propagator_equals_general_path():
    # the kernel-free problem (2 x 2 step maps on y) and the same problem with
    # a structurally zero general kernel (Chebyshev memory states, step maps
    # on the coupled input (y, C W)) must agree
    base = worked_example_problem()
    fast = ProblemDefinition(bc=base.bc, coeffs=CoefficientSet(
        V=base.coeffs.V, m=base.coeffs.m))
    slow = ProblemDefinition(bc=base.bc, coeffs=CoefficientSet(
        V=base.coeffs.V, m=base.coeffs.m,
        chi=KernelMatrix(k12=GeneralKernel(lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t)))))))
    lam = 9.5
    a = trajectory(fast, lam, points=1024)
    b = trajectory(slow, lam, points=1024)
    assert sup_err(a.phi1, b.phi1) < 1e-12 * lam
    assert sup_err(a.phi2, b.phi2) < 1e-12 * lam


def test_separable_equals_general_kernel():
    sep = worked_example_problem()
    k12 = sep.coeffs.chi.k12
    gen = ProblemDefinition(bc=sep.bc, coeffs=CoefficientSet(
        V=sep.coeffs.V, m=sep.coeffs.m,
        chi=KernelMatrix(k12=GeneralKernel(lambda x, t: k12.eval(x, t)))))
    # the exponential kernel of conftest, as general expressions and as its
    # exact separable rewrite c exp(-x) exp(t): exp(t) lies in the span of
    # the 16 Chebyshev states to rounding, and RK4 commutes with a fixed
    # linear change of state variables, so the two agree far below the
    # step error (measured 3.6e-15 on phi1 and phi2)
    pairs = [(sep, gen, 1e-11),
             (problem_from_mapping(EXP_KERNEL_SEPARABLE_DOC), problem_from_mapping(EXP_KERNEL_DOC),
              1e-13)]
    lam = 6.0
    for separable, general, bound in pairs:
        a = trajectory(separable, lam, points=768)
        b = trajectory(general, lam, points=768)
        assert sup_err(a.phi1, b.phi1) < bound
        assert sup_err(a.phi2, b.phi2) < bound


@covers("forward.integral-self-consistency")
def test_integral_equation_self_consistency():
    problem = worked_example_problem()
    lam = 6.0
    r1 = integral_residual(problem, trajectory(problem, lam, points=1536))
    r2 = integral_residual(problem, trajectory(problem, lam, points=3072))
    assert r1 <= 1e-4
    assert r1 / r2 > 3.0  # the oracle's second-order trapezoid rule


def test_batch_matches_scalar():
    problem = worked_example_problem()
    lams = np.array([4.0, 7.5, 11.25])
    sol = solve_batch(problem, lams, points=1024)
    for b, lam in enumerate(lams):
        traj = trajectory(problem, lam, points=1024)
        assert sup_err(sol.Y[0, :, b], traj.phi1) < 1e-13 * max(1, lam**2)
        assert sup_err(sol.Y[1, :, b], traj.phi2) < 1e-13 * max(1, lam**2)


@pytest.mark.parametrize("chi", ["(x - t)^1.5", "exp(-8*(x - t))"])
def test_unrepresentable_general_kernel_refused(chi):
    # (x - t)^1.5 is NaN at interpolation nodes t > x; exp(-8 (x - t))
    # reaches e^(8 pi) there, so its interpolant misses the bound by rounding
    problem = problem_from_mapping({"bc": {"theta": 0.0, "beta": 0.0},
                                    "coeffs": {"chi": {"12": chi}}})
    with pytest.raises(InvalidProblemError, match="chi12.*chi_separable"):
        compute_spectrum(problem, (5, 6))
    with pytest.raises(InvalidProblemError, match="chi12"):
        trajectory(problem, 3.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_nonfinite_lambda_rejected(lam):
    with pytest.raises(ValueError, match="finite"):
        trajectory(free_problem(), lam)
    with pytest.raises(ValueError, match="finite"):
        char_fn(worked_example_problem(), [2.0, lam])


@pytest.mark.parametrize("problem", [free_problem(), worked_example_problem()])
def test_empty_lambda_batch(problem):
    out = char_fn(problem, np.array([]))
    assert isinstance(out, np.ndarray) and out.shape == (0,)
    assert char_fn_normalized(problem, []).shape == (0,)


def _separable_problem(states):
    """V = cos x, m = 0.5, theta = 0.3, beta = 0.1 and the separable
    chi12 = sum_{k <= states} 0.1 cos(k x) sin(k t / 2): 2 + states entries
    in the augmented state."""
    return problem_from_mapping({
        "bc": {"theta": 0.3, "beta": 0.1},
        "coeffs": {"V": "cos(x)", "m": 0.5, "chi_separable": {"12": [
            {"a": f"0.1*cos({k}*x)", "b": f"sin({k}*t/2)"} for k in range(1, states + 1)
        ]}},
    })


def _kernel_kinds(cosine_problem, exp_kernel_problem):
    """One problem per kind of kernel, by name; "wide" has the longest
    state (2 + S = 8) that _step_maps keeps in the plain layout."""
    base = worked_example_problem()
    return {
        "zero": ProblemDefinition(bc=base.bc, coeffs=CoefficientSet(V=base.coeffs.V, m=base.coeffs.m)),
        "separable": cosine_problem,
        "wide": _separable_problem(6),
        "general": exp_kernel_problem,
    }


@pytest.mark.parametrize("phase", [0.05, 0.2])
@pytest.mark.parametrize("kind", ["zero", "separable", "general", "wide"])
def test_step_maps_match_stage_form_rk4(kind, phase, cosine_problem, exp_kernel_problem):
    # the polynomial step maps against the four-stage RK4 of _rk4_oracle on
    # the same grid (300 steps: two full blocks and a partial one), for a
    # kernel-free problem, the separable cosine kernel and a separable one of
    # 6 terms (maps on (y, W)), and the general exponential kernel (32 memory
    # states, maps on (y, C W)); find_nodes refines with stage-form steps
    # from the states kept at the crossings
    problem = _kernel_kinds(cosine_problem, exp_kernel_problem)[kind]
    n_steps = 300
    lam = phase * n_steps / PI * (1.0 - 1e-12)  # |lambda| h = phase
    lams = np.array([lam, -0.5 * lam, 0.3 * lam, 1.0])
    bound = 1e-12 * max(1.0, lam * lam)
    Z = _rk4_oracle.solve(problem, lams, n_steps)
    assert sup_err(solve_batch(problem, lams, points=n_steps).Z, Z) <= bound
    assert sup_err(char_fn(problem, lams, points=n_steps),
                   _rk4_oracle.char_fn(problem, lams, n_steps)) <= bound
    nodes = find_nodes(problem, lam, points=n_steps)
    ref = _rk4_oracle.nodes(problem, lam, n_steps)
    assert nodes.size == ref.size > 0
    assert sup_err(nodes, ref) <= bound


@pytest.mark.parametrize("kind", ["zero", "separable", "general", "wide"])
def test_grid_maps_equal_plain_calls(kind, cosine_problem, exp_kernel_problem):
    # maps built once for the grid (300 steps: two full blocks and a partial
    # one) give exactly what a call building its own maps gives, whether
    # composed for every lambda the guard admits or for twice the batch's
    # max|lambda| (a cap above the batch's own, and above the guard's)
    problem = _kernel_kinds(cosine_problem, exp_kernel_problem)[kind]
    n_steps = 300
    lams = np.array([17.5, -9.0, 4.25, 1.0, 0.0])
    for maps in (grid_maps(problem, n_steps), grid_maps(problem, n_steps, lam_bound=2 * 17.5)):
        for fn in (char_fn, char_fn_normalized, endpoint_states):
            assert np.array_equal(fn(problem, lams, points=n_steps, maps=maps),
                                  fn(problem, lams, points=n_steps))
        assert np.array_equal(solve_batch(problem, lams, points=n_steps, maps=maps).Z,
                              solve_batch(problem, lams, points=n_steps).Z)
        assert (char_fn(problem, 6.0, points=n_steps, maps=maps)
                == char_fn(problem, 6.0, points=n_steps))


@pytest.mark.parametrize("n_steps, lams", [
    (300, [0.0, 1.0, -1.0, 17.5]),
    (1000, [0.0, 1.0, -1.0, 17.5]),
    (7565, [0.0, 1.0, -1.0, 17.5, 120.4]),
    # the guard admits +-1000.2 from 15712 steps on; at that length the
    # single-step endpoint's own rounding reaches 2.4e-12 at lambda = 1
    # (measured against the same maps applied in long double)
    (15721, [1000.2, -1000.2]),
])
@pytest.mark.parametrize("kind", ["zero", "separable", "wide"])
def test_composed_endpoint_matches_single_steps(kind, n_steps, lams, cosine_problem,
                                                exp_kernel_problem, monkeypatch):
    # endpoint_states steps over maps composed of _SPAN steps each, and
    # solve_batch over the single-step maps of the same RK4 grid: the two
    # endpoints agree to rounding.  300, 7565 and 15721 are not multiples
    # of _SPAN, so the padded last run is covered
    problem = _kernel_kinds(cosine_problem, exp_kernel_problem)[kind]
    lams = np.array(lams)
    composed = []
    monkeypatch.setattr(forward, "_compose", lambda *args: composed.append(1) or _compose(*args))
    end = endpoint_states(problem, lams, points=n_steps)
    assert len(composed) == -(-n_steps // forward._BLOCK)  # every block was composed
    last = solve_batch(problem, lams, points=n_steps).Z[:2, -1]
    assert np.all(np.abs(end - last) <= 1e-12 * np.maximum(1.0, lams * lams))


def _full_degree_endpoint(problem, lams, maps):
    """The endpoints over each block of maps.blocks composed uncapped, to
    the full degree 4 _SPAN of a product of _SPAN steps, and applied at it."""
    full = 4 * forward._SPAN + 1
    z = np.zeros((maps.size, lams.size))
    z[:2] = initial_state(problem.bc, lams)
    step = lambda spans: forward._stepper((spans,), lams ** np.arange(full)[:, None, None])
    for block in maps.blocks:
        spans = _compose(block, full - 1)
        apply = step(spans)
        for i in range(spans.shape[0]):
            z = apply(z, i)
    return z[:2]


@pytest.mark.parametrize("phase", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("kind", ["zero", "separable", "wide"])
def test_composed_maps_cut_off_below_rounding(kind, phase, cosine_problem, exp_kernel_problem,
                                              monkeypatch):
    # endpoint solves apply each block's composed maps only up to the cap
    # whose majorant tail is below rounding for the batch's max|lambda|,
    # whatever cap the maps were composed to; the uncapped products applied
    # at full degree 4 _SPAN give the same endpoints to rounding.  Of the
    # 129 degrees of a product of 32 steps, 24 are applied at
    # |lambda| h = 0.05 (23 is the largest degree) and 43 at the guard.
    # 1003 steps leave a padded last run
    problem = _kernel_kinds(cosine_problem, exp_kernel_problem)[kind]
    n_steps = 1003
    lam = phase * n_steps / PI * (1.0 - 1e-12)  # |lambda| h = phase
    lams = np.array([lam, -0.5 * lam, 0.3 * lam, 1.0, 0.0])
    maps = grid_maps(problem, n_steps)
    applied, stepper = [], forward._stepper
    monkeypatch.setattr(forward, "_stepper", lambda block, powers: applied.append(
        block[0].shape[-1] // block[0].shape[1]) or stepper(block, powers))
    end = endpoint_states(problem, lams, points=n_steps, maps=maps)
    caps = forward._caps(maps.majorants, lam * PI / n_steps)
    assert applied == (caps + 1).tolist()  # one cut-off per block, at the batch's cap
    assert max(applied) - 1 <= (23 if phase <= 0.05 else 42)
    monkeypatch.setattr(forward, "_stepper", stepper)
    ref = _full_degree_endpoint(problem, lams, maps)
    assert np.all(np.abs(end - ref) <= 1e-12 * np.maximum(1.0, lams * lams))


@pytest.mark.parametrize("kind", ["zero", "separable", "wide"])
def test_majorant_bounds_the_dropped_coefficients(kind, cosine_problem, exp_kernel_problem):
    # against the uncapped products of each block: every coefficient of a
    # run of _SPAN steps is within its majorant, and the coefficients the
    # cap drops for a lambda bound sum to at most 2^-60 of the smallest
    # ||Q_0||, which the kept terms exceed.  Checked at the guard and on a
    # search-like grid (|lambda| h = 0.05), 1003 steps
    problem = _kernel_kinds(cosine_problem, exp_kernel_problem)[kind]
    n_steps = 1003
    h = PI / n_steps
    for phase in (0.05, 0.2):
        lam = phase / h
        maps = grid_maps(problem, n_steps, lam_bound=lam)
        caps = forward._caps(maps.majorants, phase)
        assert maps.spans.shape[-1] == (caps.max() + 1) * maps.size < 4 * forward._SPAN * maps.size
        powers = lam ** np.arange(4 * forward._SPAN + 1)
        for block, majorant, cap in zip(maps.blocks, maps.majorants, caps):
            spans = _compose(block, 4 * forward._SPAN)
            Q = spans.reshape(spans.shape[0], maps.size, -1, maps.size)  # (run, row, degree, col)
            norms = np.abs(Q).sum(axis=-1).max(axis=1)  # ||Q_k||_inf of each run
            smallest = norms[:, 0].min()
            assert np.all(norms * powers <= (1 + 1e-12) * majorant * phase ** np.arange(
                powers.size) * smallest)
            dropped = (norms[:, cap + 1 :] * powers[cap + 1 :]).sum(axis=1)
            assert dropped.max() <= 2.0**-60 * smallest


@pytest.mark.parametrize("phase", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("kind", ["zero", "separable", "wide"])
def test_capped_maps_match_single_steps(kind, phase, cosine_problem, exp_kernel_problem,
                                        monkeypatch):
    # maps composed only to the cap of the batch's lambda bound (grid_maps
    # with lam_bound) give the endpoints of single steps to rounding; a
    # batch above the bound does too, composing each block itself (with the
    # cap of its own lambda) rather than applying the cut maps, so it equals
    # a call without maps bit for bit
    problem = _kernel_kinds(cosine_problem, exp_kernel_problem)[kind]
    n_steps = 1003
    lam = phase * n_steps / PI * (1.0 - 1e-12)  # |lambda| h = phase
    lams = np.array([lam, -0.5 * lam, 0.3 * lam, 1.0, 0.0])
    bound = 1e-12 * np.maximum(1.0, lams * lams)
    last = solve_batch(problem, lams, points=n_steps).Z[:2, -1]
    maps = grid_maps(problem, n_steps, lam_bound=lam)
    assert np.all(np.abs(endpoint_states(problem, lams, points=n_steps, maps=maps) - last) <= bound)
    low = grid_maps(problem, n_steps, lam_bound=0.3 * lam)
    composed = []
    monkeypatch.setattr(forward, "_compose", lambda *args: composed.append(1) or _compose(*args))
    end = endpoint_states(problem, lams, points=n_steps, maps=low)
    assert len(composed) == len(low.blocks)  # every block composed afresh
    assert np.all(np.abs(end - last) <= bound)
    assert np.array_equal(end, endpoint_states(problem, lams, points=n_steps))


@pytest.mark.parametrize("queries", [4 * forward._BLOCK - 1, 4 * forward._BLOCK,
                                     4 * forward._BLOCK + 1])
@pytest.mark.parametrize("kind", ["zero", "separable", "general", "wide"])
def test_single_steps_match_stage_form_rk4(kind, queries, cosine_problem, exp_kernel_problem):
    # node refinement's steps, one per query from its own state, lambda and
    # interval, taken in chunks of 4 _BLOCK queries, against the stage-form
    # step of _rk4_oracle on each query
    problem = _kernel_kinds(cosine_problem, exp_kernel_problem)[kind]
    system = forward.AugmentedSystem(problem)
    rng = np.random.default_rng(7)
    lam = rng.uniform(-60.0, 60.0, queries)
    x0 = rng.uniform(0.0, PI - 0.004, queries)
    x1 = x0 + rng.uniform(0.0, 0.004, queries)
    z = rng.normal(size=(system.size, queries)) * np.maximum(1.0, np.abs(lam))
    out = forward._single_steps(system, z, lam, x0, x1)
    ref = _rk4_oracle.step(z.T[..., None], np.stack([-lam, lam], axis=-1)[..., None],
                           (x1 - x0)[:, None, None], system.coefficients(x0),
                           system.coefficients(x0 + 0.5 * (x1 - x0)), system.coefficients(x1))
    assert sup_err(out, ref[..., 0].T) <= 1e-14 * np.max(np.abs(z))


def test_long_states_take_single_steps(exp_kernel_problem, monkeypatch):
    # maps in the coupled layout (more than 6 memory states: the 32
    # Chebyshev states of the general exponential kernel, and 7 separable
    # terms, the shortest such state) are not composed: endpoint_states then
    # takes the very steps of solve_batch, and grid_maps stores no composed
    # maps
    monkeypatch.setattr(forward, "_compose", None)
    lams = np.array([17.5, -9.0, 1.0])
    for problem in (exp_kernel_problem, _separable_problem(7)):
        assert np.array_equal(endpoint_states(problem, lams, points=300),
                              solve_batch(problem, lams, points=300).Z[:2, -1])
        assert grid_maps(problem, 300).spans is None


def test_grid_maps_refused_for_another_problem(cosine_problem):
    # maps belong to one problem object: an equal copy is refused too
    maps = grid_maps(cosine_problem, 300)
    for other in (free_problem(), cosine_roundtrip_problem()):
        with pytest.raises(ValueError, match="another problem"):
            char_fn(other, [3.0], points=300, maps=maps)
        with pytest.raises(ValueError, match="another problem"):
            solve_batch(other, [3.0], points=300, maps=maps)


def test_grid_maps_refused_for_another_step_count(cosine_problem):
    maps = grid_maps(cosine_problem, 300)
    with pytest.raises(ValueError, match="300 steps, not 301"):
        char_fn(cosine_problem, [3.0], points=301, maps=maps)
    with pytest.raises(ValueError, match=f"300 steps, not {DEFAULT_MIN_POINTS}"):
        solve_batch(cosine_problem, [3.0], maps=maps)
    with pytest.raises(ResolutionError, match="at least 2"):
        grid_maps(cosine_problem, 1)


def test_char_fn_memory_flat_in_step_count(cosine_problem):
    # step maps are built a block of steps at a time, so no array grows with
    # the grid: the traced peak of one 1212-lambda evaluation (less the
    # returned array) stays flat when the step count is quadrupled, where
    # tables over the full grid would grow with it.  lambda is scaled with
    # the step count (|lambda| h up to about 0.186 on both grids), because
    # the degree the composed maps are applied to follows |lambda| h
    lams = np.linspace(19.0, 121.0, 1212)
    char_fn(cosine_problem, lams, points=2048)
    peaks = []
    for points in (2048, 8192):
        tracemalloc.start()
        try:
            out = char_fn(cosine_problem, lams * (points / 2048), points=points)
            peaks.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.2 * peaks[0], peaks


def test_crossing_scan_memory_flat_in_step_count(cosine_problem):
    # nodal_data's trajectory pass keeps the sign changes of phi1 and the
    # states at their left nodes, not the trajectories: with the grid's maps
    # built beforehand, the traced peak of the pass stays flat when the step
    # count is quadrupled, where stored trajectories would grow with it
    lams = np.linspace(20.0, 120.0, 101)
    peaks = []
    for points in (2048, 8192):
        maps = grid_maps(cosine_problem, points)
        solve_batch(cosine_problem, lams, points=points, maps=maps, crossings=True)
        tracemalloc.start()
        try:
            found = solve_batch(cosine_problem, lams, points=points, maps=maps, crossings=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert found.cols.size == found.Z.shape[1] > 5000 and not found.adjacent.any()
    assert abs(peaks[1] - peaks[0]) <= 0.2 * peaks[0], peaks


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2e150, -2e150])
def test_magnitude_check(bad):
    lam = np.array([1.0, 2.0])
    _check_magnitude(np.array([[1.0, -1e150], [0.0, 3.0]]), lam)
    _check_magnitude(np.empty((2, 0)), lam[:0])
    with pytest.raises(MagnitudeError):
        _check_magnitude(np.array([[1.0, bad], [0.0, 3.0]]), lam)


@pytest.mark.parametrize("crossings", [False, True])
def test_trajectory_solves_check_magnitude(crossings, monkeypatch):
    # both results of solve_batch check the magnitude of the solution pair
    monkeypatch.setattr(forward, "MAGNITUDE_LIMIT", 10.0)
    solve_batch(free_problem(), [2.0], points=400, crossings=crossings)
    with pytest.raises(MagnitudeError, match="exceeds"):
        solve_batch(free_problem(), [2.0, 20.0], points=400, crossings=crossings)
