import math
import tracemalloc

import numpy as np
import pytest

from nodalrec.asymptotics import synthesize_nodal_data
from nodalrec.errors import (
    CalibrationError,
    InsufficientDataError,
    MassRecoveryError,
    StageQualityError,
)
from nodalrec.fixtures import (
    constant_mass_problem,
    worked_example_problem,
    worked_example_reference,
)
from nodalrec.inverse import (
    DEFAULT_GRID_SIZE,
    DEFAULT_N_MIN,
    SampledCurve,
    _brute_force_check,
    _indexed_samples,
    _nearest,
    calibrate_offset,
    differentiate,
    f_estimate,
    g_estimate,
    reconstruct,
)
from nodalrec.problem import (
    BoundaryParams,
    CoefficientSet,
    KernelMatrix,
    ProblemDefinition,
    SeparableKernel,
    ZeroKernel,
)
from nodalrec.spectrum import NodalData, nodal_data

from _bullets import covers
from conftest import sup

WORKED_G0 = 0.8535533905932738
WORKED_GPI = WORKED_G0 + math.pi / 2


def _unit_kernel_problem():
    # chi12(x, t) = 1 with m = 0 gives L(pi) = pi, so the mass radicand
    # 2(g(pi) - g(0))/pi sits at exactly -1: the L(pi) = 0 normalization
    # that mass recovery relies on is violated as hard as possible
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zeros = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return ProblemDefinition(
        bc=BoundaryParams(theta=0.0, beta=0.0, b1=0.0, b2=0.0, d1=0.0, d2=0.0),
        coeffs=CoefficientSet(
            V=zeros,
            m=0.0,
            chi=KernelMatrix(
                k11=ZeroKernel(),
                k12=SeparableKernel(terms=((ones, ones),)),
                k21=ZeroKernel(),
                k22=ZeroKernel(),
            ),
        ),
    )


def _indexed_samples_loop(data, ns, x, offset):
    # the scalar loop the vectorized gather replaced, kept as its reference
    pos = np.empty(len(ns), dtype=int)
    val = np.empty(len(ns), dtype=float)
    for k, n in enumerate(ns):
        xs = np.asarray(data.nodes[n], dtype=float)
        p = int(round(x * n / math.pi)) - offset
        p = min(max(p, 0), xs.size - 1)
        pos[k] = p
        val[k] = xs[p]
    return pos, val


def _tie(n, k):
    """x with x n / pi == k + 1/2 exactly, or None."""
    x = (k + 0.5) * math.pi / n
    for cand in (x, np.nextafter(x, 0.0), np.nextafter(x, 4.0)):
        if float(cand) * n / math.pi == k + 0.5:
            return float(cand)
    return None


def test_indexed_samples_match_scalar_loop():
    rng = np.random.default_rng(3)
    # short lists clip at the top, offsets up to 2 at the bottom
    nodes = {
        int(n): np.sort(rng.uniform(0.01, math.pi - 0.01, size=rng.integers(1, n + 2)))
        for n in rng.choice(np.arange(5, 400), size=60, replace=False)
    }
    data = NodalData(nodes=nodes)
    ns = sorted(nodes)
    xs = [0.0, math.pi, *rng.uniform(0.0, math.pi, size=20)]
    ties = [(n, k, _tie(n, k)) for n in ns[:20] for k in (0, 1, n // 3, n // 2, n - 1)]
    ties = [(n, k, x) for n, k, x in ties if x is not None]
    # both parities of k, so round half to even matters
    assert {k % 2 for _, k, _ in ties} == {0, 1}
    xs += [x for _, _, x in ties]
    for offset in range(-2, 3):
        pos, val = _indexed_samples(data, ns, xs, offset)
        assert pos.shape == val.shape == (len(xs), len(ns))
        for i, x in enumerate(xs):
            ref_pos, ref_val = _indexed_samples_loop(data, ns, x, offset)
            assert np.array_equal(pos[i], ref_pos) and pos.dtype == ref_pos.dtype
            assert np.array_equal(val[i], ref_val)
    # the clipping was reached at both ends
    pos, _ = _indexed_samples(data, ns, [0.0, math.pi], 2)
    assert np.all(pos[0] == 0)
    pos, _ = _indexed_samples(data, ns, [0.0, math.pi], -2)
    assert np.array_equal(pos[1], [len(nodes[n]) - 1 for n in ns])


def test_calibration_offset_on_fixtures(worked_synth_data, free_numeric_data):
    assert calibrate_offset(worked_synth_data) == 1
    assert calibrate_offset(free_numeric_data) == 1


def test_calibration_survives_deleted_node(worked_synth_data):
    nodes = {n: np.array(v) for n, v in worked_synth_data.nodes.items()}
    victim = sorted(nodes)[len(nodes) // 2]
    nodes[victim] = np.delete(nodes[victim], len(nodes[victim]) // 2)
    damaged = NodalData(nodes=nodes, source="synthetic")
    assert calibrate_offset(damaged) == 1


def test_calibration_rejects_inconsistent_data():
    with pytest.raises(CalibrationError):
        calibrate_offset(NodalData(nodes={}))
    # single stray node per n whose implied origin grows with n
    cluster = NodalData(nodes={n: np.array([3.13]) for n in range(5, 14)})
    with pytest.raises(CalibrationError):
        calibrate_offset(cluster)
    # origin lands inside [-2, 2] but the scaled residuals have spread
    # far beyond pi: no offset branch stabilizes them
    f0 = [0.5, 0.6, 0.7, 0.8, 7.0, 7.2, 20.0, 22.0, 25.0]
    wild = NodalData(nodes={n: np.array([f0[k] / n]) for k, n in enumerate(range(5, 14))})
    with pytest.raises(CalibrationError):
        calibrate_offset(wild)


def test_f_estimate_worked_midpoint(worked_synth_data):
    # f(pi/2) = -pi^2/16 - pi/4 for the linear-potential fixture
    offset = calibrate_offset(worked_synth_data)
    grid, ns = np.linspace(0.0, math.pi, 65), sorted(worked_synth_data.nodes)
    pos, val = _indexed_samples(worked_synth_data, ns, grid, offset)
    f_hat = f_estimate(grid, ns, pos + offset, val)
    want = -(math.pi ** 2) / 16 - math.pi / 4
    assert abs(f_hat.at(math.pi / 2) - want) <= 1e-6
    assert np.array_equal(f_hat.x, grid)
    assert 0.0 <= f_hat.dispersion <= 1e-3


def test_g_estimate_gated_on_stage1_quality(worked_synth_data):
    grid = np.linspace(0.0, math.pi, 33)
    bad_f = SampledCurve(x=grid, values=np.zeros(33), dispersion=0.5)
    ns = sorted(worked_synth_data.nodes)
    pos, val = _indexed_samples(worked_synth_data, ns, grid, 1)
    with pytest.raises(StageQualityError):
        g_estimate(grid, ns, pos + 1, val, 0.0, 0.0, bad_f)


def test_worked_stage_limits_at_endpoints(worked_synth_recon):
    # g(0) = (b1 - b2) sqrt(2)/2 + 1/2 and g(pi) = g(0) + pi/2; the pi end
    # is where the fit is cleanest, the 0 end carries the stage-2 bias
    rec = worked_synth_recon
    assert abs(rec.g_hat.values[0] - WORKED_G0) <= 5e-3
    assert abs(rec.g_hat.values[-1] - WORKED_GPI) <= 1e-9
    assert abs(rec.m_hat - 1.0) <= 1e-2


def test_differentiate_quadratic_exact():
    xs = np.linspace(0.0, math.pi, 33)
    curve = SampledCurve(x=xs, values=3.0 * xs * xs - 2.0 * xs + 1.0)
    deriv = differentiate(curve)
    assert sup(deriv.values, 6.0 * xs - 2.0) <= 1e-10


def test_differentiate_guards():
    xs = np.linspace(0.0, math.pi, 33)
    with pytest.raises(InsufficientDataError):
        differentiate(SampledCurve(x=xs[:8], values=np.sin(xs[:8])))
    uneven = SampledCurve(x=np.sqrt(np.linspace(0.1, 9.0, 33)), values=np.zeros(33))
    with pytest.raises(ValueError):
        differentiate(uneven)


def test_mass_recovery_failure_carries_partial_result():
    data = synthesize_nodal_data(_unit_kernel_problem(), (50, 200))
    with pytest.raises(MassRecoveryError) as exc:
        reconstruct(data)
    err = exc.value
    assert abs(err.radicand - (-1.0)) <= 1e-2
    assert {"theta_hat", "beta_hat", "f_hat", "g_hat", "V_hat", "diagnostics"} <= set(
        err.partial
    )


def test_known_mass_bypasses_radicand():
    data = synthesize_nodal_data(_unit_kernel_problem(), (50, 200))
    rec = reconstruct(data, known_m=0.0)
    assert rec.m_hat == 0.0
    assert rec.diagnostics["m_mode"] == "known"
    assert abs(rec.diagnostics["m_radicand"] - (-1.0)) <= 1e-2
    assert sup(rec.Lprime_hat.values, 1.0) <= 0.1


@pytest.mark.parametrize("known_m", [math.nan, math.inf])
def test_nonfinite_known_mass_rejected(known_m, worked_synth_data):
    with pytest.raises(ValueError, match="known_m must be finite"):
        reconstruct(worked_synth_data, known_m=known_m)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: node_asym's 1/n^2 node coefficient, which the g-stage mass formula "
    "inverts, misses two 1/n^2 terms (ROADMAP item 7), and at theta = beta = 0 the nodes "
    "do not depend on m (m = 1 and m = 2 agree to 1.1e-11 for n <= 120), so no estimator "
    "that reads only nodes can pass; m_hat reads about 1e-4"))
def test_constant_mass_recovered_from_numeric_nodes():
    # V = 0, chi = 0, theta = beta = 0, m = 1; synthetic nodes give m_hat = 1.015
    rec = reconstruct(nodal_data(constant_mass_problem(1.0), (20, 120)))
    assert abs(rec.m_hat - 1.0) <= 5e-2


@pytest.mark.xfail(strict=True, raises=MassRecoveryError, reason=(
    "known defect: node_asym's 1/n^2 node coefficient, which the g-stage inverts, misses "
    "two 1/n^2 terms (ROADMAP item 7), so the mass radicand 2(g(pi) - g(0))/pi of the "
    "worked example's numeric nodes reads -1.024 where m^2 = 1"))
def test_worked_example_recovered_from_numeric_nodes(worked_problem, worked_ref):
    # criterion 1's budgets, on nodes from the forward solver instead of
    # from node_asym, the formula the g-stage inverts (ROADMAP item 13)
    rec = reconstruct(nodal_data(worked_problem, (20, 120)))
    grid = rec.V_hat.x
    errs = {
        "theta": abs(rec.theta_hat - worked_ref["theta"]),
        "beta": abs(rec.beta_hat - worked_ref["beta"]),
        "V_sup": sup(rec.V_hat.values, worked_ref["V"](grid)),
        "m": abs(rec.m_hat - worked_ref["m"]),
        "Lprime_sup": sup(rec.Lprime_hat.values, worked_ref["Lprime"](grid)),
    }
    budgets = {"theta": 1e-3, "beta": 1e-3, "V_sup": 1e-2, "m": 1e-2, "Lprime_sup": 5e-2}
    assert all(errs[k] <= budgets[k] for k in budgets), errs


@covers("inverse.identity-V-from-f")
def test_identity_V_from_f(cosine_recon):
    rec = cosine_recon
    f = rec.f_hat.values
    # endpoints define the angles, so f(pi) - f(0) = -(beta - theta) exactly
    assert f[-1] - f[0] == -(rec.beta_hat - rec.theta_hat)
    want = differentiate(rec.f_hat).values - (f[-1] - f[0]) / math.pi
    assert np.array_equal(rec.V_hat.values, want)


@covers("inverse.zero-mean-V")
def test_recovered_potential_has_zero_mean(worked_synth_recon, cosine_recon):
    assert abs(worked_synth_recon.diagnostics["V_mean_integral"]) <= 1e-3
    assert abs(cosine_recon.diagnostics["V_mean_integral"]) <= 1e-3


@covers("inverse.convergence-doubling")
def test_errors_non_increasing_as_data_doubles(worked_problem, worked_ref):
    data = synthesize_nodal_data(worked_problem, (5, 400))
    prev = None
    for top in (50, 100, 200, 400):
        sliced = NodalData(
            nodes={n: data.nodes[n] for n in data.nodes if n <= top},
            source="synthetic",
        )
        rec = reconstruct(sliced)
        grid = rec.V_hat.x
        errs = {
            "theta": abs(rec.theta_hat - worked_ref["theta"]),
            "beta": abs(rec.beta_hat - worked_ref["beta"]),
            "V": sup(rec.V_hat.values, worked_ref["V"](grid)),
            "m": abs(rec.m_hat - worked_ref["m"]),
            "Lprime": sup(rec.Lprime_hat.values, worked_ref["Lprime"](grid)),
        }
        if prev is not None:
            for key, val in errs.items():
                # 10% slack, with an absolute floor so machine-zero errors
                # cannot fail on their own noise
                assert val <= max(1.1 * prev[key], 1e-12), (top, key, val, prev[key])
        prev = errs


@covers("inverse.determinism")
def test_reconstruct_is_deterministic(worked_synth_data, worked_synth_recon):
    again = reconstruct(worked_synth_data)
    assert again.theta_hat == worked_synth_recon.theta_hat
    assert again.beta_hat == worked_synth_recon.beta_hat
    assert again.m_hat == worked_synth_recon.m_hat
    for name in ("V_hat", "Lprime_hat", "f_hat", "g_hat"):
        assert np.array_equal(getattr(again, name).values,
                              getattr(worked_synth_recon, name).values)
    assert again.diagnostics == worked_synth_recon.diagnostics


def test_reconstruct_input_guards(free_prob, worked_synth_data):
    with pytest.raises(ValueError):
        reconstruct(worked_synth_data, grid_size=8)
    # read_nodal_csv accepts an n = 0 list; the fits are never handed one
    zero = NodalData(nodes={0: np.array([1.0]), **worked_synth_data.nodes}, source="synthetic")
    with pytest.raises(ValueError, match="n_min"):
        reconstruct(zero, n_min=0)
    sparse = synthesize_nodal_data(free_prob, (5, 10))
    with pytest.raises(InsufficientDataError):
        reconstruct(sparse)
    # n = 394..400 leaves 7 usable indices, one short of MIN_DISTINCT_N
    with pytest.raises(InsufficientDataError, match="have 7"):
        reconstruct(worked_synth_data, n_min=394)


def test_brute_force_check_agrees(worked_synth_recon, cosine_recon):
    # the fitted limit must stay close to the rawest data it extrapolates
    assert worked_synth_recon.diagnostics["brute_force_agreement"] <= 0.05
    assert cosine_recon.diagnostics["brute_force_agreement"] <= 0.05


def test_brute_force_check_reads_a_single_node():
    # the top index holds one node, right of every probe point: the raw
    # sample is that node at position 0, n (x - 0 pi/n) = 20 * 2.9
    nodes = {n: np.arange(1, n + 1) * math.pi / (n + 1) for n in range(5, 20)}
    nodes[20] = np.array([2.9])
    grid = np.linspace(0.0, math.pi, 65)
    worst = _brute_force_check(NodalData(nodes=nodes), grid, np.zeros(65), 0, 20)
    assert abs(worst - 58.0) <= 1e-12


@pytest.mark.parametrize("xs, x, want", [
    ([0.5, 1.5, 2.5], 0.1, 0),  # left of the first node
    ([0.5, 1.5, 2.5], 3.0, 2),  # right of the last
    ([2.9], 0.1, 0),  # one node, right of the probe
    ([0.2], 3.0, 0),  # one node, left of it
    ([0.5, 1.5, 2.5], 1.0, 0),  # a tie keeps the lower position
    ([0.5, 1.5, 2.5], 2.0, 1),
    ([0.5, 1.5, 2.5], 1.5, 1),  # on a node
    ([0.5, 1.5, 2.5], 1.9, 1),
    ([0.5, 1.5, 2.5], 2.1, 2),
])
def test_nearest_node(xs, x, want):
    # the rule calibration and the brute-force check share; an array of
    # probes gets the first position of least distance for each
    xs = np.array(xs)
    assert _nearest(xs, x) == want
    probes = np.array([x, 0.0, 1.0, 2.0, math.pi])
    assert _nearest(xs, probes).tolist() == [int(np.argmin(np.abs(xs - p))) for p in probes]


def test_sampled_curve_guards(worked_synth_recon):
    with pytest.raises(ValueError):
        SampledCurve(x=np.linspace(0, 1, 5), values=np.zeros(4))
    f_hat = worked_synth_recon.f_hat
    assert sup(f_hat.at(f_hat.x), f_hat.values) <= 1e-12


def test_sampled_curve_owns_its_samples():
    # `at` caches the spline pieces, so later writes to the caller's arrays
    # must not reach the curve, and the curve's own arrays are read-only
    x = np.linspace(0.0, math.pi, 17)
    y = np.sin(x)
    curve = SampledCurve(x=x, values=y)
    before = curve.at(1.0)
    y[:] = 0.0
    x[:] = np.linspace(1.0, 2.0, 17)
    assert curve.at(1.0) == before
    with pytest.raises(ValueError):
        curve.values[0] = 1.0


def test_reconstruct_memory_per_sample(worked_dense_data):
    # the stage fits build their samples and regressors a block of grid
    # points at a time, so on the 951 dense indices the peak stays near the
    # two whole tables of calibrated indices and nodes (29 bytes a sample)
    reconstruct(worked_dense_data)
    samples = DEFAULT_GRID_SIZE * sum(1 for n, xs in worked_dense_data.nodes.items()
                                      if n >= DEFAULT_N_MIN and xs.size)
    tracemalloc.start()
    try:
        reconstruct(worked_dense_data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / samples < 50, f"{peak / samples:.1f} bytes per sample"
