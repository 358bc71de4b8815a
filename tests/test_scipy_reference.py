"""The reconstruction's numpy spline and derivative against scipy.

`SampledCurve.at` is the not-a-knot cubic spline of
`scipy.interpolate.CubicSpline`, and `differentiate` the 9-point quadratic
`scipy.signal.savgol_filter` derivative with mode="interp".  scipy is only
the reference here: the package itself does not import it.
"""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.signal import savgol_filter

from nodalrec import inverse
from nodalrec.inverse import WINDOW, SampledCurve, differentiate, reconstruct


def _scipy_at(curve, xq):
    out = CubicSpline(curve.x, curve.values)(np.asarray(xq, dtype=float))
    return float(out) if out.ndim == 0 else out


def _scipy_differentiate(curve):
    deriv = savgol_filter(
        curve.values, window_length=WINDOW, polyorder=2, deriv=1,
        delta=float(curve.x[1] - curve.x[0]), mode="interp",
    )
    return SampledCurve(x=curve.x, values=deriv)


@pytest.mark.parametrize("n", [2, 3, 4, 16, 65])
@pytest.mark.parametrize("grid", ["uniform", "random"])
def test_spline_matches_cubic_spline(n, grid):
    rng = np.random.default_rng(n)
    if grid == "uniform":
        x = np.linspace(0.0, math.pi, n)
    else:
        x = np.cumsum(rng.uniform(0.05, 1.0, n)) - 0.5
    y = rng.normal(size=n)
    # outside the grid, up to three end-interval widths past each end
    w0, w1 = x[1] - x[0], x[-1] - x[-2]
    xq = np.concatenate([
        x,
        rng.uniform(x[0], x[-1], 200),
        rng.uniform(x[0] - 3.0 * w0, x[0], 20),
        rng.uniform(x[-1], x[-1] + 3.0 * w1, 20),
    ])
    curve = SampledCurve(x=x, values=y)
    tol = 1e-12 * np.max(np.abs(y))
    assert np.max(np.abs(curve.at(xq) - _scipy_at(curve, xq))) <= tol
    for q in (x[0] - w0, 0.5 * (x[0] + x[-1]), x[-1] + w1):
        value = curve.at(q)
        assert isinstance(value, float)
        assert abs(value - _scipy_at(curve, q)) <= tol


@pytest.mark.parametrize("x, y", [
    ([1.0], [2.0]),
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 1.0, np.nan, 3.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 1.0, 2.0, np.inf], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 1.0, 2.0, 3.0], [0.0, np.inf, 2.0, 3.0]),
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, np.nan, 3.0]),
], ids=["one-sample", "repeated-x", "decreasing-x", "nan-x", "inf-x", "inf-y", "nan-y"])
def test_spline_rejects_like_cubic_spline(x, y):
    curve = SampledCurve(x=x, values=y)
    with pytest.raises(Exception) as ref:
        _scipy_at(curve, 0.5)
    with pytest.raises(Exception) as got:
        curve.at(0.5)
    assert type(got.value) is type(ref.value) is ValueError


@pytest.mark.parametrize("n", [10, 17, 65, 257])
def test_differentiate_matches_savgol_filter(n):
    rng = np.random.default_rng(100 + n)
    curve = SampledCurve(x=np.linspace(-1.0, 2.0, n), values=rng.normal(size=n))
    ref = _scipy_differentiate(curve).values
    got = differentiate(curve).values
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_reconstruct_matches_scipy_tools(worked_synth_data, worked_synth_recon, monkeypatch):
    monkeypatch.setattr(SampledCurve, "at", _scipy_at)
    monkeypatch.setattr(inverse, "differentiate", _scipy_differentiate)
    ref = reconstruct(worked_synth_data)
    got = worked_synth_recon
    for name in ("theta_hat", "beta_hat", "m_hat"):
        assert abs(getattr(got, name) - getattr(ref, name)) <= 1e-12, name
    for name in ("f_hat", "g_hat", "V_hat", "Lprime_hat"):
        assert np.max(np.abs(getattr(got, name).values - getattr(ref, name).values)) <= 1e-12, name
    assert got.diagnostics.keys() == ref.diagnostics.keys()
    for key, value in ref.diagnostics.items():
        if isinstance(value, str):
            assert got.diagnostics[key] == value
        else:
            assert abs(got.diagnostics[key] - value) <= 1e-12, key
