"""Tests of the benchmark's own checkers: each passes on the program's
output today and fails on a perturbed copy of it.

    python3 -m pytest -q perfbench/test_oracles.py

Small index ranges of the workloads' problems keep this to about a minute.
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nodalrec as nr  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402

SHIFT = 1e-4


@pytest.fixture(scope="module")
def mass_problem():
    return inputs.load(nr, HERE.parent, "mass_spectrum")


def _shifted(entries, n, by=SHIFT):
    out = dict(entries)
    out[n] += by
    return out


def test_constant_mass_eigenvalues_pass_and_catch_a_shift(mass_problem):
    ns = range(5, 41)
    spec = nr.compute_spectrum(mass_problem, (5, 40))
    ref = oracles.constant_mass_eigenvalues(ns, inputs.MASS)
    good = oracles.check_spectrum(spec.entries, ref, inputs.EIGEN_TOL)
    assert good.ok and 0 < good.dev < inputs.EIGEN_TOL
    assert not oracles.check_spectrum(_shifted(spec.entries, 23), ref, inputs.EIGEN_TOL).ok
    del_one = {n: v for n, v in spec.entries.items() if n != 17}
    assert not oracles.check_spectrum(del_one, ref, inputs.EIGEN_TOL).ok


def test_constant_mass_nodes_pass_and_catch_a_dropped_node(mass_problem):
    ns = range(5, 21)
    data = nr.nodal_data(mass_problem, (5, 20))
    assert oracles.check_constant_mass_nodes(data.nodes, ns, inputs.NODE_TOL).ok
    nodes = dict(data.nodes)
    nodes[12] = np.delete(nodes[12], 4)
    assert not oracles.check_constant_mass_nodes(nodes, ns, inputs.NODE_TOL).ok
    nodes = dict(data.nodes)
    nodes[9] = nodes[9] + np.where(np.arange(nodes[9].size) == 3, SHIFT, 0.0)
    assert not oracles.check_constant_mass_nodes(nodes, ns, inputs.NODE_TOL).ok


@pytest.mark.parametrize("m", [0.0, 0.5, 1.0])
def test_exp_kernel_oracle_without_kernel_is_constant_mass(m):
    ns = range(5, 31)
    got = oracles.exp_kernel_eigenvalues(ns, 0.0, 0.0, m, 0.0, 0.0, 0.0, 0.0, 1.0)
    want = oracles.constant_mass_eigenvalues(ns, m)
    assert max(abs(got[n] - want[n]) for n in ns) < 1e-10


def test_exp_kernel_oracle_matches_the_general_kernel_path_and_catches_a_shift():
    problem = inputs.load(nr, HERE.parent, "general_kernel")
    spec = nr.compute_spectrum(problem, (8, 9))
    p = inputs.EXP_KERNEL
    ref = oracles.exp_kernel_eigenvalues(
        (8, 9), p["theta"], p["beta"], p["m"], p["c"], p["q"], 0.0, p["c"], p["a"]
    )
    good = oracles.check_spectrum(spec.entries, ref, inputs.EIGEN_TOL)
    assert good.ok and 0 < good.dev
    assert not oracles.check_spectrum(_shifted(spec.entries, 9, -SHIFT), ref, inputs.EIGEN_TOL).ok


@pytest.mark.parametrize("workload, known, budgets, n_range", [
    ("cosine_roundtrip", inputs.COSINE_KNOWN, inputs.COSINE_BUDGETS, inputs.COSINE_RANGE),
    ("synth_dense", inputs.WORKED_KNOWN, inputs.WORKED_BUDGETS, (50, 400)),
])
def test_coefficient_check_passes_and_catches_a_lifted_potential(workload, known, budgets, n_range):
    problem = inputs.load(nr, HERE.parent, workload)
    rec = nr.reconstruct(nr.synthesize_nodal_data(problem, n_range))
    good = oracles.check_coefficients(rec, known, budgets)
    assert good.ok, good.detail
    lifted = dataclasses.replace(
        rec, V_hat=nr.SampledCurve(x=rec.V_hat.x, values=rec.V_hat.values + 0.05)
    )
    bad = oracles.check_coefficients(lifted, known, budgets)
    assert not bad.ok and bad.dev > good.dev
    tilted = dataclasses.replace(rec, theta_hat=rec.theta_hat + 2 * budgets["theta"])
    assert not oracles.check_coefficients(tilted, known, budgets).ok


def test_readback_check_is_bit_exact(tmp_path):
    problem = inputs.load(nr, HERE.parent, "synth_dense")
    data = nr.synthesize_nodal_data(problem, (50, 80))
    path = tmp_path / "nodes.csv"
    nr.write_nodal_csv(data, str(path))
    back = nr.read_nodal_csv(str(path))
    assert oracles.check_readback(data, back).ok

    dropped = dict(back.nodes)
    dropped[60] = np.delete(dropped[60], 7)
    assert not oracles.check_readback(data, dataclasses.replace(back, nodes=dropped)).ok

    nudged = dict(back.nodes)
    nudged[71] = nudged[71].copy()
    nudged[71][5] = math.nextafter(nudged[71][5], math.inf)
    assert not oracles.check_readback(data, dataclasses.replace(back, nodes=nudged)).ok

    relabelled = dataclasses.replace(back, source="numeric")
    assert not oracles.check_readback(data, relabelled).ok
