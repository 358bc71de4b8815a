from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from nodalrec.asymptotics import synthesize_nodal_data
from nodalrec.fixtures import (
    cosine_roundtrip_problem,
    cosine_roundtrip_reference,
    free_problem,
    worked_example_problem,
    worked_example_reference,
)
from nodalrec.forward import solve_batch
from nodalrec.inverse import reconstruct
from nodalrec.problem import problem_from_mapping
from nodalrec.spectrum import compute_spectrum, nodal_data

# chi11 = chi22 = 0.4 exp(-(x - t)), chi12 = 0.3 exp(-(x - t)) as general
# expressions (integrated through Chebyshev memory states), and the same
# kernel in its exact separable form c exp(-x) exp(t)
EXP_KERNEL_DOC = {
    "bc": {"theta": 0.2, "beta": 0.1},
    "coeffs": {"m": 0.5, "chi": {"11": "0.4*exp(-(x - t))", "12": "0.3*exp(-(x - t))",
                                 "22": "0.4*exp(-(x - t))"}},
}
EXP_KERNEL_SEPARABLE_DOC = {
    "bc": {"theta": 0.2, "beta": 0.1},
    "coeffs": {"m": 0.5, "chi_separable": {
        label: [{"a": f"{c}*exp(-x)", "b": "exp(t)"}]
        for label, c in (("11", 0.4), ("12", 0.3), ("22", 0.4))
    }},
}

# lambda_5 = 6.88 of this problem lies 1.17 from n + (beta - theta)/pi,
# outside the search's corridor of +-1
CORRIDOR_DOC = {
    "bc": {"theta": -0.901, "beta": 1.326, "b1": 1.90, "d1": 0.156, "d2": 2.05},
    "coeffs": {"V": "-2.64*cos(x) - 1.32*cos(2*x) + 1.87*cos(3*x)", "m": 3.64,
               "chi_separable": {"11": [{"a": "0.098*exp(-x)", "b": "exp(t)"}]}},
}

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def worked_problem():
    return worked_example_problem()


@pytest.fixture(scope="session")
def worked_ref():
    return worked_example_reference()


@pytest.fixture(scope="session")
def cosine_problem():
    return cosine_roundtrip_problem()


@pytest.fixture(scope="session")
def cosine_ref():
    return cosine_roundtrip_reference()


@pytest.fixture(scope="session")
def exp_kernel_problem():
    return problem_from_mapping(EXP_KERNEL_DOC)


@pytest.fixture(scope="session")
def free_prob():
    return free_problem()


@pytest.fixture(scope="session")
def worked_synth_data(worked_problem):
    return synthesize_nodal_data(worked_problem, (50, 400))


@pytest.fixture(scope="session")
def worked_dense_data(worked_problem):
    # the dense lists of the benchmark's synth_dense workload: 499,275 nodes
    return synthesize_nodal_data(worked_problem, (50, 1000))


# heavy numeric fixtures, shared between the unit suite and acceptance


@pytest.fixture(scope="session")
def worked_synth_recon(worked_synth_data):
    return reconstruct(worked_synth_data)


@pytest.fixture(scope="session")
def free_spectrum_fine(free_prob):
    return compute_spectrum(free_prob, (5, 30), tol=1e-11, points=32768)


@pytest.fixture(scope="session")
def free_numeric_data(free_prob):
    return nodal_data(free_prob, (5, 30), tol=1e-11, points=32768)


@pytest.fixture(scope="session")
def worked_numeric_nodes(worked_problem):
    return nodal_data(worked_problem, (20, 60))


@pytest.fixture(scope="session")
def worked_spectrum_3060(worked_problem):
    return compute_spectrum(worked_problem, (30, 60))


@pytest.fixture(scope="session")
def cosine_numeric_data(cosine_problem):
    return nodal_data(cosine_problem, (20, 120))


@pytest.fixture(scope="session")
def cosine_recon(cosine_numeric_data):
    return reconstruct(cosine_numeric_data)


def sup(a, b=0.0):
    return float(np.max(np.abs(np.asarray(a) - b)))


def trajectory(problem, lam, points=None):
    """The solution pair phi(., lam) of one real lambda, as column 0 of
    solve_batch: lam, grid, step, phi1 and phi2."""
    sol = solve_batch(problem, [lam], points=points)
    return SimpleNamespace(lam=float(sol.lam[0]), grid=sol.grid, step=sol.step,
                           phi1=sol.Y[0, :, 0], phi2=sol.Y[1, :, 0])
