"""Built-in test problems.

Each constructor returns a fully validated ProblemDefinition, built by
problem_from_mapping from a problem-file document, as load_problem builds
it from a file.  These are the acceptance fixtures: a worked example with
linear potential and linear kernel skew, the free operator, a cosine
potential for round-trip tests, and the constant-mass operator whose
trajectories have closed forms.  DOCUMENTS holds the documents of
problems/worked_example.yaml, cosine.yaml and free.yaml, by file name; the
constructors start from them.
"""

import math

import numpy as np

from .problem import problem_from_mapping

PI = math.pi

DOCUMENTS = {
    "worked_example": {
        "bc": {"theta": PI / 4, "beta": PI / 4, "b1": 0.3, "b2": -0.2},
        "coeffs": {"V": "x/2 - pi/4", "m": 1.0, "chi_separable": {"12": [
            {"a": "pi/2 - x/2", "b": "1"},
            {"a": "1", "b": "-t/2"},
        ]}},
    },
    "cosine": {
        "bc": {"theta": 0.3, "beta": 0.1},
        "coeffs": {"V": "cos(x)", "m": 0.5, "chi_separable": {"12": [
            {"a": "sin(x/2)", "b": "cos(t/2)"},
            {"a": "cos(x/2)", "b": "sin(t/2)"},
            {"a": "-2/pi", "b": "1"},
        ]}},
    },
    "free": {"bc": {"theta": 0.0, "beta": 0.0}},
}


def _arr(fn):
    return lambda x: fn(np.asarray(x, dtype=float))


def _problem(name, **bc):
    """The problem of DOCUMENTS[name], with the given bc entries replaced."""
    doc = DOCUMENTS[name]
    return problem_from_mapping({**doc, "bc": {**doc["bc"], **bc}})


def worked_example_problem(b1=0.3, b2=-0.2):
    """theta = beta = pi/4, V(x) = x/2 - pi/4, m = 1, and an upper-right
    kernel chi12(x,t) = pi/2 - (x+t)/2, so L'(x) = pi/2 - x and K = 0.

    Reconstruction targets: theta = beta = pi/4, V as above, m = 1,
    L'(x) = pi/2 - x.  b1, b2 are free (they drop out of every recovered
    quantity) and default to nonzero values so tests exercise their terms.
    """
    return _problem("worked_example", b1=b1, b2=b2)


def worked_example_reference():
    """Printed reconstruction targets of the worked example."""
    return {
        "theta": PI / 4,
        "beta": PI / 4,
        "m": 1.0,
        "V": _arr(lambda x: x / 2 - PI / 4),
        "Lprime": _arr(lambda x: PI / 2 - x),
        "f": _arr(lambda x: x * x / 4 - PI * x / 4 - PI / 4),
        "nu": _arr(lambda x: x * x / 4 - PI * x / 4),
        "L": _arr(lambda x: PI * x / 2 - x * x / 2),
    }


def free_problem(theta=0.0, beta=0.0):
    """All coefficients zero; Delta(lambda) = lambda^2 sin(lambda pi - beta + theta)
    up to the boundary rotation, eigenvalues exactly n + (beta-theta)/pi."""
    return _problem("free", theta=theta, beta=beta)


def cosine_roundtrip_problem():
    """V(x) = cos x, m = 0.5, theta = 0.3, beta = 0.1, and
    chi12(x,t) = sin((x+t)/2) - 2/pi, so L'(x) = sin x - 2/pi with
    L(pi) = 0 (the normalization mass recovery needs)."""
    return _problem("cosine")


def cosine_roundtrip_reference():
    return {
        "theta": 0.3,
        "beta": 0.1,
        "m": 0.5,
        "V": _arr(np.cos),
        "Lprime": _arr(lambda x: np.sin(x) - 2 / PI),
        "f": _arr(lambda x: 0.2 * x / PI + np.sin(x) - 0.3),
        "nu": _arr(np.sin),
        "L": _arr(lambda x: 1 - np.cos(x) - 2 * x / PI),
    }


def constant_mass_problem(m=1.0):
    """V = 0, chi = 0, theta = beta = 0, mass m: the trajectory has the
    closed form phi1 = lam(lam+m)/rho sin(rho x), phi2 = -lam cos(rho x)
    with rho = sqrt(lam^2 - m^2); eigenvalues are sqrt(k^2 + m^2)."""
    return problem_from_mapping({"bc": {"theta": 0.0, "beta": 0.0}, "coeffs": {"m": m}})


def constant_mass_exact(m, lam, x):
    """Closed-form (phi1, phi2) for constant_mass_problem, |lam| > |m|."""
    x = np.asarray(x, dtype=float)
    rho = math.sqrt(lam * lam - m * m)
    phi1 = lam * (lam + m) / rho * np.sin(rho * x)
    phi2 = -lam * np.cos(rho * x)
    return phi1, phi2
