"""The exact inputs of each workload, and how each one's problem is loaded.

The set-up probe imports this module to load its problem; it imports
nothing beyond numpy, which ``import nodalrec`` loads anyway.
"""

import math

import numpy as np

COSINE_FILE = "problems/cosine.yaml"
WORKED_FILE = "problems/worked_example.yaml"

COSINE_RANGE = (20, 120)
MASS_RANGE = (5, 120)
EXP_KERNEL_RANGE = (8, 12)
SYNTH_RANGE = (50, 1000)

MASS = 1.0
MASS_DOC = {"bc": {"theta": 0.0, "beta": 0.0}, "coeffs": {"m": MASS}}

# chi11 = chi22 = c exp(-a (x - t)), chi12 = q exp(-a (x - t)), chi21 = 0,
# written as general chi expressions so the O(N^2) history scan runs.
EXP_KERNEL = {"theta": 0.2, "beta": 0.1, "m": 0.5, "c": 0.4, "q": 0.3, "a": 1.0}


def exp_kernel_doc():
    p = EXP_KERNEL
    decay = f"exp(-{p['a']!r}*(x - t))"
    return {
        "bc": {"theta": p["theta"], "beta": p["beta"]},
        "coeffs": {
            "m": p["m"],
            "chi": {
                "11": f"{p['c']!r}*{decay}",
                "12": f"{p['q']!r}*{decay}",
                "22": f"{p['c']!r}*{decay}",
            },
        },
    }


# Coefficients each reconstruction is checked against.
COSINE_KNOWN = {"theta": 0.3, "beta": 0.1, "m": 0.5, "V": np.cos}
WORKED_KNOWN = {
    "theta": math.pi / 4,
    "beta": math.pi / 4,
    "m": 1.0,
    "V": lambda x: x / 2 - math.pi / 4,
    "Lprime": lambda x: math.pi / 2 - x,
}

# Budgets: acceptance criterion 6 (numeric round trip) and criterion 1
# (the paper's worked example) of the program's own test suite.
COSINE_BUDGETS = {"V_sup": 5e-2, "theta": 5e-3, "beta": 5e-3, "m": 5e-2}
WORKED_BUDGETS = {"theta": 1e-3, "beta": 1e-3, "V_sup": 1e-2, "m": 1e-2, "Lprime_sup": 5e-2}

# Eigenvalue tolerances against the closed forms: a shift of 1e-4 must fail,
# while the default grid's discretization error (6.1e-6 at n = 120) passes.
EIGEN_TOL = 2e-5
NODE_TOL = 1e-6


def load(nr, root, workload):
    """Load and validate the named workload's problem with the program's API."""
    if workload == "cosine_roundtrip":
        problem = nr.load_problem(str(root / COSINE_FILE))
    elif workload == "synth_dense":
        problem = nr.load_problem(str(root / WORKED_FILE))
    elif workload == "mass_spectrum":
        problem = nr.problem_from_mapping(MASS_DOC, where="mass_spectrum")
    elif workload == "general_kernel":
        problem = nr.problem_from_mapping(exp_kernel_doc(), where="general_kernel")
    else:
        raise KeyError(workload)
    nr.ensure_valid(problem)
    return problem
