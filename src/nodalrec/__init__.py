"""Forward and inverse nodal solver for a Dirac-type system with an integral
memory term and eigenparameter-dependent boundary conditions.

Forward direction: integrate the system, locate eigenvalues through the
characteristic function, extract nodal points of the first eigenfunction
component.  Inverse direction: recover the potential, the mass constant, the
boundary angles and the kernel skew derivative from dense nodal data.

The package exports the documented entry points below; everything else
stays reachable through its submodule (``nodalrec.forward``,
``nodalrec.spectrum``, ``nodalrec.inverse``, ...).
"""

from .asymptotics import synthesize_nodal_data
from .errors import (
    AmbiguityError,
    BracketingError,
    CalibrationError,
    ConfigError,
    ExpressionError,
    FixtureMismatchError,
    InsufficientDataError,
    InvalidProblemError,
    MagnitudeError,
    MassRecoveryError,
    NodalrecError,
    ProblemFormatError,
    ResolutionError,
    StageQualityError,
)
from .forward import char_fn_normalized
from .inverse import SampledCurve, reconstruct
from .io import read_nodal_csv, write_nodal_csv
from .problem import ensure_valid, load_problem, problem_from_mapping
from .spectrum import compute_spectrum, nodal_data

__version__ = "0.1.0"

__all__ = [
    # problems
    "load_problem",
    "problem_from_mapping",
    "ensure_valid",
    # forward direction
    "char_fn_normalized",
    "compute_spectrum",
    "nodal_data",
    "synthesize_nodal_data",
    # inverse direction
    "reconstruct",
    "SampledCurve",
    # nodal CSV files
    "read_nodal_csv",
    "write_nodal_csv",
    # errors
    "NodalrecError",
    "AmbiguityError",
    "BracketingError",
    "CalibrationError",
    "ConfigError",
    "ExpressionError",
    "FixtureMismatchError",
    "InsufficientDataError",
    "InvalidProblemError",
    "MagnitudeError",
    "MassRecoveryError",
    "ProblemFormatError",
    "ResolutionError",
    "StageQualityError",
    "__version__",
]
