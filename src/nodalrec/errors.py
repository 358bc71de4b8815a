"""Exception taxonomy.

Every error carries a short machine-readable ``category`` string so the CLI
can map failures onto its exit-code contract without string matching on
messages.
"""


class NodalrecError(Exception):
    """Base class for all package errors."""

    category = "error"


class ExpressionError(NodalrecError):
    """Rejected or malformed coefficient expression.

    ``line`` and ``column`` are 1-based positions inside the expression
    source string.
    """

    category = "parse"

    def __init__(self, message, line=None, column=None, source=None):
        self.line = line
        self.column = column
        self.source = source
        loc = ""
        if line is not None:
            loc = f" (line {line}, column {column})"
        super().__init__(f"{message}{loc}")


class ProblemFormatError(NodalrecError):
    """Problem definition file is structurally invalid."""

    category = "parse"


class InvalidProblemError(NodalrecError):
    """Problem violates a standing assumption (zero-mean V, finite data...)."""

    category = "invalid-problem"


class ConfigError(NodalrecError):
    """Out-of-range parameter passed to an operation or the CLI."""

    category = "config"


class ResolutionError(NodalrecError):
    """Grid too coarse for the requested oscillation frequency, or an
    eigenvalue whose estimated error exceeds tol / 4."""

    category = "resolution"

    def __init__(self, message, required_points=None):
        self.required_points = required_points
        super().__init__(message)


class MagnitudeError(NodalrecError):
    """Non-finite values appeared while integrating."""

    category = "magnitude"


class BracketingError(NodalrecError):
    """No real root of the characteristic function in the search window."""

    category = "bracketing"

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message)


class AmbiguityError(NodalrecError):
    """The index of an eigenvalue is not certain: more than one real root
    in the search window, or a root outside the sanity corridor."""

    category = "ambiguity"


class CalibrationError(NodalrecError):
    """Node index offset could not be determined from the data."""

    category = "calibration"


class InsufficientDataError(NodalrecError):
    """Fewer distinct n than the extrapolation fit requires."""

    category = "insufficient-data"


class StageQualityError(NodalrecError):
    """First-stage fit dispersion too large to proceed."""

    category = "stage-quality"


class MassRecoveryError(NodalrecError):
    """Negative radicand in the mass formula.

    The mass step assumes the kernel skew integral vanishes at the right
    endpoint; data violating that (or too noisy data) can drive the radicand
    negative.  ``partial`` holds whatever was reconstructed before the
    failure.
    """

    category = "mass-recovery"

    def __init__(self, message, radicand=None, partial=None):
        self.radicand = radicand
        self.partial = partial
        super().__init__(message)


class FixtureMismatchError(NodalrecError):
    """Built-in example reconstruction disagrees with its known answer."""

    category = "fixture-mismatch"
