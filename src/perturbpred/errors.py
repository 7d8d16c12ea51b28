"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""


class PerturbpredError(Exception):
    """Base class for all package errors."""


class DimensionError(PerturbpredError):
    """Matrix shapes or labels are incompatible."""


class SingularMatrixError(PerturbpredError):
    """An interaction matrix is singular or too ill-conditioned to invert."""


class NotNegativeDefiniteError(PerturbpredError):
    """A matrix required to be symmetric negative definite is not."""


class NonConvergenceError(PerturbpredError):
    """An iterative routine failed to converge within its budget."""


class DivergenceError(PerturbpredError):
    """An ODE trajectory, or a linear fit's loss at its start, blew up (non-finite)."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class ZeroVarianceError(PerturbpredError):
    """Pearson correlation requested on a constant vector."""


class ParseError(PerturbpredError):
    """A data or config file could not be parsed."""


class ConfigError(PerturbpredError):
    """Invalid run configuration (unknown key, bad value, missing path)."""
