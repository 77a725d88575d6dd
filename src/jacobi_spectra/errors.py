"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: parameter-domain problems exit with 2,
numerical failures with 4. Outside this taxonomy, an OSError (I/O) exits
with 3 and a MemoryError (a failed allocation) with 4.
"""


class JacobiSpectraError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(JacobiSpectraError, ValueError):
    """An argument violates its documented domain (e.g. a <= -1, beta <= 0)."""


class InternalConsistencyError(JacobiSpectraError, RuntimeError):
    """An invariant that should hold by construction was violated."""


class NumericalFailureError(JacobiSpectraError, RuntimeError):
    """An iterative numerical procedure failed to converge or produced garbage."""


class MagnitudeOverflowError(NumericalFailureError):
    """A recurrence overflowed float64 range; a scaled evaluation would be needed."""


class DegenerateSampleError(NumericalFailureError):
    """A random sample was numerically rank-deficient where full rank was required."""
