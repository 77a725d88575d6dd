"""Exception taxonomy shared across the package, and the two input checks
every numeric module shares.

The CLI maps these onto exit codes: parameter-domain problems exit with 2,
numerical failures with 4. Outside this taxonomy, an OSError (I/O) exits
with 3 and a MemoryError (a failed allocation) with 4.
"""

import math
import numbers

import numpy as np

_F64 = np.dtype(np.float64)


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


def real_array(x) -> np.ndarray:
    """x as a float64 array: a float64 ndarray itself, anything else converted.

    Only real numbers are accepted: bool, integer or float input, or objects
    that are all ``numbers.Real``. Complex, string or other input raises
    ParameterDomainError, where a float64 conversion would drop an imaginary
    part or parse text.
    """
    if type(x) is np.ndarray and x.dtype is _F64:
        return x
    a = np.asarray(x)
    kind = a.dtype.kind
    if kind in "biuf" or (kind == "O" and all(isinstance(v, numbers.Real) for v in a.flat)):
        return a.astype(np.float64, copy=False)
    raise ParameterDomainError(f"expected real numbers, got dtype {a.dtype}")


def finite_ascending(xs: np.ndarray) -> bool:
    """True if the 1-D float array xs is nondecreasing and finite (empty passes).

    A comparison with NaN is false, so the one pass counting xs[1:] >= xs[:-1]
    fails on every NaN of a longer array; an ordered, NaN-free array is finite
    exactly when its two endpoints are.
    """
    n = xs.size
    return n == 0 or (
        np.count_nonzero(xs[1:] >= xs[:-1]) == n - 1
        and math.isfinite(xs[0]) and math.isfinite(xs[-1])
    )
