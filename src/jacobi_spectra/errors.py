"""Exception taxonomy shared across the package, and the input checks every
numeric module shares.

The CLI maps these onto exit codes: parameter-domain problems exit with 2,
numerical failures with 4. Outside this taxonomy, an OSError (I/O) exits
with 3 and a MemoryError (a failed allocation) with 4.
"""

import math
import numbers
import sys

import numpy as np

_F64 = np.dtype(np.float64)
_F64_MAX = sys.float_info.max


class JacobiSpectraError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(JacobiSpectraError, ValueError):
    """An argument violates its documented domain (e.g. a <= -1, beta <= 0)."""


class NumericalFailureError(JacobiSpectraError, RuntimeError):
    """An iterative numerical procedure failed to converge or produced garbage."""


class MagnitudeOverflowError(NumericalFailureError):
    """A recurrence overflowed float64 range; a scaled evaluation would be needed."""


class DegenerateSampleError(NumericalFailureError):
    """A random sample was numerically rank-deficient where full rank was required."""


def real_array(x) -> np.ndarray:
    """x as a float64 array: a float64 ndarray itself, anything else converted.

    Only real numbers within float64 range are accepted: bool, integer or float
    input, or objects that are all ``numbers.Real``. Complex, string, too large
    or other input raises ParameterDomainError, where a float64 conversion
    would drop an imaginary part, parse text or overflow.
    """
    if type(x) is np.ndarray and x.dtype is _F64:
        return x
    a = np.asarray(x)
    kind = a.dtype.kind
    if kind in "biuf" or (kind == "O" and all(isinstance(v, numbers.Real) for v in a.flat)):
        try:
            return a.astype(np.float64, copy=False)
        except OverflowError:
            raise ParameterDomainError("expected real numbers within float64 range") from None
    raise ParameterDomainError(f"expected real numbers, got dtype {a.dtype}")


def real_number(v) -> float:
    """v as a float if it is one real number (see :func:`real_array`), else
    ParameterDomainError; an array of one or more dimensions is not one."""
    if type(v) is float:
        return v
    a = real_array(v)
    if a.ndim:
        raise ParameterDomainError(f"expected one real number, got shape {a.shape}")
    return float(a)


def whole_number(v, message: str, low: float = -_F64_MAX, high: float = _F64_MAX) -> int:
    """v as an int if it is a whole number in [low, high], else
    ParameterDomainError(message). An integer is compared, never converted to
    float, so 10**400 is rejected, not overflowed; a Python int, as
    ``RngStream.substream`` gets once per trial, skips the type tests."""
    if type(v) is not int:
        if not isinstance(v, numbers.Integral):
            v = real_number(v)
            if not v.is_integer():  # False for NaN and +-inf too
                raise ParameterDomainError(message)
        v = int(v)
    if not low <= v <= high:
        raise ParameterDomainError(message)
    return v


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
