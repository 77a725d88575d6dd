"""Eigenvalue machinery: tridiagonal solver, characteristic polynomial
recurrence, and the symmetric-definite generalized problem.

The tridiagonal path is the production solver (LAPACK root-free QR,
eigenvalues only). A zero diagonal (the Jacobi recurrence and mean matrices
at equal exponents) routes it to the singular values of the half-size
Golub-Kahan bidiagonal (LAPACK dqds). The dense pencil A v = lambda B v of
the Gaussian F-matrix route is LAPACK ``dsygvd`` (Cholesky of B, then a
divide-and-conquer solve of L^-1 A L^-T). The tests hold it to a Cholesky
and plane-rotation oracle that shares no code with LAPACK.

The LAPACK routines (``dsterf``, ``dlasq1``, ``dsygvd``) are the Fortran
entry points of the LAPACK numpy itself links, scipy-openblas (symbols
``scipy_<routine>_64_``), called through ``ctypes`` on numpy's already loaded
``_umath_linalg`` extension. The process so maps one OpenBLAS and imports no
scipy module. A numpy built against another LAPACK (conda's, or Accelerate
on arm64 macOS) does not export these symbols, and importing this module
raises ImportError.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .ensemble import SymTridiag
from .errors import (
    DegenerateSampleError,
    MagnitudeOverflowError,
    NumericalFailureError,
    ParameterDomainError,
    finite_ascending,
    real_array,
)


_LIB = ctypes.CDLL(_umath_linalg.__file__)


def _lapack_routine(name: str, pointers: int, chars: int):
    """The ILP64 Fortran routine ``scipy_<name>_64_`` of numpy's LAPACK.

    It takes ``pointers`` arguments by reference (integers as int64), then
    one ``size_t`` length for each of its ``chars`` character arguments.
    A missing symbol raises ImportError naming it and numpy's LAPACK.
    """
    symbol = f"scipy_{name}_64_"
    try:
        fn = getattr(_LIB, symbol)
    except AttributeError:
        from numpy import __config__

        lapack = __config__.CONFIG["Build Dependencies"]["lapack"]["name"]
        raise ImportError(
            f"numpy's LAPACK ({lapack}) does not export {symbol}; "
            "jacobi_spectra needs a numpy wheel linked to scipy-openblas"
        ) from None
    fn.argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * chars
    fn.restype = None
    return fn


_DSTERF = _lapack_routine("dsterf", 4, 0)
_DLASQ1 = _lapack_routine("dlasq1", 5, 0)
_DSYGVD = _lapack_routine("dsygvd", 14, 2)


def _int(value: int):
    """An int64 passed by reference."""
    return ctypes.byref(ctypes.c_int64(value))


def _mem(a: np.ndarray):
    """The memory of the C-contiguous array a, passed by reference."""
    return (ctypes.c_char * a.nbytes).from_buffer(a)


_ONE = _int(1)
_QUERY = _int(-1)


def _tridiagonal(d: np.ndarray, e: np.ndarray, width: int):
    """A zeroed float64 buffer of ``width * n`` entries holding the diagonal d
    at [0, n) and the off-diagonal e at [n, 2n - 1), len(e) == len(d) - 1 as
    :class:`SymTridiag` checks: (ctypes buffer, its numpy view, n). Every call
    copies into a buffer of its own, which LAPACK may overwrite."""
    n = d.size
    mem = (ctypes.c_double * (width * n))()
    buf = np.frombuffer(mem)
    buf[:n] = d
    buf[n : 2 * n - 1] = e
    return mem, buf, n


def _dsterf(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, int]:
    """(ascending eigenvalues, info) of the symmetric tridiagonal (d, e)."""
    mem, buf, n = _tridiagonal(d, e, 2)
    info = ctypes.c_int64()
    _DSTERF(_int(n), mem, ctypes.byref(mem, 8 * n), ctypes.byref(info))
    return buf[:n], info.value


def _dlasq1(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, int]:
    """(descending singular values, info) of the bidiagonal with diagonal d and off-diagonal e."""
    # dlasq1 writes e[n-1] too when it reports info = 2, and needs 4n of work
    mem, buf, n = _tridiagonal(d, e, 6)
    info = ctypes.c_int64()
    _DLASQ1(_int(n), mem, ctypes.byref(mem, 8 * n), ctypes.byref(mem, 16 * n), ctypes.byref(info))
    return buf[:n], info.value


def _dsygvd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(ascending eigenvalues, info) of A v = lambda B v from the lower triangles."""
    a, b = real_array(a).copy(order="F"), real_array(b).copy(order="F")
    if a.ndim != 2 or a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ParameterDomainError("pencil matrices A and B must be square and of one size")
    n = a.shape[0]
    w = np.empty(n)
    info = ctypes.c_int64()
    ld = _int(max(n, 1))
    # a.T and b.T view the Fortran-order memory as C-contiguous arrays
    head = (_ONE, b"N", b"L", _int(n), _mem(a.T), ld, _mem(b.T), ld, _mem(w))
    tail = (ctypes.byref(info), 1, 1)
    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    # workspace query: lwork = liwork = -1 writes the optimal sizes to work[0], iwork[0]
    _DSYGVD(*head, _mem(work), _QUERY, _mem(iwork), _QUERY, *tail)
    if info.value == 0:
        work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=np.int64)
        _DSYGVD(*head, _mem(work), _int(work.size), _mem(iwork), _int(iwork.size), *tail)
    return w, info.value


@dataclass(frozen=True)
class Spectrum:
    """Ascending finite real eigenvalues (or roots)."""

    values: np.ndarray

    def __post_init__(self):
        v = real_array(self.values)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ParameterDomainError("spectrum must be a nonempty vector")
        if not finite_ascending(v):
            fault = "sorted ascending" if finite_ascending(np.sort(v)) else "finite"
            raise ParameterDomainError(f"spectrum must be {fault}")

    @property
    def n(self) -> int:
        return self.values.size


def eig_tridiag(t: SymTridiag) -> Spectrum:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending.

    A zero diagonal with finite off-diagonal takes :func:`_eig_zero_diagonal`
    (half-size dqds); any other matrix, a NaN or infinite entry included,
    Pal-Walker-Kahan root-free QR (LAPACK ``dsterf``). The tests hold each
    eigenvalue v_k of both routes to the Sturm-count bracket
    count(v_k - tol) <= k < count(v_k + tol), tol = 1e-13 * ||T||_inf.
    Raises NumericalFailureError when LAPACK does not converge or an
    eigenvalue is not finite, e.g. on a NaN or infinite entry.
    """
    if np.count_nonzero(t.diag) == 0 and np.isfinite(t.off).all():
        vals = _eig_zero_diagonal(t.off)
    else:
        vals, info = _dsterf(t.diag, t.off)
        if info != 0:
            raise NumericalFailureError(f"tridiagonal QR did not converge (dsterf info={info})")
    try:  # Spectrum's one order and finiteness scan
        return Spectrum(vals)
    except ParameterDomainError:
        raise NumericalFailureError("tridiagonal matrix has a NaN or infinite entry") from None


def _eig_zero_diagonal(off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the zero-diagonal tridiagonal with off-diagonal ``off``.

    Permuting odd and even indices turns T into [[0, C], [C^T, 0]] with C
    bidiagonal (Golub-Kahan): diagonal off[0::2], superdiagonal off[1::2],
    of order ceil(n/2) once odd n pads it with a zero diagonal entry. The
    eigenvalues are +-sigma(C), with the padding's singular value 0 as the
    middle eigenvalue for odd n; the result is mirror symmetric bit for bit.
    LAPACK ``dlasq1`` (dqds) computes every sigma(C) to high relative
    accuracy, which the eigenvalues near 0 need, and scales internally.
    Raises NumericalFailureError when ``dlasq1`` reports info != 0. ``off``
    must be finite: ``dlasq1`` can drop a NaN ([nan, 1e-12] reads 0, +-1e-12).
    """
    n = off.size + 1
    d = np.zeros((n + 1) // 2)
    d[: n // 2] = off[0::2]
    sigma, info = _dlasq1(d, off[1::2])
    if info != 0:
        raise NumericalFailureError(f"bidiagonal singular values failed (dlasq1 info={info})")
    sigma = sigma[: n // 2]  # descending: odd n drops the padding's 0
    return np.concatenate((-sigma, np.zeros(n % 2), sigma[::-1]))


def charpoly_eval(t: SymTridiag, x):
    """det(xI - T) via the leading-principal-minor three-term recurrence.

    G_k(x) = (x - d_k) G_{k-1}(x) - c_{k-1}^2 G_{k-2}(x), G_0 = 1, G_{-1} = 0,
    with the final step being the expansion along the last row. Overflows
    float64 for n of a few hundred once |x| is well outside the spectrum; no
    internal rescaling is attempted.
    """
    xa = real_array(x)
    gm1 = np.zeros_like(xa)
    g = np.ones_like(xa)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(t.n):
            gm1, g = g, (xa - t.diag[k]) * g - (t.off[k - 1] ** 2 * gm1 if k > 0 else 0.0)
    if not np.all(np.isfinite(g)):
        raise MagnitudeOverflowError(
            "characteristic polynomial overflowed float64; evaluate on a scaled "
            "variable or use the eigenvalue solver instead"
        )
    return float(g) if np.ndim(x) == 0 else g


def eig_generalized_sym(a: np.ndarray, b: np.ndarray) -> Spectrum:
    """Eigenvalues of A v = lambda B v for symmetric A and B, ascending.

    LAPACK ``dsygvd`` on the lower triangles, eigenvalues only; the routine
    ``scipy.linalg.eigh(a, b, eigvals_only=True)`` calls. Raises
    DegenerateSampleError when B is not positive definite, and
    NumericalFailureError when the solve does not converge or an eigenvalue
    is not finite, e.g. on a NaN entry.
    """
    vals, info = _dsygvd(a, b)
    if info > vals.size:
        raise DegenerateSampleError(
            f"pencil matrix B is not positive definite (dsygvd info={info})"
        )
    if info != 0:
        raise NumericalFailureError(f"generalized eigensolve failed (dsygvd info={info})")
    if not finite_ascending(vals):
        raise NumericalFailureError("pencil matrix has a NaN or infinite entry")
    return Spectrum(vals)
