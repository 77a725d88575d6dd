"""Eigenvalue machinery: tridiagonal solver, characteristic polynomial
recurrence, and the symmetric-definite generalized problem.

The tridiagonal path is the production solver (LAPACK root-free QR,
eigenvalues only). The dense pencil A v = lambda B v of the Gaussian F-matrix
route is LAPACK ``dsygvd`` (Cholesky of B, then a divide-and-conquer solve of
L^-1 A L^-T). The tests hold it to a Cholesky and plane-rotation oracle that
shares no code with LAPACK.

The LAPACK routines (``dsterf``, ``dpteqr``, ``dsygvd``) come from scipy's
f2py extension ``scipy/linalg/_flapack``, loaded once at import without
running ``scipy.linalg``'s package ``__init__``, which would cost more start-up
time and memory than everything else this package imports. They are the
wrapper objects ``scipy.linalg.lapack`` re-exports, so results are the same
bytes either way.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .ensemble import SymTridiag
from .errors import (
    DegenerateSampleError,
    MagnitudeOverflowError,
    NumericalFailureError,
    ParameterDomainError,
)


def _load_flapack():
    """scipy's ``linalg/_flapack`` extension module, without importing ``scipy.linalg``.

    ``find_spec`` on the top-level package locates scipy without running it.
    The extension is registered under scipy's own module name, so when
    ``scipy.linalg`` is imported later (or was imported earlier) both hold the
    same wrapper objects; ``sys.modules`` is left as it was, so that import
    still binds ``scipy.linalg._flapack`` itself. A missing file raises the
    loader's ImportError, which names the path.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    (root,) = importlib.util.find_spec("scipy").submodule_search_locations
    path = os.path.join(root, "linalg", "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = loader.create_module(importlib.util.spec_from_loader(name, loader))
    sys.modules.pop(name, None)  # CPython registers a single-phase extension on load
    return module


_flapack = _load_flapack()
dsterf, dpteqr, dsygvd = _flapack.dsterf, _flapack.dpteqr, _flapack.dsygvd


@dataclass(frozen=True)
class Spectrum:
    """Ascending real eigenvalues (or roots)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ParameterDomainError("spectrum must be a nonempty vector")
        if np.any(np.diff(v) < 0.0):
            raise ParameterDomainError("spectrum must be sorted ascending")

    @property
    def n(self) -> int:
        return self.values.size


def eig_tridiag(t: SymTridiag) -> Spectrum:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending.

    Pal-Walker-Kahan root-free QR (LAPACK ``dsterf``). The tests hold each
    eigenvalue v_k to the Sturm-count bracket
    count(v_k - tol) <= k < count(v_k + tol), tol = 1e-13 * ||T||_inf.
    Raises NumericalFailureError when the QR iteration does not converge or
    an eigenvalue is not finite, e.g. on a NaN or infinite entry.
    """
    if t.n == 1:
        # dsterf rejects the empty off-diagonal of a 1x1 matrix
        vals = t.diag.copy()
    else:
        vals, info = dsterf(t.diag, t.off)
        if info != 0:
            raise NumericalFailureError(f"tridiagonal QR did not converge (dsterf info={info})")
    if not np.all(np.isfinite(vals)):
        raise NumericalFailureError("tridiagonal matrix has a NaN or infinite entry")
    return Spectrum(vals)


def _eig_zero_diagonal(off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the zero-diagonal tridiagonal with off-diagonal ``off > 0``.

    Permuting odd and even indices turns T into [[0, C], [C^T, 0]] with C
    bidiagonal (Golub-Kahan), so the eigenvalues are +-sigma(C), plus 0 when
    n is odd. sigma(C)^2 are the eigenvalues of C^T C, the odd-index block of
    T^2: an order-n//2 positive definite tridiagonal whose entries are sums
    and products of positives. LAPACK ``dpteqr`` (Cholesky, then bidiagonal
    QR/dqds) solves it to high relative accuracy, which the eigenvalues near
    0 need. The Cholesky of the formed C^T C can fail on strongly graded
    off-diagonals, so only smooth recurrences (the symmetric Jacobi ones)
    take this route; ``eig_tridiag`` never does. Raises
    NumericalFailureError when ``dpteqr`` reports info != 0.
    """
    n = off.size + 1
    m = n // 2
    if m == 0:
        return np.zeros(1)
    scale = np.max(off)
    # c_j, j < 2m, scaled so no square underflows; c_{n-1} = 0 when n is even
    c = np.zeros(2 * m)
    c[: n - 1] = off / scale
    d = c[0::2] ** 2 + c[1::2] ** 2
    if m == 1:
        mu = d  # dpteqr rejects the empty off-diagonal of a 1x1 matrix
    else:
        mu, _, _, info = dpteqr(d, c[1:-1:2] * c[2::2], np.zeros((1, 1)), compute_z=0)
        if info != 0:
            raise NumericalFailureError(
                f"positive definite tridiagonal solve failed (dpteqr info={info})"
            )
    sigma = np.sqrt(mu)  # descending, as dpteqr returns mu
    middle = np.zeros(n % 2)
    return scale * np.concatenate((-sigma, middle, sigma[::-1]))


def charpoly_eval(t: SymTridiag, x):
    """det(xI - T) via the leading-principal-minor three-term recurrence.

    G_k(x) = (x - d_k) G_{k-1}(x) - c_{k-1}^2 G_{k-2}(x), G_0 = 1, G_{-1} = 0,
    with the final step being the expansion along the last row. Overflows
    float64 for n of a few hundred once |x| is well outside the spectrum; no
    internal rescaling is attempted.
    """
    xa = np.asarray(x, dtype=np.float64)
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

    LAPACK ``dsygvd`` on the lower triangles, eigenvalues only; the call
    ``scipy.linalg.eigh(a, b, eigvals_only=True)`` makes. Raises
    DegenerateSampleError when B is not positive definite, and
    NumericalFailureError when the solve does not converge or an eigenvalue
    is not finite, e.g. on a NaN entry.
    """
    vals, _, info = dsygvd(a, b, itype=1, jobz="N", uplo="L")
    if info > vals.size:
        raise DegenerateSampleError(
            f"pencil matrix B is not positive definite (dsygvd info={info})"
        )
    if info != 0:
        raise NumericalFailureError(f"generalized eigensolve failed (dsygvd info={info})")
    if not np.all(np.isfinite(vals)):
        raise NumericalFailureError("pencil matrix has a NaN or infinite entry")
    return Spectrum(vals)
