"""Eigenvalue machinery: tridiagonal solver, characteristic polynomial
recurrence, desk-scale dense symmetric solver, Cholesky, and the
symmetric-definite generalized problem.

The tridiagonal path is the production solver (LAPACK root-free QR,
eigenvalues only). The dense routines are a desk-scale oracle for the
Gaussian-matrix cross-checks and are capped at n = 500 by policy. Their
Cholesky factorization and plane-rotation eigensolver avoid LAPACK, so the
cross-checks do not share an eigensolver with the tridiagonal path; only the
two triangular solves of the pencil reduction call LAPACK ``dtrtrs``.

The LAPACK routines (``dsterf``, ``dpteqr``, ``dtrtrs``) come from scipy's
f2py extension ``scipy/linalg/_flapack``, loaded once at import without
running ``scipy.linalg``'s package ``__init__``, which would cost more start-up
time and memory than everything else this package imports. They are the
wrapper objects ``scipy.linalg.lapack`` re-exports, so results are the same
bytes either way.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .ensemble import SymTridiag
from .errors import (
    MagnitudeOverflowError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    ParameterDomainError,
)

DENSE_SIZE_CAP = 500  # dense routines are an oracle, not a production path


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
dsterf, dpteqr, dtrtrs = _flapack.dsterf, _flapack.dpteqr, _flapack.dtrtrs


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


@dataclass(frozen=True)
class DenseSym:
    """Dense real symmetric matrix; lower triangle authoritative."""

    a: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.a, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParameterDomainError("dense matrix must be square")
        scale = np.max(np.abs(m)) or 1.0
        if np.max(np.abs(m - m.T)) > 1e-12 * scale:
            raise ParameterDomainError("matrix is not symmetric to 1e-12 relative")
        lower = np.tril(m)
        object.__setattr__(self, "a", lower + np.tril(m, -1).T)

    @property
    def n(self) -> int:
        return self.a.shape[0]


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


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Disjoint index pairings covering all (i, j), i < j (circle method)."""
    players = list(range(n)) + ([n] if n % 2 else [])  # n = dummy when odd
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a < n and b < n:
                ps.append(min(a, b))
                qs.append(max(a, b))
        rounds.append((np.array(ps, dtype=np.intp), np.array(qs, dtype=np.intp)))
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def eig_dense_sym(a: DenseSym) -> Spectrum:
    """All eigenvalues of a dense symmetric matrix via cyclic plane rotations.

    Disjoint pivot pairs are rotated simultaneously (round-robin schedule);
    sweeps repeat until the off-diagonal Frobenius mass drops below
    1e-12 * ||A||_F, with a hard cap of 50 sweeps.
    """
    if a.n > DENSE_SIZE_CAP:
        raise ParameterDomainError(f"dense solver is capped at n = {DENSE_SIZE_CAP}")
    m = a.a.copy()
    n = a.n
    if n == 1:
        return Spectrum(m[0, :1].copy())
    norm_f = float(np.linalg.norm(m))
    if norm_f == 0.0:
        return Spectrum(np.zeros(n))
    rounds = _round_robin(n)
    for _ in range(50):
        # off-diagonal Frobenius mass, summed directly (a difference of
        # near-equal squares would stall at the rounding floor)
        msq = m * m
        np.fill_diagonal(msq, 0.0)
        if math.sqrt(float(np.sum(msq))) <= 1e-12 * norm_f:
            return Spectrum(np.sort(np.diag(m)))
        for p, q in rounds:
            apq = m[p, q]
            live = apq != 0.0
            if not live.any():
                continue
            tau = np.zeros_like(apq)
            tau[live] = (m[q, q][live] - m[p, p][live]) / (2.0 * apq[live])
            with np.errstate(over="ignore"):
                tval = np.where(
                    live, np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau)), 0.0
                )
            tval = np.where(live & (tau == 0.0), 1.0, tval)
            c = 1.0 / np.sqrt(1.0 + tval * tval)
            s = tval * c
            cols_p = m[:, p] * c - m[:, q] * s
            cols_q = m[:, p] * s + m[:, q] * c
            m[:, p] = cols_p
            m[:, q] = cols_q
            rows_p = m[p, :] * c[:, None] - m[q, :] * s[:, None]
            rows_q = m[p, :] * s[:, None] + m[q, :] * c[:, None]
            m[p, :] = rows_p
            m[q, :] = rows_q
    raise NumericalFailureError("plane-rotation sweeps did not converge in 50 sweeps")


def cholesky(a: DenseSym) -> np.ndarray:
    """Lower-triangular L with L L^T = A for symmetric positive definite A."""
    m = a.a
    n = a.n
    low = np.zeros_like(m)
    for j in range(n):
        pivot = m[j, j] - np.dot(low[j, :j], low[j, :j])
        if not pivot > 0.0:
            raise NotPositiveDefiniteError(f"nonpositive pivot at column {j}")
        low[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            low[j + 1 :, j] = (m[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return low


def _solve_lower(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^-1 rhs for a C-ordered lower-triangular L, by LAPACK ``dtrtrs``.

    This is the call ``scipy.linalg.solve_triangular(low, rhs, lower=True)``
    makes: the transposed upper-triangular system on the Fortran view L^T.
    Raises NumericalFailureError when ``dtrtrs`` reports info != 0.
    """
    x, info = dtrtrs(low.T, rhs, lower=0, trans=1, unitdiag=0)
    if info != 0:
        raise NumericalFailureError(f"triangular solve failed (dtrtrs info={info})")
    return x


def eig_generalized_sym(a: DenseSym, b: DenseSym) -> Spectrum:
    """Eigenvalues of A v = lambda B v with B positive definite.

    Reduces to the standard symmetric problem L^-1 A L^-T via the Cholesky
    factor of B, then applies the plane-rotation solver.
    """
    if a.n != b.n:
        raise ParameterDomainError("pencil matrices must have matching size")
    low = cholesky(b)
    half = _solve_lower(low, a.a)
    reduced = _solve_lower(low, half.T)
    reduced = (reduced + reduced.T) / 2.0
    return eig_dense_sym(DenseSym(reduced))
