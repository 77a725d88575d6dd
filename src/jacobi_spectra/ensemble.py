"""Tridiagonal matrix models for the beta-Jacobi eigenvalue ensemble.

The random matrix follows the construction of Killip & Nenciu (2004): its
entries are simple products of independent beta variates on (-1, 1), and its
spectrum has the beta-Jacobi joint eigenvalue density on (-2, 2) with weight
(2 - x)^a (2 + x)^b and repulsion exponent beta.

``expected_matrix`` builds the deterministic comparison matrix obtained by
replacing every beta variate of the row/column-REVERSED random matrix by its
mean. Both matrices have reversal-invariant spectra, so spectral comparisons
are orientation-free, but entrywise comparisons must mirror indices.
Storage is two vectors (diagonal, off-diagonal); no dense matrix is ever
materialized, which keeps sampling O(n) in memory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .betarand import BetaParams, BetaPlan, RngStream
from .errors import InternalConsistencyError, ParameterDomainError


@dataclass(frozen=True)
class JacobiParams:
    """Ensemble parameters (n, a, b, beta) with finite a > -1, b > -1, beta > 0."""

    n: int
    a: float
    b: float
    beta: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ParameterDomainError("matrix size must satisfy n >= 1")
        if not (self.a > -1.0 and math.isfinite(self.a)):
            raise ParameterDomainError("weight exponent must be finite and satisfy a > -1")
        if not (self.b > -1.0 and math.isfinite(self.b)):
            raise ParameterDomainError("weight exponent must be finite and satisfy b > -1")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ParameterDomainError("repulsion exponent must be finite and satisfy beta > 0")

    @property
    def a_tilde(self) -> float:
        """Rescaled first parameter (2a + 2)/beta; always > 0."""
        return (2.0 * self.a + 2.0) / self.beta

    @property
    def b_tilde(self) -> float:
        """Rescaled second parameter (2b + 2)/beta; always > 0."""
        return (2.0 * self.b + 2.0) / self.beta


@dataclass(frozen=True)
class SymTridiag:
    """Symmetric tridiagonal matrix: diagonal of length n, off-diagonal n - 1."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=np.float64)
        e = np.asarray(self.off, dtype=np.float64)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "off", e)
        if d.ndim != 1 or e.ndim != 1 or e.size != max(d.size - 1, 0):
            raise ParameterDomainError(
                "tridiagonal storage needs len(off) == len(diag) - 1"
            )

    @property
    def n(self) -> int:
        return self.diag.size

    def norm_inf(self) -> float:
        """Maximum absolute row sum."""
        pad = np.concatenate(([0.0], np.abs(self.off), [0.0]))
        return float(np.max(np.abs(self.diag) + pad[:-1] + pad[1:]))


@dataclass(frozen=True)
class AlphaVector:
    """The 2n-1 independent beta variates alpha_0..alpha_{2n-2} driving one draw.

    Interior entries lie in (-1, 1); the boundary convention
    alpha_{-1} = alpha_{-2} = -1 is applied by the matrix builder, not stored
    here (the model's alpha_{2n-1} = -1 enters no entry formula).
    """

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.alpha, dtype=np.float64)
        object.__setattr__(self, "alpha", arr)
        if arr.ndim != 1 or arr.size % 2 != 1:
            raise ParameterDomainError("alpha vector must have odd length 2n - 1")
        if not np.abs(arr).max() < 1.0:  # NaN fails too
            raise ParameterDomainError("alpha entries must lie strictly inside (-1, 1)")

    @property
    def n(self) -> int:
        return (self.alpha.size + 1) // 2


def alpha_shapes(p: JacobiParams) -> tuple[np.ndarray, np.ndarray]:
    """Beta shape pairs (p_k, q_k) for k = 0..2n-2, vectorized.

    Shapes beyond float64 come out infinite; the sampling plan rejects them.
    """
    k = np.arange(2 * p.n - 1, dtype=np.float64)
    ke, ko = k[0::2], k[1::2]
    ps = np.empty(k.size)
    qs = np.empty(k.size)
    with np.errstate(over="ignore"):
        even = (2.0 * p.n - ke - 2.0) / 4.0 * p.beta
        ps[0::2] = even + p.a + 1.0
        qs[0::2] = even + p.b + 1.0
        ps[1::2] = (2.0 * p.n - ko - 3.0) / 4.0 * p.beta + p.a + p.b + 2.0
        qs[1::2] = (2.0 * p.n - ko - 1.0) / 4.0 * p.beta
    return ps, qs


@functools.lru_cache(maxsize=1)
def alpha_plan(p: JacobiParams) -> BetaPlan:
    """Sampling plan of the 2n-1 driving variates (shapes, gamma constants, means).

    The plan depends on p only, so the plan of the most recent parameters is
    kept: every realization of a run draws from one plan, and the memo holds
    one plan's O(n) arrays.
    """
    return BetaPlan(BetaParams(*alpha_shapes(p)))


def sample_alphas(p: JacobiParams, rng: RngStream) -> AlphaVector:
    """Draw the 2n-1 independent variates for one matrix realization."""
    return AlphaVector(alpha_plan(p).beta_pm1(rng._call_key()))


def random_matrix(alphas: AlphaVector) -> SymTridiag:
    """Random tridiagonal matrix built from one alpha draw.

    Diagonal entries lie in [-2, 2]; off-diagonal entries are square roots of
    products of factors in (0, 2), hence strictly positive for interior alphas.
    """
    n = alphas.n
    # pad[i + 2] = alpha_i, with the boundary convention alpha_{-2} = alpha_{-1} = -1
    pad = np.empty(2 * n + 1)
    pad[:2] = -1.0
    pad[2:] = alphas.alpha
    a_prev = pad[1 : 2 * n : 2]  # alpha_{2k-1}, k = 0..n-1
    diag = (1.0 - a_prev) * pad[2::2] - (1.0 + a_prev) * pad[0 : 2 * n - 1 : 2]
    arg = (1.0 - a_prev[:-1]) * (1.0 - pad[2 : 2 * n - 1 : 2] ** 2) * (1.0 + pad[3::2])
    if np.any(arg < 0.0):
        raise InternalConsistencyError("negative square-root argument in off-diagonal")
    return SymTridiag(diag, np.sqrt(arg))


def expected_matrix(p: JacobiParams) -> SymTridiag:
    """Deterministic tridiagonal matrix with the variates replaced by their means.

    Entries use the rescaled parameters (a_tilde, b_tilde) in cancellation-free
    product form; its eigenvalues are exactly the roots of the degree-n Jacobi
    polynomial with parameters (a_tilde - 1, b_tilde - 1) evaluated at x/2.
    Note the reversed orientation relative to :func:`random_matrix`.
    """
    n, at, bt = p.n, p.a_tilde, p.b_tilde
    diag = np.empty(n)
    if n > 1:
        k = np.arange(n - 1, dtype=np.float64)
        diag[: n - 1] = (
            2.0 * (bt - at) * (bt + at) / ((2.0 * k + at + bt) * (2.0 * k + at + bt + 2.0))
        )
    diag[n - 1] = 2.0 * (bt - at) / (2.0 * n + at + bt - 2.0)
    off = np.empty(max(n - 1, 0))
    if n > 2:
        k = np.arange(n - 2, dtype=np.float64)
        off[: n - 2] = (
            4.0
            / (2.0 * k + at + bt + 2.0)
            * np.sqrt(
                (k + at + bt + 1.0)
                * (k + at + 1.0)
                * (k + bt + 1.0)
                * (k + 1.0)
                / ((2.0 * k + at + bt + 3.0) * (2.0 * k + at + bt + 1.0))
            )
        )
    if n > 1:
        off[n - 2] = (
            4.0
            / (2.0 * n + at + bt - 2.0)
            * np.sqrt((n + at - 1.0) * (n + bt - 1.0) * (n - 1.0) / (2.0 * n + at + bt - 3.0))
        )
    return SymTridiag(diag, off)
