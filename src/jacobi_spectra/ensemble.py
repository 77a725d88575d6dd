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
from .errors import InternalConsistencyError, ParameterDomainError, real_array
from .errors import real_number, whole_number

# 0-d operands of the per-realization array passes (numpy converts a scalar
# operand on every call)
_ZERO, _ONE = np.array(0.0), np.array(1.0)

# largest matrix size: the 2n - 1 beta variates of a realization keep their
# keyed gamma indices below 2^31, where the Y draws start
_MAX_N = 1 << 30


@dataclass(frozen=True)
class JacobiParams:
    """Ensemble parameters (n, a, b, beta) with finite a > -1, b > -1, beta > 0."""

    n: int
    a: float
    b: float
    beta: float

    def __post_init__(self):
        n = whole_number(
            self.n, "matrix size must be a whole number with 1 <= n <= 2^30", 1, _MAX_N
        )
        a, b, beta = real_number(self.a), real_number(self.b), real_number(self.beta)
        if not -1.0 < a < math.inf:
            raise ParameterDomainError("weight exponent must be finite and satisfy a > -1")
        if not -1.0 < b < math.inf:
            raise ParameterDomainError("weight exponent must be finite and satisfy b > -1")
        if not 0.0 < beta < math.inf:
            raise ParameterDomainError("repulsion exponent must be finite and satisfy beta > 0")
        self.__dict__.update(n=n, a=a, b=b, beta=beta)

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
        d, e = real_array(self.diag), real_array(self.off)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "off", e)
        if d.ndim != 1 or e.ndim != 1 or e.size != max(d.size - 1, 0):
            raise ParameterDomainError(
                "tridiagonal storage needs len(off) == len(diag) - 1"
            )

    @property
    def n(self) -> int:
        return self.diag.size


@dataclass(frozen=True)
class AlphaVector:
    """The 2n-1 independent beta variates alpha_0..alpha_{2n-2} driving one draw.

    Interior entries lie in (-1, 1); the boundary convention
    alpha_{-1} = alpha_{-2} = -1 is applied by the matrix builder, not stored
    here (the model's alpha_{2n-1} = -1 enters no entry formula).
    """

    alpha: np.ndarray

    def __post_init__(self):
        arr = real_array(self.alpha)
        object.__setattr__(self, "alpha", arr)
        if arr.ndim != 1 or arr.size % 2 != 1:
            raise ParameterDomainError("alpha vector must have odd length 2n - 1")
        if np.count_nonzero(np.abs(arr) < _ONE) < arr.size:  # NaN fails too
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
    a_odd = pad[1 : 2 * n : 2]  # alpha_{2k-1}, k = 0..n-1
    one_minus, one_plus = _ONE - a_odd, _ONE + a_odd
    diag = one_minus * pad[2::2] - one_plus * pad[0 : 2 * n - 1 : 2]
    # one_plus[1:] holds 1 + alpha_{2k+1}, k = 0..n-2
    arg = one_minus[:-1] * (_ONE - pad[2 : 2 * n - 1 : 2] ** 2) * one_plus[1:]
    if np.count_nonzero(arg < _ZERO):
        raise InternalConsistencyError("negative square-root argument in off-diagonal")
    return SymTridiag(diag, np.sqrt(arg, out=arg))


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
