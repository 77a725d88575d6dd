"""Tridiagonal matrix models for the beta-Jacobi eigenvalue ensemble.

The random matrix follows the construction of Killip & Nenciu (2004): its
entries are simple products of independent beta variates on (-1, 1), and its
spectrum has the beta-Jacobi joint eigenvalue density on (-2, 2) with weight
(2 - x)^a (2 + x)^b and repulsion exponent beta.

``expected_matrix`` is the deterministic comparison matrix: the same entry
formula with every variate replaced by its mean, row/column-REVERSED. Both
matrices have reversal-invariant spectra, so spectral comparisons are
orientation-free, but entrywise comparisons must mirror indices.
Storage is two vectors (diagonal, off-diagonal); no dense matrix is ever
materialized, which keeps sampling O(n) in memory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .betarand import BetaParams, BetaPlan, RngStream
from .errors import ParameterDomainError, real_array, real_number, whole_number

# 0-d operands of the per-realization array passes (numpy converts a scalar
# operand on every call)
_HALF, _TWO = np.array(0.5), np.array(2.0)

# how far a column (1 - alpha, 1 + alpha) of an AlphaVector may sum from 2: a
# few float64 spacings of 2 (sampled and mean columns are within 4.4e-16)
_SUM_TOL = 2.0**-49

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
        """Rescaled first parameter (2a + 2)/beta; always > 0. Doubling last
        keeps it finite wherever (a + 1)/beta is."""
        return 2.0 * ((self.a + 1.0) / self.beta)

    @property
    def b_tilde(self) -> float:
        """Rescaled second parameter (2b + 2)/beta; always > 0."""
        return 2.0 * ((self.b + 1.0) / self.beta)


@dataclass(frozen=True)
class SymTridiag:
    """Symmetric tridiagonal matrix: diagonal of length n >= 1, off-diagonal n - 1."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        d, e = real_array(self.diag), real_array(self.off)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "off", e)
        if d.ndim != 1 or e.ndim != 1 or e.size != d.size - 1:
            raise ParameterDomainError(
                "tridiagonal storage needs len(off) == len(diag) - 1"
            )

    @property
    def n(self) -> int:
        return self.diag.size


@dataclass(frozen=True)
class AlphaVector:
    """The 2n-1 independent beta variates alpha_0..alpha_{2n-2} of one draw, held
    as the (2, 2n - 1) array of their complements 1 - alpha and 1 + alpha in
    [0, 2], each column summing to 2 up to 2^-49 (``sample_alphas``: 2 Z and
    2 W of one gamma pair). Near alpha = +-1 a complement is below the float64
    spacing of alpha, so alpha is formed from the complements, never they from
    alpha. The builder applies alpha_{-1} = alpha_{-2} = -1 (alpha_{2n-1} = -1
    enters no entry formula).
    """

    complements: np.ndarray

    def __post_init__(self):
        c = real_array(self.complements)
        self.__dict__.update(complements=c)
        # min and max propagate NaN, which fails both comparisons
        if not (c.ndim == 2 and c.shape[0] == 2 and c.shape[1] % 2 == 1
                and c.min() >= 0.0 and c.max() <= 2.0):
            raise ParameterDomainError("alpha complements must be a (2, 2n - 1) array in [0, 2]")
        sums = c[0] + c[1]
        if not (sums.min() >= 2.0 - _SUM_TOL and sums.max() <= 2.0 + _SUM_TOL):
            raise ParameterDomainError("alpha complements 1 - alpha, 1 + alpha must sum to 2")

    @property
    def alpha(self) -> np.ndarray:
        """((1 + alpha) - (1 - alpha))/2, a new array: W - Z bit for bit from 2 Z, 2 W."""
        return (self.complements[1] - self.complements[0]) * _HALF

    @property
    def n(self) -> int:
        return (self.complements.shape[1] + 1) // 2


def alpha_shapes(p: JacobiParams, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Beta shape pairs (p_k, q_k) for k = 0..2n-2, vectorized, times ``scale``
    (exactly, for a power of two short of the subnormal range).

    Shapes beyond float64 come out infinite; the sampling plan rejects them
    with MagnitudeOverflowError, and :func:`expected_matrix` scales them down.
    """
    k = np.arange(2 * p.n - 1, dtype=np.float64)
    ke, ko = k[0::2], k[1::2]
    ps = np.empty(k.size)
    qs = np.empty(k.size)
    beta, a, b, one = p.beta * scale, p.a * scale, p.b * scale, scale
    with np.errstate(over="ignore"):
        even = (2.0 * p.n - ke - 2.0) / 4.0 * beta
        ps[0::2] = even + a + one
        qs[0::2] = even + b + one
        ps[1::2] = (2.0 * p.n - ko - 3.0) / 4.0 * beta + a + b + 2.0 * one
        qs[1::2] = (2.0 * p.n - ko - 1.0) / 4.0 * beta
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
    """Draw the 2n-1 variates alpha_k = W_k - Z_k of one matrix realization,
    Z_k ~ Beta(p_k, q_k) and W_k = 1 - Z_k from one gamma pair: the plan's
    (Z, W) stack, doubled in place, is their exact complements 2 Z_k, 2 W_k."""
    zw = alpha_plan(p).draw(rng.call_key())
    np.multiply(zw, _TWO, out=zw)
    return AlphaVector(zw)


def random_matrix(alphas: AlphaVector) -> SymTridiag:
    """Random tridiagonal matrix of one alpha draw, the one owner of the
    Killip-Nenciu entry formula:
      diag_k = (1 - alpha_{2k-1}) alpha_{2k} - (1 + alpha_{2k-1}) alpha_{2k-2},
      off_k = sqrt((1 - alpha_{2k-1}) ((1 - alpha_{2k}) (1 + alpha_{2k})) (1 + alpha_{2k+1})),
    multiplied in this order, every factor 1 -+ alpha a row of the complements.
    Row 0 pads alpha_{-2} = alpha_{-1} = -1, whose complements are 2 and 0.
    Diagonal entries lie in [-2, 2]; off-diagonal entries are square roots of
    products of complements in [0, 2].
    """
    (one_minus, one_plus), alpha = alphas.complements, alphas.alpha
    diag = np.empty(alphas.n)
    diag[0] = 2.0 * alpha[0]
    np.multiply(one_minus[1::2], alpha[2::2], out=diag[1:])
    diag[1:] -= one_plus[1::2] * alpha[:-2:2]
    off = one_minus[:-1:2] * one_plus[:-1:2]
    off[:1] *= _TWO
    off[1:] *= one_minus[1:-2:2]
    off *= one_plus[1::2]
    return SymTridiag(diag, np.sqrt(off, out=off))


def exact_scale(count: float, unit: float, *terms: float) -> float:
    """The largest power of two 2^-j, j >= 0, that keeps sums of count * unit,
    the |terms| and a few units below 2^1023 once every operand is multiplied
    by it, as bounded by the operands' binary exponents: 1.0 while that bound
    is at most 2^1021. The scale is exact short of the subnormal range, so
    ratios of scaled operands are the unscaled ones. A non-finite term reads
    exponent 0 and gets no scale of its own."""
    e = max(math.frexp(count)[1] + math.frexp(unit)[1], *(math.frexp(t)[1] for t in terms))
    return math.ldexp(1.0, min(0, 1021 - e))


def expected_matrix(p: JacobiParams) -> SymTridiag:
    """The random matrix's build at the variate means, reversed.

    The complements 1 -+ mean are 2 (p/s) and 2 (q/s), s = p + q, so the mean
    is q/s - p/s, as a sampled build forms it. The eigenvalues are the roots
    of the degree-n Jacobi polynomial with parameters (a_tilde - 1, b_tilde - 1)
    at x/2. The shapes are taken at one exact power-of-two scale (1.0 below
    2^1021), so every sum p + q is finite and every ratio is the unscaled one.
    """
    ps, qs = alpha_shapes(p, exact_scale(p.n, p.beta, p.a, p.b))
    s = ps + qs
    # 2 (p/s), not 2p/s: doubling is exact, and 2p could overflow
    m = random_matrix(AlphaVector(2.0 * np.stack((ps / s, qs / s))))
    return SymTridiag(m.diag[::-1], m.off[::-1])
