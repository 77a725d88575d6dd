"""Jacobi polynomials, their monic rescaling, two contiguous-parameter
identities, and roots on the doubled variable.

Conventions: P_n^{(gamma, delta)} is the degree-n orthogonal polynomial for
the weight (1-x)^gamma (1+x)^delta on [-1, 1], normalized with leading
coefficient (n + gamma + delta + 1)_n / (2^n n!). All public root output
lives on the [-2, 2] spectral variable (roots of P_n(x/2)); the [-1, 1]
variable is internal only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MagnitudeOverflowError, NumericalFailureError, ParameterDomainError
from .errors import real_array, real_number, whole_number
from .trieig import Spectrum, eig_tridiag
from .ensemble import JacobiParams, SymTridiag, exact_scale


@dataclass(frozen=True)
class JacobiPolyParams:
    """Degree n >= 0 and weight exponents gamma, delta > -1 (+inf overflows later).
    The roots are read from the shifted exponents a_tilde = gamma + 1, b_tilde = delta + 1."""

    n: int
    gamma: float
    delta: float

    def __post_init__(self):
        n = whole_number(self.n, "degree must be a whole number n >= 0", 0)
        gamma, delta = real_number(self.gamma), real_number(self.delta)
        if not (gamma > -1.0 and delta > -1.0):
            raise ParameterDomainError(
                "weight exponents must satisfy gamma > -1 and delta > -1"
            )
        self.__dict__.update(n=n, gamma=gamma, delta=delta)

    a_tilde = property(lambda self: self.gamma + 1.0)
    b_tilde = property(lambda self: self.delta + 1.0)


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); empty product is 1.

    Product form; fine for the moderate n used here, overflows like Gamma
    for large arguments.
    """
    a = real_number(a)
    out = 1.0
    for k in range(whole_number(n, "pochhammer order must be a nonnegative integer", 0)):
        out *= a + k
    return out


def _finite_sum(n: int, g: float, d: float, xa: float | np.ndarray):
    """P_n^{(g, d)} as its finite sum (Szego 4.3.2), defined for every real g, d:
    the sum over m of (n+g choose n-m) (n+d choose m) ((x-1)/2)^m ((x+1)/2)^(n-m)."""
    u, v = 0.5 * (np.asarray(xa) - 1.0), 0.5 * (np.asarray(xa) + 1.0)
    return sum(math.comb(n, m) * pochhammer(g + m + 1.0, n - m) * pochhammer(n + d - m + 1.0, m)
               * u**m * v ** (n - m) for m in range(n + 1)) / math.factorial(n)


def _eval_recurrence(n: int, g: float, d: float, xa: float | np.ndarray) -> np.ndarray:
    """Ascending-degree recurrence for P_n^{(g, d)} with g, d > -2; no domain guard.

    The contiguous identities below shift parameters by -1, which can leave
    the orthogonality domain while the polynomial itself stays well defined.
    For g, d > -2 the divisor c1 can vanish only at k = 2 or 3, so P_2 and
    P_3 come from the finite sum and the recurrence starts at k = 4, where c1
    is positive. Every value past degree 1 is numpy's, so each division obeys
    np.errstate.
    """
    if n < 2:
        return np.ones_like(xa) if n == 0 else 0.5 * (g + d + 2.0) * xa + 0.5 * (g - d)
    p0, p1 = _finite_sum(2, g, d, xa), _finite_sum(3, g, d, xa)
    for k in range(4, n + 1):
        s = 2.0 * k + g + d
        c1 = 2.0 * k * (k + g + d) * (s - 2.0)
        c2 = (s - 1.0) * (g - d) * (g + d)
        c3 = (s - 2.0) * (s - 1.0) * s
        c4 = 2.0 * (k + g - 1.0) * (k + d - 1.0) * s
        p0, p1 = p1, ((c2 + c3 * xa) * p1 - c4 * p0) / c1
    return p0 if n == 2 else p1


def jacobi_eval(p: JacobiPolyParams, x):
    """Value of P_n^{(gamma, delta)} at x (scalar or array).

    Raises MagnitudeOverflowError when the recurrence leaves float64 range
    (large degree with large weight exponents).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = _eval_recurrence(p.n, p.gamma, p.delta, real_array(x))
    if not np.all(np.isfinite(out)):
        raise MagnitudeOverflowError(
            f"Jacobi polynomial of degree {p.n} overflowed float64"
        )
    return float(out) if np.ndim(x) == 0 else out


def monic_factor(p: JacobiPolyParams) -> float:
    """Factor 2^n n! / (n + gamma + delta + 1)_n turning P_n into the monic one.

    Raises MagnitudeOverflowError when either product overflows float64
    (from degree ~150 at gamma = delta = 0) instead of returning 0 or NaN.
    """
    denom = pochhammer(p.n + p.gamma + p.delta + 1.0, p.n)  # each factor > n - 1 >= 0
    num = 1.0
    for k in range(1, p.n + 1):
        num *= 2.0 * k
    if not (math.isfinite(num) and math.isfinite(denom)):
        raise MagnitudeOverflowError(f"monic factor of degree {p.n} overflowed float64")
    return num / denom


def recurrence_coefficients(p: JacobiPolyParams | JacobiParams) -> tuple[np.ndarray, np.ndarray]:
    """Monic three-term recurrence data (A_0..A_{n-1}, B_1..B_{n-1}) on [-1, 1].

    x Phat_k = Phat_{k+1} + A_k Phat_k + B_k Phat_{k-1}; the B_k are the
    squared off-diagonal entries of the symmetrized recurrence matrix. Each is
    a product of bounded ratios of k, a_tilde = gamma + 1, b_tilde = delta + 1
    and constants, which avoids subtractive cancellation (an ensemble's small
    a_tilde = (2a + 2)/beta keeps its digits). The ratios are taken at one exact
    power of two (1.0 unless a sum such as 2k + a_tilde + b_tilde would
    overflow), so every factor stays in float64 range up to the largest finite
    exponents (a_tilde = b_tilde -> infinity tends to the Hermite limit
    B_k ~ k / (2 a_tilde)); MagnitudeOverflowError is raised when a ratio is
    not finite, e.g. at an infinite a_tilde. Where an ensemble's a_tilde and
    b_tilde both underflow to 0, NumericalFailureError is raised: the limit of
    the coefficients there is set by (a + 1)/(a + b + 2), which they lose.
    """
    if p.a_tilde == 0.0 and p.b_tilde == 0.0:
        raise NumericalFailureError(
            "recurrence coefficients are undefined: a_tilde = (2a + 2)/beta and "
            "b_tilde = (2b + 2)/beta both underflowed float64 to 0"
        )
    n, one = p.n, exact_scale(p.n, 2.0, p.a_tilde, p.b_tilde)
    at, bt = p.a_tilde * one, p.b_tilde * one
    diag = np.empty(n)
    km = np.arange(n - 1, dtype=np.float64) * one  # k - 1 for k = 1..n-1
    with np.errstate(all="ignore"):
        s = 2.0 * km + at + bt
        diag[0] = (bt - at) / (at + bt)
        diag[1:] = ((bt - at) / s) * ((at + bt - 2.0 * one) / (s + 2.0 * one))
        off_sq = 4.0 * ((km + one) / s) * ((km + at) / s) * ((km + bt) / (s - one)) * (
            (km - one + at + bt) / (s + one))
        if n > 1:
            # k = 1 has a removable 0/0 at a_tilde + b_tilde = 1: cancel (at + bt - 1)/(s - 1)
            off_sq[0] = 4.0 * (at / (at + bt)) * (bt / (at + bt)) / (at + bt + one) * one
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off_sq))):
        raise MagnitudeOverflowError(
            f"recurrence coefficients overflowed float64 at a_tilde = {p.a_tilde:g}, "
            f"b_tilde = {p.b_tilde:g}"
        )
    return diag, off_sq


def jacobi_roots_scaled(p: JacobiPolyParams | JacobiParams) -> Spectrum:
    """Ascending roots of P_n^{(a_tilde - 1, b_tilde - 1)}(x/2) from p's n, a_tilde
    and b_tilde, in [-2, 2] up to 8n float64 epsilons of rounding (not clamped).

    Computed by :func:`~jacobi_spectra.trieig.eig_tridiag` on the symmetric
    tridiagonal matrix obtained by symmetrizing the monic recurrence
    (Golub-Welsch shape), then doubled. For a_tilde = b_tilde that diagonal
    is exactly zero, so ``eig_tridiag`` takes its half-size dqds route: each
    root to high relative accuracy, mirror symmetric bit for bit, with an
    exact 0.0 in the middle for odd n.
    """
    if p.n < 1:
        raise ParameterDomainError("need degree n >= 1 for roots")
    diag, off_sq = recurrence_coefficients(p)
    return Spectrum(2.0 * eig_tridiag(SymTridiag(diag, np.sqrt(off_sq))).values)


@functools.lru_cache(maxsize=1)
def ensemble_roots(p: JacobiParams) -> np.ndarray:
    """The paper's root approximation to the ensemble's ascending eigenvalues.

    Roots of P_n^{(a_tilde - 1, b_tilde - 1)}(x/2), the spectrum of
    :func:`~jacobi_spectra.ensemble.expected_matrix`, read from the exact
    a_tilde = (2a + 2)/beta and b_tilde at every beta; in [-2, 2] up to 8n
    float64 epsilons. The roots depend on p only, so those of the most recent
    parameters are kept, read-only, and every trial of a run shares one solve.
    """
    roots = jacobi_roots_scaled(p).values
    roots.flags.writeable = False
    return roots


def _term_relative(t1, t2, t3) -> float:
    """|t1 - t2 + t3| relative to the largest of the three terms.

    Raises MagnitudeOverflowError on a non-finite term, which a caller's
    running max() would otherwise drop silently.
    """
    if not np.all(np.isfinite((t1, t2, t3))):
        raise MagnitudeOverflowError("contiguous-identity terms overflowed float64")
    return float(abs(t1 - t2 + t3) / max(abs(t1), abs(t2), abs(t3), 1e-300))


def first_param_lowering_residual(p: JacobiPolyParams, x: float) -> float:
    """Term-relative residual of the contiguous relation lowering the first parameter.

    (n + delta - 1) P_{n-2}^{(g, d)} - (n + g + d - 1) P_{n-1}^{(g, d)}
        + (2n + g + d - 2) P_{n-1}^{(g-1, d)}  ==  0
    (Abramowitz & Stegun 22.7.18, shifted to degree n - 1); requires n >= 2.
    """
    if p.n < 2:
        raise ParameterDomainError("identity needs degree n >= 2")
    n, g, d, x = p.n, p.gamma, p.delta, real_number(x)
    with np.errstate(over="ignore", invalid="ignore"):
        t1 = (n + d - 1.0) * _eval_recurrence(n - 2, g, d, x)
        t2 = (n + g + d - 1.0) * _eval_recurrence(n - 1, g, d, x)
        t3 = (2.0 * n + g + d - 2.0) * _eval_recurrence(n - 1, g - 1.0, d, x)
    return _term_relative(t1, t2, t3)


def second_param_lowering_residual(p: JacobiPolyParams, x: float) -> float:
    """Term-relative residual of the contiguous relation lowering the second parameter.

    (n + g - 1) P_{n-1}^{(g-1, d)} - (2n + g + d - 1) P_n^{(g-1, d-1)}
        + (n + g + d - 1) P_n^{(g-1, d)}  ==  0
    (Abramowitz & Stegun 22.7.19); requires n >= 1.
    """
    if p.n < 1:
        raise ParameterDomainError("identity needs degree n >= 1")
    n, g, d, x = p.n, p.gamma, p.delta, real_number(x)
    with np.errstate(over="ignore", invalid="ignore"):
        t1 = (n + g - 1.0) * _eval_recurrence(n - 1, g - 1.0, d, x)
        t2 = (2.0 * n + g + d - 1.0) * _eval_recurrence(n, g - 1.0, d - 1.0, x)
        t3 = (n + g + d - 1.0) * _eval_recurrence(n, g - 1.0, d, x)
    return _term_relative(t1, t2, t3)
