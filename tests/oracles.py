"""Independent reference computations used by the tests.

These deliberately avoid the library's own code paths: beta variates come
from inverse-CDF sampling (bisection on the regularized incomplete beta),
the Levy distance from a brute-force grid search, entry ranges from
exhaustive maximization over a grid on the cube, eigenvalue counts from
Sturm sequences (bisection's inertia count, not the production QR solver),
limit-law CDFs from scalar adaptive Simpson (not the production
Gauss-Legendre panels), and random-matrix entries from per-index gathers
(not the production strided views).
"""

import math

import numpy as np
from scipy.special import betainc

from jacobi_spectra.errors import NumericalFailureError


def inverse_cdf_beta(p: float, q: float, u: np.ndarray) -> np.ndarray:
    """Beta(p, q) variates from uniforms by bisecting the incomplete beta."""
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = betainc(p, q, mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def random_matrix_gathered(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the Killip-Nenciu matrix of one alpha draw.

    Gathers alpha_j for every index j the entry formulas name, with the
    boundary convention alpha_{-1} = alpha_{-2} = -1.
    """
    n = (alpha.size + 1) // 2

    def at(j: np.ndarray) -> np.ndarray:
        return np.where(j >= 0, alpha[np.maximum(j, 0)], -1.0)

    k = np.arange(n)
    diag = (1.0 - at(2 * k - 1)) * at(2 * k) - (1.0 + at(2 * k - 1)) * at(2 * k - 2)
    ko = np.arange(n - 1)
    arg = (1.0 - at(2 * ko - 1)) * (1.0 - at(2 * ko) ** 2) * (1.0 + at(2 * ko + 1))
    return diag, np.sqrt(arg)


def sturm_count(t, x):
    """Eigenvalues of the tridiagonal t strictly below x (scalar or array).

    Counts the negative pivots of the LDL^T factorization of T - xI; a zero
    pivot is replaced by -1e-300.
    """
    xs = np.asarray(x, dtype=np.float64)
    count = np.zeros(xs.shape, dtype=np.int64)
    d = np.ones_like(xs)
    off2 = t.off * t.off
    with np.errstate(over="ignore", divide="ignore"):
        for k in range(t.n):
            d = (t.diag[k] - xs) - (off2[k - 1] / d if k > 0 else 0.0)
            d = np.where(d == 0.0, -1e-300, d)
            count += d < 0.0
    return int(count) if np.ndim(x) == 0 else count


def ecdf_value(sample: np.ndarray, x: np.ndarray) -> np.ndarray:
    s = np.sort(sample)
    return np.searchsorted(s, x, side="right") / s.size


def levy_grid_search(a: np.ndarray, b: np.ndarray, grid: int = 4000) -> float:
    """Levy distance by scanning candidate band half-widths on a fine grid."""
    a, b = np.sort(a), np.sort(b)
    span = max(a.max(), b.max()) - min(a.min(), b.min())
    xs = np.unique(np.concatenate([a, b]))
    # probe just left of every jump as well
    probes = np.unique(np.concatenate([xs, xs - 1e-12]))
    for eps in np.linspace(0.0, max(span, 1.0) + 1.0, grid):
        fa_hi = ecdf_value(a, probes + eps) + eps
        fa_lo = ecdf_value(a, probes - eps) - eps
        gb = ecdf_value(b, probes)
        ga = ecdf_value(a, probes)
        fb_hi = ecdf_value(b, probes + eps) + eps
        fb_lo = ecdf_value(b, probes - eps) - eps
        if np.all(gb <= fa_hi) and np.all(gb >= fa_lo) and np.all(ga <= fb_hi) and np.all(ga >= fb_lo):
            return float(eps)
    return float("inf")


def max_over_cube(fn, dims: int, grid: int = 21) -> float:
    """Brute-force maximum of fn over the closed cube [-1, 1]^dims."""
    axes = [np.linspace(-1.0, 1.0, grid)] * dims
    mesh = np.meshgrid(*axes, indexing="ij")
    return float(np.max(fn(*mesh)))


def adaptive_simpson(g, a: float, b: float, tol: float) -> float:
    """Classic adaptive Simpson with Richardson correction; absolute tol, depth <= 40."""
    if a == b:
        return 0.0

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm = g(lm)
        frm = g(rm)
        left = simpson(f0, flm, f1, x1 - x0)
        right = simpson(f1, frm, f2, x2 - x1)
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        if depth >= 40:
            raise NumericalFailureError("adaptive quadrature did not converge")
        return recurse(x0, x1, f0, flm, f1, left, tol / 2.0, depth + 1) + recurse(
            x1, x2, f1, frm, f2, right, tol / 2.0, depth + 1
        )

    fa, fm, fb = g(a), g(0.5 * (a + b)), g(b)
    whole = simpson(fa, fm, fb, b - a)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def integrate_density(m, lo: float, hi: float, tol: float) -> float:
    """Integral of a limit density over [lo, hi] inside its support.

    Substitutes x = s1 + t^2 below the support midpoint and x = s2 - u^2
    above it, feeding the exact edge distances to ``m.edge_density``.
    """
    s1, s2 = m.support
    width = s2 - s1
    lo = max(lo, s1)
    hi = min(hi, s2)
    if hi <= lo:
        return 0.0
    mid = 0.5 * (s1 + s2)
    total = 0.0
    left_hi = min(hi, mid)
    if lo < left_hi:
        # the skipped mass below t = 1e-12 is O(1e-12) even for 1/sqrt edges
        ta = max(math.sqrt(lo - s1), 1e-12)
        tb = math.sqrt(left_hi - s1)
        if ta < tb:
            total += adaptive_simpson(
                lambda t: 2.0 * t * float(m.edge_density(t * t, width - t * t)),
                ta, tb, tol,
            )
    right_lo = max(lo, mid)
    if right_lo < hi:
        ua = max(math.sqrt(s2 - hi), 1e-12)
        ub = math.sqrt(s2 - right_lo)
        if ua < ub:
            total += adaptive_simpson(
                lambda u: 2.0 * u * float(m.edge_density(width - u * u, u * u)),
                ua, ub, tol,
            )
    return total


def density_norm(m, tol: float) -> float:
    """Quadrature of the density over its whole support (should be 1)."""
    lo, hi = m.support
    return integrate_density(m, lo, hi, tol)


def cdf_eval(m, xi: float, tol: float) -> float:
    """CDF of the model at xi by scalar adaptive quadrature, clamped to [0, 1]."""
    lo, hi = m.support
    if xi <= lo:
        return 0.0
    if xi >= hi:
        return 1.0
    return min(max(integrate_density(m, lo, xi, tol), 0.0), 1.0)
