"""Independent reference computations used by the tests.

These deliberately avoid the library's own code paths: beta variates come
from inverse-CDF sampling (bisection on the regularized incomplete beta),
the Levy distance from a brute-force grid search, entry ranges from
exhaustive maximization over a grid on the cube, and eigenvalue counts from
Sturm sequences (bisection's inertia count, not the production QR solver).
"""

import numpy as np
from scipy.special import betainc


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
