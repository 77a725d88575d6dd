"""Independent reference computations used by the tests.

These deliberately avoid the library's own code paths: beta variates come
from inverse-CDF sampling (bisection on the regularized incomplete beta),
the Levy distance from a brute-force grid search, entry ranges from
exhaustive maximization over a grid on the cube, eigenvalue counts from
Sturm sequences (bisection's inertia count, not the production QR solver),
limit-law CDFs from scalar adaptive Simpson or, for the arcsine law, in
closed form (not the production closed forms in the half-angle variable),
limit densities from each law's docstring formula in plain x in exact
rationals (not the production (support, rational) encoding),
and random-matrix entries from per-index gathers (not the production strided
views). Keyed normals come from one whole-array Box-Muller pass over their
lane words (not the production blocks), and keyed gamma and beta variates from
a per-call path that rebuilds every Marsaglia-Tsang constant inside each
block of every call (not the production sampling plans); it shares only the
keyed-word helpers with the library, so it pins the sampled bytes. ECDF
values at given points and the infinity norm of a tridiagonal matrix, which
only the tests need, live here too, as does the one-sample KS statistic in
its whole-array form (not the production block-by-block maximum).
Dense symmetric eigenvalues come from round-robin cyclic plane rotations after
an unblocked Cholesky (not the production LAPACK ``dsygvd`` pencil solve).
Jacobi polynomials at any real parameters come from their power sum in
(x - 1)/2 in exact rationals (not the production recurrence or binomial sum),
the first two trace moments of the random build from its entry
polynomials and closed-form beta moments, also in exact rationals (not a
sample), the mixed moments of its determinants det(2I +- T) from the same
beta moments and from the Selberg integral's product formula (not from the
shape table alone), and its off-diagonals from the gamma pairs of a draw in
exact rationals (not from float complements). The law of the eigenvalue at a
hard edge comes from the density's scaling under a change of variables (not
from a sample or a solver), and the law of 1/Z for Z ~ ``EdgeDensity`` from
its definition 1 - G(1/x), G the edge law's CDF (not the production
``ReciprocalEdgeDensity`` encoding).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import betainc

from jacobi_spectra.betarand import (
    _BLOCK,
    _GOLDEN,
    _GOLDEN_U,
    _LANE,
    _MASK64,
    _ONE_MINUS,
    _TINY,
    _Y_OFFSET,
    _box_muller,
    _splitmix,
    _unit,
)
from jacobi_spectra.errors import NumericalFailureError, ParameterDomainError
from jacobi_spectra.spectra import EdgeDensity, cdf_grid
from jacobi_spectra.trieig import Spectrum


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


def gamma_keyed(key: int, shape: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Gamma(shape[i], 1) as keyed variate j[i] of call ``key``, block by block."""
    out = np.empty(shape.size)
    for lo in range(0, shape.size, _BLOCK):
        out[lo : lo + _BLOCK] = _gamma_block(key, shape[lo : lo + _BLOCK], j[lo : lo + _BLOCK])
    return out


def _gamma_block(key: int, shape: np.ndarray, j: np.ndarray) -> np.ndarray:
    """One block of :func:`gamma_keyed`, with its constants built in the block."""
    m = shape.size
    small = shape < 1.0
    d = shape + small - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    jg = (np.asarray(j, dtype=np.uint64) + np.uint64(1)) * _GOLDEN_U
    z, tmp, w = np.empty(3 * m, np.uint64), np.empty(3 * m, np.uint64), np.empty(3 * m)

    def uniforms(rows: np.ndarray, lane: int, slots: int) -> np.ndarray:
        k = rows.size
        offsets = np.array(
            [((key + (lane + i) * _LANE * _GOLDEN) & _MASK64) for i in range(slots)],
            dtype=np.uint64,
        )
        zk = z[: slots * k].reshape(slots, k)
        np.add(rows, offsets[:, None], out=zk)
        return _unit(_splitmix(zk, tmp[: slots * k].reshape(slots, k)),
                     w[: slots * k].reshape(slots, k))

    out = np.empty(m)
    pending = np.arange(m)
    rows, dp, cp = jg, d, c
    lane = 1
    while True:
        u = uniforms(rows, lane, 3)
        x = _box_muller(u[0], u[1])
        v = (1.0 + cp * x) ** 3
        x2 = x * x
        accept = u[2] < 1.0 - 0.0331 * x2 * x2
        rest = ~accept & (v > 0.0)
        if rest.any():
            vr = v[rest]
            accept[rest] = np.log(u[2][rest]) < 0.5 * x2[rest] + dp[rest] * (
                1.0 - vr + np.log(vr)
            )
        out[pending[accept]] = dp[accept] * v[accept]
        pending = pending[~accept]
        if not pending.size:
            break
        rows, dp, cp = jg[pending], d[pending], c[pending]
        lane += 3
    if small.any():
        idx = np.flatnonzero(small)
        boost = uniforms(jg[idx], 0, 1)[0] ** (1.0 / shape[idx])
        out[idx] = np.maximum(out[idx] * boost, _TINY)
    return out


def beta_pair_keyed(key: int, p: np.ndarray, q: np.ndarray,
                    j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Beta(p[i], q[i]) variates Z = X/(X+Y) and their complements W = Y/(X+Y),
    unclamped, as keyed variate j[i] of call ``key``: X is keyed gamma variate
    j and Y keyed gamma variate j + 2^31."""
    j = np.asarray(j, dtype=np.uint64)
    g = gamma_keyed(key, np.concatenate((p, q)), np.concatenate((j, j + _Y_OFFSET)))
    x, y = g[: p.size], g[p.size :]
    s = x + y
    return x / s, y / s


def beta01_keyed(key: int, p: np.ndarray, q: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The Z of :func:`beta_pair_keyed`, clamped into (0, 1)."""
    z = beta_pair_keyed(key, p, q, j)[0]
    return np.clip(z, _TINY, _ONE_MINUS, out=z)


def keyed_uniforms(key: int, lane: int, size: int) -> np.ndarray:
    """Uniforms of the keyed words splitmix64(key + golden (lane 2^32 + j + 1)), j < size."""
    z = (np.arange(size, dtype=np.uint64) + np.uint64(lane * _LANE + 1)) * _GOLDEN_U
    z += np.uint64(key)
    return _unit(_splitmix(z, np.empty_like(z)))


def keyed_normals(key: int, size: int) -> np.ndarray:
    """Normals of call ``key`` in one pass: normal j is sqrt(-2 log u1) cos(2 pi u2)
    of the lane-1 and lane-2 uniforms u1, u2 of index j."""
    u1, u2 = keyed_uniforms(key, 1, size), keyed_uniforms(key, 2, size)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def alphas_keyed(key: int, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, ...]:
    """Variates alpha = W - Z on [-1, 1] of call ``key``, draw i keyed variate i,
    with their complements 1 - alpha = 2 Z and 1 + alpha = 2 W."""
    z, w = beta_pair_keyed(key, p, q, np.arange(p.size))
    return w - z, 2.0 * z, 2.0 * w


def random_matrix_gathered(alpha: np.ndarray, one_minus: np.ndarray,
                           one_plus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the Killip-Nenciu matrix of one alpha draw
    and its complements 1 -+ alpha.

    Gathers alpha_j, 1 - alpha_j and 1 + alpha_j for every index j the entry
    formulas name, with the boundary convention alpha_{-1} = alpha_{-2} = -1
    (complements 2 and 0).
    """
    n = (alpha.size + 1) // 2

    def gather(v: np.ndarray, pad: float):
        return lambda j: np.where(j >= 0, v[np.maximum(j, 0)], pad)

    at, om, op = gather(alpha, -1.0), gather(one_minus, 2.0), gather(one_plus, 0.0)
    k = np.arange(n)
    diag = om(2 * k - 1) * at(2 * k) - op(2 * k - 1) * at(2 * k - 2)
    ko = np.arange(n - 1)
    arg = om(2 * ko - 1) * (om(2 * ko) * op(2 * ko)) * op(2 * ko + 1)
    return diag, np.sqrt(arg)


def kn_off_exact(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Killip-Nenciu off-diagonals from the gamma pairs (x[i], y[i]) of the
    2n - 1 variates, in exact rationals and rounded once before the square root:
    off_k^2 = (2 Z_{2k-1})(2 Z_{2k})(2 W_{2k})(2 W_{2k+1}) with Z = x/(x + y),
    W = y/(x + y) and the boundary complement 1 - alpha_{-1} = 2."""
    z = [Fraction(a) / (Fraction(a) + Fraction(b)) for a, b in zip(x.tolist(), y.tolist())]
    om = [Fraction(2)] + [2 * v for v in z]  # om[j + 1] = 1 - alpha_j
    op = [2 * (1 - v) for v in z]
    return np.array([math.sqrt(float(om[2 * k] * om[2 * k + 1] * op[2 * k] * op[2 * k + 1]))
                     for k in range(len(z) // 2)])


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


def ecdf_eval(e, xi):
    """Fraction of the Ecdf sample <= xi; 0 below the minimum, 1 at/above the maximum."""
    idx = np.searchsorted(e.points, np.asarray(xi, dtype=np.float64), side="right")
    out = idx / e.n
    return float(out) if np.ndim(xi) == 0 else out


def ks_whole_array(f: np.ndarray) -> float:
    """max_i max(i/N - F_i, F_i - (i-1)/N) over CDF values F at an ascending
    sample, with every term formed at once over the whole sample."""
    i = np.arange(1, f.size + 1)
    return float(np.max(np.maximum(i / f.size - f, f - (i - 1) / f.size)))


def norm_inf(t) -> float:
    """Maximum absolute row sum of the tridiagonal t."""
    pad = np.concatenate(([0.0], np.abs(t.off), [0.0]))
    return float(np.max(np.abs(t.diag) + pad[:-1] + pad[1:]))


def ecdf_value(sample: np.ndarray, x: np.ndarray) -> np.ndarray:
    s = np.sort(sample)
    return np.searchsorted(s, x, side="right") / s.size


def _ecdf_at(points: np.ndarray, x) -> np.ndarray:
    return np.searchsorted(points, x, side="right") / points.size


def two_sample_sup_distance(e, f) -> float:
    """sup_x |F_e(x) - F_f(x)| for two ECDFs (Kolmogorov distance)."""
    grid = np.concatenate([e.points, f.points])
    return float(np.max(np.abs(_ecdf_at(e.points, grid) - _ecdf_at(f.points, grid))))


def _levy_feasible(e, f, eps: float) -> bool:
    # F(x - eps) - eps <= G(x) <= F(x + eps) + eps for all x, checked at the
    # jump points of each step function (the binding points)
    ge = _ecdf_at(e.points, e.points)  # values just after each jump of e
    gf = _ecdf_at(f.points, f.points)
    if np.any(ge > _ecdf_at(f.points, e.points + eps) + eps):
        return False
    if np.any(gf > _ecdf_at(e.points, f.points + eps) + eps):
        return False
    return True


def levy_distance(e, f) -> float:
    """Levy distance between two ECDFs, by bisection on the band half-width.

    Exact to ~1e-14: feasibility of a given half-width is checked exactly at
    the merged jump points, and the infimum is bracketed by bisection.
    """
    hi = max(two_sample_sup_distance(e, f), 1e-15)
    if _levy_feasible(e, f, 0.0):
        return 0.0
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _levy_feasible(e, f, mid):
            hi = mid
        else:
            lo = mid
    return hi


def general_density_params_at_n(p, s) -> tuple[float, float, float, float]:
    """Finite-n values of the four limit-density parameters (a1, a2, b1, b2).

    Evaluates, for JacobiParams p and ScalingSequence s, the four
    normalized-recurrence expressions whose limits define ``GeneralDensity``,
    multiplied by (2, 2, 4, 4) so the outputs estimate the parameters
    directly. No convergence is asserted; these are plug-ins.
    """
    n, at, bt = p.n, p.a_tilde, p.b_tilde
    t = 2.0 * n + at + bt - 2.0
    a1 = 2.0 / s.delta_n * ((n + bt - 1.0) / t - s.epsilon_n)
    a2 = (
        2.0
        / s.delta_n
        * ((n * (n + at - 1.0) + (n + bt - 1.0) * (n + at + bt - 2.0)) / t**2 - s.epsilon_n)
    )
    b1 = 4.0 / s.delta_n**2 * ((n + bt - 1.0) * (n + at - 1.0) * n / t**3)
    b2 = (
        4.0
        / s.delta_n**2
        * ((n + bt - 1.0) * (n + at - 1.0) * (n + at + bt - 2.0) * n / t**4)
    )
    return a1, a2, b1, b2


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


def density_formula(m, x: float) -> float:
    """The limit density of m at an interior point x from its class docstring's
    formula in plain x, not from ``m.rational``: the root factor
    sqrt((x - lo)(hi - x)) at the float support ``m.support``, times the law's
    rational factor in exact rationals (the float pi)."""
    lo, hi = m.support
    x, pi = Fraction(x), Fraction(math.pi)
    root = Fraction(math.sqrt((x - Fraction(lo)) * (Fraction(hi) - x)))
    name = type(m).__name__
    if name == "GeneralDensity":
        a1, a2, b1, b2 = (Fraction(v) for v in (m.a1, m.a2, m.b1, m.b2))
        den = (b2 - b1) * x * x + (b1 * a2 + b1 * a1 - 2 * b2 * a1) * x + (
            b2 * a1 * a1 - a1 * a2 * b1 + b1 * b1)
        factor = b1 / (2 * pi) / den
    elif name == "RatioDensity":
        factor = (2 + Fraction(m.alpha0) + Fraction(m.beta0)) / (2 * pi) / (4 - x * x)
    elif name == "SemicircleDensity":
        factor = 2 / (pi * Fraction(m.radius) ** 2)
    elif name == "EdgeDensity":
        factor = 1 / (4 * pi * x)
    elif name == "ReciprocalEdgeDensity":  # sqrt((x s2 - 1)(1 - x s1)) = 2 beta0 root
        factor = 2 * Fraction(m.beta0) / (4 * pi * x * x)
    elif name == "FMatrixDensity":
        y, yp = Fraction(m.y), Fraction(m.yprime)
        factor = (1 - yp) / (2 * pi * x * (x * yp + y))
    else:
        raise ParameterDomainError(f"no docstring formula for {name}")
    return float(root * factor)


def reciprocal_edge_cdf(beta0: float, xs: np.ndarray) -> np.ndarray:
    """CDF of 1/Z, Z ~ EdgeDensity(beta0), at ascending points: 1 - G(1/x),
    0 below the smallest normal float (x <= 0 among them), where 1/x is
    infinite or overflows."""
    out = np.zeros(len(xs))
    pos = np.searchsorted(xs, np.finfo(np.float64).tiny)
    out[pos:] = 1.0 - cdf_grid(EdgeDensity(beta0), 1.0 / xs[pos:][::-1])[::-1]
    return out


def arcsine_cdf(xi):
    """Closed-form CDF of the arcsine law on (-2, 2): 1/2 + arcsin(x/2)/pi."""
    return 0.5 + np.arcsin(np.clip(np.asarray(xi) / 2.0, -1.0, 1.0)) / np.pi


class NotPositiveDefiniteError(NumericalFailureError):
    """A Cholesky pivot was not strictly positive."""


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
    1e-12 * ||A||_F, with a hard cap of 50 sweeps. Capped at n = 500: the
    rotations cost O(n^3) in Python-driven numpy calls.
    """
    if a.n > 500:
        raise ParameterDomainError("dense solver is capped at n = 500")
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


def eig_pencil(a: DenseSym, b: DenseSym) -> Spectrum:
    """Eigenvalues of A v = lambda B v with B positive definite.

    Reduces to the standard symmetric problem L^-1 A L^-T via the Cholesky
    factor of B and two triangular solves, then applies the plane-rotation
    solver.
    """
    low = cholesky(b)
    half = solve_triangular(low, a.a, lower=True)
    reduced = solve_triangular(low, half.T, lower=True)
    return eig_dense_sym(DenseSym((reduced + reduced.T) / 2.0))


def jacobi_exact(n: int, g: float, d: float, x: float) -> float:
    """P_n^{(g, d)}(x) = sum_m C(n, m) (n + g + d + 1)_m (g + m + 1)_{n-m} ((x - 1)/2)^m / n!,
    summed in exact rationals from the floats' exact values; valid for every real g, d."""
    g, d, x = Fraction(g), Fraction(d), Fraction(x)

    def poch(a, k):
        return math.prod((a + i for i in range(k)), start=Fraction(1))

    return float(sum(math.comb(n, m) * poch(n + g + d + 1, m) * poch(g + m + 1, n - m)
                     * ((x - 1) / 2) ** m for m in range(n + 1)) / math.factorial(n))


def alpha_moments(p: float, q: float) -> tuple[Fraction, Fraction]:
    """Exact E alpha and E alpha^2 of alpha = 1 - 2Z, Z ~ Beta(p, q), from the
    floats' exact values: (q - p)/(p + q) and
    1 - 4p/(p + q) + 4p(p + 1)/((p + q)(p + q + 1))."""
    p, q = Fraction(p), Fraction(q)
    s = p + q
    return (q - p) / s, 1 - 4 * p / s + 4 * p * (p + 1) / (s * (s + 1))


def trace_moments(shapes: tuple[np.ndarray, np.ndarray], c: float) -> tuple[Fraction, Fraction]:
    """Exact E tr(T - cI) and E tr((T - cI)^2) of the Killip-Nenciu build whose
    2n - 1 independent alphas have the beta shapes (ps, qs), in exact rationals.

    diag_k = (1 - alpha_{2k-1}) alpha_{2k} - (1 + alpha_{2k-1}) alpha_{2k-2} and
    off_k^2 = (1 - alpha_{2k-1})(1 - alpha_{2k}^2)(1 + alpha_{2k+1}) are
    products of independent factors, with alpha_{-2} = alpha_{-1} = -1; each
    expectation is a product of the factors' moments.
    """
    # mom[i + 2] = (E alpha_i, E alpha_i^2)
    mom = [(Fraction(-1), Fraction(1))] * 2 + [alpha_moments(p, q) for p, q in zip(*shapes)]
    n, c = (len(mom) - 1) // 2, Fraction(c)
    first = second = Fraction(0)
    for k in range(n):
        (l1, l2), (o1, o2), (e1, e2) = mom[2 * k], mom[2 * k + 1], mom[2 * k + 2]
        d1 = (1 - o1) * e1 - (1 + o1) * l1
        d2 = (1 - 2 * o1 + o2) * e2 - 2 * (1 - o2) * e1 * l1 + (1 + 2 * o1 + o2) * l2
        first += d1 - c
        second += d2 - 2 * c * d1 + c * c
        if k < n - 1:
            second += 2 * (1 - o1) * (1 - e2) * (1 + mom[2 * k + 3][0])
    return first, second


def _rising(x: Fraction, m: int) -> Fraction:
    return math.prod((x + i for i in range(m)), start=Fraction(1))


def determinant_moment(shapes: tuple[np.ndarray, np.ndarray], u: int, s: int) -> Fraction:
    """Exact E[det(2I + T)^u det(2I - T)^s] of the Killip-Nenciu build whose
    2n - 1 independent alphas have the beta shapes (ps, qs), in exact rationals.

    det(2I + T) = prod_{k<n} (1 - alpha_{2k-1})(1 + alpha_{2k}) and
    det(2I - T) = prod_{k<n} (1 - alpha_{2k-1})(1 - alpha_{2k}), with
    alpha_{-1} = -1. With 1 - alpha = 2Z and 1 + alpha = 2(1 - Z),
    Z ~ Beta(p, q), each factor's moment is 2^m times rising factorials:
    E (2Z)^m = 2^m (p)_m / (p + q)_m and
    E (2 - 2Z)^u (2Z)^s = 2^(u+s) (q)_u (p)_s / (p + q)_(u+s).
    """
    out = Fraction(2) ** (u + s)  # 1 - alpha_{-1}
    for i, (p, q) in enumerate(zip(*shapes)):
        p, q = Fraction(p), Fraction(q)
        num = _rising(p, u + s) if i % 2 else _rising(q, u) * _rising(p, s)
        out *= 2 ** (u + s) * num / _rising(p + q, u + s)
    return out


def selberg_moment(n: int, a: float, b: float, beta: float, u: int, s: int) -> Fraction:
    """E prod_i (2 + lambda_i)^u (2 - lambda_i)^s under the beta-Jacobi density
    prod (2 - x_i)^a (2 + x_i)^b |Delta|^beta on (-2, 2), from the Selberg integral:
    4^(n(u+s)) prod_{j<n} (b + 1 + j beta/2)_u (a + 1 + j beta/2)_s
    / (a + b + 2 + (n + j - 1) beta/2)_(u+s), in exact rationals."""
    a, b, half = Fraction(a), Fraction(b), Fraction(beta) / 2
    out = Fraction(4) ** (n * (u + s))
    for j in range(n):
        out *= _rising(b + 1 + j * half, u) * _rising(a + 1 + j * half, s)
        out /= _rising(a + b + 2 + (n + j - 1) * half, u + s)
    return out


def hard_edge_exponent(n: int, e: float, beta: float) -> float:
    """K = n(e + 1) + beta n(n - 1)/2 of :func:`hard_edge_uniform`."""
    return n * (e + 1.0) + beta * n * (n - 1) / 2.0


def hard_edge_uniform(gap: np.ndarray, k: float) -> np.ndarray:
    """U = (1 - gap/4)^K, Uniform(0, 1) for the exact K of :func:`hard_edge_exponent`.

    At b = 0, gap = lambda_min + 2 and e = a: lambda = 2 - r (2 - y) with
    r = 1 - t/4 maps (-2, 2) onto (-2 + t, 2), and scales dx by r, every
    |x_i - x_j| and 2 - x_i by r, so P(lambda_min > -2 + t) = r^K exactly at
    every n, a > -1 and beta > 0. At a = 0 the mirror holds for
    gap = 2 - lambda_max with e = b.
    """
    return np.exp(k * np.log1p(-gap / 4.0))
