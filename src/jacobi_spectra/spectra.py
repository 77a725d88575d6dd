"""Empirical spectral distributions, limiting densities, deviation statistics
and the Monte Carlo driver.

Two scaled-eigenvalue conventions coexist and are selected explicitly by the
caller, because mixing them is the most likely implementation bug:

* ``plain``:    xi = (lambda - eps_n) / delta_n
* ``doubled``:  xi = (lambda - 2*(2*eps_n - 1)) / (2*delta_n)

Monte Carlo trials run through :func:`run_trials`, which gives trial t the
substream t of the base stream, so a pooled result depends only on the base
stream and the trial count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .betarand import RngStream
from .ensemble import JacobiParams, alpha_plan, random_matrix, sample_alphas
from .errors import MagnitudeOverflowError, NumericalFailureError, ParameterDomainError
from .errors import finite_ascending, real_array, real_number, whole_number
from .polyroots import ensemble_roots
from .trieig import eig_tridiag

# ---------------------------------------------------------------------------
# empirical distribution functions and distances


@dataclass(frozen=True)
class Ecdf:
    """Right-continuous empirical CDF carried by its sorted sample."""

    points: np.ndarray

    def __post_init__(self):
        pts = real_array(self.points)
        ok = pts.ndim == 1 and pts.size > 0
        if ok and finite_ascending(pts):
            pts = pts.copy()  # own copy
        elif ok:
            pts = np.sort(pts)  # own copy; sorted, only a NaN or an infinity fails
            ok = finite_ascending(pts)
        if not ok:
            raise ParameterDomainError("ECDF needs a nonempty sample of finite points")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.size


def ks_distance(e: Ecdf, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a continuous CDF callable.

    ``cdf`` must accept an array of points and return CDF values, assumed
    continuous and nondecreasing from 0 to 1. The statistic is the classical
    max_i max(i/N - F(x_i), F(x_i) - (i-1)/N) over the sorted sample, so the
    CDF is evaluated at the N sample points only. A CDF with an atom at a
    sample point is outside this contract: its left limit is not evaluated.

    The CDF values are the only array of the sample's size that this holds:
    the statistic is taken block by block. A CDF that returns a non-finite
    value raises :class:`NumericalFailureError`, one that does not return one
    value per point :class:`ParameterDomainError`.
    """
    f = real_array(cdf(e.points))
    if f.shape != e.points.shape:
        raise ParameterDomainError(
            f"CDF returned shape {f.shape} for {e.n} points; need one value per point"
        )
    n, stat = e.n, 0.0
    for lo in range(0, n, _BLOCK):
        fb = f[lo : lo + _BLOCK]
        if not np.isfinite(fb).all():
            raise NumericalFailureError("CDF values are not finite")
        i = np.arange(lo + 1, lo + 1 + fb.size)
        stat = max(stat, float(np.max(np.maximum(i / n - fb, fb - (i - 1) / n))))
    return stat


# ---------------------------------------------------------------------------
# limiting density models


class DensityModel:
    """Base class: a closed-form limiting spectral density on a finite support.

    Concrete models implement :meth:`edge_density`, the density written in
    terms of the exact distances to the two support endpoints; this avoids the
    subtractive cancellation that otherwise wrecks the quadrature near
    inverse-square-root edges (arcsine-type laws).
    """

    support: tuple[float, float]

    def edge_density(self, dlo, dhi):
        """Density at x = lo + dlo = hi - dhi for interior distances dlo, dhi > 0."""
        raise NotImplementedError


@dataclass(frozen=True)
class GeneralDensity(DensityModel):
    """Four-parameter limiting density on [a2 - 2*sqrt(b2), a2 + 2*sqrt(b2)].

    f(x) = (b1 / 2pi) sqrt(4 b2 - (x - a2)^2) /
           ((b2-b1) x^2 + (b1 a2 + b1 a1 - 2 b2 a1) x + b2 a1^2 - a1 a2 b1 + b1^2)
    """

    a1: float
    a2: float
    b1: float
    b2: float

    def __post_init__(self):
        a1, a2, b1, b2 = (real_number(v) for v in (self.a1, self.a2, self.b1, self.b2))
        if not (math.isfinite(a1) and math.isfinite(a2)):
            raise ParameterDomainError("location parameters a1, a2 must be finite")
        if not (0.0 < b1 < math.inf and 0.0 < b2 < math.inf):
            raise ParameterDomainError("scale parameters must be finite and satisfy b1, b2 > 0")
        w = 2.0 * math.sqrt(b2)
        self.__dict__.update(a1=a1, a2=a2, b1=b1, b2=b2, support=(a2 - w, a2 + w))

    def edge_density(self, dlo, dhi):
        a1, a2, b1, b2 = self.a1, self.a2, self.b1, self.b2
        x = self.support[0] + dlo
        num = b1 / (2.0 * np.pi) * np.sqrt(dlo * dhi)
        den = (
            (b2 - b1) * x * x
            + (b1 * a2 + b1 * a1 - 2.0 * b2 * a1) * x
            + b2 * a1 * a1
            - a1 * a2 * b1
            + b1 * b1
        )
        return num / den


def ratio_density_support(alpha0: float, beta0: float) -> tuple[float, float]:
    """Support endpoints (2 r1, 2 r2) of :class:`RatioDensity` on the [-2, 2] scale."""
    alpha0, beta0 = real_number(alpha0), real_number(beta0)
    if not (0.0 <= alpha0 < math.inf and 0.0 <= beta0 < math.inf):
        raise ParameterDomainError("growth ratios must be finite and satisfy alpha0, beta0 >= 0")
    root = 4.0 * math.sqrt((alpha0 + 1.0) * (beta0 + 1.0) * (alpha0 + beta0 + 1.0))
    try:
        den = (2.0 + alpha0 + beta0) ** 2
        r1 = (beta0**2 - alpha0**2 - root) / den
        r2 = (beta0**2 - alpha0**2 + root) / den
    except OverflowError:  # a float ** raises where * gives inf
        r1 = r2 = math.inf
    if not (math.isfinite(r1) and math.isfinite(r2)):
        raise MagnitudeOverflowError("ratio-law support overflowed float64")
    return 2.0 * r1, 2.0 * r2


@dataclass(frozen=True)
class RatioDensity(DensityModel):
    """Limit law when the rescaled parameters grow linearly with n.

    alpha0 and beta0 are the limits of a_tilde/n and b_tilde/n. The density is
    ((2 + alpha0 + beta0) / 2pi) sqrt((2 r2 - x)(x - 2 r1)) / (4 - x^2); for
    alpha0 = beta0 = 0 it degenerates to the arcsine law.
    """

    alpha0: float
    beta0: float

    def __post_init__(self):
        a0, b0 = real_number(self.alpha0), real_number(self.beta0)
        self.__dict__.update(alpha0=a0, beta0=b0, support=ratio_density_support(a0, b0))

    def edge_density(self, dlo, dhi):
        lo, hi = self.support
        c = (2.0 + self.alpha0 + self.beta0) / (2.0 * np.pi)
        # 4 - x^2 written via endpoint distances; exact when the support
        # touches +-2 (alpha0 or beta0 = 0), where the density is singular
        return c * np.sqrt(dlo * dhi) / (((2.0 - hi) + dhi) * ((2.0 + lo) + dlo))


@dataclass(frozen=True)
class ArcsineDensity(DensityModel):
    """Arcsine law on (-2, 2): f(x) = 1 / (pi sqrt(4 - x^2))."""

    def __post_init__(self):
        object.__setattr__(self, "support", (-2.0, 2.0))

    def edge_density(self, dlo, dhi):
        return 1.0 / (np.pi * np.sqrt(dlo * dhi))


@dataclass(frozen=True)
class SemicircleDensity(DensityModel):
    """Semicircle of given radius (and optional center).

    f(x) = (2 / (pi r^2)) sqrt(r^2 - (x - c)^2) on [c - r, c + r]. The shifted
    variant with radius 4 and center 2 (support [-2, 6]) is the limit in the
    strongly imbalanced parameter-growth regime; its mirror image (center -2,
    support [-6, 2]) appears for the correspondingly transformed F-matrix
    eigenvalues.
    """

    radius: float
    center: float = 0.0

    def __post_init__(self):
        r, c = real_number(self.radius), real_number(self.center)
        if not (0.0 < r < math.inf and math.isfinite(c)):
            raise ParameterDomainError("semicircle needs a finite radius > 0 and a finite center")
        self.__dict__.update(radius=r, center=c, support=(c - r, c + r))

    def edge_density(self, dlo, dhi):
        r = self.radius
        return 2.0 / (np.pi * r * r) * np.sqrt(dlo * dhi)


@dataclass(frozen=True)
class EdgeDensity(DensityModel):
    """Marchenko-Pastur-type limit when the first parameter dominates.

    beta0 is the limit of b_tilde/n while a_tilde/n diverges. Support is
    [s1, s2] with s1, s2 = 2 (2 + beta0) -/+ 4 sqrt(1 + beta0) and density
    (1 / 4pi) sqrt((s2 - x)(x - s1)) / x. A beta0 whose support collapses or
    overflows in float64 raises MagnitudeOverflowError.
    """

    beta0: float

    def __post_init__(self):
        beta0 = real_number(self.beta0)
        if not 0.0 <= beta0 < math.inf:
            raise ParameterDomainError("growth ratio must be finite and satisfy beta0 >= 0")
        s = 2.0 * (2.0 + beta0)
        w = 4.0 * math.sqrt(1.0 + beta0)
        # the width 2 w rounds away from beta0 near 1e33 on, and s overflows near 9e307
        if not s - w < s + w < math.inf:
            raise MagnitudeOverflowError(
                "edge-law support overflowed float64 or collapsed to a point"
            )
        self.__dict__.update(beta0=beta0, support=(s - w, s + w))

    def edge_density(self, dlo, dhi):
        # x = lo + dlo is exact even when the support starts at 0 (beta0 = 0)
        return np.sqrt(dlo * dhi) / (4.0 * np.pi * (self.support[0] + dlo))


@dataclass(frozen=True)
class FMatrixDensity(DensityModel):
    """Classical limiting eigenvalue density of the multivariate F-matrix.

    y in (0, 1] and yprime in (0, 1) are the limits of n/n1 and n/n2;
    f(x) = (1 - y') / (2 pi x (x y' + y)) sqrt((x - s1)(s2 - x)) on (s1, s2)
    with s1, s2 = ((1 -/+ sqrt(1 - (1-y)(1-y')))/(1 - y'))^2.
    """

    y: float
    yprime: float

    def __post_init__(self):
        y, yprime = real_number(self.y), real_number(self.yprime)
        if not (0.0 < y <= 1.0):
            raise ParameterDomainError("aspect ratio must satisfy y in (0, 1]")
        if not (0.0 < yprime < 1.0):
            raise ParameterDomainError("aspect ratio must satisfy yprime in (0, 1)")
        root = math.sqrt(1.0 - (1.0 - y) * (1.0 - yprime))
        s1 = ((1.0 - root) / (1.0 - yprime)) ** 2
        s2 = ((1.0 + root) / (1.0 - yprime)) ** 2
        self.__dict__.update(y=y, yprime=yprime, support=(s1, s2))

    def edge_density(self, dlo, dhi):
        x = self.support[0] + dlo
        c = (1.0 - self.yprime) / (2.0 * np.pi)
        return c * np.sqrt(dlo * dhi) / (x * (x * self.yprime + self.y))


def density_eval(m: DensityModel, x):
    """Density of the model at x (scalar or array, no NaN); 0 outside the open support."""
    xa = real_array(x)
    if np.isnan(xa).any():
        raise ParameterDomainError("density points must not be NaN")
    lo, hi = m.support
    inside = (xa > lo) & (xa < hi)
    out = np.zeros(xa.shape)
    out[inside] = m.edge_density(xa[inside] - lo, hi - xa[inside])
    return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# quadrature: blockwise Gauss-Legendre panels, sqrt substitution at the edges

# 8-point Gauss-Legendre rule on [-1, 1]; literals, because computing them
# with numpy.polynomial.legendre.leggauss loads numpy's own LAPACK
_GL_NODES = np.array([
    -0.9602898564975363, -0.7966664774136267, -0.5255324099163290, -0.1834346424956498,
    0.1834346424956498, 0.5255324099163290, 0.7966664774136267, 0.9602898564975363,
])
_GL_WEIGHTS = np.array([
    0.1012285362903763, 0.2223810344533745, 0.3137066458778873, 0.3626837833783620,
    0.3626837833783620, 0.3137066458778873, 0.2223810344533745, 0.1012285362903763,
])
# points per block: bounds the (intervals x nodes) temporaries
_BLOCK = 1024
# live intervals per block: a density the rule cannot resolve (a pole, rounding
# noise above the halved tolerance) fails here, not after doubling to depth 40
_MAX_INTERVALS = 16 * _BLOCK


def _gauss_legendre(m: DensityModel, a, b, upper):
    """8-point rule for the substituted integrand 2v f(x) on each [a_i, b_i].

    v is t = sqrt(x - s1), or u = sqrt(s2 - x) where ``upper``; the edge
    distances v^2 feed :meth:`DensityModel.edge_density` exactly.
    """
    h = 0.5 * (b - a)
    v = (0.5 * (a + b))[:, None] + h[:, None] * _GL_NODES
    sq = v * v
    rest = (m.support[1] - m.support[0]) - sq
    up = upper[:, None]
    dlo, dhi = np.where(up, rest, sq), np.where(up, sq, rest)
    del sq, rest  # free before the density's own temporaries
    return 2.0 * h * ((m.edge_density(dlo, dhi) * v) @ _GL_WEIGHTS)


def _panel_integrals(m: DensityModel, edges: np.ndarray) -> np.ndarray:
    """Integrals of the density over [edges[i], edges[i+1]] inside the support.

    Panels are integrated in t below the support midpoint and in u above it,
    which makes inverse-square-root edges analytic. An interval whose two halves
    miss the whole by more than 1e-10 (halved at each split) is split.
    """
    s1, s2 = m.support
    mid = 0.5 * (s1 + s2)
    a, b = edges[:-1], edges[1:]
    # avoid evaluating 2v * f at exactly v = 0 (0 * inf at singular edges);
    # the skipped mass below v = 1e-12 is O(1e-12) even for 1/sqrt edges
    ta = np.maximum(np.sqrt(a - s1), 1e-12)
    tb = np.sqrt(np.minimum(b, mid) - s1)
    ua = np.maximum(np.sqrt(s2 - b), 1e-12)
    ub = np.sqrt(s2 - np.maximum(a, mid))
    keep = np.concatenate([ta < tb, ua < ub])
    lo, hi = np.concatenate([ta, ua])[keep], np.concatenate([tb, ub])[keep]
    upper = np.repeat([False, True], a.size)[keep]
    owner = np.tile(np.arange(a.size), 2)[keep]
    total = np.zeros(a.size)
    whole = _gauss_legendre(m, lo, hi, upper)
    tol = 1e-10
    for depth in range(41):
        half = 0.5 * (lo + hi)
        left = _gauss_legendre(m, lo, half, upper)
        right = _gauss_legendre(m, half, hi, upper)
        est = left + right
        if not np.all(np.isfinite(est)):
            raise NumericalFailureError("density quadrature is not finite")
        done = np.abs(est - whole) <= tol
        total += np.bincount(owner[done], weights=est[done], minlength=a.size)
        if done.all():
            return total
        split = ~done
        if depth == 40 or 2 * np.count_nonzero(split) > _MAX_INTERVALS:
            raise NumericalFailureError("adaptive quadrature did not converge")
        lo = np.concatenate([lo[split], half[split]])
        hi = np.concatenate([half[split], hi[split]])
        whole = np.concatenate([left[split], right[split]])
        upper = np.tile(upper[split], 2)
        owner = np.tile(owner[split], 2)
        tol *= 0.5


def ascending_points(xs) -> np.ndarray:
    """xs as a float64 array if it is 1-D, finite and nondecreasing, as an
    :class:`Ecdf`'s sample is; else ParameterDomainError. :class:`Ecdf` is
    where points get sorted."""
    xs = real_array(xs)
    if xs.ndim != 1 or not finite_ascending(xs):
        raise ParameterDomainError("CDF points must be a 1-D array, finite and ascending")
    return xs


def cdf_grid(m: DensityModel, xs: np.ndarray) -> np.ndarray:
    """CDF at ascending finite points (see :func:`ascending_points`), walked in
    blocks with a running panel total (tol 1e-10 per panel) written straight
    into the output."""
    xs = ascending_points(xs)
    lo, hi = m.support
    first = np.searchsorted(xs, lo, side="right")
    stop = np.searchsorted(xs, hi, side="left")
    vals = np.zeros_like(xs)
    vals[stop:] = 1.0
    acc, prev = 0.0, lo
    for i in range(first, stop, _BLOCK):
        block = xs[i : min(i + _BLOCK, stop)]
        panels = _panel_integrals(m, np.concatenate([[prev], block]))
        cum = np.cumsum(np.concatenate([[acc], panels]))[1:]
        vals[i : i + block.size] = cum
        acc, prev = cum[-1], block[-1]
    return np.clip(vals, 0.0, 1.0, out=vals)


def model_cdf(m: DensityModel):
    """CDF callable for :func:`ks_distance`, on points as :func:`cdf_grid` takes them."""
    return lambda xs: cdf_grid(m, xs)


# ---------------------------------------------------------------------------
# deviation machinery


@dataclass(frozen=True)
class DeviationReport:
    """Per-realization deviation between random eigenvalues and deterministic roots.

    ``chain_bound`` = 4 sqrt(3 X) + 6 X with X = ``alpha_max_dev`` bounds
    ``max_dev`` for every realization; ``scaled_dev`` multiplies ``max_dev``
    by ((a + b)/log n)^(1/4), the rate at which the approximation error decays.
    Where that rate is undefined (n = 1, so log n = 0, or a + b < 0),
    ``scaled_dev`` is inf.
    """

    max_dev: float
    alpha_max_dev: float
    chain_bound: float
    scaled_dev: float

    def __post_init__(self):
        if min(self.max_dev, self.alpha_max_dev, self.chain_bound, self.scaled_dev) < 0:
            raise ParameterDomainError("deviation statistics must be nonnegative")


def deviation_report(
    p: JacobiParams, rng: RngStream, roots: np.ndarray | None = None
) -> DeviationReport:
    """Sample one realization and compare it to the deterministic roots.

    ``roots`` may carry precomputed ascending roots for the same parameters
    (they are deterministic, so sweeps over many trials can share them).
    """
    alphas = sample_alphas(p, rng)
    lam = eig_tridiag(random_matrix(alphas)).values
    if roots is None:
        roots = ensemble_roots(p)
    max_dev = float(np.max(np.abs(lam - roots)))
    x_n = float(np.max(np.abs(alphas.alpha - alpha_plan(p).means)))
    chain = 4.0 * math.sqrt(3.0 * x_n) + 6.0 * x_n
    logn = math.log(p.n)
    rate_defined = logn > 0.0 and p.a + p.b >= 0.0
    scaled = max_dev * ((p.a + p.b) / logn) ** 0.25 if rate_defined else math.inf
    return DeviationReport(max_dev, x_n, chain, scaled)


def deviation_probability_bound(n: int, a: float, b: float, eps: float) -> float:
    """Tail bound 4 (2n - 1) exp(c(eps) (a + b + 2)) for the max deviation.

    c(eps) = log(1 + u) - u with u = eps^2 / (648 + 2 eps^2) is strictly
    negative, so the bound decays in a + b; it is typically vacuous (> 1) at
    desk scale.
    """
    n = whole_number(n, "bound needs a whole number n >= 1", 1)
    a, b, eps = real_number(a), real_number(b), real_number(eps)
    if not (-1.0 < a < math.inf and -1.0 < b < math.inf and 0.0 < eps <= 1.0):
        raise ParameterDomainError("bound needs finite a, b > -1 and eps in (0, 1]")
    u = eps * eps / (648.0 + 2.0 * eps * eps)
    c = math.log1p(u) - u
    return 4.0 * (2.0 * n - 1.0) * math.exp(c * (a + b + 2.0))


# ---------------------------------------------------------------------------
# scaling sequences and the Monte Carlo driver


@dataclass(frozen=True)
class ScalingSequence:
    """One member (delta_n, eps_n) of an affine eigenvalue-scaling sequence."""

    delta_n: float
    epsilon_n: float
    n: int

    def __post_init__(self):
        delta_n, epsilon_n = real_number(self.delta_n), real_number(self.epsilon_n)
        if not (0.0 < delta_n < math.inf and math.isfinite(epsilon_n)):
            raise ParameterDomainError("scaling needs a finite delta_n > 0 and a finite epsilon_n")
        n = whole_number(self.n, "scaling needs a whole number n >= 1", 1)
        self.__dict__.update(delta_n=delta_n, epsilon_n=epsilon_n, n=n)


SCALING_MODES = ("plain", "doubled")


def scale_eigenvalues(lam: np.ndarray, s: ScalingSequence, mode: str) -> np.ndarray:
    """Apply one of the two affine scaled-eigenvalue conventions."""
    if mode == "plain":
        shift, scale = s.epsilon_n, s.delta_n
    elif mode == "doubled":
        shift, scale = 2.0 * (2.0 * s.epsilon_n - 1.0), 2.0 * s.delta_n
    else:
        raise ParameterDomainError(f"unknown scaling mode {mode!r}; use plain or doubled")
    with np.errstate(all="ignore"):
        out = real_array(lam) - shift
        out /= scale
    if np.count_nonzero(np.isfinite(out)) < np.size(out):
        raise MagnitudeOverflowError("scaled eigenvalues overflowed float64")
    return out


# ---------------------------------------------------------------------------
# limit regimes: model with plug-in parameters and automatic plain scaling


def _ratio_regime(p: JacobiParams):
    return RatioDensity(p.a_tilde / p.n, p.b_tilde / p.n), ScalingSequence(1.0, 0.0, p.n)


def _arcsine_regime(p: JacobiParams):
    return ArcsineDensity(), ScalingSequence(1.0, 0.0, p.n)


def semicircle_radius(g: float) -> float:
    """Radius 4 g / (1 + g)^(3/2) of the balanced-growth semicircle law, where
    g is the growth ratio a_tilde/b_tilde (or n1/n2 on the F side)."""
    try:
        return 4.0 * g / (1.0 + g) ** 1.5
    except OverflowError:  # a float ** raises where * gives inf
        raise MagnitudeOverflowError("semicircle radius overflowed float64") from None


def _semicircle_regime(p: JacobiParams):
    n, at, bt = p.n, p.a_tilde, p.b_tilde
    if at <= 1.0:
        raise ParameterDomainError("semicircle scaling needs a_tilde > 1")
    if at + bt == 2.0:
        raise ParameterDomainError("semicircle centring needs a_tilde + b_tilde != 2")
    return SemicircleDensity(semicircle_radius(at / bt)), ScalingSequence(
        2.0 * math.sqrt(n / (at - 1.0)), -2.0 * (at - bt) / (at + bt - 2.0), n
    )


def _edge_regime(p: JacobiParams):
    n, at, bt = p.n, p.a_tilde, p.b_tilde
    if at <= 1.0:
        raise ParameterDomainError("edge scaling needs a_tilde > 1")
    return EdgeDensity(bt / n), ScalingSequence(2.0 * n / (at - 1.0), -2.0, n)


def _shifted_semicircle_regime(p: JacobiParams):
    n, at, bt = p.n, p.a_tilde, p.b_tilde
    if at <= 1.0 or bt <= 1.0:
        raise ParameterDomainError("shifted-semicircle scaling needs a_tilde, b_tilde > 1")
    w = math.sqrt(n * (bt - 1.0))
    return SemicircleDensity(4.0, 2.0), ScalingSequence(
        2.0 * w / (at - 1.0), -2.0 * (at + 2.0 * w - bt) / (2.0 * n + at + bt - 2.0), n
    )


# regime name -> (JacobiParams -> (limit density, automatic plain scaling))
REGIMES = {
    "ratio": _ratio_regime,
    "arcsine": _arcsine_regime,
    "semicircle": _semicircle_regime,
    "edge": _edge_regime,
    "shifted-semicircle": _shifted_semicircle_regime,
}


def run_trials(fn, trials: int, rng: RngStream) -> list:
    """Evaluate fn(rng.substream(t)) for each trial t, in trial order.

    The one place where a trial gets its stream: fn must draw only from the
    stream it is given, so trials are independent and a trial's draws do not
    depend on how many draws other trials made.
    """
    trials = whole_number(trials, "need trials >= 1", 1)
    return [fn(rng.substream(t)) for t in range(trials)]


def monte_carlo_esd(
    p: JacobiParams, s: ScalingSequence, trials: int, rng: RngStream, mode: str = "plain"
) -> Ecdf:
    """Pooled ECDF of affinely scaled eigenvalues over independent trials.

    Trials run through :func:`run_trials`, so the pool is deterministic for a
    given base stream.
    """
    if mode not in SCALING_MODES:
        raise ParameterDomainError(f"unknown scaling mode {mode!r}")
    if p.n >= 2:
        try:
            d4 = s.delta_n**4
        except OverflowError:  # the proxy only decides the notice below
            d4 = math.inf
        transfer = d4 * (p.a + p.b) / math.log(p.n)
        if transfer < 10.0:
            warnings.warn(
                "scaled-comparison transfer proxy delta^4 (a+b)/log n = "
                f"{transfer:.3g} < 10; the root approximation may be too coarse "
                "at this scale",
                stacklevel=2,
            )

    def scaled_spectrum(sub: RngStream) -> np.ndarray:
        lam = eig_tridiag(random_matrix(sample_alphas(p, sub))).values
        return scale_eigenvalues(lam, s, mode)

    return Ecdf(np.concatenate(run_trials(scaled_spectrum, trials, rng)))
