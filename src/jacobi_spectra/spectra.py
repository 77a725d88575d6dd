"""Empirical spectral distributions, limiting densities, deviation statistics
and the Monte Carlo driver.

Two scaled-eigenvalue conventions coexist and are selected explicitly by the
caller, because mixing them is the most likely implementation bug:

* ``plain``:    xi = (lambda - eps_n) / delta_n
* ``doubled``:  xi = (lambda - 2*(2*eps_n - 1)) / (2*delta_n)

Monte Carlo trials run through :func:`run_trials`, which gives trial t the
substream t of the base stream, so a pooled result depends only on the base
stream and the trial count; :func:`realize` is the one place a realization is
drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .betarand import RngStream
from .ensemble import AlphaVector, JacobiParams, alpha_plan, random_matrix, sample_alphas
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
    """Base class: a Wachter-type limiting spectral density on a finite support.

    A law is its ``support`` (lo, hi) and its rational form ``rational`` =
    (c, w, poles): the density is sqrt(dlo dhi) (c + w / prod_j (x - p_j)) in
    the distances dlo = x - lo, dhi = hi - x, with at most two poles, real or
    a complex pair. :meth:`edge_density` and :func:`cdf_grid`'s closed form
    both read that one encoding, which every law sets through :meth:`_settle`.
    """

    support: tuple[float, float]
    rational: tuple[float, float, tuple]

    def _settle(self, support, rational, **fields):
        """Set the law's fields, support and rational form, once the one float64
        check of every law passes: finite lo < hi, and c and w finite, not both 0."""
        (lo, hi), (c, w, _) = support, rational
        if not (-math.inf < lo < hi < math.inf and 0.0 < abs(c) + abs(w) < math.inf):
            law = type(self).__name__.removesuffix("Density").lower()
            raise MagnitudeOverflowError(f"{law}-law support or weight overflowed float64, "
                                         "or the support collapsed to a point")
        self.__dict__.update(fields, support=support, rational=rational)

    def edge_density(self, dlo, dhi):
        """Density at x = lo + dlo = hi - dhi for interior distances dlo, dhi > 0:
        c s + (s w) / prod_j delta_j with s = sqrt(dlo dhi), where delta_j =
        x - p_j is (hi - p_j) - dhi for a pole whose real part is nearer hi
        than lo and (lo - p_j) + dlo for any other, so a pole on or near a
        support end costs no cancellation (a real pole that rounding put
        inside the support counts from its nearer end, as in :func:`_pole`);
        the real part for a complex pair.
        """
        lo, hi = self.support
        c, w, poles = self.rational
        s = np.sqrt(dlo * dhi)
        den = 1.0
        for p in poles:
            above = p.real - lo > hi - p.real
            den = den * ((hi - p) - dhi if above else (lo - p) + dlo)
        return (c * s + (s * w) / den).real


@dataclass(frozen=True)
class GeneralDensity(DensityModel):
    """Four-parameter limiting density on [a2 - 2*sqrt(b2), a2 + 2*sqrt(b2)].

    f(x) = (b1 / 2pi) sqrt(4 b2 - (x - a2)^2) /
           ((b2-b1) x^2 + (b1 a2 + b1 a1 - 2 b2 a1) x + b2 a1^2 - a1 a2 b1 + b1^2)
    A coefficient or discriminant of that denominator beyond float64 raises
    MagnitudeOverflowError, and so does a support that rounds to one point.
    Parameters whose law has atoms, so that the density integrates to less
    than 1 - 1e-9, raise ParameterDomainError naming the missing mass.
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
        w, k = 2.0 * math.sqrt(b2), b1 / (2.0 * np.pi)
        # the denominator A x^2 + B x + C and its discriminant in exact rationals,
        # each rounded once (a float B^2 - 4AC cancels for nearly equal roots)
        from fractions import Fraction  # here, not at import: only this law needs it
        f1, f2, g1, g2 = (Fraction(v) for v in (a1, a2, b1, b2))
        ea, eb, ec = g2 - g1, g1 * (f2 + f1) - 2 * g2 * f1, f1 * (g2 * f1 - f2 * g1) + g1 * g1
        try:
            a, b, c, disc = (float(v) for v in (ea, eb, ec, eb * eb - 4 * ea * ec))
        except OverflowError:
            raise MagnitudeOverflowError("general-law denominator overflowed float64") from None
        root = disc**0.5  # complex for complex poles; the roots without cancellation
        q = -0.5 * (b + root if (b * root.conjugate()).real >= 0.0 else b - root)
        if a == 0.0:
            rational = (k / c, 0.0, ()) if b == 0.0 else (0.0, k / b, (-c / b,))
        else:  # q = 0 only for the double root 0 (b = c = 0)
            p = q / a
            rational = (0.0, k / a, (p, p.conjugate() if root.imag else c / q if q else p))
        self._settle((a2 - w, a2 + w), rational, a1=a1, a2=a2, b1=b1, b2=b2)
        # the closed form at hi itself reads the density's mass (cdf_grid reads 1 there)
        mass = _closed_form(self)(np.array([a2 + w]))[0]
        if 1.0 - mass > 1e-9:
            raise ParameterDomainError(f"general law has atoms: its density integrates to "
                                       f"{mass:.12g}, missing mass {1.0 - mass:.3g}")


@dataclass(frozen=True)
class RatioDensity(DensityModel):
    """Limit law when the rescaled parameters grow linearly with n.

    alpha0 and beta0 are the limits of a_tilde/n and b_tilde/n. The density is
    ((2 + alpha0 + beta0) / 2pi) sqrt((2 r2 - x)(x - 2 r1)) / (4 - x^2) on
    [2 r1, 2 r2]; at alpha0 = beta0 = 0 it is the arcsine law 1 / (pi sqrt(4 - x^2)).
    """

    alpha0: float
    beta0: float

    def __post_init__(self):
        a0, b0 = real_number(self.alpha0), real_number(self.beta0)
        if not (0.0 <= a0 < math.inf and 0.0 <= b0 < math.inf):
            raise ParameterDomainError("growth ratios must be finite and satisfy alpha0, beta0 >= 0")
        root = 4.0 * math.sqrt((a0 + 1.0) * (b0 + 1.0) * (a0 + b0 + 1.0))
        try:
            den = (2.0 + a0 + b0) ** 2
            r1 = (b0**2 - a0**2 - root) / den
            r2 = (b0**2 - a0**2 + root) / den
        except OverflowError:  # a float ** raises where * gives inf
            r1 = r2 = math.inf
        if not (math.isfinite(r1) and math.isfinite(r2)):
            raise MagnitudeOverflowError("ratio-law support overflowed float64")
        # (c / 2pi) / (4 - x^2) = -(c / 2pi) / ((x - 2)(x + 2))
        rational = (0.0, -(2.0 + a0 + b0) / (2.0 * np.pi), (2.0, -2.0))
        self._settle((2.0 * r1, 2.0 * r2), rational, alpha0=a0, beta0=b0)


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
        den = np.pi * r * r  # 0 where r * r underflows, and 2.0 / 0.0 raises
        rational = (2.0 / den if den else math.inf, 0.0, ())
        self._settle((c - r, c + r), rational, radius=r, center=c)


@dataclass(frozen=True)
class EdgeDensity(DensityModel):
    """Marchenko-Pastur-type limit when the first parameter dominates.

    beta0 is the limit of b_tilde/n while a_tilde/n diverges. Support is
    [s1, s2] with s1, s2 = 2 (2 + beta0) -/+ 4 sqrt(1 + beta0) and density
    (1 / 4pi) sqrt((s2 - x)(x - s1)) / x. Its support collapses from beta0
    near 1e33 on and overflows near 9e307 (MagnitudeOverflowError).
    """

    beta0: float

    def __post_init__(self):
        beta0 = real_number(self.beta0)
        if not 0.0 <= beta0 < math.inf:
            raise ParameterDomainError("growth ratio must be finite and satisfy beta0 >= 0")
        s = 2.0 * (2.0 + beta0)
        w = 4.0 * math.sqrt(1.0 + beta0)
        self._settle((s - w, s + w), (0.0, 1.0 / (4.0 * np.pi), (0.0,)), beta0=beta0)


@dataclass(frozen=True)
class ReciprocalEdgeDensity(DensityModel):
    """Law of 1/Z for Z ~ :class:`EdgeDensity` (beta0): the limit of the thm43
    F-matrix transform.

    Support [1/s2, 1/s1] with EdgeDensity's s1, s2 and density
    (1 / 4pi) sqrt((x s2 - 1)(1 - x s1)) / x^2, which is
    (beta0 / 2pi) sqrt(dlo dhi) / x^2 as sqrt(s1 s2) = 2 beta0. beta0 must be
    > 0: at 0 the support is unbounded. 1/s1 overflows for beta0 below about
    1e-154, and the support collapses from beta0 near 1e33 on
    (MagnitudeOverflowError).
    """

    beta0: float

    def __post_init__(self):
        beta0 = real_number(self.beta0)
        if not 0.0 < beta0 < math.inf:
            raise ParameterDomainError("growth ratio must be finite and satisfy beta0 > 0")
        q = math.sqrt(1.0 + beta0) + 1.0
        t = beta0 / q  # sqrt(1 + beta0) - 1 without cancellation
        # s2 = 2 q^2 and s1 = 2 t^2 round alike, so the ends meet where t
        # rounds to q; an s that underflows to 0 puts its end at inf
        lo, hi = (1.0 / s if s else math.inf for s in (2.0 * q * q, 2.0 * t * t))
        self._settle((lo, hi), (0.0, beta0 / (2.0 * np.pi), (0.0, 0.0)), beta0=beta0)


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
        # 1 / (x (y' x + y)) = (1/y') / (x (x + y/y'))
        rational = (0.0, (1.0 - yprime) / (2.0 * np.pi * yprime), (0.0, -y / yprime))
        self._settle((s1, s2), rational, y=y, yprime=yprime)


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
# closed-form CDF: x = m - h cos(phi) on [lo, hi] = [m - h, m + h], so that
# dlo = h (1 - cos phi), dhi = h (1 + cos phi) and dx = h sin(phi) dphi

# points per block: bounds the temporaries of a CDF or KS evaluation
_BLOCK = 1024
# a pole with |t| below this takes the Poisson-kernel series, whose 21 terms
# k carry the weights 2 - [k = 0]
_FAR_POLE_T = 0.1
_K = np.arange(21)
_K_WEIGHTS = np.where(_K > 0, 2.0, 1.0)


def _pole(p, lo: float, hi: float):
    """(d1, d2, a, r, t): d1 = lo - p, d2 = hi - p, a = m - p, r = sqrt(d1 d2)
    with Re(r/a) >= 0 and t = h/(a + r), |t| < 1. A real pole that rounding
    put inside the support (an end computed past +-2) sits on the end."""
    d1, d2, h = lo - p, hi - p, 0.5 * (hi - lo)
    if not isinstance(p, complex) and d1 < 0.0 < d2:
        if min(-d1, d2) > 1e-13 * (abs(lo) + abs(hi)):
            raise NumericalFailureError("limit density has a pole inside its support")
        d1, d2 = (0.0, d2) if -d1 < d2 else (d1, 0.0)
    r = (d1 * d2) ** 0.5  # complex for a complex pole
    r = -r if (r / (d1 + h)).real < 0.0 else r
    return d1, d2, d1 + h, r, h / (d1 + h + r)


def _series(g, phi):
    """sum_k g_k int_0^phi sin^2(th) cos(k th) dth = sum_k g_k (S_k/2 -
    (S_(k-2) + S_(k+2))/4), S_0 = phi, S_j = sin(|j| phi)/|j|."""
    c = np.zeros(g.size + 2, dtype=g.dtype)  # of S_0 .. S_22
    np.add.at(c, np.r_[_K, abs(_K - 2), _K + 2], np.r_[g / 2.0, -g / 4.0, -g / 4.0])
    out, two_cos, s_prev, s = c[0] * phi, 2.0 * np.cos(phi), 0.0, np.sin(phi)
    for j in range(1, c.size):  # sin(j phi) by the Chebyshev recurrence
        out, s_prev, s = out + (c[j] / j) * s, s, two_cos * s - s_prev
    return out


def _pole_integral(pole, h, phi, sin_phi, tan_half):
    """I(p) = int_lo^x sqrt(dlo dhi) / (x - p) dx = h^2 J(a, -h, phi), where
    J(a, b, phi) = int_0^phi sin^2/(a + b cos)
                 = -sin(phi)/b + a phi/b^2 - (2r/b^2) atan((a - b)/r tan(phi/2))
    and the atan term is 0 for a pole on an end (r = 0). That form loses
    (a/h)^2 eps to cancellation, so a far pole (|t| < 0.1) sums the series
    1/(a - h cos) = (1/r) (1 + 2 sum_k t^k cos(k th)) over k <= 20 instead."""
    d1, d2, a, r, t = pole
    if abs(t) < _FAR_POLE_T:
        return _series(_K_WEIGHTS * h * h * t**_K / r, phi)
    atan = 0.0 if r == 0.0 else r * np.arctan(d2 / r * tan_half)
    return h * sin_phi + a * phi - 2.0 * atan


def _pair_integral(p1, p2, delta, h, phi, tan_half, rlo, rhi):
    """(I(p1) - I(p2))/delta for poles p1 = p2 + delta nearer each other than
    the support, without cancelling I(p1) against I(p2): r1 - r2 =
    -delta (a1 + a2)/(r1 + r2), and with u = d2/r (u^2 = d2/d1) the atan
    terms differ by atan(delta z), as u1 - u2 = 2 h delta/(d1 d1' (u1 + u2)).
    A far pair sums the series of the divided differences of t^k/r."""
    (d1, d2, a1, r1, t1), (e1, e2, a2, r2, t2) = p1, p2
    dr = -(a1 + a2) / (r1 + r2)  # (r1 - r2)/delta
    if max(abs(t1), abs(t2)) < _FAR_POLE_T:
        dt = h * (1.0 - dr) / ((a1 + r1) * (a2 + r2))  # (t1 - t2)/delta
        # (t1^k - t2^k)/(t1 - t2) = t2^(k-1) sum_(i<k) (t1/t2)^i
        e = np.r_[0.0, np.cumsum((t1 / t2) ** _K[:-1]) * t2 ** _K[:-1]]
        return _series(_K_WEIGHTS * h * h * (dt * e / r1 - t2**_K * dr / (r1 * r2)), phi)
    u1, u2 = d2 / r1, e2 / r2
    z = 2.0 * h * rlo * rhi / (d1 * e1 * (u1 + u2) * (rhi * rhi + u1 * u2 * rlo * rlo))
    datan = z if delta == 0.0 else np.arctan(delta * z) / delta
    return -phi - 2.0 * dr * np.arctan(u1 * tan_half) - 2.0 * r2 * datan


def _closed_form(m: DensityModel):
    """The closed form of m's CDF as a function of a block of finite points:
    c h^2 (phi - sin(phi) cos(phi))/2 plus w times I(p) of one pole, or
    (I(p1) - I(p2))/(p1 - p2) of two, through :func:`_pair_integral` where
    they are nearer each other than the support. phi = 2 atan2(sqrt(dlo),
    sqrt(dhi)) is accurate at either end. Unclipped: at hi it reads the mass
    of the density, which falls short of 1 by the mass of any atom."""
    lo, hi = m.support
    h = 0.5 * (hi - lo)
    c, w, ps = m.rational
    poles = [_pole(p, lo, hi) for p in ps]
    close = len(ps) == 2 and not lo <= ps[0].real <= hi and (
        abs(ps[0] - ps[1]) < min(abs(d) for pole in poles for d in pole[:2]))

    def cdf(xb):
        rlo, rhi = np.sqrt(np.maximum(xb - lo, 0.0)), np.sqrt(np.maximum(hi - xb, 0.0))
        phi = 2.0 * np.arctan2(rlo, rhi)
        sin_phi = np.sin(phi)
        f = (0.5 * c * h * h) * (phi - sin_phi * np.cos(phi))
        with np.errstate(divide="ignore", invalid="ignore"):  # rhi = 0 only at x >= hi
            tan_half = rlo / rhi
            if close:
                f += (w * _pair_integral(*poles, ps[0] - ps[1], h, phi, tan_half, rlo, rhi)).real
            elif poles:
                i1, *i2 = (_pole_integral(p, h, phi, sin_phi, tan_half) for p in poles)
                f += (w * ((i1 - i2[0]) / (ps[0] - ps[1]) if i2 else i1)).real
        return f

    return cdf


def cdf_grid(m: DensityModel, xs: np.ndarray) -> np.ndarray:
    """CDF at points that are 1-D, finite and ascending, as an :class:`Ecdf`'s
    sample is (else ParameterDomainError; :class:`Ecdf` is where points get
    sorted): :func:`_closed_form` block by block into the output. Points at or
    above hi read exactly 1, at or below lo 0."""
    xs = real_array(xs)
    if xs.ndim != 1 or not finite_ascending(xs):
        raise ParameterDomainError("CDF points must be a 1-D array, finite and ascending")
    hi, cdf, out = m.support[1], _closed_form(m), np.empty_like(xs)
    for i in range(0, xs.size, _BLOCK):
        xb = xs[i : i + _BLOCK]
        f = cdf(xb)
        f[xb >= hi] = 1.0
        if not np.isfinite(f).all():
            raise NumericalFailureError("limit-law CDF is not finite")
        np.clip(f, 0.0, 1.0, out=out[i : i + _BLOCK])
    return out


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
        stats = (self.max_dev, self.alpha_max_dev, self.chain_bound, self.scaled_dev)
        if not all(v >= 0.0 for v in stats):  # NaN fails too
            raise ParameterDomainError("deviation statistics must be nonnegative")


def deviation_report(p: JacobiParams, rng: RngStream) -> DeviationReport:
    """Sample one realization and compare it to the deterministic roots
    :func:`~jacobi_spectra.polyroots.ensemble_roots` of the same parameters."""
    roots = ensemble_roots(p)
    alphas, lam = realize(p, rng)
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


def shift_scale(s: ScalingSequence, mode: str) -> tuple[float, float]:
    """(shift, scale) of one of the two conventions: xi = (lambda - shift)/scale."""
    if mode == "plain":
        return s.epsilon_n, s.delta_n
    if mode == "doubled":
        return 2.0 * (2.0 * s.epsilon_n - 1.0), 2.0 * s.delta_n
    raise ParameterDomainError(f"unknown scaling mode {mode!r}; use plain or doubled")


def scale_eigenvalues(lam: np.ndarray, s: ScalingSequence, mode: str) -> np.ndarray:
    """Apply one of the two affine scaled-eigenvalue conventions."""
    shift, scale = shift_scale(s, mode)
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
    return RatioDensity(0.0, 0.0), ScalingSequence(1.0, 0.0, p.n)


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


def realize(p: JacobiParams, rng: RngStream) -> tuple[AlphaVector, np.ndarray]:
    """(driving variates, ascending eigenvalues) of one Killip-Nenciu
    realization drawn from rng: the one place one is sampled, built and solved."""
    alphas = sample_alphas(p, rng)
    return alphas, eig_tridiag(random_matrix(alphas)).values


def monte_carlo_esd(
    p: JacobiParams, s: ScalingSequence, trials: int, rng: RngStream, mode: str = "plain"
) -> Ecdf:
    """Pooled ECDF of affinely scaled eigenvalues over independent trials.

    Trials run through :func:`run_trials`, so the pool is deterministic for a
    given base stream.
    """

    def scaled_spectrum(sub: RngStream) -> np.ndarray:
        return scale_eigenvalues(realize(p, sub)[1], s, mode)

    return Ecdf(np.concatenate(run_trials(scaled_spectrum, trials, rng)))
