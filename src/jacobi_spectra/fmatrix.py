"""Multivariate F-matrix pipeline: Gaussian construction, the eigenvalue
correspondence with the beta = 1 Jacobi ensemble, and the transformed-
eigenvalue limit laws.

The F-matrix (X X^T / n1)(Y Y^T / n2)^{-1} built from independent standard
normal X (n x n1) and Y (n x n2) shares a realization-exact Moebius
correspondence with the matrix 2 (Y Y^T - X X^T)(Y Y^T + X X^T)^{-1}, whose
eigenvalues follow the beta = 1 Jacobi ensemble with a = (n1 - n - 1)/2,
b = (n2 - n - 1)/2. The tridiagonal sampler therefore gives F-spectra in
O(n) memory; the dense Gaussian route solves the symmetric-definite pencil
with LAPACK at any size (the CLI caps its ``--route direct`` at n = 500).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .betarand import RngStream
from .ensemble import JacobiParams
from .errors import (
    MagnitudeOverflowError, NumericalFailureError, ParameterDomainError, real_array, whole_number,
)
from .spectra import (
    FMatrixDensity, SemicircleDensity, model_cdf, realize, reciprocal_edge_cdf, run_trials,
    semicircle_radius,
)
from .trieig import Spectrum, eig_generalized_sym


@dataclass(frozen=True)
class FDims:
    """F-matrix dimensions n, n1 >= n, n2 >= n.

    The induced Jacobi-ensemble parameters are a = (n1 - n - 1)/2,
    b = (n2 - n - 1)/2 with repulsion exponent beta = 1, so n1, n2 >= n keeps
    both aspect ratios y = n/n1 and y' = n/n2 at or below 1 (the point-mass
    regime y > 1 is rejected at the type level).
    """

    n: int
    n1: int
    n2: int

    def __post_init__(self):
        message = "dimensions n, n1, n2 must be finite integers"
        n, n1, n2 = (whole_number(v, message) for v in (self.n, self.n1, self.n2))
        if n < 1:
            raise ParameterDomainError("size must satisfy n >= 1")
        if n1 < n or n2 < n:
            raise ParameterDomainError("dimensions must satisfy n1 >= n and n2 >= n")
        self.__dict__.update(n=n, n1=n1, n2=n2)

    @property
    def a(self) -> float:
        return 0.5 * (self.n1 - self.n - 1)

    @property
    def b(self) -> float:
        return 0.5 * (self.n2 - self.n - 1)

    @property
    def ratio(self) -> float:
        """n2 / n1, the fixed point of the Jacobi<->F eigenvalue map."""
        return self.n2 / self.n1

    def jacobi_params(self) -> JacobiParams:
        return JacobiParams(self.n, self.a, self.b, 1.0)


@dataclass(frozen=True)
class GaussianPair:
    """Independent standard normal matrices X (n x n1) and Y (n x n2), finite,
    with n1 >= n >= 1 and n2 >= n, as :class:`FDims` requires."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 2 or self.x.shape[0] != self.y.shape[0]:
            raise ParameterDomainError("matrices must share their row count n")
        (n, n1), n2 = self.x.shape, self.y.shape[1]
        if not 1 <= n <= min(n1, n2):
            raise ParameterDomainError("dimensions must satisfy n1 >= n >= 1 and n2 >= n")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ParameterDomainError("matrices must have finite entries")


def sample_gaussian_pair(d: FDims, rng: RngStream) -> GaussianPair:
    """Draw the Gaussian pair; row count n, column counts n1 and n2."""
    x = rng.normals(d.n * d.n1).reshape(d.n, d.n1)
    y = rng.normals(d.n * d.n2).reshape(d.n, d.n2)
    return GaussianPair(x, y)


def f_eigs_direct(g: GaussianPair) -> Spectrum:
    """Eigenvalues of (X X^T / n1)(Y Y^T / n2)^{-1} from an explicit Gaussian
    pair, n1 and n2 the column counts of X and Y.

    Solved as the symmetric-definite pencil (X X^T / n1) v = lambda (Y Y^T / n2) v;
    all eigenvalues are nonnegative. Uncapped here; the CLI's n <= 500 policy
    for ``--route direct`` is checked before the draw. Raises
    DegenerateSampleError when Y Y^T is numerically singular.
    """
    spec = eig_generalized_sym(g.x @ g.x.T / g.x.shape[1], g.y @ g.y.T / g.y.shape[1])
    # pencil of PSD vs PD matrices; clip the rounding fuzz below zero
    return Spectrum(np.maximum(spec.values, 0.0))


def manova_eigs(g: GaussianPair) -> Spectrum:
    """Eigenvalues of 2 (Y Y^T - X X^T)(Y Y^T + X X^T)^{-1}, all inside (-2, 2).

    These follow the beta = 1 Jacobi ensemble with the dimension-induced
    (a, b). The matrix is never formed nonsymmetrically; the spectrum comes
    from the pencil 2 (Y Y^T - X X^T) v = lambda (Y Y^T + X X^T) v. Raises
    DegenerateSampleError when Y Y^T + X X^T is numerically singular.
    """
    xxt = g.x @ g.x.T
    yyt = g.y @ g.y.T
    return eig_generalized_sym(2.0 * (yyt - xxt), yyt + xxt)


def jacobi_to_f(lam_j, d: FDims):
    """Map a Jacobi-side eigenvalue in (-2, 2] to the F side: r (2 - t)/(2 + t).

    Monotone decreasing bijection onto [0, inf); the pole sits at t = -2.
    Any other value raises ParameterDomainError.
    """
    t = real_array(lam_j)
    # one pass each; a NaN propagates through both reductions and fails both
    lo, hi = t.min(initial=0.0), t.max(initial=0.0)
    if lo == -2.0:
        raise ParameterDomainError("jacobi_to_f has a pole at lambda = -2")
    if not (-2.0 < lo and hi <= 2.0):
        raise ParameterDomainError("Jacobi-side eigenvalues must be finite and lie in (-2, 2]")
    out = d.ratio * (2.0 - t) / (2.0 + t)
    return float(out) if np.ndim(lam_j) == 0 else out


def _f_eigenvalues(lam_f):
    """F-side eigenvalues as float64 (an np.float64 for scalar input), or
    ParameterDomainError unless every one is finite and >= 0."""
    s = real_array(lam_f)
    # one pass each; a NaN propagates through both reductions and fails both
    if not (0.0 <= s.min(initial=0.0) and s.max(initial=0.0) < math.inf):
        raise ParameterDomainError("F-matrix eigenvalues must be finite and >= 0")
    return s[()]


def f_to_jacobi(lam_f, d: FDims):
    """Inverse map: F-side eigenvalue >= 0 to the Jacobi side 2 (r - s)/(r + s)."""
    s = _f_eigenvalues(lam_f)
    return 2.0 * (d.ratio - s) / (d.ratio + s)


def f_eigs_tridiag(d: FDims, rng: RngStream) -> Spectrum:
    """F-matrix spectrum via the tridiagonal Jacobi sampler plus the Moebius map.

    O(n) sampling memory and an O(n^2) eigenvalue solve; the production route
    for large n. Eigenvalues that round above 2 map as 2, to F value 0. One
    at or below -2, the pole of the map, raises NumericalFailureError: the
    lambda coordinate cannot resolve the smallest eigenvalues there (extreme
    n1/n with n2 near n).
    """
    lam_j = realize(d.jacobi_params(), rng)[1]
    if lam_j[0] <= -2.0:
        raise NumericalFailureError(
            "a sampled Jacobi eigenvalue rounded onto or below the F map's pole at -2: "
            "the lambda coordinate cannot resolve eigenvalues this close to -2"
        )
    lam_f = jacobi_to_f(np.minimum(lam_j, 2.0), d)  # decreasing map: reverse to ascend
    return Spectrum(lam_f[::-1])


# ---------------------------------------------------------------------------
# transformed-eigenvalue limit laws (centerings for degenerate aspect ratios)


def _finite_transform(transform):
    """``transform`` computed with float64 overflow silenced, raising
    MagnitudeOverflowError when a result is not finite."""

    @functools.wraps(transform)
    def checked(lam_f, d: FDims):
        with np.errstate(over="ignore", invalid="ignore"):
            mu = transform(lam_f, d)
        if not np.all(np.isfinite(mu)):
            raise MagnitudeOverflowError("F-eigenvalue transform overflowed float64")
        return mu

    return checked


@_finite_transform
def semicircle_transform(lam_f, d: FDims):
    """Center/scale F eigenvalues for the balanced-growth semicircle limit.

    mu = 2 sqrt(n1/n - 1) ((n2 - n)/(n1 + n2 - 2n) - n2/(n1 lam + n2));
    increasing in lam. Limit: semicircle with radius 4 g/(1 + g)^{3/2},
    g = lim n1/n2, when n1, n2 >> n grow proportionally.
    """
    n, n1, n2 = d.n, d.n1, d.n2
    if n1 <= n:
        raise ParameterDomainError("transform needs n1 > n")
    s = _f_eigenvalues(lam_f)
    return 2.0 * math.sqrt(n1 / n - 1.0) * (
        (n2 - n) / (n1 + n2 - 2.0 * n) - n2 / (n1 * s + n2)
    )


@_finite_transform
def reciprocal_edge_transform(lam_f, d: FDims):
    """Affine rescaling mu = n/(2 (n1 - n)) (lam n1/n2 + 1).

    Limit when n1 >> n but n/n2 -> y' in (0, 1): the reciprocal image of
    :class:`EdgeDensity` with beta0 = 1/y' - 1, i.e. density
    (1/4pi) sqrt((x s2 - 1)(1 - x s1)) / x^2 on (1/s2, 1/s1).
    """
    n, n1, n2 = d.n, d.n1, d.n2
    if n1 <= n:
        raise ParameterDomainError("transform needs n1 > n")
    return n / (2.0 * (n1 - n)) * (_f_eigenvalues(lam_f) * n1 / n2 + 1.0)


@_finite_transform
def shifted_semicircle_transform(lam_f, d: FDims):
    """Transform for the strongly imbalanced regime n1 >> n2 >> n.

    mu = 2 (n1 - n)/(n1 + n2) *
         ((n1/n2)(n2 - w) lam - (n1 + w)) / (w (1 + (n1/n2) lam)),  w = sqrt(n(n2 - n));
    increasing in lam. Limit: semicircle with radius 4 centered at -2
    (support [-6, 2]).
    """
    n, n1, n2 = d.n, d.n1, d.n2
    if n1 <= n or n2 <= n:
        raise ParameterDomainError("transform needs n1 > n and n2 > n")
    w = math.sqrt(n * (n2 - n))
    s = _f_eigenvalues(lam_f)
    num = (n1 / n2) * (n2 - w) * s - (n1 + w)
    den = w * (1.0 + (n1 / n2) * s)
    return 2.0 * (n1 - n) / (n1 + n2) * num / den


# kind -> (F-eigenvalue map (lam, d) -> mu, dims d -> CDF of the limit law of mu)
TRANSFORMS = {
    "none": (
        lambda lam, d: _f_eigenvalues(lam),
        lambda d: model_cdf(FMatrixDensity(d.n / d.n1, d.n / d.n2)),
    ),
    "thm42": (
        semicircle_transform,
        lambda d: model_cdf(SemicircleDensity(semicircle_radius(d.n1 / d.n2))),
    ),
    "thm43": (reciprocal_edge_transform, lambda d: reciprocal_edge_cdf(d.n2 / d.n - 1.0)),
    "thm44": (shifted_semicircle_transform, lambda d: model_cdf(SemicircleDensity(4.0, -2.0))),
}


def _transform(kind: str):
    if kind not in TRANSFORMS:
        raise ParameterDomainError(f"unknown transform {kind!r}")
    return TRANSFORMS[kind]


def transform_limit_cdf(kind: str, d: FDims):
    """CDF callable of the limiting law matching a transform at dimensions d.

    Plug-in parameters are used (y = n/n1, y' = n/n2, g = n1/n2); points as
    ``cdf_grid`` takes them; ``thm43``'s is :func:`~jacobi_spectra.spectra.reciprocal_edge_cdf`.
    """
    return _transform(kind)[1](d)


def f_esd_pooled(d: FDims, trials: int, rng: RngStream, transform: str = "none") -> np.ndarray:
    """Pooled sorted (optionally transformed) F eigenvalues over trials.

    Tridiagonal route; trials run through ``run_trials``, so the pool is
    deterministic for a given base stream.
    """
    fn = _transform(transform)[0]
    spectra = run_trials(lambda sub: fn(f_eigs_tridiag(d, sub).values, d), trials, rng)
    return np.sort(np.concatenate(spectra))
