import math
import tracemalloc
import warnings

import numpy as np
import pytest

from jacobi_spectra.betarand import RngStream
from jacobi_spectra.ensemble import JacobiParams
from jacobi_spectra.errors import (
    MagnitudeOverflowError,
    NumericalFailureError,
    ParameterDomainError,
)
from jacobi_spectra.fmatrix import TRANSFORMS, FDims, transform_limit_cdf
from jacobi_spectra.polyroots import JacobiPolyParams, jacobi_roots_scaled
from jacobi_spectra.spectra import (
    REGIMES,
    ArcsineDensity,
    DensityModel,
    Ecdf,
    EdgeDensity,
    FMatrixDensity,
    GeneralDensity,
    RatioDensity,
    ScalingSequence,
    SemicircleDensity,
    cdf_grid,
    density_eval,
    deviation_probability_bound,
    deviation_report,
    ks_distance,
    model_cdf,
    monte_carlo_esd,
    ratio_density_support,
    run_trials,
    scale_eigenvalues,
)

from oracles import (
    arcsine_cdf,
    cdf_eval,
    density_norm,
    ecdf_eval,
    general_density_params_at_n,
    ks_whole_array,
    levy_distance,
    levy_grid_search,
    two_sample_sup_distance,
)

SEED = 0x4A41434F424921


# ----------------------------------------------------------------- ECDF, KS


def test_ecdf_eval_counting():
    e = Ecdf(np.array([1.0, 2.0, 3.0]))
    assert ecdf_eval(e, 0.5) == 0.0
    assert ecdf_eval(e, 2.0) == pytest.approx(2.0 / 3.0)
    assert ecdf_eval(e, 2.0) == pytest.approx((3 + 1) / (2 * 3))  # odd-length median
    assert ecdf_eval(e, 9.0) == 1.0


def test_ks_quantile_plugin():
    n = 400
    u = (np.arange(1, n + 1) - 0.5) / n
    e = Ecdf(u)
    assert ks_distance(e, lambda x: np.clip(x, 0, 1)) == pytest.approx(1.0 / (2 * n))


def test_ks_uniform_sample():
    u = RngStream(SEED, 0).uniforms(10**5)
    assert ks_distance(Ecdf(u), lambda x: np.clip(x, 0, 1)) < 0.01


def _tied_sample(lo, hi, size, seed):
    """Points over [lo, hi] widened by a tenth on each side, rounded to a grid
    of 400 steps so that a large sample has ties."""
    w = hi - lo
    u = RngStream(seed, 0).uniforms(size)
    return lo - 0.1 * w + np.round(400.0 * u) * (1.2 * w / 400.0)


KS_MODELS = [RatioDensity(3.0, 3.0), ArcsineDensity(), FMatrixDensity(0.5, 1.0 / 3.0)]


@pytest.mark.parametrize("size", [1, 1023, 1024, 1025, 5150])
@pytest.mark.parametrize("model", KS_MODELS, ids=lambda m: type(m).__name__)
def test_ks_distance_is_the_whole_array_formula(size, model):
    e = Ecdf(_tied_sample(*model.support, size, SEED + size))
    if size > 1000:
        assert np.unique(e.points).size < size  # ties
    cdf = model_cdf(model)
    assert ks_distance(e, cdf) == ks_whole_array(cdf(e.points))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ks_distance_rejects_nonfinite_cdf_values(bad):
    e = Ecdf(np.linspace(0.0, 1.0, 3000))
    with pytest.raises(NumericalFailureError, match="not finite"):
        ks_distance(e, lambda x: np.where(x > 0.5, bad, x))


@pytest.mark.parametrize("cdf", [lambda x: 0.5, lambda x: x[:-1], lambda x: x[:, None]])
def test_ks_distance_rejects_cdf_of_wrong_shape(cdf):
    with pytest.raises(ParameterDomainError, match="one value per point"):
        ks_distance(Ecdf(np.linspace(0.0, 1.0, 5)), cdf)


def test_ks_distance_holds_one_array_of_the_sample_size():
    size = 200_000
    m = RatioDensity(3.0, 3.0)
    e = Ecdf(np.sort(_tied_sample(*m.support, size, SEED)))
    cdf = model_cdf(m)
    tracemalloc.start()
    try:
        ks_distance(e, cdf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * size


def test_ecdf_owns_a_sorted_copy():
    x = np.array([0.3, -1.0, 0.3, 2.0])
    e = Ecdf(x)
    assert list(e.points) == [-1.0, 0.3, 0.3, 2.0]
    assert list(x) == [0.3, -1.0, 0.3, 2.0]
    ascending = np.array([-1.0, 0.3, 0.3, 2.0])
    e = Ecdf(ascending)
    assert e.points is not ascending and np.array_equal(e.points, ascending)
    ascending[0] = 5.0
    assert e.points[0] == -1.0


def test_levy_examples_and_oracle():
    e = Ecdf(np.array([0.0]))
    assert levy_distance(e, e) == 0.0
    for h in (0.25, 0.8, 3.0):
        f = Ecdf(np.array([h]))
        mine = levy_distance(e, f)
        ref = levy_grid_search(e.points, f.points)
        assert mine == pytest.approx(min(h, 1.0), abs=1e-10)
        assert mine <= ref + 1e-3  # grid oracle overshoots by at most one step


def test_levy_below_sup_distance():
    gen = np.random.default_rng(10)
    for _ in range(100):
        a = Ecdf(gen.normal(size=gen.integers(2, 30)))
        b = Ecdf(gen.normal(size=gen.integers(2, 30)))
        assert levy_distance(a, b) <= two_sample_sup_distance(a, b) + 1e-12


# ------------------------------------------------------------------ models


def test_density_spot_values():
    assert density_eval(RatioDensity(3.0, 3.0), 0.0) == pytest.approx(
        math.sqrt(7.0) / (2.0 * math.pi), rel=1e-14
    )
    assert density_eval(ArcsineDensity(), 0.0) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-14
    )
    assert density_eval(SemicircleDensity(math.sqrt(2.0)), 0.0) == pytest.approx(
        math.sqrt(2.0) / math.pi, rel=1e-14
    )
    assert density_eval(FMatrixDensity(0.5, 0.5), 1.0) == pytest.approx(
        math.sqrt(3.0) / (2.0 * math.pi), rel=1e-12
    )
    # zero outside the support and at its endpoints
    m = RatioDensity(3.0, 3.0)
    lo, hi = m.support
    assert density_eval(m, lo) == 0.0 and density_eval(m, hi + 1.0) == 0.0


def test_density_eval_scalar_and_shape_contract():
    m = FMatrixDensity(0.5, 0.5)
    lo, hi = m.support
    for x in (1.0, np.array(1.0)):
        assert type(density_eval(m, x)) is float
    xs = np.array([[lo - 1.0, lo, 1.0], [hi, hi + 1.0, 0.5 * (lo + hi)]])
    out = density_eval(m, xs)
    assert out.shape == (2, 3)
    # exact zeros at and outside the support endpoints
    assert np.array_equal(out[[0, 0, 1, 1], [0, 1, 0, 1]], np.zeros(4))
    assert np.all(out[[0, 1], [2, 2]] > 0.0)


@pytest.mark.parametrize("model", [
    GeneralDensity(2.0, 2.0, 4.0, 4.0),
    RatioDensity(3.0, 3.0),
    ArcsineDensity(),
    SemicircleDensity(4.0, -2.0),
    EdgeDensity(1.0),
    FMatrixDensity(0.5, 1.0 / 3.0),
])
def test_density_eval_is_edge_density_inside_the_support(model):
    lo, hi = model.support
    xs = np.linspace(lo, hi, 203)[1:-1]
    assert np.array_equal(density_eval(model, xs), model.edge_density(xs - lo, hi - xs))


def test_ratio_support_values():
    lo, hi = ratio_density_support(3.0, 3.0)
    assert (lo, hi) == pytest.approx((-math.sqrt(7.0) / 2.0, math.sqrt(7.0) / 2.0))
    assert ratio_density_support(0.0, 0.0) == pytest.approx((-2.0, 2.0))
    lo, hi = ratio_density_support(1.3, 1.3)
    assert lo == pytest.approx(-hi)


@pytest.mark.parametrize("a0", [1e103, 1e160])
def test_ratio_support_overflow_raises(a0):
    # 1e103: the root term is infinite; 1e160: (2 + a0 + b0) ** 2 raises OverflowError
    with pytest.raises(MagnitudeOverflowError, match="overflowed float64"):
        RatioDensity(a0, a0)


def test_thm42_radius_overflow_raises():
    with pytest.raises(MagnitudeOverflowError, match="overflowed float64"):
        transform_limit_cdf("thm42", FDims(1, 10**250, 1))


@pytest.mark.parametrize("beta0", [1e308, 1e200, 1e34])
def test_edge_support_overflow_or_collapse_raises(beta0):
    # 1e308: 2 (2 + beta0) is infinite; below, the width 8 sqrt(1 + beta0) rounds away
    with pytest.raises(MagnitudeOverflowError, match="edge-law support"):
        EdgeDensity(beta0)


def test_edge_support_a_few_ulps_wide_is_kept_and_thm43_overflow_raises():
    lo, hi = EdgeDensity(1e32).support
    assert lo < hi < math.inf and (hi - lo) / hi < 1e-15
    assert EdgeDensity(1.0).support == pytest.approx((6.0 - 4.0 * math.sqrt(2.0),
                                                      6.0 + 4.0 * math.sqrt(2.0)))
    with pytest.raises(MagnitudeOverflowError, match="edge-law support"):
        transform_limit_cdf("thm43", FDims(1, 2, 10**308))


def test_fmatrix_support_properties():
    for y in (0.2, 0.7, 1.0):
        for yp in (0.1, 0.5, 0.9):
            s1, s2 = FMatrixDensity(y, yp).support
            assert s2 > s1 >= 0.0
            if y < 1.0:
                assert s1 > 0.0
    assert FMatrixDensity(1.0, 0.5).support[0] == 0.0


MODELS = [
    GeneralDensity(0.0, 0.0, 0.5, 7.0 / 16.0),
    GeneralDensity(2.0, 2.0, 4.0, 4.0),
    RatioDensity(3.0, 3.0),
    RatioDensity(0.0, 0.0),
    RatioDensity(0.0, 2.5),
    ArcsineDensity(),
    SemicircleDensity(math.sqrt(2.0)),
    SemicircleDensity(4.0, 2.0),
    SemicircleDensity(4.0, -2.0),
    EdgeDensity(0.0),
    EdgeDensity(1.0),
    FMatrixDensity(0.5, 1.0 / 3.0),
    FMatrixDensity(1.0, 0.5),
]


@pytest.mark.parametrize("model", MODELS)
def test_density_normalization(model):
    assert abs(density_norm(model, 1e-8) - 1.0) < 1e-6


def test_cdf_endpoints_and_closed_form():
    m = ArcsineDensity()
    assert cdf_eval(m, -2.0, 1e-8) == 0.0
    assert cdf_eval(m, 2.0, 1e-8) == pytest.approx(1.0, abs=1e-6)
    xs = np.linspace(-1.99, 1.99, 31)
    assert np.max(np.abs(cdf_grid(m, xs) - arcsine_cdf(xs))) < 1e-7


# near-degenerate shapes: supports touching +-2 or 0, and a wide F support
@pytest.mark.parametrize(
    "model",
    MODELS + [RatioDensity(1e-3, 1e-3), EdgeDensity(1e-4), FMatrixDensity(1e-3, 0.999)],
)
def test_cdf_grid_matches_scalar_oracle(model):
    lo, hi = model.support
    w = hi - lo
    xs = np.sort(np.concatenate([
        np.linspace(lo - 0.05 * w, hi + 0.05 * w, 23),
        [lo, hi, lo + 1e-9 * w, hi - 1e-9 * w, 0.5 * (lo + hi)],
    ]))
    ref = np.array([cdf_eval(model, x, 1e-12) for x in xs])
    assert np.max(np.abs(cdf_grid(model, xs) - ref)) < 1e-10


def test_cdf_grid_closed_forms():
    xs = np.linspace(-2.5, 2.5, 1001)
    arcsine = arcsine_cdf(xs)
    assert np.max(np.abs(cdf_grid(ArcsineDensity(), xs) - arcsine)) < 1e-12
    r = 1.3
    xs = np.linspace(-r, r, 1001)
    semicircle = 0.5 + xs * np.sqrt(r * r - xs * xs) / (np.pi * r * r) + np.arcsin(xs / r) / np.pi
    assert np.max(np.abs(cdf_grid(SemicircleDensity(r), xs) - semicircle)) < 1e-12


def test_cdf_grid_edge_cases():
    m = RatioDensity(3.0, 3.0)
    lo, hi = m.support
    mid = 0.5 * (lo + hi)
    assert cdf_grid(m, np.array([])).shape == (0,)
    assert cdf_grid(m, np.array([0.3]))[0] == pytest.approx(cdf_eval(m, 0.3, 1e-12), abs=1e-10)
    # ties get equal values
    xs = np.array([lo, -0.2, -0.2, 0.3, 0.3, 0.3, hi])
    out = cdf_grid(m, xs)
    assert out[1] == out[2] and out[3] == out[4] == out[5]
    assert out == pytest.approx([cdf_eval(m, x, 1e-12) for x in xs], abs=1e-10)
    # below, at and above each endpoint; exactly at the midpoint
    xs = np.array([lo - 1.0, lo, np.nextafter(lo, np.inf), mid,
                   np.nextafter(hi, -np.inf), hi, hi + 1.0])
    out = cdf_grid(m, xs)
    assert list(out[:2]) == [0.0, 0.0] and list(out[-2:]) == [1.0, 1.0]
    assert out[3] == pytest.approx(0.5, abs=1e-12)  # symmetric density
    assert out == pytest.approx([cdf_eval(m, x, 1e-12) for x in xs], abs=1e-10)
    # several blocks: nondecreasing across block boundaries and still accurate
    xs = np.linspace(-1.999, 1.999, 5001)
    out = cdf_grid(ArcsineDensity(), xs)
    assert np.all(np.diff(out) >= 0.0)
    assert np.max(np.abs(out - arcsine_cdf(xs))) < 1e-12


# the limit-law CDF takes ascending finite points only; Ecdf is the one sorter
@pytest.mark.parametrize(
    "xs",
    [[0.3, -0.2], [0.1, np.nan], [np.nan, 0.1], [-0.2, np.inf], [-np.inf, 0.1], [1.0, 0.5, 0.0]],
    ids=["unsorted", "nan-last", "nan-first", "inf", "-inf", "descending"],
)
def test_cdf_rejects_unsorted_or_nonfinite_points(xs):
    xs = np.array(xs)
    cdfs = [lambda v: cdf_grid(RatioDensity(3.0, 3.0), v), model_cdf(RatioDensity(3.0, 3.0))]
    cdfs += [transform_limit_cdf(kind, FDims(100, 10000, 200)) for kind in TRANSFORMS]
    for cdf in cdfs:
        with pytest.raises(ParameterDomainError, match="finite and ascending"):
            cdf(xs)


@pytest.mark.parametrize("xs", [0.3, np.array(0.3), np.full((2, 3), 0.3), np.zeros((1, 0))],
                         ids=["scalar", "0-d", "2-d", "empty-2-d"])
def test_cdf_grid_rejects_non_vector_points(xs):
    m = RatioDensity(3.0, 3.0)
    with pytest.raises(ParameterDomainError, match="1-D"):
        cdf_grid(m, xs)
    with pytest.raises(ParameterDomainError, match="1-D"):
        model_cdf(m)(xs)


def test_gauss_legendre_literals_match_numpy():
    from jacobi_spectra.spectra import _GL_NODES, _GL_WEIGHTS

    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.max(np.abs(_GL_NODES - nodes)) < 1e-15
    assert np.max(np.abs(_GL_WEIGHTS - weights)) < 1e-15


class _Recorded(DensityModel):
    """Density on (0, 1) given by ``fn(x)``, recording the size of every call."""

    support = (0.0, 1.0)

    def __init__(self, fn):
        self.fn, self.sizes = fn, []

    def edge_density(self, dlo, dhi):
        self.sizes.append(np.size(dlo))
        return self.fn(np.asarray(dlo))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_quadrature_nonfinite_density_raises_at_once(value):
    # a non-finite estimate fails every error test; without the finiteness
    # check each round would double the number of intervals
    m = _Recorded(lambda x: np.full(x.shape, value))
    with pytest.raises(NumericalFailureError):
        cdf_grid(m, np.linspace(0.1, 0.9, 2000))
    assert len(m.sizes) <= 3 and max(m.sizes) <= 8 * 2 * 1025


def test_quadrature_nonconvergence_raises():
    # a unit step a third of the way along the first t = sqrt(x) interval:
    # the binary halving keeps it between interior nodes, so the interval
    # holding it fails at every depth and the depth cap trips, one failing
    # interval per round
    c = (1e-12 + (math.sqrt(0.5) - 1e-12) / 3.0) ** 2
    m = _Recorded(lambda x: 1.0 + (x > c))
    with pytest.raises(NumericalFailureError, match="did not converge"):
        cdf_grid(m, np.array([0.9]))
    assert len(m.sizes) == 3 + 2 * 40 and max(m.sizes) == 2 * 8
    # a non-integrable 1/|x - c| pole: rounding keeps a fixed-width band of
    # ever narrower intervals above the halved tolerance, so the cap on live
    # intervals trips before the depth cap
    m = _Recorded(lambda x: 1.0 / np.abs(x - 0.3))
    with pytest.raises(NumericalFailureError, match="did not converge"):
        cdf_grid(m, np.array([0.9]))
    assert len(m.sizes) < 3 + 2 * 40 and max(m.sizes) <= 8 * 16 * 1024


def test_general_matches_ratio_density():
    g = GeneralDensity(0.0, 0.0, 0.5, 7.0 / 16.0)
    r = RatioDensity(3.0, 3.0)
    lo, hi = r.support
    xs = np.linspace(lo, hi, 102)[1:-1]
    assert np.max(np.abs(density_eval(g, xs) - density_eval(r, xs))) < 1e-8


def test_shifted_semicircle_is_the_imbalanced_limit():
    # the [-2, 6] limit equals the four-parameter family at (2, 2, 4, 4)
    g = GeneralDensity(2.0, 2.0, 4.0, 4.0)
    s = SemicircleDensity(4.0, 2.0)
    xs = np.linspace(-1.9, 5.9, 100)
    assert np.max(np.abs(density_eval(g, xs) - density_eval(s, xs))) < 1e-12


# ------------------------------------------------- limit-parameter plug-ins


def test_general_params_plugin_example():
    n = 10**6
    at = 3.0 * n
    p = JacobiParams(n, at - 1.0, at - 1.0, 2.0)
    a1, a2, b1, b2 = general_density_params_at_n(p, ScalingSequence(0.5, 0.5, n))
    assert (a1, a2, b1, b2) == pytest.approx((0.0, 0.0, 0.5, 7.0 / 16.0), abs=1e-4)


def test_general_params_symmetry_and_positivity():
    for n in (3, 10, 100):
        p = JacobiParams(n, 4.0, 4.0, 2.0)
        a1, a2, b1, b2 = general_density_params_at_n(p, ScalingSequence(1.0, 0.5, n))
        assert a1 == 0.0  # equal parameters put the midpoint ratio at exactly 1/2
        assert b1 > 0.0 and b2 > 0.0


# ------------------------------------------------------ deviation machinery


def test_deviation_chain_bound_and_stat_range():
    p = JacobiParams(20, 10.0, 10.0, 2.0)
    roots = jacobi_roots_scaled(JacobiPolyParams(20, p.a_tilde - 1, p.b_tilde - 1)).values
    rng = RngStream(SEED, 1)
    for t in range(200):
        r = deviation_report(p, rng.substream(t), roots=roots)
        assert r.max_dev <= r.chain_bound
        assert 0.0 <= r.alpha_max_dev < 2.0
        assert r.scaled_dev == pytest.approx(
            r.max_dev * ((p.a + p.b) / math.log(p.n)) ** 0.25
        )


def test_spectrum_mean_symmetric_for_equal_weights():
    from jacobi_spectra.ensemble import random_matrix, sample_alphas
    from jacobi_spectra.trieig import eig_tridiag

    p = JacobiParams(20, 10.0, 10.0, 2.0)
    rng = RngStream(SEED, 8)
    means = np.array([
        eig_tridiag(random_matrix(sample_alphas(p, rng.substream(t)))).values.mean()
        for t in range(300)
    ])
    se = means.std() / math.sqrt(means.size)
    assert abs(means.mean()) < 3.0 * se


def test_probability_bound_respects_empirical_frequency_when_nonvacuous():
    # weights large enough to push the tail bound below 1; the empirical
    # exceedance frequency must stay below it
    n, ab, eps = 20, 2.5e6, 1.0
    bound = deviation_probability_bound(n, ab, ab, eps)
    assert bound < 1.0
    p = JacobiParams(n, ab, ab, 2.0)
    roots = jacobi_roots_scaled(JacobiPolyParams(n, p.a_tilde - 1, p.b_tilde - 1)).values
    rng = RngStream(SEED, 9)
    exceed = sum(
        deviation_report(p, rng.substream(t), roots=roots).max_dev > eps
        for t in range(100)
    )
    assert exceed / 100.0 <= bound


def test_probability_bound_values_and_monotonicity():
    assert deviation_probability_bound(2, 0.0, 0.0, 1.0) == pytest.approx(
        11.99997162676374, rel=1e-12
    )
    # strictly below the prefactor for every eps (the exponent is negative)
    for eps in (0.01, 0.3, 1.0):
        assert deviation_probability_bound(5, 1.0, 2.0, eps) < 4.0 * 9.0
    # decreasing in a + b at fixed n, eps
    bounds = [deviation_probability_bound(10, ab, ab, 0.5) for ab in (1.0, 10.0, 100.0)]
    assert bounds[0] > bounds[1] > bounds[2]
    with pytest.raises(ParameterDomainError):
        deviation_probability_bound(5, 1.0, 1.0, 0.0)
    with pytest.raises(ParameterDomainError):
        deviation_probability_bound(5, 1.0, 1.0, 1.5)


def test_concentration_monotone_in_weights():
    rng = RngStream(SEED, 2)
    medians = []
    for i, ab in enumerate((20.0, 80.0, 320.0)):
        p = JacobiParams(20, ab, ab, 2.0)
        roots = jacobi_roots_scaled(JacobiPolyParams(20, p.a_tilde - 1, p.b_tilde - 1)).values
        sub = rng.substream(i)
        vals = [
            deviation_report(p, sub.substream(t), roots=roots).max_dev for t in range(200)
        ]
        medians.append(float(np.median(vals)))
    assert medians[0] > medians[1] > medians[2]


def test_median_deviation_falls_faster_than_root_n():
    # a = b = 3n: the median max_dev decays like n^(-2/3) (the edge scale),
    # faster than the paper's bound {log n/(a+b)}^(1/4) ~ n^(-1/4) and than
    # n^(-1/2); fixed seed, 40 trials per size, about 1 s
    ns = (50, 100, 200, 400, 800)
    base = RngStream(SEED, 11)
    medians = []
    for i, n in enumerate(ns):
        p = JacobiParams(n, 3.0 * n, 3.0 * n, 2.0)
        roots = jacobi_roots_scaled(JacobiPolyParams(n, p.a_tilde - 1, p.b_tilde - 1)).values
        reports = run_trials(lambda sub: deviation_report(p, sub, roots=roots), 40,
                             base.substream(i))
        medians.append(float(np.median([r.max_dev for r in reports])))
    slope = np.polyfit(np.log(ns), np.log(medians), 1)[0]
    assert slope < -0.5


# ----------------------------------------------------------- Monte Carlo


def test_scaling_modes():
    lam = np.array([1.0, 2.0])
    s = ScalingSequence(0.5, 0.25, 7)
    assert scale_eigenvalues(lam, s, "plain") == pytest.approx([1.5, 3.5])
    assert scale_eigenvalues(lam, s, "doubled") == pytest.approx([2.0, 3.0])
    with pytest.raises(ParameterDomainError):
        scale_eigenvalues(lam, s, "identity")
    with pytest.raises(ParameterDomainError):
        ScalingSequence(0.0, 0.0, 7)


@pytest.mark.parametrize(
    "delta, eps", [(np.inf, 0.0), (np.nan, 0.0), (-1.0, 0.0), (1.0, np.nan), (1.0, -np.inf)]
)
def test_scaling_sequence_rejects_nonfinite_or_nonpositive(delta, eps):
    with pytest.raises(ParameterDomainError):
        ScalingSequence(delta, eps, 7)


def test_scale_eigenvalues_overflow_raises_without_warning():
    s = ScalingSequence(1e-320, 0.0, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MagnitudeOverflowError):
            scale_eigenvalues(np.array([-1.0, 1.0]), s, "doubled")
        with pytest.raises(MagnitudeOverflowError):
            scale_eigenvalues(np.array([-1.0, 1.0]), s, "plain")
        assert np.all(np.isfinite(scale_eigenvalues(np.array([0.0]), s, "plain")))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ecdf_rejects_nonfinite_points(bad):
    with pytest.raises(ParameterDomainError):
        Ecdf(np.array([0.1, bad]))


def test_monte_carlo_same_stream_same_pool():
    p = JacobiParams(30, 20.0, 20.0, 2.0)
    s = ScalingSequence(1.0, 0.0, 30)
    a = monte_carlo_esd(p, s, 8, RngStream(3, 0))
    b = monte_carlo_esd(p, s, 8, RngStream(3, 0))
    assert np.array_equal(a.points, b.points)
    assert a.n == 8 * 30
    assert np.all(np.diff(a.points) >= 0.0)


def test_run_trials_hands_trial_t_substream_t():
    base = RngStream(SEED, 0)
    out = run_trials(lambda sub: sub.uniforms(4), 3, base)
    ref = [base.substream(t).uniforms(4) for t in range(3)]
    assert [u.tobytes() for u in out] == [u.tobytes() for u in ref]
    for trials in (0, -1):
        with pytest.raises(ParameterDomainError, match="need trials >= 1"):
            run_trials(lambda sub: sub.uniforms(4), trials, base)


def test_regime_domain_checks():
    p = JacobiParams(20, 30.0, 30.0, 2.0)
    for name, make in REGIMES.items():
        model, scaling = make(p)
        assert scaling.n == 20 and model.support[0] < model.support[1], name
    # a_tilde = 1.5, b_tilde = 0.5: the semicircle centring divides by a_tilde + b_tilde - 2
    with pytest.raises(ParameterDomainError):
        REGIMES["semicircle"](JacobiParams(20, 0.5, -0.5, 2.0))
    for name in ("semicircle", "edge", "shifted-semicircle"):
        with pytest.raises(ParameterDomainError):
            REGIMES[name](JacobiParams(20, -0.5, 30.0, 2.0))
    with pytest.raises(ParameterDomainError):
        REGIMES["shifted-semicircle"](JacobiParams(20, 30.0, -0.5, 2.0))


def test_monte_carlo_warns_on_weak_transfer():
    p = JacobiParams(50, 1.0, 1.0, 2.0)
    s = ScalingSequence(0.1, 0.0, 50)
    with pytest.warns(UserWarning):
        monte_carlo_esd(p, s, 1, RngStream(4, 0))


def test_monte_carlo_overflowing_transfer_proxy_gives_no_notice():
    # delta^4 overflows float64: the proxy reads +inf, above the notice threshold
    p = JacobiParams(20, 3.0, 3.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = monte_carlo_esd(p, ScalingSequence(1e300, 1e300, 20), 1, RngStream(4, 0))
    assert e.n == 20


def test_pooled_esd_close_to_ratio_limit():
    # desk-scale version of the figure-reproduction run
    n = 500
    p = JacobiParams(n, 3.0 * n, 3.0 * n, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        e = monte_carlo_esd(p, ScalingSequence(0.5, 0.5, n), 4, RngStream(5, 0), mode="doubled")
    assert ks_distance(e, model_cdf(RatioDensity(3.0, 3.0))) < 0.05
