import ast
import hashlib
import json
import math
import pathlib
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import jacobi_spectra.cli as cli
from jacobi_spectra import polyroots
from jacobi_spectra.betarand import RngStream
from jacobi_spectra.ensemble import JacobiParams, alpha_plan
from jacobi_spectra.errors import (
    MagnitudeOverflowError,
    NumericalFailureError,
    ParameterDomainError,
)
from jacobi_spectra.fmatrix import (
    TRANSFORMS, FDims, f_eigs_tridiag, jacobi_to_f, transform_limit_cdf,
)
from jacobi_spectra.polyroots import ensemble_roots, jacobi_roots_scaled
from jacobi_spectra.spectra import (
    REGIMES,
    DensityModel,
    DeviationReport,
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
    realize,
    run_trials,
    scale_eigenvalues,
)

from oracles import (
    arcsine_cdf,
    cdf_eval,
    density_formula,
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


KS_MODELS = [RatioDensity(3.0, 3.0), RatioDensity(0.0, 0.0), FMatrixDensity(0.5, 1.0 / 3.0)]


@pytest.mark.parametrize("size", [1, 1023, 1024, 1025, 5150])
@pytest.mark.parametrize("model", KS_MODELS, ids=["RatioDensity", "arcsine", "FMatrixDensity"])
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
    assert density_eval(RatioDensity(0.0, 0.0), 0.0) == pytest.approx(
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
    RatioDensity(0.0, 0.0),
    SemicircleDensity(4.0, -2.0),
    EdgeDensity(1.0),
    FMatrixDensity(0.5, 1.0 / 3.0),
])
def test_density_eval_is_edge_density_inside_the_support(model):
    lo, hi = model.support
    xs = np.linspace(lo, hi, 203)[1:-1]
    assert np.array_equal(density_eval(model, xs), model.edge_density(xs - lo, hi - xs))


# SHA-256 of density_eval on 4001 points spanning the support, ends included:
# the density of these laws is pinned to the bit
DENSITY_BYTES = {
    RatioDensity(3.0, 3.0): "890c2bda5360767bacd5f9895fdfc1550b5d4a54c54325780a12ef155d6c0888",
    RatioDensity(0.0, 0.0): "4617a768781a89c3552a494f45e002bd881566ad5a16057078e6d8225c49ac8a",
    RatioDensity(0.0, 5.0): "2bd2dff53fe35672b547459e12a116a3825878af71314912f69cd51250fc0dac",
    SemicircleDensity(4.0, 2.0): "bc339c5dac20e09d5577516bce0b27822b0042234774ae16b6c5287ca63ccea1",
}


@pytest.mark.parametrize("model", DENSITY_BYTES, ids=repr)
def test_density_eval_bytes_are_pinned(model):
    xs = np.linspace(*model.support, 4001)
    digest = hashlib.sha256(density_eval(model, xs).tobytes()).hexdigest()
    assert digest == DENSITY_BYTES[model]


def test_only_the_base_model_evaluates_a_density():
    # a law is its parameter checks, its support and its rational form; the
    # density is evaluated once, from that encoding, in DensityModel
    package = pathlib.Path(cli.__file__).parent
    owners = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                     for b in node.bases}
            if node.name != "DensityModel" and "DensityModel" not in bases:
                continue
            owners += [f"{path.relative_to(package)}:{node.name}" for f in node.body
                       if isinstance(f, ast.FunctionDef) and f.name == "edge_density"]
    assert owners == ["spectra.py:DensityModel"]


def test_ratio_support_values():
    lo, hi = RatioDensity(3.0, 3.0).support
    assert (lo, hi) == pytest.approx((-math.sqrt(7.0) / 2.0, math.sqrt(7.0) / 2.0))
    assert RatioDensity(0.0, 0.0).support == pytest.approx((-2.0, 2.0))
    lo, hi = RatioDensity(1.3, 1.3).support
    assert lo == pytest.approx(-hi)


@pytest.mark.parametrize("a0", [1e103, 1e160])
def test_ratio_support_overflow_raises(a0):
    # 1e103: the root term is infinite; 1e160: (2 + a0 + b0) ** 2 raises OverflowError
    with pytest.raises(MagnitudeOverflowError, match="overflowed float64"):
        RatioDensity(a0, a0)


@pytest.mark.parametrize("a1, a2, b1", [(1e200, 0.0, 1.0), (0.0, 1e200, 1.0), (0.5, 0.0, 1e300)])
def test_general_denominator_overflow_raises(a1, a2, b1):
    # B or B^2 - 4AC beyond float64: poles of inf or NaN before, a typed error now
    with pytest.raises(MagnitudeOverflowError, match="overflowed float64"):
        GeneralDensity(a1, a2, b1, 1.0)


def test_thm42_radius_overflow_raises():
    with pytest.raises(MagnitudeOverflowError, match="overflowed float64"):
        transform_limit_cdf("thm42", FDims(1, 10**250, 1))


@pytest.mark.parametrize("law, args, match", [
    (EdgeDensity, (1e308,), "edge-law support"),
    (EdgeDensity, (1e200,), "edge-law support"),
    (EdgeDensity, (1e34,), "edge-law support"),
    (GeneralDensity, (0.0, 1e20, 1.0, 1.0), "general-law support"),
    (RatioDensity, (1e35, 2e35), "ratio-law support"),
    (SemicircleDensity, (1e-20, 1.0), "semicircle-law support"),
    (SemicircleDensity, (1e-300,), "semicircle-law support"),
    (SemicircleDensity, (1e154,), "semicircle-law support"),
], ids=["edge-1e308", "edge-1e200", "edge-1e34", "general-1e20", "ratio-1e35",
        "semicircle-1e-20", "semicircle-1e-300", "semicircle-1e154"])
def test_support_overflow_or_collapse_raises(law, args, match):
    # edge 1e308: 2 (2 + beta0) is infinite; below, the width 8 sqrt(1 + beta0)
    # rounds away; the general, ratio and first semicircle supports round to
    # one point; at radius 1e-300 the weight 2/(pi r^2) is beyond float64, and
    # at 1e154 pi r^2 overflows, so the law would carry no weight (its CDF read
    # 0 at -r/2, 0 and r/2)
    with pytest.raises(MagnitudeOverflowError, match=match):
        law(*args)


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
    SemicircleDensity(math.sqrt(2.0)),
    SemicircleDensity(4.0, 2.0),
    SemicircleDensity(4.0, -2.0),
    EdgeDensity(0.0),
    EdgeDensity(1.0),
    FMatrixDensity(0.5, 1.0 / 3.0),
    FMatrixDensity(1.0, 0.5),
]


# a complex pole pair 4e-5 off the axis, 2e-3 beyond the top end: the
# discriminant B^2 - 4AC cancels to -4e-6 against terms of 2.6e5
@pytest.mark.parametrize("model", MODELS + [GeneralDensity(10.0, 0.0, 1.0, 26.000001)], ids=repr)
def test_density_eval_matches_the_docstring_formula(model):
    # an independent check on each law's (support, rational) encoding: the
    # formula in plain x, at least 1e-6 of the width from either end
    lo, hi = model.support
    w = hi - lo
    ends = w * np.logspace(-6.0, -1.0, 11)
    xs = np.concatenate([np.linspace(lo + 1e-6 * w, hi - 1e-6 * w, 101), lo + ends, hi - ends])
    ref = np.array([density_formula(model, x) for x in xs])
    assert np.max(np.abs(density_eval(model, xs) / ref - 1.0)) < 1e-12


@pytest.mark.parametrize("model", MODELS)
def test_density_normalization(model):
    assert abs(density_norm(model, 1e-8) - 1.0) < 1e-6


def test_cdf_endpoints_and_closed_form():
    m = RatioDensity(0.0, 0.0)  # the arcsine law
    assert cdf_eval(m, -2.0, 1e-8) == 0.0
    assert cdf_eval(m, 2.0, 1e-8) == pytest.approx(1.0, abs=1e-6)
    xs = np.linspace(-1.99, 1.99, 31)
    assert np.max(np.abs(cdf_grid(m, xs) - arcsine_cdf(xs))) < 1e-7


# near-degenerate shapes: supports touching +-2 or 0, and a wide F support;
# far poles (the series); complex poles +-i; near-coincident poles (y << y',
# the pair's divided differences); double poles at 3 and at 0 (denominator x^2)
@pytest.mark.parametrize(
    "model",
    MODELS + [RatioDensity(1e-3, 1e-3), EdgeDensity(1e-4), FMatrixDensity(1e-3, 0.999),
              EdgeDensity(1e4), EdgeDensity(1e8), RatioDensity(1e8, 1e8),
              GeneralDensity(0.0, 0.0, 1.0, 2.0), FMatrixDensity(1e-9, 0.5),
              FMatrixDensity(1e-13, 1e-4), GeneralDensity(2.0, 0.0, 1.0, 2.0),
              GeneralDensity(1.0, 3.0, 1.0, 2.0)],
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


def test_cdf_grid_complex_poles_normalized():
    # f = sqrt(8 - x^2) / (2 pi (x^2 + 1)): poles +-i, symmetric, total mass 1
    m = GeneralDensity(0.0, 0.0, 1.0, 2.0)
    assert np.allclose(sorted(m.rational[2], key=lambda p: p.imag), [-1j, 1j], atol=1e-15)
    lo, hi = m.support
    out = cdf_grid(m, np.array([0.0, np.nextafter(hi, 0.0), hi]))
    assert abs(out[0] - 0.5) < 1e-15 and abs(out[1] - 1.0) < 1e-15 and out[2] == 1.0


@pytest.mark.parametrize("beta0", [0.19949748743718593, 2.5, 7.0])
def test_cdf_grid_support_end_rounded_past_the_pole(beta0):
    # at alpha0 = 0 the support ends on the pole at 2 in exact arithmetic;
    # float64 puts it 4.4e-16 past 2 at the first beta0 (and -2 past the
    # mirrored pole), where the pole sits on the end
    up, down = RatioDensity(0.0, beta0), RatioDensity(beta0, 0.0)
    assert up.support == tuple(-v for v in down.support[::-1])
    lo, hi = up.support
    xs = np.linspace(lo, hi, 41)
    ref = np.array([cdf_eval(up, x, 1e-12) for x in xs])
    assert np.max(np.abs(cdf_grid(up, xs) - ref)) < 1e-10
    mirrored = 1.0 - cdf_grid(down, -xs[::-1])[::-1]
    assert np.max(np.abs(cdf_grid(up, xs) - mirrored)) < 1e-14


def test_cdf_grid_rejects_a_pole_inside_the_support():
    class Inside(DensityModel):
        support, rational = (0.0, 1.0), (0.0, 1.0, (0.25,))

    m = Inside()
    with pytest.raises(NumericalFailureError, match="pole inside its support"):
        cdf_grid(m, np.array([0.0]))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_cdf_grid_nondecreasing_across_a_block_boundary(model):
    lo, hi = model.support
    xs = np.linspace(lo, hi, 2049)  # blocks [0, 1024), [1024, 2048), [2048]
    out = cdf_grid(model, xs)
    assert np.all(np.diff(out) >= 0.0) and out[0] == 0.0 and out[-1] == 1.0
    around = np.linspace(xs[1023], xs[1024], 2049)[1000:1049]  # straddles a boundary
    assert np.all(np.diff(cdf_grid(model, np.concatenate([xs[:1000], around]))) >= 0.0)


def test_model_cdf_holds_its_output_and_one_block():
    # closed-form blocks of 1024 points: the working memory beyond the 8 MB
    # output is a few block-sized temporaries (about 0.1 MiB); the adaptive
    # quadrature's interval temporaries took about 0.6 MiB here
    xs = np.linspace(-1.3, 1.3, 10**6)
    cdf = model_cdf(RatioDensity(3.0, 3.0))
    tracemalloc.start()
    try:
        out = cdf(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2**18


def test_cdf_grid_closed_forms():
    xs = np.linspace(-2.5, 2.5, 1001)
    arcsine = arcsine_cdf(xs)
    assert np.max(np.abs(cdf_grid(RatioDensity(0.0, 0.0), xs) - arcsine)) < 1e-13
    r = 1.3
    xs = np.linspace(-r, r, 1001)
    semicircle = 0.5 + xs * np.sqrt(r * r - xs * xs) / (np.pi * r * r) + np.arcsin(xs / r) / np.pi
    assert np.max(np.abs(cdf_grid(SemicircleDensity(r), xs) - semicircle)) < 1e-13


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
    out = cdf_grid(RatioDensity(0.0, 0.0), xs)
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


def test_general_matches_ratio_density():
    g = GeneralDensity(0.0, 0.0, 0.5, 7.0 / 16.0)
    r = RatioDensity(3.0, 3.0)
    # the same law in the same encoding: poles +-2 and equal weights
    assert g.support == r.support and g.rational == r.rational
    lo, hi = r.support
    xs = np.linspace(lo, hi, 102)[1:-1]
    assert np.array_equal(density_eval(g, xs), density_eval(r, xs))


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


def test_deviation_report_bytes_are_pinned():
    # the four statistics of 10 trials at five parameter sets, pinned from the
    # form that took the roots as an argument, roots=ensemble_roots(p)
    h = hashlib.sha256()
    for i, args in enumerate([(1, 0.5, 2.0, 2.0), (20, 10.0, 10.0, 2.0), (50, 150.0, 150.0, 2.0),
                              (30, 5.0, 3.0, 1e16), (8, -0.5, 3.0, 0.7)]):
        p, base = JacobiParams(*args), RngStream(SEED, i)
        for t in range(10):
            r = deviation_report(p, base.substream(t))
            h.update(struct.pack("<4d", r.max_dev, r.alpha_max_dev, r.chain_bound, r.scaled_dev))
    assert h.hexdigest() == "edbb4f05c0e1dc4d1f040a610b908ed02934e1b0d8d2457ce2cdb8b81b20cbd3"


def test_deviation_report_solves_the_roots_once_per_run(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return jacobi_roots_scaled(p)

    monkeypatch.setattr(polyroots, "jacobi_roots_scaled", counted)
    polyroots.ensemble_roots.cache_clear()
    try:
        p = JacobiParams(20, 10.0, 10.0, 2.0)
        run_trials(lambda sub: deviation_report(p, sub), 50, RngStream(SEED, 3))
    finally:
        polyroots.ensemble_roots.cache_clear()
    assert calls == [p]


def test_ensemble_roots_are_read_only():
    roots = ensemble_roots(JacobiParams(6, 1.0, 2.0, 2.0))
    with pytest.raises(ValueError, match="read-only"):
        roots[0] = 0.0


def test_deviation_report_type_rejects_nan_and_keeps_an_infinite_scaled_dev():
    for nan_at in range(4):
        stats = [0.1] * 4
        stats[nan_at] = math.nan
        with pytest.raises(ParameterDomainError, match="nonnegative"):
            DeviationReport(*stats)
    assert DeviationReport(0.1, 0.1, 0.1, math.inf).scaled_dev == math.inf


def test_deviation_chain_bound_and_stat_range():
    p = JacobiParams(20, 10.0, 10.0, 2.0)
    rng = RngStream(SEED, 1)
    for t in range(200):
        r = deviation_report(p, rng.substream(t))
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
    rng = RngStream(SEED, 9)
    exceed = sum(deviation_report(p, rng.substream(t)).max_dev > eps for t in range(100))
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
        sub = rng.substream(i)
        vals = [deviation_report(p, sub.substream(t)).max_dev for t in range(200)]
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
        reports = run_trials(lambda sub: deviation_report(p, sub), 40, base.substream(i))
        medians.append(float(np.median([r.max_dev for r in reports])))
    slope = np.polyfit(np.log(ns), np.log(medians), 1)[0]
    assert slope < -0.5


# ------------------------------------------------------------ realization


@pytest.mark.parametrize("n", [1, 7])
def test_every_caller_draws_trial_t_as_realize(n, capsys):
    # trial t of sample, monte_carlo_esd, deviation_report and f_eigs_tridiag
    # is realize(p, base.substream(t)), byte for byte
    trials, seed = 3, 11
    p = JacobiParams(n, 2.0, 3.0, 2.0)
    d = FDims(n, n + 4, n + 9)
    base = RngStream(seed, 0)
    draws = [realize(p, base.substream(t)) for t in range(trials)]

    argv = ["sample", "--n", str(n), "--a", "2", "--b", "3", "--beta", "2",
            "--trials", str(trials), "--seed", str(seed), "--format", "json"]
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    for t, (_, lam) in enumerate(draws):
        assert np.array([v for tt, _, v in rows if tt == t]).tobytes() == lam.tobytes()

    s = ScalingSequence(2.0, 0.1, n)
    pool = monte_carlo_esd(p, s, trials, base).points
    scaled = np.sort(np.concatenate([scale_eigenvalues(lam, s, "plain") for _, lam in draws]))
    assert pool.tobytes() == scaled.tobytes()

    roots = ensemble_roots(p)
    for t, (alphas, lam) in enumerate(draws):
        r = deviation_report(p, base.substream(t))
        assert r.max_dev == float(np.max(np.abs(lam - roots)))
        assert r.alpha_max_dev == float(np.max(np.abs(alphas.alpha - alpha_plan(p).means)))

    for t in range(trials):
        lam = realize(d.jacobi_params(), base.substream(t))[1]
        f = f_eigs_tridiag(d, base.substream(t)).values
        assert f.tobytes() == jacobi_to_f(lam, d)[::-1].tobytes()


def test_only_realize_samples_and_builds_a_realization():
    # sample_alphas -> random_matrix -> eig_tridiag is spelled out once in the
    # package, in spectra.realize; a second copy would drift from it. The mean
    # matrix draws nothing: ensemble.expected_matrix builds it with random_matrix
    drawing = {"sample_alphas", "random_matrix"}
    package = pathlib.Path(cli.__file__).parent
    owner, elsewhere = set(), []

    def body(tree, name):
        (fn,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == name]
        return {id(node) for node in ast.walk(fn)}

    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = body(tree, "realize") if path.name == "spectra.py" else set()
        mean = body(tree, "expected_matrix") if path.name == "ensemble.py" else set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in drawing and id(node) in inside:
                owner.add(name)
            elif name == "random_matrix" and id(node) in mean:
                continue
            elif name in drawing:
                elsewhere.append(f"{path.relative_to(package)}:{node.lineno} calls {name}")
    assert owner == drawing
    assert elsewhere == []


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


@pytest.mark.parametrize("y, yprime, match", [
    (0.0, 0.5, r"y in \(0, 1\]"),
    (0.5, 1.0, r"yprime in \(0, 1\)"),
])
def test_fmatrix_density_rejects_aspect_ratios_outside_its_domain(y, yprime, match):
    with pytest.raises(ParameterDomainError, match=match):
        FMatrixDensity(y, yprime)


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


def test_pooled_esd_close_to_ratio_limit():
    # desk-scale version of the figure-reproduction run
    n = 500
    p = JacobiParams(n, 3.0 * n, 3.0 * n, 2.0)
    e = monte_carlo_esd(p, ScalingSequence(0.5, 0.5, n), 4, RngStream(5, 0), mode="doubled")
    assert ks_distance(e, model_cdf(RatioDensity(3.0, 3.0))) < 0.05
