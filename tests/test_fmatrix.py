import math

import numpy as np
import pytest

from jacobi_spectra.betarand import RngStream
from jacobi_spectra.ensemble import random_matrix, sample_alphas
from jacobi_spectra.errors import DegenerateSampleError, ParameterDomainError
from jacobi_spectra.fmatrix import (
    TRANSFORMS,
    FDims,
    GaussianPair,
    f_eigs_direct,
    f_eigs_tridiag,
    f_esd_pooled,
    f_to_jacobi,
    jacobi_to_f,
    manova_eigs,
    reciprocal_edge_transform,
    sample_gaussian_pair,
    semicircle_transform,
    shifted_semicircle_transform,
    transform_limit_cdf,
)
from jacobi_spectra.spectra import Ecdf, ks_distance
from jacobi_spectra.trieig import eig_tridiag

from oracles import DenseSym, ecdf_eval, eig_pencil, ks_whole_array, two_sample_sup_distance

SEED = 0x4A41434F424921


@pytest.mark.parametrize("dims", [(2.5, 10, 10), (math.nan, 10, 10), (5, math.inf, 10),
                                  (10**400, 10, 10), (5, 10**400, 10)])
def test_dims_reject_nonfinite_or_fractional_dimensions(dims):
    # rejected when the dimensions are built, before either sampling route
    with pytest.raises(ParameterDomainError, match="finite integers"):
        FDims(*dims)


def test_dims_validation_and_induced_params():
    with pytest.raises(ParameterDomainError):
        FDims(10, 9, 20)
    with pytest.raises(ParameterDomainError):
        FDims(10, 20, 9)
    d = FDims(6, 40, 60)
    assert d.a == pytest.approx((40 - 6 - 1) / 2)
    assert d.b == pytest.approx((60 - 6 - 1) / 2)
    p = d.jacobi_params()
    assert p.beta == 1.0 and p.n == 6


def test_gaussian_pair_moments_and_determinism():
    d = FDims(100, 2000, 3000)
    g = sample_gaussian_pair(d, RngStream(SEED, 0))
    assert g.x.shape == (100, 2000) and g.y.shape == (100, 3000)
    entries = np.concatenate([g.x.ravel(), g.y.ravel()])
    assert abs(entries.mean()) < 0.005
    assert abs(entries.var() - 1.0) < 0.01
    g2 = sample_gaussian_pair(d, RngStream(SEED, 0))
    assert np.array_equal(g.x, g2.x) and np.array_equal(g.y, g2.y)


def test_f_eigs_direct_identity_case_and_no_library_cap():
    rng = RngStream(1, 0)
    x = rng.normals(5 * 8).reshape(5, 8)
    d = FDims(5, 8, 8)
    vals = f_eigs_direct(GaussianPair(x, x.copy()), d).values
    assert vals == pytest.approx(np.ones(5), abs=1e-9)
    # the n <= 500 cap is the CLI's policy (test_cli); the library call is uncapped
    big = FDims(501, 501, 501)
    assert f_eigs_direct(sample_gaussian_pair(big, rng), big).n == 501


@pytest.mark.parametrize("n", [1, 2, 17, 60])
def test_dense_routes_match_plane_rotation_oracle(n):
    # LAPACK dsygvd against a Cholesky and plane-rotation solver sharing no code with it
    rng = np.random.default_rng(n)
    d = FDims(n, n + 3, n + 7)
    g = GaussianPair(rng.standard_normal((n, d.n1)), rng.standard_normal((n, d.n2)))
    xxt, yyt = g.x @ g.x.T, g.y @ g.y.T
    for route, a, b, clip in [
        (f_eigs_direct, xxt / d.n1, yyt / d.n2, 0.0),
        (manova_eigs, 2.0 * (yyt - xxt), yyt + xxt, -np.inf),
    ]:
        expected = np.maximum(eig_pencil(DenseSym(a), DenseSym(b)).values, clip)
        got = route(g, d).values
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("route", [f_eigs_direct, manova_eigs])
def test_dense_routes_reject_nonfinite_entries(route, side, bad):
    d = FDims(4, 6, 7)
    g = sample_gaussian_pair(d, RngStream(SEED, 8))
    x, y = g.x.copy(), g.y.copy()
    (x if side == "x" else y)[1, 2] = bad
    with pytest.raises(ParameterDomainError, match="finite"):
        route(GaussianPair(x, y), d)


def test_dense_routes_raise_on_singular_pencil():
    # B = Y Y^T / n2 = 0, and B = Y Y^T + X X^T = 4 * ones of rank 1 (exact pivot 0)
    d = FDims(3, 4, 4)
    x = sample_gaussian_pair(d, RngStream(SEED, 9)).x
    with pytest.raises(DegenerateSampleError):
        f_eigs_direct(GaussianPair(x, np.zeros((3, 4))), d)
    with pytest.raises(DegenerateSampleError):
        manova_eigs(GaussianPair(np.ones((3, 4)), np.zeros((3, 4))), d)


def test_f_eigs_nonnegative():
    rng = RngStream(2, 0)
    for t in range(20):
        d = FDims(8, 12, 15)
        vals = f_eigs_direct(sample_gaussian_pair(d, rng.substream(t)), d).values
        assert np.all(vals >= 0.0)


def test_manova_eigs_properties():
    rng = RngStream(3, 0)
    d = FDims(5, 9, 9)
    x = rng.normals(5 * 9).reshape(5, 9)
    assert manova_eigs(GaussianPair(x, x.copy()), d).values == pytest.approx(
        np.zeros(5), abs=1e-10
    )
    for t in range(20):
        g = sample_gaussian_pair(d, rng.substream(t))
        vals = manova_eigs(g, d).values
        assert np.all(np.abs(vals) < 2.0)
        swapped = manova_eigs(GaussianPair(g.y, g.x), FDims(5, 9, 9)).values
        assert vals == pytest.approx(-swapped[::-1], abs=1e-9)


def test_three_by_three_spectrum_bound_brute_force():
    # |2(u - v)/(u + v)| < 2 for positive definite pencils; random 3x3 checks
    gen = np.random.default_rng(11)
    for _ in range(50):
        x = gen.normal(size=(3, 5))
        y = gen.normal(size=(3, 6))
        vals = manova_eigs(GaussianPair(x, y), FDims(3, 5, 6)).values
        assert np.all(np.abs(vals) < 2.0)


def test_moebius_maps():
    d = FDims(10, 20, 30)
    r = d.ratio
    assert jacobi_to_f(0.0, d) == pytest.approx(r)
    assert jacobi_to_f(2.0, d) == 0.0
    assert f_to_jacobi(r, d) == 0.0
    assert f_to_jacobi(0.0, d) == 2.0
    grid = np.linspace(-1.99, 2.0, 57)
    assert f_to_jacobi(jacobi_to_f(grid, d), d) == pytest.approx(grid, abs=1e-12)
    # decreasing toward -2 as the F eigenvalue grows
    big = f_to_jacobi(np.array([1e3, 1e6, 1e9]), d)
    assert np.all(np.diff(big) < 0.0) and big[-1] > -2.0
    with pytest.raises(ParameterDomainError):
        jacobi_to_f(-2.0, d)
    with pytest.raises(ParameterDomainError):
        f_to_jacobi(-0.1, d)


F_MAPS = {
    "f_to_jacobi": f_to_jacobi,
    "thm42": semicircle_transform,
    "thm43": reciprocal_edge_transform,
    "thm44": shifted_semicircle_transform,
    "none": TRANSFORMS["none"][0],
}


@pytest.mark.parametrize("name", F_MAPS)
def test_f_eigenvalue_maps_take_finite_nonnegative_values_only(name):
    fn, d = F_MAPS[name], FDims(5, 10, 20)
    for bad in (np.nan, np.inf, -np.inf, -1.0, -0.5, -5e-324):
        for lam in (bad, np.array([0.0, bad, 1.0])):
            with pytest.raises(ParameterDomainError, match="finite and >= 0"):
                fn(lam, d)
    # accepted input maps to a float for a scalar, to an array otherwise
    assert isinstance(fn(0.0, d), float) and isinstance(fn(np.array(2.0), d), float)
    assert fn(np.array([]), d).shape == (0,)
    assert fn(np.array([0.0, 2.0]), d).tolist() == [fn(0.0, d), fn(2.0, d)]


def test_jacobi_to_f_takes_finite_values_only():
    d = FDims(5, 10, 20)
    for bad in (np.nan, np.inf, -np.inf):
        for t in (bad, np.array([0.0, bad])):
            with pytest.raises(ParameterDomainError, match="must be finite"):
                jacobi_to_f(t, d)
    with pytest.raises(ParameterDomainError, match="pole at lambda = -2"):
        jacobi_to_f(np.array([0.0, -2.0]), d)


def test_tridiag_route_nonnegative_and_deterministic():
    d = FDims(50, 100, 150)
    a = f_eigs_tridiag(d, RngStream(7, 0)).values
    b = f_eigs_tridiag(d, RngStream(7, 0)).values
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0) and np.all(np.diff(a) >= 0.0)


def test_routes_agree_in_distribution():
    d = FDims(10, 30, 40)
    rng = RngStream(SEED, 4)
    tri = np.concatenate(
        [f_eigs_tridiag(d, rng.substream(t)).values for t in range(200)]
    )
    dirc = np.concatenate(
        [
            f_eigs_direct(sample_gaussian_pair(d, rng.substream(1000 + t)), d).values
            for t in range(200)
        ]
    )
    assert two_sample_sup_distance(Ecdf(tri), Ecdf(dirc)) < 0.05


def test_manova_agrees_with_tridiagonal_jacobi():
    d = FDims(10, 30, 40)
    rng = RngStream(SEED, 5)
    p = d.jacobi_params()
    jac = np.concatenate(
        [
            eig_tridiag(random_matrix(sample_alphas(p, rng.substream(t)))).values
            for t in range(200)
        ]
    )
    man = np.concatenate(
        [
            manova_eigs(sample_gaussian_pair(d, rng.substream(1000 + t)), d).values
            for t in range(200)
        ]
    )
    assert two_sample_sup_distance(Ecdf(jac), Ecdf(man)) < 0.05


def test_exact_same_realization_correspondence():
    d = FDims(6, 40, 60)
    rng = RngStream(SEED, 6)
    for s in range(10):
        g = sample_gaussian_pair(d, rng.substream(s))
        mapped = np.sort(f_to_jacobi(f_eigs_direct(g, d).values, d))
        assert np.max(np.abs(mapped - manova_eigs(g, d).values)) < 1e-8


def test_ecdf_bookkeeping_identity():
    # F-side ECDF at xi equals 1 - Jacobi-side ECDF at the mapped point
    d = FDims(10, 30, 40)
    g = sample_gaussian_pair(d, RngStream(8, 0))
    lam_f = f_eigs_direct(g, d).values
    e_f = Ecdf(lam_f)
    e_j = Ecdf(np.sort(f_to_jacobi(lam_f, d)))
    xis = np.linspace(0.0, 12.0, 300)
    lhs = 1.0 - np.asarray(ecdf_eval(e_j, f_to_jacobi(xis, d)))
    rhs = np.asarray(ecdf_eval(e_f, xis))
    assert np.max(np.abs(lhs - rhs)) <= 1.0 / d.n + 1e-12


def test_semicircle_transform_properties():
    d = FDims(100, 2000, 3000)
    zero_at = d.n2 * (d.n1 - d.n) / (d.n1 * (d.n2 - d.n))
    assert semicircle_transform(zero_at, d) == pytest.approx(0.0, abs=1e-12)
    assert semicircle_transform(0.0, d) < 0.0
    grid = np.linspace(0.0, 50.0, 200)
    assert np.all(np.diff(semicircle_transform(grid, d)) > 0.0)


def test_reciprocal_edge_transform_properties():
    d = FDims(100, 10000, 200)
    assert reciprocal_edge_transform(0.0, d) == pytest.approx(100 / (2 * 9900))
    grid = np.linspace(0.0, 30.0, 100)
    out = reciprocal_edge_transform(grid, d)
    slope = (out[1] - out[0]) / (grid[1] - grid[0])
    assert slope > 0.0
    assert np.allclose(np.diff(out), slope * np.diff(grid))  # affine


def test_shifted_semicircle_transform_monotone():
    d = FDims(100, 50000, 5000)
    grid = np.linspace(0.0, 100.0, 300)
    assert np.all(np.diff(shifted_semicircle_transform(grid, d)) > 0.0)


@pytest.mark.parametrize("kind", ["none", "thm42", "thm43", "thm44"])
def test_transform_limit_cdfs_reject_non_vector_points(kind):
    cdf = transform_limit_cdf(kind, FDims(100, 10000, 200))
    for xs in (0.5, np.full((2, 3), 0.5)):
        with pytest.raises(ParameterDomainError, match="1-D"):
            cdf(xs)


def test_transform_limit_cdfs_are_cdfs():
    d = FDims(100, 10000, 200)
    for kind in ("none", "thm42", "thm43", "thm44"):
        cdf = transform_limit_cdf(kind, d)
        xs = np.linspace(-8.0, 8.0, 60)
        vals = np.asarray(cdf(xs))
        assert np.all(np.diff(vals) >= -1e-9)
        assert vals[0] >= -1e-12 and vals[-1] <= 1.0 + 1e-12


def test_pooled_transformed_esd_close_to_limit():
    # small, fast version of the degenerate-ratio limit checks
    d = FDims(100, 10000, 200)
    pool = f_esd_pooled(d, 5, RngStream(SEED, 7), transform="thm43")
    assert ks_distance(Ecdf(pool), transform_limit_cdf("thm43", d)) < 0.1


def test_thm43_cdf_on_ascending_points_with_ties_and_nonpositive_points():
    # the points <= 0 form a prefix that reads 0; the rest go to cdf_grid
    # through the reversed view of 1/x
    cdf = transform_limit_cdf("thm43", FDims(40, 400, 80))
    u = RngStream(SEED, 3).uniforms(5150)
    xs = np.sort(np.round(3000.0 * u) / 1000.0 - 0.2)
    assert np.unique(xs).size < xs.size and xs[0] < 0.0 and 0.0 in xs
    vals = cdf(xs)
    assert not vals[xs <= 0.0].any()
    assert np.all(np.diff(vals) >= 0.0)
    assert ks_distance(Ecdf(xs), cdf) == ks_whole_array(cdf(xs))
    # positive subnormals, whose 1/x overflows, read 0 too
    assert not cdf(np.array([-1.0, 0.0, 5e-324, 1e-310])).any()
