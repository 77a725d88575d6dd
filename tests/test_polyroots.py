import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_jacobi, roots_jacobi

from jacobi_spectra import polyroots, trieig
from jacobi_spectra.ensemble import JacobiParams, SymTridiag, expected_matrix
from jacobi_spectra.errors import MagnitudeOverflowError, NumericalFailureError, ParameterDomainError
from jacobi_spectra.polyroots import (
    JacobiPolyParams,
    ensemble_roots,
    first_param_lowering_residual,
    jacobi_eval,
    jacobi_roots_scaled,
    monic_factor,
    pochhammer,
    recurrence_coefficients,
    second_param_lowering_residual,
)
from jacobi_spectra.trieig import charpoly_eval, eig_tridiag
from oracles import jacobi_exact, norm_inf, sturm_count


def test_pochhammer():
    assert pochhammer(3.7, 0) == 1.0
    assert pochhammer(1.0, 5) == 120.0
    assert pochhammer(2.5, 3) == pytest.approx(39.375, rel=1e-15)
    with pytest.raises(ParameterDomainError):
        pochhammer(1.0, -1)


def test_jacobi_eval_base_cases():
    assert jacobi_eval(JacobiPolyParams(0, 1.3, -0.2), 0.77) == 1.0
    # degree 1 Legendre is x
    assert jacobi_eval(JacobiPolyParams(1, 0.0, 0.0), 0.5) == pytest.approx(0.5)
    # degree 2 Legendre root
    assert jacobi_eval(JacobiPolyParams(2, 0.0, 0.0), 1.0 / np.sqrt(3.0)) == pytest.approx(
        0.0, abs=1e-15
    )


def test_jacobi_eval_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(0, 13))
        g = rng.uniform(-0.9, 8.0)
        d = rng.uniform(-0.9, 8.0)
        x = rng.uniform(-1.0, 1.0)
        ref = eval_jacobi(n, g, d, x)
        assert jacobi_eval(JacobiPolyParams(n, g, d), x) == pytest.approx(
            ref, rel=1e-10, abs=1e-12
        )


def test_monic_factor():
    assert monic_factor(JacobiPolyParams(0, 0.3, 0.4)) == 1.0
    assert monic_factor(JacobiPolyParams(1, 0.0, 0.0)) == 1.0
    assert monic_factor(JacobiPolyParams(2, 0.0, 0.0)) == pytest.approx(2.0 / 3.0)
    # monic Legendre of degree 2 is x^2 - 1/3
    p = JacobiPolyParams(2, 0.0, 0.0)
    for x in (-0.8, 0.1, 0.9):
        assert monic_factor(p) * jacobi_eval(p, x) == pytest.approx(x * x - 1.0 / 3.0)


def test_overflow_raises_instead_of_nan():
    with pytest.raises(MagnitudeOverflowError):
        jacobi_eval(JacobiPolyParams(2000, 5000.0, 5000.0), 0.3)
    with pytest.raises(MagnitudeOverflowError):
        jacobi_eval(JacobiPolyParams(2000, 5000.0, 5000.0), np.array([0.0, 0.3]))
    # a NaN residual would vanish inside C02's running max()
    with pytest.raises(MagnitudeOverflowError):
        first_param_lowering_residual(JacobiPolyParams(2000, 5000.0, 5000.0), 0.3)
    with pytest.raises(MagnitudeOverflowError):
        second_param_lowering_residual(JacobiPolyParams(2000, 5000.0, 5000.0), 0.3)
    with pytest.raises(MagnitudeOverflowError):
        monic_factor(JacobiPolyParams(170, 0.0, 0.0))
    # the divisor alone overflowing would otherwise return 0.0 silently
    with pytest.raises(MagnitudeOverflowError):
        monic_factor(JacobiPolyParams(150, 0.0, 0.0))


def test_roots_closed_forms():
    # degree 1: single root of the linear polynomial on the doubled variable
    p = JacobiPolyParams(1, 2.5, 0.3)
    expected = 2.0 * (0.3 - 2.5) / (2.5 + 0.3 + 2.0)
    assert jacobi_roots_scaled(p).values[0] == pytest.approx(expected, rel=1e-14)
    # degree 2 Legendre, scaled
    roots = jacobi_roots_scaled(JacobiPolyParams(2, 0.0, 0.0)).values
    assert roots == pytest.approx([-2.0 / np.sqrt(3.0), 2.0 / np.sqrt(3.0)], rel=1e-13)


def test_roots_symmetric_for_equal_params():
    for n in (3, 8, 15):
        r = jacobi_roots_scaled(JacobiPolyParams(n, 1.7, 1.7)).values
        assert np.max(np.abs(r + r[::-1])) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 41, 50, 51, 1000, 1001, 3001])
def test_equal_exponent_roots_take_the_half_size_route(n):
    # gamma = delta: +-singular values of an order-ceil(n/2) bidiagonal, held
    # to dsterf on the full matrix and to the Sturm bracket
    for g in (-0.99, 0.0, 1.0, 3.0 * n, 1e6):
        p = JacobiPolyParams(n, g, g)
        r = jacobi_roots_scaled(p).values
        diag, off_sq = recurrence_coefficients(p)
        t = SymTridiag(diag, np.sqrt(off_sq))
        v = r / 2.0
        tol = 1e-13 * norm_inf(t)
        assert np.array_equal(r, -r[::-1])
        if n % 2:
            assert r[n // 2] == 0.0
        assert np.max(np.abs(v - trieig._dsterf(t.diag, t.off)[0])) <= tol
        if n > 1:  # the 1x1 matrix is [0]: a zero tolerance has no bracket
            k = np.arange(n)
            assert np.all(sturm_count(t, v - tol) <= k)
            assert np.all(k < sturm_count(t, v + tol))


@pytest.mark.parametrize("n, g", [(60, -0.9), (400, 1199.0), (1001, 0.5), (3000, 8999.0)])
def test_equal_exponent_roots_to_high_relative_accuracy(n, g):
    # each positive root v_k (0-based k) is bracketed to 1e-13 of its own size:
    # count(v_k (1 - 1e-13)) <= k < count(v_k (1 + 1e-13)) on the zero-diagonal T
    p = JacobiPolyParams(n, g, g)
    v = jacobi_roots_scaled(p).values / 2.0
    _, off_sq = recurrence_coefficients(p)
    t = SymTridiag(np.zeros(n), np.sqrt(off_sq))
    k = np.arange(n)[v > 0.0]
    assert np.all(sturm_count(t, v[k] * (1.0 - 1e-13)) <= k)
    assert np.all(k < sturm_count(t, v[k] * (1.0 + 1e-13)))


def test_params_reject_nonfinite_or_fractional_degree():
    # 10**400 is an int no float holds: rejected, not converted (OverflowError)
    for n in (float("inf"), float("nan"), 2.5, -1, 10**400):
        with pytest.raises(ParameterDomainError):
            JacobiPolyParams(n, 0.0, 0.0)
    for n in (float("inf"), 10**400):
        with pytest.raises(ParameterDomainError):
            pochhammer(1.0, n)


def test_roots_inside_open_interval_and_sorted():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        g = rng.uniform(-0.95, 50.0)
        d = rng.uniform(-0.95, 50.0)
        r = jacobi_roots_scaled(JacobiPolyParams(n, g, d)).values
        assert np.all(np.diff(r) > 0.0)
        assert r[0] > -2.0 and r[-1] < 2.0


def test_roots_interlace():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        g = rng.uniform(-0.9, 10.0)
        d = rng.uniform(-0.9, 10.0)
        r_hi = jacobi_roots_scaled(JacobiPolyParams(n, g, d)).values
        r_lo = jacobi_roots_scaled(JacobiPolyParams(n - 1, g, d)).values
        assert np.all(r_lo > r_hi[:-1]) and np.all(r_lo < r_hi[1:])


def test_roots_match_scipy_at_moderate_params():
    for n, g, d in ((5, 0.0, 0.0), (12, 2.5, 0.5), (20, 8.0, 3.0)):
        mine = jacobi_roots_scaled(JacobiPolyParams(n, g, d)).values
        ref = 2.0 * np.sort(roots_jacobi(n, g, d)[0])
        assert np.max(np.abs(mine - ref)) < 1e-11


def test_identity_residuals_at_fixed_points():
    # residuals are relative to the largest of the three identity terms
    assert first_param_lowering_residual(JacobiPolyParams(2, 1.0, 1.0), 0.0) < 1e-12
    assert second_param_lowering_residual(JacobiPolyParams(1, 1.0, 1.0), 0.0) < 1e-12
    assert first_param_lowering_residual(JacobiPolyParams(5, 2.5, 0.5), 0.3) < 1e-10
    assert second_param_lowering_residual(JacobiPolyParams(4, 3.0, 2.0), -0.7) < 1e-10


def test_identity_residual_sweep():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        g = rng.uniform(0.05, 5.0)
        d = rng.uniform(0.05, 5.0)
        x = rng.uniform(-1.0, 1.0)
        p = JacobiPolyParams(n, g, d)
        worst = max(worst, first_param_lowering_residual(p, x))
        worst = max(worst, second_param_lowering_residual(p, x))
    assert worst < 1e-9


@pytest.mark.parametrize("g, d, n", [
    (0.0, 0.0, 2), (0.3, -0.3, 3), (1.0, -1.0 + 1e-9, 2), (-0.5, -0.5, 5),
])
def test_identity_residuals_where_the_shifted_recurrence_divisor_vanishes(g, d, n):
    # the identities evaluate P at g - 1, d - 1, where 2k (k + g + d)(2k + g + d - 2)
    # can vanish at k = 2 or 3; P_2 and P_3 come from the finite sum instead
    p = JacobiPolyParams(n, g, d)
    assert first_param_lowering_residual(p, 0.3) < 1e-14
    assert second_param_lowering_residual(p, 0.3) < 1e-14


def test_shifted_parameter_values_match_exact_sum():
    # parameters in (-2, -1], where the identities evaluate P; a NaN fails too
    # (scipy's eval_jacobi reads NaN at most of these points, so it is no oracle)
    errs = []
    for n in range(9):
        for g, d in ((-1.0, -1.0), (-0.7, -1.3), (-1.5, -1.5), (2.0, -1.9), (0.0, -2.0 + 1e-9)):
            for x in (-0.8, 0.3, 0.95):
                ref = jacobi_exact(n, g, d, x)
                val = float(polyroots._eval_recurrence(n, g, d, x))
                errs.append(abs(val - ref) / max(1.0, abs(ref)))
    assert np.all(np.array(errs) < 1e-13)


@pytest.mark.parametrize("call, match", [
    (lambda: JacobiPolyParams(2, -1.0, 0.0), "gamma > -1 and delta > -1"),
    (lambda: JacobiPolyParams(2, 0.0, -1.0), "gamma > -1 and delta > -1"),
    (lambda: jacobi_roots_scaled(JacobiPolyParams(0, 0.5, 0.5)), "degree n >= 1"),
], ids=["gamma=-1", "delta=-1", "roots-degree-0"])
def test_poly_params_and_roots_reject_their_domain_ends(call, match):
    with pytest.raises(ParameterDomainError, match=match):
        call()


def test_identity_degree_preconditions():
    with pytest.raises(ParameterDomainError):
        first_param_lowering_residual(JacobiPolyParams(1, 1.0, 1.0), 0.0)
    with pytest.raises(ParameterDomainError):
        second_param_lowering_residual(JacobiPolyParams(0, 1.0, 1.0), 0.0)


def test_determinant_identity_two_routes():
    # eigenvalues of the mean-entry matrix == doubled roots, two computation paths
    worst = 0.0
    for n in range(1, 9):
        for at in (0.5, 1.0, 3.7):
            for bt in (0.5, 1.0, 3.7):
                p = JacobiParams(n, at - 1.0, bt - 1.0, 2.0)
                ev = eig_tridiag(expected_matrix(p)).values
                roots = jacobi_roots_scaled(JacobiPolyParams(n, at - 1.0, bt - 1.0)).values
                worst = max(worst, float(np.max(np.abs(ev - roots))))
    assert worst < 1e-10


def test_ensemble_roots_are_the_mean_matrix_spectrum():
    # roots of P_n^(a~ - 1, b~ - 1)(x/2) with a~ = (2a + 2)/beta, for any beta
    for n, a, b, beta in ((1, 0.0, 0.0, 2.0), (7, 2.0, 5.0, 2.0), (12, 0.5, 1.5, 1.0),
                          (30, 90.0, 90.0, 0.5)):
        p = JacobiParams(n, a, b, beta)
        roots = ensemble_roots(p)
        pp = JacobiPolyParams(n, (2.0 * a + 2.0) / beta - 1.0, (2.0 * b + 2.0) / beta - 1.0)
        assert roots.tobytes() == jacobi_roots_scaled(pp).values.tobytes()
        assert np.max(np.abs(eig_tridiag(expected_matrix(p)).values - roots)) < 1e-10


# a recurrence that re-forms a_tilde from a_tilde - 1 loses digits as that
# difference happens to round (at 1e12 it loses none), so several beta are
# checked; at beta = 1e-6 and 1e-3, a_tilde = (2a + 2)/beta is large instead
BETA_SWEEP = (1e-6, 1e-3, 2.0, 1e8, 1e12, 1e14, 1e16, 1e20, 1e100)
ROOT_CASES = [(1, 5.0, 3.0), (5, 0.0, 1e4), (30, 5.0, 3.0), (101, 3.0, -0.5),
              (400, 0.0, -0.999999)]


@pytest.mark.parametrize("beta", BETA_SWEEP)
@pytest.mark.parametrize("n, a, b", ROOT_CASES + [(50, 150.0, 150.0)])
def test_ensemble_roots_are_the_mean_matrix_spectrum_at_every_beta(n, a, b, beta):
    # both routes keep the digits of a_tilde, also far below float64 rounding
    # of 1; at a = b the mean matrix takes eig_tridiag's half-size route
    p = JacobiParams(n, a, b, beta)
    assert np.max(np.abs(eig_tridiag(expected_matrix(p)).values - ensemble_roots(p))) < 1e-12


@pytest.mark.parametrize("n, a, b", ROOT_CASES)
def test_roots_lie_in_the_closed_interval_up_to_the_stated_bound(n, a, b):
    # rounding may put a root past -2 or 2 when a_tilde or b_tilde is tiny;
    # jacobi_roots_scaled states 8 n float64 epsilons
    bound = 8.0 * n * np.finfo(float).eps
    for beta in BETA_SWEEP + (1e300,):
        roots = ensemble_roots(JacobiParams(n, a, b, beta))
        assert np.all(np.abs(roots) <= 2.0 + bound)


@pytest.mark.parametrize("a, b, beta", [(0.0, 0.0, 1e300), (1e290, 0.0, 1e300),
                                        (0.0, 1e290, 1e300), (0.0, 0.0, 1.7e308)])
def test_ensemble_roots_answer_at_vanishing_rescaled_parameters(a, b, beta):
    # a_tilde = (2a + 2)/beta below float64 rounding of 1 (subnormal at 1.7e308):
    # finite roots tending to those of P_3^(-1, -1), -2, 0 and 2, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = ensemble_roots(JacobiParams(3, a, b, beta))
    assert np.all(np.isfinite(roots))
    assert np.allclose(roots, [-2.0, 0.0, 2.0], rtol=0.0, atol=1e-9)


def test_both_rescaled_parameters_underflowed_raise_a_typed_error():
    # a_tilde = b_tilde = 0 in float64: the recurrence's 0/0 is a typed error
    # that names the underflow, not a ZeroDivisionError or an overflow
    p = JacobiParams(3, -0.9999999999999999, -0.9999999999999999, 1.7e308)
    with pytest.raises(NumericalFailureError, match="both underflowed float64 to 0") as info:
        ensemble_roots(p)
    assert type(info.value) is NumericalFailureError


def test_recurrence_off_diagonal_squares_are_never_negative():
    # each B_k is a product of positive ratios (k = 1 its own positive formula)
    # and a non-finite one raises, so jacobi_roots_scaled takes sqrt(B_k) as is;
    # the sweep covers a_tilde + b_tilde < 1 and shifted exponents near 1e+-300
    exps = (-0.9999999999999999, -0.5, 0.0, 1.0, 1e3, 1e150, 1e300)
    tildes = []
    for n in (1, 2, 3, 10, 101):
        for a in exps:
            for b in exps:
                for beta in (1e-300, 1e-10, 0.5, 2.0, 1e10, 1e150, 1e300, 1.7e308):
                    p = JacobiParams(n, a, b, beta)
                    try:
                        _, off_sq = recurrence_coefficients(p)
                    except (MagnitudeOverflowError, NumericalFailureError):
                        continue
                    assert np.all(off_sq >= 0.0), (n, a, b, beta)
                    tildes.append((p.a_tilde, p.b_tilde))
    at, bt = np.array(tildes).T
    assert len(tildes) > 1000 and np.any(at + bt < 1.0)
    assert at.min() < 1e-300 and at.max() > 1e300


def test_infinite_exponent_sum_raises_only_overflow():
    # gamma = inf, so gamma + delta is infinite at any scale: a
    # MagnitudeOverflowError, no RuntimeWarning
    with pytest.raises(MagnitudeOverflowError):
        jacobi_roots_scaled(JacobiPolyParams(5, math.inf, 1e308))


@pytest.mark.parametrize("a", [1e308, 1.7e308])
def test_ensemble_roots_near_float64_max(a):
    # a_tilde = 2 ((a + 1)/beta) stays finite where 2a + 2 would overflow;
    # the roots tend to -2 like the mean matrix's spectrum
    p = JacobiParams(5, a, 0.0, 2.0)
    roots = ensemble_roots(p)
    assert list(roots) == [-2.0] * 5
    assert roots.tobytes() == eig_tridiag(expected_matrix(p)).values.tobytes()


def test_charpoly_matches_scaled_polynomial():
    # det(xI - M) equals 2^n * monic_factor * P_n at x/2 for the mean matrix
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        at = rng.uniform(0.3, 4.0)
        bt = rng.uniform(0.3, 4.0)
        x = rng.uniform(-2.0, 2.0)
        m = expected_matrix(JacobiParams(n, at - 1.0, bt - 1.0, 2.0))
        pp = JacobiPolyParams(n, at - 1.0, bt - 1.0)
        rhs = 2.0**n * monic_factor(pp) * jacobi_eval(pp, x / 2.0)
        assert charpoly_eval(m, x) == pytest.approx(rhs, rel=1e-8, abs=1e-12)


def test_large_parameter_regime_stays_finite():
    # the sampler's regimes push gamma, delta to ~1e4 and degree to 5e3
    r = jacobi_roots_scaled(JacobiPolyParams(200, 15000.0, 15000.0)).values
    assert np.all(np.isfinite(r)) and np.all(np.abs(r) < 2.0)
    r = jacobi_roots_scaled(JacobiPolyParams(100, -0.99, -0.99)).values
    assert np.all(np.isfinite(r)) and np.all(np.abs(r) < 2.0)
