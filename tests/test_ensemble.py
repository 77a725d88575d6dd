import hashlib

import numpy as np
import pytest

from jacobi_spectra import ensemble
from jacobi_spectra.betarand import _Y_OFFSET, BetaParams, BetaPlan, RngStream
from jacobi_spectra.ensemble import (
    AlphaVector,
    JacobiParams,
    alpha_plan,
    alpha_shapes,
    expected_matrix,
    random_matrix,
    sample_alphas,
)
from jacobi_spectra.errors import MagnitudeOverflowError, ParameterDomainError
from jacobi_spectra.fmatrix import FDims
from jacobi_spectra.polyroots import ensemble_roots
from jacobi_spectra.spectra import REGIMES, Ecdf, deviation_report, realize, run_trials
from jacobi_spectra.trieig import eig_tridiag

from oracles import (
    alpha_moments,
    alphas_keyed,
    determinant_moment,
    hard_edge_exponent,
    hard_edge_uniform,
    kn_off_exact,
    ks_whole_array,
    max_over_cube,
    random_matrix_gathered,
    selberg_moment,
    trace_moments,
    two_sample_sup_distance,
)

SEED = 0x4A41434F424921


def test_params_validation():
    with pytest.raises(ParameterDomainError):
        JacobiParams(0, 0.0, 0.0, 2.0)
    with pytest.raises(ParameterDomainError):
        JacobiParams(2, -1.0, 0.0, 2.0)
    with pytest.raises(ParameterDomainError):
        JacobiParams(2, 0.0, -1.5, 2.0)
    with pytest.raises(ParameterDomainError):
        JacobiParams(2, 0.0, 0.0, 0.0)
    for a, b, beta in ((np.inf, 0.0, 2.0), (0.0, np.inf, 2.0), (0.0, 0.0, np.inf),
                       (np.nan, 0.0, 2.0)):
        with pytest.raises(ParameterDomainError):
            JacobiParams(2, a, b, beta)
    p = JacobiParams(4, 1.0, 2.0, 2.0)
    assert p.a_tilde == 2.0 and p.b_tilde == 3.0


def test_rescaled_parameters_equal_the_direct_quotient():
    # 2 ((a + 1)/beta) is (2a + 2)/beta bit for bit while (a + 1)/beta is a
    # normal float, and stays finite where 2a + 2 overflows
    rng = np.random.default_rng(SEED)
    for a, beta in zip(np.exp(rng.uniform(-30.0, 300.0, 2000)).tolist(),
                       np.exp(rng.uniform(-300.0, 300.0, 2000)).tolist()):
        a -= 1.0
        p = JacobiParams(3, a, a, beta)
        assert p.a_tilde == p.b_tilde == (2.0 * a + 2.0) / beta
    assert JacobiParams(3, 1.7e308, 0.0, 2.0).a_tilde == 1.7e308


@pytest.mark.parametrize(
    "n", [float("inf"), float("nan"), 2.5, pytest.param(10**400, id="10**400"), 2**30 + 1]
)
def test_params_reject_nonfinite_or_fractional_size(n):
    # inf and NaN sizes ended in OverflowError / ValueError from int(n), and
    # 10**400 in OverflowError from the float conversion of math.isfinite
    with pytest.raises(ParameterDomainError):
        JacobiParams(n, 0.0, 0.0, 2.0)


def test_largest_size_keeps_x_and_y_variates_apart():
    # X of beta variate j is keyed gamma variate j, Y is j + 2^31: the 2n - 1
    # X indices of a realization stay below 2^31 exactly up to n = 2^30
    assert 2 * ensemble._MAX_N - 2 < int(_Y_OFFSET) <= 2 * (ensemble._MAX_N + 1) - 2
    assert JacobiParams(2**30, 0.0, 0.0, 2.0).n == 2**30  # built, never sampled


def test_alpha_shapes_examples():
    ps, qs = alpha_shapes(JacobiParams(2, 0.0, 0.0, 2.0))
    assert ps.size == qs.size == 3  # k = 0..2n-2
    assert (ps[0], qs[0]) == (2.0, 2.0)  # even k
    assert (ps[1], qs[1]) == (2.0, 1.0)  # odd k


def test_alpha_shapes_always_positive():
    for n in (1, 2, 5, 40):
        for a, b, beta in ((-0.99, -0.99, 0.05), (0.0, 0.0, 2.0), (100.0, 3.0, 7.5)):
            ps, qs = alpha_shapes(JacobiParams(n, a, b, beta))
            assert np.all(ps > 0.0) and np.all(qs > 0.0)
            assert ps.size == 2 * n - 1


def test_sample_alphas_shape_and_support():
    p = JacobiParams(30, 1.0, 2.0, 2.0)
    al = sample_alphas(p, RngStream(SEED, 0))
    one_minus, one_plus = al.complements
    assert al.complements.shape == (2, 59) and al.alpha.size == 59 and al.n == 30
    assert np.all((al.alpha > -1.0) & (al.alpha < 1.0))
    assert np.max(np.abs(one_minus - (1.0 - al.alpha))) <= 2.0**-52
    assert np.max(np.abs(one_plus - (1.0 + al.alpha))) <= 2.0**-52
    al1 = sample_alphas(JacobiParams(1, 1.0, 2.0, 2.0), RngStream(SEED, 0))
    assert al1.alpha.size == 1


def _alpha_bytes(al: AlphaVector) -> tuple[bytes, ...]:
    return tuple(a.tobytes() for a in (al.alpha, *al.complements))


def _reference_alphas(p: JacobiParams, rng: RngStream) -> tuple[bytes, ...]:
    """The per-call reference draw of the next sample_alphas call on rng."""
    return tuple(a.tobytes() for a in alphas_keyed(rng.call_key(), *alpha_shapes(p)))


@pytest.mark.parametrize("n", [1, 2, 50, 1100, 3000])
def test_sample_alphas_equals_per_call_reference(n):
    # 2n - 1 = 2199 variates and 4398 gamma shapes cross the 1024-variate block;
    # at a or b = 1e18 ratios round onto 0 or 1 while their complements do not
    for a in (-0.99, 0.0, 3.0 * n, 1e18):
        for b in (-0.99, 0.0, 3.0 * n, 1e18):
            for beta in (1e-3, 1.0, 2.0, 1e4):
                p = JacobiParams(n, a, b, beta)
                rng, ref = RngStream(SEED, n), RngStream(SEED, n)
                for _ in range(2):
                    assert _alpha_bytes(sample_alphas(p, rng)) == _reference_alphas(p, ref)


def test_fmatrix_alphas_equal_per_call_reference():
    for d in (FDims(500, 20_000, 20_000), FDims(100, 10_000, 200),
              FDims(1_000, 2_000_000, 100_000)):
        p = d.jacobi_params()
        rng, ref = RngStream(SEED, 7), RngStream(SEED, 7)
        for _ in range(2):
            assert _alpha_bytes(sample_alphas(p, rng)) == _reference_alphas(p, ref)


@pytest.mark.parametrize("a, b", [(150.0, 150.0), (1e12, 1e12), (1e18, 5e17)])
def test_off_diagonals_match_the_exact_build_from_the_gamma_pairs(a, b):
    # the off-diagonals against their exact value from the same gamma words:
    # at a + b of 1e18 the complement 1 + alpha of an odd variate is about
    # 1e-17, which 1 - 2 Z cannot resolve and 2 W carries to full precision
    p = JacobiParams(20, a, b, 2.0)
    rng = RngStream(SEED, 12)
    for t in range(5):
        key = rng.substream(t).call_key()
        x, y = np.split(alpha_plan(p).gamma.draw(key), 2)
        off = random_matrix(sample_alphas(p, rng.substream(t))).off
        exact = kn_off_exact(x, y)
        assert np.max(np.abs(off - exact) / exact) <= 4.0 * 2.0**-52


def test_realizations_of_one_parameter_set_share_one_plan(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return alpha_shapes(p)

    monkeypatch.setattr(ensemble, "alpha_shapes", counted)
    alpha_plan.cache_clear()
    p = JacobiParams(20, 10.0, 10.0, 2.0)
    rng = RngStream(SEED, 8)
    for t in range(100):
        sample_alphas(p, rng.substream(t))
    assert len(calls) == 1
    # deviation_report reads its alpha means from the same plan
    for t in range(5):
        deviation_report(p, rng.substream(100 + t))
    assert len(calls) == 1
    plan = alpha_plan(p)
    assert not plan.means.flags.writeable and not plan.gamma.d.flags.writeable
    # other parameters build their own plan
    sample_alphas(JacobiParams(21, 10.0, 10.0, 2.0), rng)
    assert len(calls) == 2


def test_plan_holds_one_slot_row_and_at_most_112_bytes_per_row():
    # per matrix row: 4 gamma variates of d, c and one slot word each, 2 means
    n = 3000
    plan = alpha_plan(JacobiParams(n, 9000.0, 9000.0, 2.0))
    g = plan.gamma
    assert g.jg.ndim == 1 and g.jg.size == g.d.size == 2 * (2 * n - 1)
    arrays = (plan.means, g.d, g.c, g.jg, g.small, g.inv_small)
    assert sum(a.nbytes for a in arrays) <= 112 * n


def test_shapes_beyond_float64_range_raise_overflow():
    for a, b, beta in ((1e308, 1e308, 2.0), (1e308, 0.0, 2.0), (0.0, 0.0, 1e308)):
        with pytest.raises(MagnitudeOverflowError):
            sample_alphas(JacobiParams(5, a, b, beta), RngStream(SEED, 9))


def test_even_entries_symmetric_for_equal_weights():
    # a = b makes the even-index variates symmetric around zero
    p = JacobiParams(4, 3.0, 3.0, 2.0)
    rng = RngStream(SEED, 1)
    acc = np.zeros(7)
    trials = 10**4
    for t in range(trials):
        acc += sample_alphas(p, rng.substream(t)).alpha
    mean = acc / trials
    assert np.all(np.abs(mean[::2]) < 0.02)


def _with_complements(alpha) -> AlphaVector:
    alpha = np.asarray(alpha, dtype=np.float64)
    return AlphaVector(np.stack((1.0 - alpha, 1.0 + alpha)))


def test_boundary_convention_first_diagonal():
    # alpha_{-1} = alpha_{-2} = -1 collapses the first diagonal entry to 2*alpha_0
    t = random_matrix(_with_complements([0.3, -0.2, 0.5, 0.1, -0.4]))
    assert t.diag[0] == pytest.approx(2.0 * 0.3, abs=1e-15)


def test_random_matrix_matches_gathered_oracle():
    rng = RngStream(SEED, 7)
    cases = [_with_complements([0.3, -0.2, 0.5, 0.1, -0.4])]
    for n in (1, 2, 3, 50):
        for a, b, beta in ((150.0, 150.0, 2.0), (-0.99, 0.5, 0.05), (1e18, 5e17, 2.0)):
            p = JacobiParams(n, a, b, beta)
            cases += [sample_alphas(p, rng.substream(len(cases) + t)) for t in range(5)]
    for al in cases:
        m = random_matrix(al)
        diag, off = random_matrix_gathered(al.alpha, *al.complements)
        assert m.diag.tobytes() == diag.tobytes()
        assert m.off.tobytes() == off.tobytes()


def test_alpha_vector_validation():
    ones = np.ones((2, 3))
    for bad in (np.ones(3), np.ones((2, 4)), np.ones((3, 5))):  # 1-D, even length, 3 rows
        with pytest.raises(ParameterDomainError):
            AlphaVector(bad)
    for bad in (np.nan, -(2.0**-1074), 2.0 + 2.0**-51, np.inf):
        for row in (0, 1):
            c = ones.copy()
            c[row, 1] = bad
            with pytest.raises(ParameterDomainError):
                AlphaVector(c)
    # the closed ends: a variate on +-1 has a zero complement and a zero off-diagonal
    m = random_matrix(_with_complements([1.0, -1.0, 0.5]))
    assert m.diag.tolist() == [2.0, 1.0] and m.off.tolist() == [0.0]


def test_alpha_is_derived_from_its_complements():
    # alpha, 1 - alpha and 1 + alpha as three arrays could disagree (alpha = 0
    # with both complements 0.5 was accepted and built); one array holds them now
    with pytest.raises(TypeError):
        AlphaVector(np.zeros(3), np.full(3, 0.5), np.full(3, 0.5))
    c = np.array([[0.5, 2.0, 0.0], [1.5, 0.0, 2.0]])
    al = AlphaVector(c)
    assert al.complements is c and al.alpha.tolist() == [0.5, -1.0, 1.0]
    assert not np.shares_memory(al.alpha, c)


def test_alpha_vector_columns_sum_to_two():
    # complements (2, 2) for alpha_1 = 0 were accepted and built the diagonal [-2, 4]
    with pytest.raises(ParameterDomainError, match="must sum to 2"):
        AlphaVector(np.array([[2.0, 2.0, 0.0], [0.0, 2.0, 2.0]]))
    # a few float64 spacings of 2 are rounding; 2^-48 is not
    c = np.array([[0.5, 1.0, 2.0], [1.5, 1.0, 0.0]])
    c[1, 1] += 2.0**-50
    AlphaVector(c)
    c[1, 1] += 2.0**-48
    with pytest.raises(ParameterDomainError, match="must sum to 2"):
        AlphaVector(c)


def test_entry_ranges():
    # brute-force the entry formulas over the closed alpha cube
    diag_sup = max_over_cube(
        lambda a1, a2, a0: np.abs((1 - a1) * a2 - (1 + a1) * a0), 3
    )
    off_sup = max_over_cube(
        lambda a1, a2, a3: np.sqrt(np.maximum((1 - a1) * (1 - a2**2) * (1 + a3), 0.0)), 3
    )
    assert diag_sup == pytest.approx(2.0, abs=1e-12)
    assert off_sup == pytest.approx(2.0, abs=1e-12)
    rng = RngStream(SEED, 2)
    for t in range(50):
        m = random_matrix(sample_alphas(JacobiParams(25, 0.5, 1.5, 1.0), rng.substream(t)))
        assert np.all(np.abs(m.diag) <= 2.0)
        assert np.all(m.off >= 0.0) and np.all(m.off <= 2.0 * np.sqrt(2.0))


def test_off_entries_never_exactly_zero():
    # continuous variates: no off entry hits 0 across 1e5 sampled matrices
    p = JacobiParams(2, 0.0, 0.0, 2.0)
    ps, qs = alpha_shapes(p)
    trials = 10**5
    rng = RngStream(SEED, 3)
    _, one_minus, one_plus = (a.reshape(trials, 3) for a in alphas_keyed(
        rng.call_key(), np.tile(ps, trials), np.tile(qs, trials)))
    off = 2.0 * (one_minus[:, 0] * one_plus[:, 0]) * one_plus[:, 1]
    assert np.all(off > 0.0)


def test_expected_matrix_examples():
    # equal rescaled parameters zero out the diagonal
    t = expected_matrix(JacobiParams(6, 2.0, 2.0, 2.0))
    assert np.all(t.diag == 0.0)
    # n = 2, a_tilde = b_tilde = 1
    t = expected_matrix(JacobiParams(2, 0.0, 0.0, 2.0))
    assert t.diag == pytest.approx([0.0, 0.0])
    assert t.off[0] == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-15)
    # n = 1, a_tilde = 2, b_tilde = 4
    t = expected_matrix(JacobiParams(1, 1.0, 3.0, 2.0))
    assert t.diag[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert t.off.size == 0


def test_expected_matrix_off_strictly_positive():
    for n in (2, 3, 7, 30):
        t = expected_matrix(JacobiParams(n, -0.5, 4.0, 1.5))
        assert np.all(t.off > 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 400])
def test_expected_matrix_is_the_random_build_at_the_means(n):
    # one entry formula: the mean matrix is random_matrix at the variate means, reversed
    for a, b, beta in ((0.5, 1.5, 2.0), (3.0, 0.0, 1.0), (-0.5, 4.0, 0.3), (20.0, 20.0, 2.0)):
        p = JacobiParams(n, a, b, beta)
        ps, qs = alpha_shapes(p)
        r = random_matrix(_with_complements((qs - ps) / (ps + qs)))
        m = expected_matrix(p)
        assert np.max(np.abs(m.diag - r.diag[::-1]), initial=0.0) < 1e-14
        assert np.max(np.abs(m.off - r.off[::-1]), initial=0.0) < 1e-14


@pytest.mark.parametrize("a, b, beta", [
    (1e155, 0.0, 2.0), (1e200, 3.0, 2.0), (0.0, 1e200, 2.0), (1e300, 1e300, 2.0),
    (0.5, -0.5, 1e-300), (1.7e308, 0.0, 2.0),
])
def test_expected_matrix_finite_at_huge_rescaled_exponents(a, b, beta):
    # a_tilde ~ 1e155 and beyond: no entry squares a shape, so every entry is
    # finite (at a = 1.7e308, b = 0 the spectrum sits at -2, although
    # a_tilde = (2a + 2)/beta overflows)
    p = JacobiParams(5, a, b, beta)
    m = expected_matrix(p)
    assert np.all(np.isfinite(m.diag)) and np.all(np.isfinite(m.off))
    assert np.max(np.abs(eig_tridiag(m).values - ensemble_roots(p))) < 1e-10


@pytest.mark.parametrize("a, beta", [
    (1e308, 3.0), (1e308, 2.0), (1.7e308, 2.0), (1e308, 1e308), (1e308, 1.7e308),
])
def test_expected_matrix_scales_shapes_whose_sum_overflows(a, beta):
    # p + q is infinite where a + b or beta n/4 + a is, but not at a smaller
    # exact power-of-two scale of every shape: the mean ratios are the
    # unscaled ones, and the spectrum is the roots' (about +-1e-154 at
    # beta = 2 or 3, about +-1.66, +-0.94 and 0 at beta = 1e308)
    p = JacobiParams(5, a, a, beta)
    ev = eig_tridiag(expected_matrix(p)).values
    roots = ensemble_roots(p)
    assert np.all(np.isfinite(ev))
    assert np.max(np.abs(ev - roots)) < 1e-12 * np.max(np.abs(roots))


def test_expected_matrix_bytes_at_every_tested_parameter_set():
    # the parameter sets of this file's other tests: scaling every shape by
    # one exact power of two moves no byte of the mean matrix (SHA-256 of
    # every diagonal and off-diagonal, in this order)
    sets = [(6, 2.0, 2.0, 2.0), (2, 0.0, 0.0, 2.0), (1, 1.0, 3.0, 2.0)]
    sets += [(n, -0.5, 4.0, 1.5) for n in (2, 3, 7, 30)]
    sets += [(n, a, b, beta) for n in (1, 2, 3, 7, 50, 400) for a, b, beta in
             ((0.5, 1.5, 2.0), (3.0, 0.0, 1.0), (-0.5, 4.0, 0.3), (20.0, 20.0, 2.0))]
    sets += [(5, a, b, beta) for a, b, beta in ((1e155, 0.0, 2.0), (1e200, 3.0, 2.0),
             (0.0, 1e200, 2.0), (1e300, 1e300, 2.0), (0.5, -0.5, 1e-300))]
    sets += [(5, a, a, beta) for a, beta in ((1e308, 3.0), (1e308, 2.0), (1.7e308, 2.0))]
    sets += [(5, 1.7e308, 0.0, 2.0), (20, 10.0, 10.0, 2.0), (10, 2.0, 5.0, 2.0),
             (10, 5.0, 2.0, 2.0)]
    h = hashlib.sha256()
    for args in sets:
        m = expected_matrix(JacobiParams(*args))
        h.update(m.diag.tobytes())
        h.update(m.off.tobytes())
    assert h.hexdigest() == "736358b49421cd7e4f0a15fecd5adea426fa38649104fba1051b81ded4d74ee6"


def test_expectation_consistency_with_reversal():
    # the deterministic matrix holds the entrywise means of the REVERSED
    # random matrix; diagonal means match exactly, off-diagonal means only up
    # to the Jensen gap of the square root
    n = 20
    p = JacobiParams(n, 10.0, 10.0, 2.0)
    d = expected_matrix(p)
    trials = 10**5
    ps, qs = alpha_shapes(p)
    rng = RngStream(SEED, 4)
    alphas = alphas_keyed(
        rng.call_key(), np.tile(ps, trials), np.tile(qs, trials)
    )[0].reshape(trials, 2 * n - 1)
    diag = np.empty((trials, n))
    off = np.empty((trials, n - 1))
    pad = np.concatenate(
        [np.full((trials, 2), -1.0), alphas, np.full((trials, 1), -1.0)], axis=1
    )
    at = lambda j: pad[:, j + 2]
    for k in range(n):
        diag[:, k] = (1 - at(2 * k - 1)) * at(2 * k) - (1 + at(2 * k - 1)) * at(2 * k - 2)
    for k in range(n - 1):
        off[:, k] = np.sqrt((1 - at(2 * k - 1)) * (1 - at(2 * k) ** 2) * (1 + at(2 * k + 1)))
    mean_d, se_d = diag.mean(axis=0), diag.std(axis=0) / np.sqrt(trials)
    mean_o, se_o = off.mean(axis=0), off.std(axis=0) / np.sqrt(trials)
    assert np.all(np.abs(mean_d[::-1] - d.diag) <= 3.0 * se_d[::-1])
    assert np.all(np.abs(mean_o[::-1] - d.off) <= 0.25 * d.off + 3.0 * se_o[::-1])


def test_swap_weights_negates_spectrum():
    p1 = JacobiParams(10, 2.0, 5.0, 2.0)
    p2 = JacobiParams(10, 5.0, 2.0, 2.0)
    e1 = eig_tridiag(expected_matrix(p1)).values
    e2 = eig_tridiag(expected_matrix(p2)).values
    assert np.max(np.abs(e1 + e2[::-1])) == 0.0
    # and for the random matrix, in distribution
    r1, r2 = RngStream(SEED, 5), RngStream(SEED, 6)
    s1 = np.concatenate(
        [eig_tridiag(random_matrix(sample_alphas(p1, r1.substream(t)))).values for t in range(1000)]
    )
    s2 = np.concatenate(
        [eig_tridiag(random_matrix(sample_alphas(p2, r2.substream(t)))).values for t in range(1000)]
    )
    assert two_sample_sup_distance(Ecdf(s1), Ecdf(-s2)) < 0.02


def test_alpha_moments_match_scipy_beta():
    from scipy.stats import beta

    for p, q in ((0.25, 0.5), (1.0, 1.0), (2.5, 61.0), (1e6, 3e5), (4.0, 1e-3)):
        m1, m2 = beta(p, q).moment(1), beta(p, q).moment(2)
        e1, e2 = alpha_moments(p, q)
        assert float(e1) == pytest.approx(1.0 - 2.0 * m1, rel=1e-12, abs=1e-15)
        assert float(e2) == pytest.approx(1.0 - 4.0 * m1 + 4.0 * m2, rel=1e-12, abs=1e-15)


# one parameter row per regime, each accepted by its regime
REGIME_ROWS = {
    "ratio": lambda n: (3.0 * n, 3.0 * n, 2.0),
    "arcsine": lambda n: (n**0.5, n**0.5, 2.0 * n),
    "semicircle": lambda n: (4.0 * n, 6.0 * n, 2.0),
    "edge": lambda n: (8.0 * n, 2.0 * n, 2.0),
    "shifted-semicircle": lambda n: (8.0 * n, 6.0 * n, 2.0),
}
MOMENT_CASES = [
    (n, a, b, beta, "semicircle")
    for n in (1, 2, 20)
    for a, b, beta in ((60.0, 30.0, 2.0), (-0.5, 2.0, 0.5))
] + [
    (n, *row(n), regime) for regime, row in REGIME_ROWS.items() for n in (1, 2, 20)
] + [
    # a + b beyond 1/eps: the complements 1 + alpha of the odd variates are
    # below the float64 spacing near -1
    (20, a, a / 2.0, 2.0, "semicircle") for a in (1e18, 1e20, 1e24)
] + [(20, 1e20, 1e10, 2.0, "shifted-semicircle")]


@pytest.mark.parametrize("n, a, b, beta, regime", MOMENT_CASES)
def test_trace_moments_match_exact_oracle(n, a, b, beta, regime):
    # sample means of tr(T - cI) and tr((T - cI)^2) = sum (d - c)^2 + 2 sum e^2,
    # each summed per realization in float64, against their exact expectations,
    # centred at the regime's epsilon_n
    p = JacobiParams(n, a, b, beta)
    c = REGIMES[regime](p)[1].epsilon_n
    trials = 3000
    rng = RngStream(SEED, 11)
    sums = np.empty((2, trials))
    for t in range(trials):
        m = random_matrix(sample_alphas(p, rng))
        dc = m.diag - c
        sums[:, t] = dc.sum(), dc @ dc + 2.0 * (m.off @ m.off)
    for sample, exact in zip(sums, trace_moments(alpha_shapes(p), c)):
        z = (sample.mean() - float(exact)) / (sample.std(ddof=1) / np.sqrt(trials))
        assert abs(z) < 4.5


SELBERG_CASES = [(1, 0.5, 2.0, 2.0), (5, 3.0, 1.0, 2.0), (7, 0.5, -0.5, 1.0),
                 (6, 2.25, 0.75, 0.5), (9, 10.0, 4.0, 4.0)]


def _selberg_holds(shapes_of) -> bool:
    """Whether the build on shapes_of(p) has the theorem's mixed determinant
    moments E[det(2I + T)^u det(2I - T)^s], u, s in 0..3, at every Selberg case."""
    return all(
        determinant_moment(shapes_of(JacobiParams(n, a, b, beta)), u, s)
        == selberg_moment(n, a, b, beta, u, s)
        for n, a, b, beta in SELBERG_CASES for u in range(4) for s in range(4)
    )


def _raised(p, start, row):
    ps, qs = alpha_shapes(p)
    (ps, qs)[row][start::2] += p.beta / 4.0
    return ps, qs


def test_shape_table_has_the_selberg_determinant_moments():
    # exact, sampling-free: a wrong shape table that the trace moments cannot
    # see fails here
    assert _selberg_holds(alpha_shapes)
    assert not _selberg_holds(lambda p: _raised(p, 1, 1))  # odd q shapes + beta/4
    assert not _selberg_holds(lambda p: _raised(p, 0, 0))  # even p shapes + beta/4


WEIGHT_CASES = [(20, 3.0, 1.0, 2.0), (20, 60.0, 30.0, 2.0), (30, 0.5, -0.5, 1.0),
                (10, 2.0, 5.0, 0.5), (50, 150.0, 150.0, 4.0)]

# KS distance of 2000 independent weights from their Beta law: base seeds
# 0..19 and SEED read 0.012-0.037 over the five cases (median 0.019); 0.05 is
# a Kolmogorov p-value of about 1e-4 at 2000 draws
WEIGHT_KS_TOL = 0.05


def _top_weights(p: JacobiParams) -> np.ndarray:
    """(e_1^T v)^2 and (e_n^T v)^2 of the unit eigenvector v of the largest
    eigenvalue of T = random_matrix(sample_alphas(p, .)), one T per trial."""
    from scipy.linalg import eigh_tridiagonal

    rng = RngStream(SEED, 0)
    w = np.empty((2, 2000))
    for t in range(w.shape[1]):
        m = random_matrix(sample_alphas(p, rng.substream(t)))
        _, v = eigh_tridiagonal(m.diag, m.off, select="i", select_range=(p.n - 1, p.n - 1))
        w[:, t] = v[[0, -1], 0] ** 2
    return w


def _weight_ks(p: JacobiParams, w: np.ndarray) -> float:
    """KS distance of the sample w from Beta(beta/2, (n - 1) beta/2)."""
    from scipy.stats import beta, kstest

    return float(kstest(w, beta(p.beta / 2.0, (p.n - 1) * p.beta / 2.0).cdf).statistic)


@pytest.mark.parametrize("n, a, b, beta", WEIGHT_CASES)
def test_spectral_weights_have_the_dirichlet_marginal(n, a, b, beta):
    # Killip-Nenciu, Thm 2: the weights w_i = (e_1^T v_i)^2 are
    # Dirichlet(beta/2, ..., beta/2) and independent of the eigenvalues, so the
    # weight of the largest eigenvalue is Beta(beta/2, (n - 1) beta/2); one
    # weight per trial keeps the draws independent. Read at e_n instead, the
    # weights fail by far (KS 0.63-1.0 over the same seeds)
    p = JacobiParams(n, a, b, beta)
    first, last = _top_weights(p)
    assert _weight_ks(p, first) < WEIGHT_KS_TOL
    assert _weight_ks(p, last) > 10.0 * WEIGHT_KS_TOL


def test_spectral_weights_see_the_last_variate_shapes_swapped(monkeypatch):
    # the Selberg moments and the weight law test the shape table apart from
    # the trace moments; swapping (p, q) of alpha_{2n-2} reads KS 0.125-0.141
    # here over the seeds of the tolerance sweep
    p = JacobiParams(20, 60.0, 30.0, 2.0)
    ps, qs = alpha_shapes(p)
    ps[-1], qs[-1] = qs[-1], ps[-1]
    plan = BetaPlan(BetaParams(ps, qs))
    monkeypatch.setattr(ensemble, "alpha_plan", lambda _: plan)
    assert _weight_ks(p, _top_weights(p)[0]) > WEIGHT_KS_TOL


# (n, a, b, beta): b = 0 reads the smallest eigenvalue, a = 0 the largest
HARD_EDGE_CASES = [(5, 1.0, 0.0, 2.0), (20, 0.5, 0.0, 1.0), (30, 3.0, 0.0, 0.5),
                   (50, 1e6, 0.0, 2.0), (50, 1e12, 0.0, 2.0),
                   (5, 0.0, 1.0, 2.0), (20, 0.0, 2.0, 1.0), (30, 0.0, 3.0, 0.5)]

# KS distance of U over 2000 realizations from the uniform: base seeds 0..19
# and SEED read 0.013-0.044 over the eight cases (median 0.018); 0.05 is a
# Kolmogorov p-value of about 1e-4 at 2000 draws. Over the same seeds the
# other edge exponent at 0.5 read by the exact K read at least 0.23 in every
# case. K with n^2 in place of n(n - 1) read 0.051-0.086 at n = 5 but as
# little as 0.010 from n = 20 up, so that control runs at n = 5 only
HARD_EDGE_KS_TOL = 0.05


def _hard_edge_ks(p: JacobiParams, k: float) -> float:
    """KS distance from the uniform of U at exponent k over 2000 realizations
    of p, read at lambda_min + 2 where b = 0 and at 2 - lambda_max elsewhere."""
    spectra = run_trials(lambda sub: realize(p, sub)[1], 2000, RngStream(SEED, 0))
    gap = np.array([s[0] + 2.0 if p.b == 0.0 else 2.0 - s[-1] for s in spectra])
    return ks_whole_array(np.sort(hard_edge_uniform(gap, k)))


@pytest.mark.parametrize("n, a, b, beta", HARD_EDGE_CASES)
def test_extreme_eigenvalue_has_the_exact_hard_edge_law(n, a, b, beta):
    # exact at every n, so no finite-n bias to absorb, and it sees the shape
    # table at the hard edge, where the trace and determinant moments see means
    mirrored = b != 0.0
    k = hard_edge_exponent(n, b if mirrored else a, beta)
    p = JacobiParams(n, a, b, beta)
    assert _hard_edge_ks(p, k) < HARD_EDGE_KS_TOL
    other = JacobiParams(n, 0.5, b, beta) if mirrored else JacobiParams(n, a, 0.5, beta)
    assert _hard_edge_ks(other, k) > HARD_EDGE_KS_TOL
    if n == 5:
        assert _hard_edge_ks(p, k + beta * n / 2.0) > HARD_EDGE_KS_TOL
