import numpy as np
import pytest

from jacobi_spectra import ensemble
from jacobi_spectra.betarand import _Y_OFFSET, RngStream
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
from jacobi_spectra.spectra import REGIMES, Ecdf, deviation_report
from jacobi_spectra.trieig import eig_tridiag

from oracles import (
    alpha_moments,
    beta_pm1_keyed,
    max_over_cube,
    random_matrix_gathered,
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
    assert al.alpha.size == 59 and al.n == 30
    assert np.all((al.alpha > -1.0) & (al.alpha < 1.0))
    al1 = sample_alphas(JacobiParams(1, 1.0, 2.0, 2.0), RngStream(SEED, 0))
    assert al1.alpha.size == 1


def _reference_alphas(p: JacobiParams, rng: RngStream) -> np.ndarray:
    """The per-call reference draw of the next sample_alphas call on rng."""
    return beta_pm1_keyed(rng._call_key(), *alpha_shapes(p))


@pytest.mark.parametrize("n", [1, 2, 50, 1100, 3000])
def test_sample_alphas_equals_per_call_reference(n):
    # 2n - 1 = 2199 variates and 4398 gamma shapes cross the 1024-variate block;
    # at a or b = 1e18 ratios round onto 0 or 1, where the +-(1 - 2^-52) clamp acts
    for a in (-0.99, 0.0, 3.0 * n, 1e18):
        for b in (-0.99, 0.0, 3.0 * n, 1e18):
            for beta in (1e-3, 1.0, 2.0, 1e4):
                p = JacobiParams(n, a, b, beta)
                rng, ref = RngStream(SEED, n), RngStream(SEED, n)
                for _ in range(2):
                    got = sample_alphas(p, rng).alpha
                    assert got.tobytes() == _reference_alphas(p, ref).tobytes()


def test_fmatrix_alphas_equal_per_call_reference():
    for d in (FDims(500, 20_000, 20_000), FDims(100, 10_000, 200),
              FDims(1_000, 2_000_000, 100_000)):
        p = d.jacobi_params()
        rng, ref = RngStream(SEED, 7), RngStream(SEED, 7)
        for _ in range(2):
            assert sample_alphas(p, rng).alpha.tobytes() == _reference_alphas(p, ref).tobytes()


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


def test_boundary_convention_first_diagonal():
    # alpha_{-1} = alpha_{-2} = -1 collapses the first diagonal entry to 2*alpha_0
    alpha = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
    t = random_matrix(AlphaVector(alpha))
    assert t.diag[0] == pytest.approx(2.0 * 0.3, abs=1e-15)


def test_random_matrix_matches_gathered_oracle():
    rng = RngStream(SEED, 7)
    cases = [AlphaVector(np.array([0.3, -0.2, 0.5, 0.1, -0.4]))]
    for n in (1, 2, 3, 50):
        for a, b, beta in ((150.0, 150.0, 2.0), (-0.99, 0.5, 0.05)):
            p = JacobiParams(n, a, b, beta)
            cases += [sample_alphas(p, rng.substream(len(cases) + t)) for t in range(5)]
    for al in cases:
        m = random_matrix(al)
        diag, off = random_matrix_gathered(al.alpha)
        assert m.diag.tobytes() == diag.tobytes()
        assert m.off.tobytes() == off.tobytes()


def test_alpha_vector_validation_and_builder_guard():
    from jacobi_spectra.errors import InternalConsistencyError

    with pytest.raises(ParameterDomainError):
        AlphaVector(np.array([0.1, 0.2]))  # even length
    with pytest.raises(ParameterDomainError):
        AlphaVector(np.array([0.1, 1.0, 0.2]))  # closed endpoint
    # corrupting a validated vector in place must trip the builder's guard
    al = AlphaVector(np.array([0.1, 0.2, 0.3]))
    al.alpha[0] = 5.0
    with pytest.raises(InternalConsistencyError):
        random_matrix(al)


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
    alphas = beta_pm1_keyed(
        rng._call_key(), np.tile(ps, trials), np.tile(qs, trials)
    ).reshape(trials, 3)
    off = (1.0 - alphas[:, 0] ** 2) * 2.0 * (1.0 + alphas[:, 1])
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
        r = random_matrix(AlphaVector((qs - ps) / (ps + qs)))
        m = expected_matrix(p)
        assert np.max(np.abs(m.diag - r.diag[::-1]), initial=0.0) < 1e-14
        assert np.max(np.abs(m.off - r.off[::-1]), initial=0.0) < 1e-14


@pytest.mark.parametrize("a, b, beta", [
    (1e155, 0.0, 2.0), (1e200, 3.0, 2.0), (0.0, 1e200, 2.0), (1e300, 1e300, 2.0),
    (0.5, -0.5, 1e-300),
])
def test_expected_matrix_finite_at_huge_rescaled_exponents(a, b, beta):
    # a_tilde ~ 1e155 and beyond: no entry squares a shape, so every entry is finite
    p = JacobiParams(5, a, b, beta)
    m = expected_matrix(p)
    assert np.all(np.isfinite(m.diag)) and np.all(np.isfinite(m.off))
    assert np.max(np.abs(eig_tridiag(m).values - ensemble_roots(p))) < 1e-10


def test_expected_matrix_shape_overflow_is_typed():
    for a in (1e308, 1.7e308):
        with pytest.raises(MagnitudeOverflowError, match="overflowed float64"):
            expected_matrix(JacobiParams(5, a, a, 2.0))
    # at b = 0 every shape and shape sum stays finite, so the matrix is built
    # (its spectrum sits at -2, although a_tilde = (2a + 2)/beta overflows)
    m = expected_matrix(JacobiParams(5, 1.7e308, 0.0, 2.0))
    assert np.all(np.isfinite(m.diag)) and np.all(np.isfinite(m.off))
    assert np.max(np.abs(eig_tridiag(m).values + 2.0)) < 1e-10


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
    alphas = beta_pm1_keyed(
        rng._call_key(), np.tile(ps, trials), np.tile(qs, trials)
    ).reshape(trials, 2 * n - 1)
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
] + [pytest.param(20, 1e18, 5e17, 2.0, "semicircle",
                  marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1"))]


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
