import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from jacobi_spectra import betarand, verify
from jacobi_spectra.betarand import (
    _BLOCK,
    _MAX_SHAPE,
    _NORMAL_BLOCK,
    _ONE_MINUS,
    _TINY,
    BetaParams,
    BetaPlan,
    GammaPlan,
    RngStream,
    beta_concentration_bound,
    beta_mean_pm1,
    sample_beta01,
)
from jacobi_spectra.errors import MagnitudeOverflowError, ParameterDomainError

from oracles import beta01_keyed, gamma_keyed, inverse_cdf_beta


def gammas(shape: float, rng: RngStream, n: int) -> np.ndarray:
    """n Gamma(shape, 1) draws as keyed variates 0..n-1 of one call of rng."""
    return GammaPlan(np.full(n, shape), np.arange(n)).draw(rng._call_key())


def shapes(p: float, q: float, n: int) -> BetaParams:
    """n copies of the shape pair (p, q)."""
    return BetaParams(np.full(n, p), np.full(n, q))


def test_same_seed_same_stream_reproduces():
    a = RngStream(42, 0)
    b = RngStream(42, 0)
    assert np.array_equal(a.normals(1), b.normals(1))
    assert np.array_equal(a.uniforms(100), b.uniforms(100))


def test_distinct_streams_differ():
    a = RngStream(42, 0)
    b = RngStream(42, 1)
    assert not np.array_equal(a.uniforms(100), b.uniforms(100))


def test_substreams_are_independent_of_consumption_order():
    base = RngStream(7, 3)
    first = base.substream(5).uniforms(10)
    base.uniforms(1000)  # consuming the parent must not move the children
    assert np.array_equal(base.substream(5).uniforms(10), first)


def test_substream_nesting_order_matters():
    base = RngStream(7, 0)
    a = base.substream(1).substream(2).uniforms(8)
    b = base.substream(2).substream(1).uniforms(8)
    assert not np.array_equal(a, b)


def _key(s: RngStream) -> int:
    return s.base_seed ^ ((s.stream_id * 0x9E3779B97F4A7C15) & ((1 << 64) - 1))


def test_verify_stream_tree_keys_are_distinct():
    # every stream the acceptance criteria derive from the root, inner nodes
    # included, mirroring verify's substream indices and trial counts
    root = RngStream(verify.DEFAULT_SEED, 0)
    keys = [_key(root)]

    def node(parent: RngStream, k: int) -> RngStream:
        child = parent.substream(k)
        keys.append(_key(child))
        return child

    node(root, 2)
    c03 = node(root, 3)
    for t in range(1000):
        node(c03, t)
    c04 = node(root, 4)
    for i in range(4):
        level = node(c04, i)
        for t in range(200):
            node(level, t)
    for sub_id in (5, 6, 7, 10):
        node(node(root, sub_id), 0)  # monte_carlo_esd / f_esd_pooled trial 0
    c09 = node(root, 9)
    for s in range(50):
        node(c09, s)
    c11 = node(root, 11)
    for i, (_, trials, _) in enumerate(verify.TRANSFORM_DIMS.values()):
        kind = node(c11, i)
        for t in range(trials):
            node(kind, t)
    c12 = node(root, 12)
    for idx in range(3):
        node(c12, idx)
    node(root, 13)
    node(root, 131)
    assert len(set(keys)) == len(keys)


def test_uniforms_open_interval():
    u = RngStream(1, 0).uniforms(10**6)
    assert u.min() > 0.0 and u.max() < 1.0


def test_normal_moments():
    z = RngStream(11, 0).normals(10**6)
    assert abs(z.mean()) < 0.005
    assert abs(z.var() - 1.0) < 0.01


@pytest.mark.parametrize("size", [0, 1, _NORMAL_BLOCK - 1, _NORMAL_BLOCK, _NORMAL_BLOCK + 1,
                                  2 * _NORMAL_BLOCK + 3])
def test_blocked_normals_equal_the_one_shot_box_muller(size):
    # normal i pairs the uniforms of words pos + i + 1 and pos + size + i + 1
    a, b = RngStream(21, 4), RngStream(21, 4)
    a.uniforms(5), b.uniforms(5)
    u = a.uniforms(2 * size)
    ref = np.sqrt(-2.0 * np.log(u[:size])) * np.cos(2.0 * np.pi * u[size:])
    assert b.normals(size).tobytes() == ref.tobytes()
    assert a.uniforms(3).tobytes() == b.uniforms(3).tobytes()


def test_normals_working_memory_is_near_the_result():
    size = 2_000_000
    tracemalloc.start()
    try:
        RngStream(11, 0).normals(size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * size


def test_gamma_moments():
    rng = RngStream(12, 0)
    g1 = gammas(1.0, rng, 10**6)
    assert abs(g1.mean() - 1.0) < 0.01
    g50 = gammas(50.0, rng, 10**6)
    assert abs(g50.mean() - 50.0) < 0.5
    assert abs(g50.var() - 50.0) < 2.0


def test_gamma_small_shape_positive():
    g = gammas(0.3, RngStream(13, 0), 10**6)
    assert np.all(g > 0.0)
    assert abs(g.mean() - 0.3) < 0.01


def test_gamma_huge_shape():
    g = gammas(1e7, RngStream(14, 0), 10**4)
    # relative std is 1/sqrt(shape) ~ 3e-4
    assert abs(g.mean() / 1e7 - 1.0) < 1e-4


def test_gamma_tiny_shape():
    # near the bottom of the supported shape range most draws underflow the
    # float64 normal range; they must stay strictly positive regardless
    g = gammas(1e-3, RngStream(21, 0), 10**5)
    assert np.all(g > 0.0)
    assert abs(g.mean() - 1e-3) < 5e-4


@pytest.mark.parametrize("shape", [0.3, 0.99, 1.0, 2.5, 150.0, 1e6])
def test_gamma_matches_scipy_cdf(shape):
    # shape 1e-3 is left out: half its mass lies below the smallest normal
    # double, where draws are clamped
    g = gammas(shape, RngStream(22, 0), 2 * 10**5)
    assert stats.kstest(g, stats.gamma(shape).cdf).pvalue > 1e-3


def test_keyed_gamma_variate_depends_only_on_key_and_index():
    # shapes below and above 1, and more variates than one block holds
    shapes = np.resize([0.4, 1.0, 3.0, 150.0, 2e6], 2 * _BLOCK + 7)
    key = 0x1234_5678_9ABC_DEF0
    full = GammaPlan(shapes, np.arange(shapes.size)).draw(key)
    prefix = GammaPlan(shapes[:600], np.arange(600)).draw(key)
    assert prefix.tobytes() == full[:600].tobytes()
    for j in (0, 3, 599, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 6):
        alone = GammaPlan(shapes[j : j + 1], np.array([j])).draw(key)
        assert alone.tobytes() == full[j : j + 1].tobytes()


def test_keyed_beta_variate_depends_only_on_key_and_index():
    p = np.resize([0.5, 2.0, 150.0], 300)
    q = np.resize([1.0, 0.7, 3.0, 80.0], 300)
    key = 0x0FED_CBA9_8765_4321
    full = BetaPlan(BetaParams(p, q)).draw(key)
    for j in (0, 1, 150, 299):
        # the reference draws variate j alone
        alone = beta01_keyed(key, p[j : j + 1], q[j : j + 1], np.array([j]))
        assert alone.tobytes() == full[j : j + 1].tobytes()
    # through the public call: a prefix of the shapes gives a prefix of the draws
    head = sample_beta01(BetaParams(p[:40], q[:40]), RngStream(23, 0))
    whole = sample_beta01(BetaParams(p, q), RngStream(23, 0))
    assert head.tobytes() == whole[:40].tobytes()


def test_consecutive_keyed_calls_differ():
    rng = RngStream(24, 0)
    assert not np.array_equal(gammas(2.5, rng, 50), gammas(2.5, rng, 50))
    params = BetaParams(np.full(50, 3.0), np.full(50, 4.0))
    assert not np.array_equal(sample_beta01(params, rng), sample_beta01(params, rng))


def test_gamma_plan_equals_per_call_reference():
    # shapes below 1 (the boost lane) and above, over three blocks, at
    # variate indices that do not start at 0
    shapes = np.resize([0.4, 1.0, 1e-3, 3.0, 150.0, 0.999, 2e6], 2 * _BLOCK + 7)
    j = np.arange(shapes.size) + 5000
    plan = GammaPlan(shapes, j)
    for key in (0, 1, 0x1234_5678_9ABC_DEF0, (1 << 64) - 1):
        assert plan.draw(key).tobytes() == gamma_keyed(key, shapes, j).tobytes()


def test_gamma_plan_equals_reference_after_one_round_and_after_several(monkeypatch):
    # shape 1 has the smallest d, where the squeeze rejects most often; each
    # rejection round draws one Box-Muller batch
    batches = []
    box_muller = betarand._box_muller

    def counted(u1, u2):
        batches[-1] += 1
        return box_muller(u1, u2)

    monkeypatch.setattr(betarand, "_box_muller", counted)
    shapes = np.full(8, 1.0)
    plan = GammaPlan(shapes, np.arange(8))
    # key 30821 draws a variate whose fifth attempt (lanes 13-15) is its first accepted
    for key in (*range(300), 30821):
        batches.append(0)
        draw = plan.draw(key)
        assert draw.tobytes() == gamma_keyed(key, shapes, np.arange(8)).tobytes()
    assert {1, 2, 3} <= set(batches) and batches[-1] == 5


def test_beta_plan_equals_per_call_reference_and_is_read_only():
    p = np.resize([0.5, 2.0, 150.0, 1e6], 1100)
    q = np.resize([1.0, 0.7, 3.0, 80.0, 1e-3], 1100)
    plan = BetaPlan(BetaParams(p, q))
    draws = []
    for key in (3, 0xFEDC_BA98_7654_3210):
        ref = beta01_keyed(key, p, q, np.arange(p.size))
        draws.append(plan.draw(key))
        # the reference clamps into (0, 1); the plan's draw is the unclamped ratio
        assert np.clip(draws[-1], _TINY, _ONE_MINUS).tobytes() == ref.tobytes()
    # q = 1e-3 against p >= 0.5 puts ratios exactly on 1, which the draw keeps
    assert np.max(draws) == 1.0
    # sample_beta01 clamps them, and the swapped shapes' ratios below _TINY, into (0, 1)
    for a, b, end in ((p, q, _ONE_MINUS), (q, p, _TINY)):
        for t in (0, 1):
            z = sample_beta01(BetaParams(a, b), RngStream(31, t))
            ref = beta01_keyed(RngStream(31, t)._call_key(), a, b, np.arange(a.size))
            assert z.tobytes() == ref.tobytes()
            assert end in z
    assert plan.means.tobytes() == beta_mean_pm1(BetaParams(p, q)).tobytes()
    arrays = (plan.means, plan.gamma.d, plan.gamma.c, plan.gamma.jg,
              plan.gamma.small, plan.gamma.inv_small)
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        plan.means[0] = 0.0
    # the plan keeps nothing of the caller's shapes: changing them changes no draw
    p[0], q[1] = 7.0, 9.0
    assert plan.draw(3).tobytes() == draws[0].tobytes()


def test_gamma_shape_beyond_float64_range_is_an_overflow():
    for shape in (np.inf, 2.0 * _MAX_SHAPE, 1e308):
        with pytest.raises(MagnitudeOverflowError):
            gammas(shape, RngStream(0, 0), 1)
    with pytest.raises(MagnitudeOverflowError):
        sample_beta01(shapes(1.0, np.inf, 1), RngStream(0, 0))
    with pytest.raises(ParameterDomainError):
        gammas(np.nan, RngStream(0, 0), 1)


def test_largest_admissible_shapes_draw_finite_values():
    g = gammas(_MAX_SHAPE, RngStream(25, 0), 1000)
    assert np.all(np.isfinite(g)) and np.all(g > 0.0)
    z = sample_beta01(shapes(_MAX_SHAPE, _MAX_SHAPE, 1000), RngStream(26, 0))
    assert np.all((z > 0.0) & (z < 1.0))


def test_gamma_rejects_nonpositive_shape():
    with pytest.raises(ParameterDomainError):
        gammas(0.0, RngStream(0, 0), 1)


def test_beta_params_validation():
    with pytest.raises(ParameterDomainError):
        BetaParams(0.0, 1.0)
    # shape pairs must match: nothing is broadcast
    for p, q in ((np.ones(3), np.ones(4)), (np.ones(3), 1.0), (np.ones((2, 3)), np.ones(6))):
        with pytest.raises(ParameterDomainError):
            BetaParams(p, q)


def test_beta01_draws_have_the_shape_of_p():
    p = np.resize([0.5, 2.0, 150.0], (3, 4))
    z = sample_beta01(BetaParams(p, p + 1.0), RngStream(27, 0))
    assert z.shape == (3, 4)
    flat = sample_beta01(BetaParams(p.ravel(), p.ravel() + 1.0), RngStream(27, 0))
    assert z.tobytes() == flat.tobytes()
    assert sample_beta01(BetaParams(2.0, 3.0), RngStream(27, 0)).shape == ()


def test_beta01_uniform_case():
    z = sample_beta01(shapes(1.0, 1.0, 10**5), RngStream(15, 0))
    # KS against the uniform CDF
    s = np.sort(z)
    i = np.arange(1, s.size + 1)
    ks = np.max(np.maximum(np.abs(s - i / s.size), np.abs(s - (i - 1) / s.size)))
    assert ks < 0.01


def test_beta01_moments():
    z = sample_beta01(shapes(50.0, 80.0, 10**6), RngStream(16, 0))
    assert abs(z.mean() - 50.0 / 130.0) < 0.005
    z = sample_beta01(shapes(2.0, 2.0, 10**6), RngStream(17, 0))
    assert abs(z.var() - 1.0 / 20.0) < 0.005  # p q / ((p+q)^2 (p+q+1))


@pytest.mark.parametrize("p,q", [(0.5, 0.5), (2.0, 5.0), (50.0, 80.0)])
def test_beta01_matches_inverse_cdf_oracle(p, q):
    n = 10**5
    mine = np.sort(sample_beta01(shapes(p, q, n), RngStream(18, int(p * 7 + q))))
    ref = np.sort(inverse_cdf_beta(p, q, np.random.default_rng(2024).uniform(size=n)))
    grid = np.concatenate([mine, ref])
    ks = np.max(np.abs(
        np.searchsorted(mine, grid, side="right") / n
        - np.searchsorted(ref, grid, side="right") / n
    ))
    assert ks < 0.02


def test_beta_pm1_orientation_and_support():
    # the ensemble's variate on (-1, 1) is alpha = 1 - 2 Z, Z the plan's draw
    rng = RngStream(19, 0)
    a = 1.0 - 2.0 * BetaPlan(shapes(5.0, 5.0, 10**5)).draw(rng._call_key())
    assert np.all((a > -1.0) & (a < 1.0))
    assert abs(a.mean()) < 0.01
    # mean is (q - p)/(p + q): the (1 - x) weight exponent pairs with p
    a = 1.0 - 2.0 * BetaPlan(shapes(1.0, 3.0, 10**5)).draw(rng._call_key())
    assert abs(a.mean() - 0.5) < 0.01


def test_beta_mean_pm1_values():
    assert beta_mean_pm1(BetaParams(3.0, 3.0)) == 0.0
    assert beta_mean_pm1(BetaParams(1.0, 3.0)) == 0.5
    assert beta_mean_pm1(BetaParams(2.0, 6.0)) == 0.5


def test_concentration_bound_values():
    # small delta: c -> 0 and the bound approaches its prefactor 4
    assert beta_concentration_bound(BetaParams(1.0, 1.0), 1e-9) == pytest.approx(4.0, abs=1e-6)
    assert beta_concentration_bound(BetaParams(500.0, 500.0), 0.3) == pytest.approx(
        0.1489221938014447, rel=1e-12
    )
    assert beta_concentration_bound(BetaParams(50.0, 80.0), 0.1) == pytest.approx(
        3.758838453739696, rel=1e-12
    )
    with pytest.raises(ParameterDomainError):
        beta_concentration_bound(BetaParams(1.0, 1.0), 0.0)


def test_concentration_exponent_strictly_negative():
    # bound < 4 for every delta > 0 iff the exponent constant is negative
    for delta in (1e-6, 1e-3, 0.1, 1.0, 10.0):
        assert beta_concentration_bound(BetaParams(1.0, 1.0), delta) < 4.0


@pytest.mark.parametrize("p,q", [(5.0, 5.0), (50.0, 80.0), (500.0, 500.0)])
def test_concentration_bound_holds_empirically(p, q):
    n = 10**5
    z = sample_beta01(shapes(p, q, n), RngStream(20, int(p + q)))
    dev = np.abs(z - p / (p + q))
    for delta in (0.1, 0.2, 0.3):
        freq = float(np.mean(dev > delta))
        se = math.sqrt(freq * (1.0 - freq) / n)
        assert freq <= beta_concentration_bound(BetaParams(p, q), delta) + 3.0 * se
