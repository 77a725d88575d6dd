"""Acceptance criteria for the whole artifact, runnable as a release gate.

Each criterion is a check registered in ``CRITERIA`` by ``@criterion``, which
pins its id, description, tolerance and time budget, times the check and
builds its plain-dict record. ``run_all`` (used by the CLI ``verify``
subcommand and by the acceptance test module) executes every criterion at the
documented default seed and collects a JSON-friendly report. Tolerances are
pinned here, not in the callers.

Desk-scale dimension choices for the transformed F-matrix limits (criterion
C11) are instances of parameter sequences satisfying each limit law's
hypotheses; see the README for the sequence families.
"""

from __future__ import annotations

import functools
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
    first_param_lowering_residual,
    jacobi_roots_scaled,
    second_param_lowering_residual,
)
from .spectra import (
    REGIMES,
    Ecdf,
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


CRITERIA = {}


def criterion(cid, description, threshold, budget, comparison="<"):
    """Register a check as ``CRITERIA[cid]``, timed, returning its record.

    The check takes the base stream and returns ``observed`` or
    ``(observed, detail)``. It passes when ``observed <comparison> threshold``
    holds (``"<"`` or ``">="``) and it ran within ``budget`` seconds.
    """
    def register(check):
        @functools.wraps(check)
        def run(rng: RngStream) -> dict:
            t0 = time.perf_counter()
            out = check(rng)
            seconds = time.perf_counter() - t0
            observed, detail = out if isinstance(out, tuple) else (out, None)
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

        CRITERIA[cid] = run
        return run

    return register


@criterion("C01", "determinant identity: eig(mean matrix) vs doubled Jacobi roots", 1e-10, 1.0)
def criterion_01(rng: RngStream) -> float:
    """Spectrum of the mean-entry matrix equals the doubled Jacobi roots."""
    worst = 0.0
    for n in range(1, 9):
        for at in (0.5, 1.0, 3.7):
            for bt in (0.5, 1.0, 3.7):
                p = JacobiParams(n, at - 1.0, bt - 1.0, 2.0)
                ev = eig_tridiag(expected_matrix(p)).values
                roots = jacobi_roots_scaled(JacobiPolyParams(n, at - 1.0, bt - 1.0)).values
                worst = max(worst, float(np.max(np.abs(ev - roots))))
    return worst


@criterion("C02", "contiguous-parameter identities: max relative residual", 1e-9, 1.0)
def criterion_02(rng: RngStream) -> float:
    """Contiguous-parameter identity residuals, relative to the term scale."""
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
    return worst


@criterion("C03", "per-realization bound max_dev <= 4 sqrt(3X) + 6X (1000 trials)", 1, 10.0)
def criterion_03(rng: RngStream) -> int:
    """Per-realization deviation chain bound is never violated."""
    p = JacobiParams(20, 10.0, 10.0, 2.0)
    reports = run_trials(lambda sub: deviation_report(p, sub), 1000, rng.substream(3))
    return sum(r.max_dev > r.chain_bound for r in reports)


@criterion("C04", "deviation scaling proxy: median scaled_dev ratio across n", 3.0, 120.0)
def criterion_04(rng: RngStream) -> tuple[float, dict]:
    """Scaling proxy: medians of max_dev ((a+b)/log n)^(1/4) span a ratio <= 3."""
    medians = {}
    base = rng.substream(4)
    for i, n in enumerate((50, 100, 200, 400)):
        p = JacobiParams(n, 3.0 * n, 3.0 * n, 2.0)
        reports = run_trials(lambda sub: deviation_report(p, sub), 200, base.substream(i))
        medians[n] = float(np.median([r.scaled_dev for r in reports]))
    ratio = max(medians.values()) / min(medians.values())
    return ratio, {"medians": medians}


def _esd_ks(rng, sub_id, p, regime):
    """KS distance of one realization's ESD from its regime's limit density."""
    model, scaling = REGIMES[regime](p)
    e = monte_carlo_esd(p, scaling, 1, rng.substream(sub_id))
    return ks_distance(e, model_cdf(model))


@criterion("C05", "ESD vs ratio-limit density (n=5000, a=b=3n, beta=2)", 0.05, 60.0)
def criterion_05(rng: RngStream) -> float:
    """Single n=5000 realization vs the linear-growth-ratio limit density."""
    n = 5000
    return _esd_ks(rng, 5, JacobiParams(n, 3.0 * n, 3.0 * n, 2.0), "ratio")


@criterion("C06", "ESD vs arcsine law (n=5000, a=b=sqrt(n), beta=2n)", 0.05, 60.0)
def criterion_06(rng: RngStream) -> float:
    """Single n=5000 realization vs the arcsine law (beta growing like 2n)."""
    n = 5000
    return _esd_ks(rng, 6, JacobiParams(n, math.sqrt(n), math.sqrt(n), 2.0 * n), "arcsine")


@criterion("C07", "scaled ESD vs semicircle (n=3000, a=b=n-1, beta=2 n^{-1/4})", 0.06, 60.0)
def criterion_07(rng: RngStream) -> float:
    """Scaled n=3000 realization vs the semicircle of radius sqrt(2)."""
    n = 3000
    return _esd_ks(rng, 7, JacobiParams(n, n - 1.0, n - 1.0, 2.0 * n**-0.25), "semicircle")


@criterion("C08", "general vs ratio density consistency on a support grid", 1e-8, 1.0)
def criterion_08(rng: RngStream) -> float:
    """Four-parameter density at (0, 0, 1/2, 7/16) matches the ratio density."""
    g = GeneralDensity(0.0, 0.0, 0.5, 7.0 / 16.0)
    r = RatioDensity(3.0, 3.0)
    lo, hi = r.support
    xs = np.linspace(lo, hi, 102)[1:-1]
    return float(np.max(np.abs(density_eval(g, xs) - density_eval(r, xs))))


@criterion("C09", "exact same-realization F/Jacobi correspondence (n=6, 50 seeds)", 1e-8, 5.0)
def criterion_09(rng: RngStream) -> float:
    """Same-realization F <-> Jacobi eigenvalue correspondence, 50 seeds."""
    d = FDims(6, 40, 60)

    def gap(sub: RngStream) -> float:
        g = sample_gaussian_pair(d, sub)
        mapped = np.sort(f_to_jacobi(f_eigs_direct(g).values, d))
        return float(np.max(np.abs(mapped - manova_eigs(g).values)))

    return max(run_trials(gap, 50, rng.substream(9)))


@criterion("C10", "F-matrix ESD vs limit density (n=2000, n1=4000, n2=6000)", 0.05, 60.0)
def criterion_10(rng: RngStream) -> float:
    """Tridiagonal-route F ESD vs the classical F-matrix limit density."""
    d = FDims(2000, 4000, 6000)
    pool = f_esd_pooled(d, 1, rng.substream(10))
    return ks_distance(Ecdf(pool), transform_limit_cdf("none", d))


@criterion("C11", "transformed F ESDs vs semicircle / reciprocal-edge / shifted limits",
           0.0, 180.0)
def criterion_11(rng: RngStream) -> tuple[float, dict]:
    """Transformed F ESDs vs their three degenerate-ratio limit laws."""
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
    return worst_margin, detail


@criterion("C12", "beta concentration bound holds empirically on the 9-cell grid", 0.0, 30.0)
def criterion_12(rng: RngStream) -> tuple[float, dict]:
    """Empirical beta concentration never beats the tail bound by > 3 s.e."""
    base = rng.substream(12)
    draws = 10**5
    worst = -math.inf
    detail = {}
    idx = 0
    for (p, q) in ((5.0, 5.0), (50.0, 80.0), (500.0, 500.0)):
        params = BetaParams(p, q)
        z = sample_beta01(BetaParams(np.full(draws, p), np.full(draws, q)), base.substream(idx))
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
    return worst, detail


@criterion("C13", "performance: tridiagonal vs dense route (n=2000, n1=4000, n2=6000)",
           5.0, 120.0, comparison=">=")
def criterion_13(rng: RngStream) -> tuple[float, dict]:
    """Tridiagonal F route is far faster than the dense route, both at n = 2000."""
    d = FDims(2000, 4000, 6000)
    t1 = time.perf_counter()
    f_eigs_tridiag(d, rng.substream(13))
    t_tri = time.perf_counter() - t1
    g = sample_gaussian_pair(d, rng.substream(131))  # drawn outside the timed region
    t2 = time.perf_counter()
    f_eigs_direct(g)
    t_dir = time.perf_counter() - t2
    ratio = t_dir / t_tri
    return ratio, {
        "tridiag_n2000_seconds": round(t_tri, 3),
        "dense_n2000_seconds": round(t_dir, 3),
    }


def run_all(seed: int = DEFAULT_SEED) -> dict:
    """Run the acceptance suite."""
    rng = RngStream(seed, 0)
    records = [fn(rng) for fn in CRITERIA.values()]
    return {
        "seed": seed,
        "all_pass": all(r["passed"] for r in records),
        "criteria": records,
    }
