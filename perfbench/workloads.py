"""Workload pipelines of the jacobi-spectra benchmark, and the child entry point.

Each workload run composes the same public calls that the CLI commands
``deviation``, ``compare`` and ``fmatrix`` make, with one span around each
call into a layer, and checks every output by invariants and tolerances (never
by output hashes, so a different eigensolver or RNG derivation that is still
correct passes).

Run as a script, this file executes ONE workload run in the interpreter that
starts it (every CLI call pays its own import) and prints one JSON record::

    PYTHONPATH=src python3 perfbench/workloads.py --workload esd_large_n \
        --seed 1 --first-stream 0 --trace 0

The entry point is ``perfbench/run.py``; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time

import numpy as np

from jacobi_spectra import JacobiParams, RngStream
from jacobi_spectra.betarand import BetaParams, beta_mean_pm1
from jacobi_spectra.ensemble import alpha_shapes, expected_matrix, random_matrix, sample_alphas
from jacobi_spectra.fmatrix import (
    FDims,
    jacobi_to_f,
    reciprocal_edge_transform,
    semicircle_transform,
    shifted_semicircle_transform,
    transform_limit_cdf,
)
from jacobi_spectra.polyroots import JacobiPolyParams, jacobi_roots_scaled
from jacobi_spectra.spectra import (
    DeviationReport,
    Ecdf,
    RatioDensity,
    ScalingSequence,
    ks_distance,
    model_cdf,
    scale_eigenvalues,
)
from jacobi_spectra.trieig import eig_tridiag

from spans import UnitRun, check

# Slack per matrix row for sum(eigenvalues) == trace. Observed drift is below
# 1e-14 per row; a lost or misplaced eigenvalue moves the sum by far more.
TRACE_TOL_PER_ROW = 1e-10

# verify's tolerance for a single-regime ESD comparison (C05, C10)
KS_TOL = 0.05

# verify's TRANSFORM_DIMS, copied so that the workload stays fixed when the
# library's tables change: (transform, map, dims, trials, KS tolerance)
FMATRIX_CASES = (
    ("thm42", semicircle_transform, FDims(500, 20_000, 20_000), 10, 0.07),
    ("thm43", reciprocal_edge_transform, FDims(100, 10_000, 200), 20, 0.07),
    ("thm44", shifted_semicircle_transform, FDims(1_000, 2_000_000, 100_000), 10, 0.08),
)


# ---------------------------------------------------------------------------
# output checks


def check_eigs(lam: np.ndarray, n: int, trace: float) -> None:
    """Eigenvalues of a Jacobi-ensemble matrix: finite, ascending, in [-2, 2],
    and summing to the matrix trace."""
    check(lam.size == n and bool(np.all(np.isfinite(lam))), "trieig",
          "eigenvalues missing or not finite")
    check(bool(np.all(np.diff(lam) >= 0.0)), "trieig", "eigenvalues not ascending")
    check(lam[0] >= -2.0 and lam[-1] <= 2.0, "trieig",
          f"eigenvalues outside [-2, 2]: [{lam[0]!r}, {lam[-1]!r}]")
    drift = abs(float(np.sum(lam)) - trace)
    check(drift <= TRACE_TOL_PER_ROW * n, "trieig", f"trace drift {drift!r}")


def check_roots(roots: np.ndarray, p: JacobiParams) -> None:
    """Doubled Jacobi roots: finite, ascending, inside (-2, 2), and summing to
    the trace of ``expected_matrix``, whose spectrum they are."""
    check(roots.size == p.n and bool(np.all(np.isfinite(roots))), "polyroots",
          "roots missing or not finite")
    check(bool(np.all(np.diff(roots) >= 0.0)), "polyroots", "roots not ascending")
    check(roots[0] > -2.0 and roots[-1] < 2.0, "polyroots", "roots outside (-2, 2)")
    drift = abs(float(np.sum(roots)) - float(np.sum(expected_matrix(p).diag)))
    check(drift <= TRACE_TOL_PER_ROW * p.n, "polyroots", f"trace drift {drift!r}")


def counted_cdf(run: UnitRun, cdf):
    """Wrap a CDF callable so the points handed to it are counted."""

    def wrapped(xs):
        run.counts["spectra.cdf_points"] += np.size(xs)
        return cdf(xs)

    return wrapped


# ---------------------------------------------------------------------------
# pipeline stages shared by the workloads


def solve_roots(run: UnitRun, p: JacobiParams) -> np.ndarray:
    """Deterministic roots for the ensemble parameters, as ``deviation`` computes them."""
    with run.span("polyroots", 0):
        roots = jacobi_roots_scaled(
            JacobiPolyParams(p.n, p.a_tilde - 1.0, p.b_tilde - 1.0)
        ).values
    run.counts["polyroots.calls"] += 1
    check_roots(roots, p)
    return roots


def realize(run: UnitRun, op: int, p: JacobiParams):
    """Sample, build and solve one realization on the run's next stream."""
    rng = run.stream()
    with run.span("betarand", op):
        alphas = sample_alphas(p, rng)
    with run.span("ensemble", op):
        m = random_matrix(alphas)
    with run.span("trieig", op):
        lam = eig_tridiag(m).values
    run.counts["betarand.variates"] += 2 * (2 * p.n - 1)
    run.counts["trieig.calls"] += 1
    run.counts["trieig.rows"] += p.n
    run.counts["trieig.rows2"] += p.n * p.n
    check_eigs(lam, p.n, float(np.sum(m.diag)))
    return alphas, lam


def alpha_means(p: JacobiParams) -> np.ndarray:
    """Means of the driving variates, shared by every realization's chain bound."""
    return beta_mean_pm1(BetaParams(*alpha_shapes(p)))


def deviation(p: JacobiParams, alphas, lam, roots, means) -> DeviationReport:
    """``deviation_report``'s statistics for one realization, bound checked."""
    max_dev = float(np.max(np.abs(lam - roots)))
    x_n = float(np.max(np.abs(alphas.alpha - means)))
    chain = 4.0 * math.sqrt(3.0 * x_n) + 6.0 * x_n
    logn = math.log(p.n)
    scaled = max_dev * ((p.a + p.b) / logn) ** 0.25 if logn > 0.0 else math.inf
    check(max_dev <= chain, "trieig", f"max_dev {max_dev!r} above chain bound {chain!r}")
    return DeviationReport(max_dev, x_n, chain, scaled)


def pooled_ks(run: UnitRun, op: int, parts: list, cdf, tol: float) -> np.ndarray:
    """Check the KS distance of the pooled sample against ``cdf`` to be below
    ``tol``; return the sorted pool."""
    with run.span("spectra", op):
        ecdf = Ecdf(np.sort(np.concatenate(parts)))
        ks = ks_distance(ecdf, counted_cdf(run, cdf))
    check(ks < tol, "spectra", f"KS {ks!r} not below {tol}")
    return ecdf.points


# ---------------------------------------------------------------------------
# workloads


def esd_large_n(run: UnitRun, n: int = 3000, realizations: int = 3) -> list:
    """n = 3000, a = b = 3n, beta = 2: roots once, three realizations, each
    checked against the chain bound and KS-tested under C05's doubled scaling.

    Returns each realization's (DeviationReport, scaled eigenvalues), or None
    for one that failed.
    """
    p = JacobiParams(n, 3.0 * n, 3.0 * n, 2.0)
    scaling = ScalingSequence(0.5, 0.5, n)
    cdf = model_cdf(RatioDensity(3.0, 3.0))
    roots = run.operation(0, solve_roots, run, p)
    if roots is None:
        return []
    means = alpha_means(p)

    def trial(op: int):
        alphas, lam = realize(run, op, p)
        report = deviation(p, alphas, lam, roots, means)
        with run.span("spectra", op):
            xi = scale_eigenvalues(lam, scaling, "doubled")
        pooled_ks(run, op, [xi], cdf, KS_TOL)
        return report, xi

    return [run.operation(op, trial, op, trial=True) for op in range(1, realizations + 1)]


def many_small_trials(run: UnitRun, n: int = 50, trials: int = 2000):
    """n = 50, a = b = 3n, beta = 2: shared roots, 2000 realizations with the
    chain-bound check, then one pooled KS test against the plug-in
    ``RatioDensity`` under ``compare``'s automatic (plain, 1, 0) scaling.

    Returns the sorted pooled scaled eigenvalues, or None if the run failed.
    """
    p = JacobiParams(n, 3.0 * n, 3.0 * n, 2.0)
    scaling = ScalingSequence(1.0, 0.0, n)
    roots = run.operation(0, solve_roots, run, p)
    if roots is None:
        return None
    means = alpha_means(p)

    def trial(op: int) -> np.ndarray:
        alphas, lam = realize(run, op, p)
        deviation(p, alphas, lam, roots, means)
        with run.span("spectra", op):
            return scale_eigenvalues(lam, scaling, "plain")

    parts = [run.operation(op, trial, op, trial=True) for op in range(1, trials + 1)]
    parts = [x for x in parts if x is not None]
    if not parts:
        return None
    cdf = model_cdf(RatioDensity(p.a_tilde / n, p.b_tilde / n))
    return run.operation(trials + 1, pooled_ks, run, trials + 1, parts, cdf, KS_TOL)


def f_realization(run: UnitRun, op: int, d: FDims, transform) -> np.ndarray:
    """One F-matrix realization on the tridiagonal route, then the transform."""
    p = d.jacobi_params()
    _, lam = realize(run, op, p)
    with run.span("fmatrix", op):
        raw = jacobi_to_f(lam, d)
        # as f_eigs_tridiag: the map is decreasing, and the clip removes rounding fuzz
        lam_f = np.maximum(raw[::-1], 0.0)
        mapped = np.asarray(transform(lam_f, d), dtype=np.float64)
    run.counts["fmatrix.values"] += lam.size
    check(bool(np.all(np.isfinite(raw)) and np.all(raw >= 0.0)), "fmatrix",
          "F eigenvalues not finite and nonnegative")
    check(bool(np.all(np.isfinite(mapped))), "fmatrix", "transformed values not finite")
    return mapped


def fmatrix_degenerate(run: UnitRun, cases=FMATRIX_CASES) -> dict:
    """verify's three transformed F-matrix instances on the tridiagonal route,
    each pooled over its trials and tested against ``transform_limit_cdf``.

    Returns the sorted pooled transformed eigenvalues per transform (None
    where the pooled KS operation failed).
    """
    op = 0
    pools = {}
    for kind, transform, d, trials, tol in cases:
        parts = []
        for _ in range(trials):
            op += 1
            vals = run.operation(op, f_realization, run, op, d, transform, trial=True)
            if vals is not None:
                parts.append(vals)
        op += 1
        if parts:
            cdf = transform_limit_cdf(kind, d)
            pools[kind] = run.operation(op, pooled_ks, run, op, parts, cdf, tol)
    return pools


WORKLOADS = {
    "esd_large_n": esd_large_n,
    "many_small_trials": many_small_trials,
    "fmatrix_degenerate": fmatrix_degenerate,
}


def run_unit(workload: str, seed: int, first_stream: int, traced: bool) -> dict:
    """Execute one workload run and return its measurements."""
    run = UnitRun(RngStream(seed, 0), first_stream, traced)
    fn = WORKLOADS[workload]
    t0 = time.perf_counter()
    with run.span("bench.unit", 0):
        fn(run)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "trial_s": run.trial_s,
        "attempted": run.attempted,
        "errors": dict(run.errors),
        "counts": dict(run.counts),
        "seeds": run.seeds,
        "spans": run.spans,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first-stream", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    record = run_unit(args.workload, args.seed, args.first_stream, bool(args.trace))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
