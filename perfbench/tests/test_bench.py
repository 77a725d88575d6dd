"""Tests of the benchmark itself: its composed pipelines must equal the library
routines the CLI runs, byte for byte, and its book-keeping must be exact.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from jacobi_spectra import JacobiParams, RngStream  # noqa: E402
from jacobi_spectra.fmatrix import f_esd_pooled  # noqa: E402
from jacobi_spectra.spectra import ScalingSequence, deviation_report, monte_carlo_esd  # noqa: E402

import workloads  # noqa: E402
from spans import OpFailure, UnitRun, self_times, stream_seed  # noqa: E402

SEED = 0x5EED


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_esd_large_n_matches_deviation_report_and_monte_carlo_esd():
    n, reps = 200, 3
    run = UnitRun(RngStream(SEED, 0), 0, traced=False)
    out = workloads.esd_large_n(run, n=n, realizations=reps)
    assert run.attempted == reps + 1 and not run.errors
    p = JacobiParams(n, 3.0 * n, 3.0 * n, 2.0)
    base = RngStream(SEED, 0)
    for t, (report, _) in enumerate(out):
        ref = deviation_report(p, base.substream(t))
        assert same_bytes(
            [report.max_dev, report.alpha_max_dev, report.chain_bound, report.scaled_dev],
            [ref.max_dev, ref.alpha_max_dev, ref.chain_bound, ref.scaled_dev],
        )
    pooled = np.sort(np.concatenate([xi for _, xi in out]))
    ref = monte_carlo_esd(p, ScalingSequence(0.5, 0.5, n), reps, RngStream(SEED, 0),
                          mode="doubled")
    assert same_bytes(pooled, ref.points)


def test_many_small_trials_matches_monte_carlo_esd():
    n, trials = 50, 20
    run = UnitRun(RngStream(SEED, 0), 0, traced=False)
    pooled = workloads.many_small_trials(run, n=n, trials=trials)
    assert run.attempted == trials + 2 and not run.errors
    p = JacobiParams(n, 3.0 * n, 3.0 * n, 2.0)
    ref = monte_carlo_esd(p, ScalingSequence(1.0, 0.0, n), trials, RngStream(SEED, 0))
    assert same_bytes(pooled, ref.points)


@pytest.mark.parametrize("case", workloads.FMATRIX_CASES, ids=lambda c: c[0])
def test_fmatrix_degenerate_matches_f_esd_pooled(case):
    kind, transform, d, _, tol = case
    trials = 2
    run = UnitRun(RngStream(SEED, 0), 0, traced=False)
    pools = workloads.fmatrix_degenerate(run, cases=[(kind, transform, d, trials, tol)])
    assert run.attempted == trials + 1 and not run.errors
    ref = f_esd_pooled(d, trials, RngStream(SEED, 0), transform=kind)
    assert same_bytes(pools[kind], ref)


def test_stream_seed_is_the_seed_the_stream_draws_from():
    sub = RngStream(SEED, 0).substream(5)
    assert same_bytes(RngStream(stream_seed(sub), 0).uniforms(8), sub.uniforms(8))


def test_consecutive_runs_use_distinct_streams():
    seeds = []
    first = 0
    for _ in range(3):
        run = UnitRun(RngStream(SEED, 0), first, traced=False)
        workloads.many_small_trials(run, n=10, trials=5)
        first += len(run.seeds)
        seeds += run.seeds
    assert len(seeds) == 15 and len(set(seeds)) == 15


def test_self_times_subtract_children():
    spans = [
        ["bench.unit", 0.0, 10.0, -1, 0],
        ["bench.trial", 1.0, 6.0, 0, 1],
        ["trieig", 2.0, 5.0, 1, 1],
        ["spectra", 7.0, 9.0, 0, 2],
    ]
    assert self_times(spans) == {"bench.unit": 3.0, "bench.trial": 2.0,
                                 "trieig": 3.0, "spectra": 2.0}


def test_traced_self_times_account_for_the_run():
    run = UnitRun(RngStream(SEED, 0), 0, traced=True)
    with run.span("bench.unit", 0):
        workloads.many_small_trials(run, n=20, trials=10)
    name, start, end, parent, _ = run.spans[0]
    assert name == "bench.unit" and parent == -1
    selfs = self_times(run.spans)
    assert {"betarand", "ensemble", "trieig", "polyroots", "spectra"} <= set(selfs)
    assert sum(selfs.values()) == pytest.approx(end - start, abs=1e-9)


def test_failure_is_counted_against_its_layer():
    run = UnitRun(RngStream(SEED, 0), 0, traced=False)

    def broken():
        with run.span("trieig", 1):
            raise ZeroDivisionError("boom")

    assert run.operation(1, broken, trial=True) is None
    assert run.operation(2, lambda: 7) == 7
    assert run.attempted == 2 and run.errors == {"trieig": 1} and run.trial_s == []
    with pytest.raises(OpFailure):
        workloads.check(False, "spectra", "KS too large")


def test_run_refuses_to_start_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "esd_large_n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
