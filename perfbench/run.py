"""Benchmark entry point for jacobi-spectra.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload esd_large_n --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, default seed and length

Each workload run executes in a fresh interpreter (``perfbench/workloads.py``),
as each CLI call does, with BLAS and OpenMP capped at one thread. Runs repeat
until ``--seconds`` have passed. With ``--trace 0`` the last line of standard
output is a JSON object carrying the end-to-end metrics; with ``--trace 1``
runs alternate between traced and untraced and the JSON carries the per-layer
metrics of the traced runs. A readable summary goes to standard error. The
exit code is nonzero if any output check failed, and 2 without a result if
the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"

# the keys of workloads.WORKLOADS; not imported, so this process loads no numerics
WORKLOADS = ("esd_large_n", "many_small_trials", "fmatrix_degenerate")

# One compute thread per process: the load is one process, and a single
# thread keeps timings steady on a shared two-core machine.
THREAD_CAPS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
# set-up probes before each workload run, so that they spread over the run
PROBES_PER_RUN = 3
CHILD_TIMEOUT_S = 150.0
TAIL_PERMILLE = (999, 990, 950, 900)  # p99.9, p99, p95, p90

# per layer: the metric of its self time (seconds per workload run) and the
# counts recorded at its boundary (per workload run)
LAYER_METRICS = {
    "betarand": ("betarand.sample_s", ("betarand.variates",)),
    "ensemble": ("ensemble.build_s", ()),
    "trieig": ("trieig.eig_s", ("trieig.calls", "trieig.rows")),
    "polyroots": ("polyroots.roots_s", ("polyroots.calls",)),
    "spectra": ("spectra.ks_s", ("spectra.cdf_points",)),
    "fmatrix": ("fmatrix.map_s", ("fmatrix.values",)),
}


class BenchError(Exception):
    """The benchmark could not run the program at all."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE), env.get("PYTHONPATH", "")) if p
    )
    env.update(THREAD_CAPS)
    return env


def setup_probe(env: dict) -> float:
    """Wall time of interpreter start plus ``import jacobi_spectra``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import jacobi_spectra"], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import jacobi_spectra failed:\n{proc.stderr}")
    return time.perf_counter() - t0


def run_in_child(env: dict, workload: str, seed: int, first_stream: int, traced: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--first-stream", str(first_stream),
           "--trace", str(int(traced))]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"workload run exited with {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["traced"] = traced
    return rec


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest listed percentile with at least ten
    realizations beyond it, by nearest rank; None if there are too few."""
    ordered = sorted(latencies)
    for permille in TAIL_PERMILLE:
        rank = -(-permille * len(ordered) // 1000)  # ceiling, in exact integers
        if len(ordered) - rank >= 10:
            return permille / 10, ordered[rank - 1]
    return None


def end_to_end(units: list[dict], setup: list[float]) -> dict:
    trials = [t for u in units for t in u["trial_s"]]
    return {
        "wall_s": (statistics.median(u["wall_s"] for u in units), "s"),
        # None when every realization failed; the run is then not correct
        "trial_p50_ms": (1e3 * statistics.median(trials) if trials else None, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(u["peak_rss_mb"] for u in units), "MiB"),
    }


def per_layer(units: list[dict]) -> dict:
    """Per-layer metrics, each the mean over the traced workload runs."""
    traced = [u for u in units if u["traced"]]
    k = len(traced)
    selfs = [self_times(u["spans"]) for u in traced]

    def count(name: str) -> float:
        return sum(u["counts"].get(name, 0) for u in traced) / k

    out = {}
    for layer, (time_name, count_names) in LAYER_METRICS.items():
        out[time_name] = (sum(s.get(layer, 0.0) for s in selfs) / k, "s")
        for name in count_names:
            out[name] = (count(name), "count")
        out[f"{layer}.errors"] = (sum(u["errors"].get(layer, 0) for u in traced) / k, "count")
    rows2 = count("trieig.rows2")
    out["trieig.ns_per_row2"] = (1e9 * out["trieig.eig_s"][0] / rows2 if rows2 else 0.0, "ns")
    points = out["spectra.cdf_points"][0]
    out["spectra.us_per_cdf_point"] = (
        1e6 * out["spectra.ks_s"][0] / points if points else 0.0, "us")
    # span 0 of a traced run is its bench.unit span
    wall = sum(u["spans"][0][2] - u["spans"][0][1] for u in traced) / k
    out["bench.other_s"] = (wall - sum(out[t][0] for t, _ in LAYER_METRICS.values()), "s")
    out["bench.wall_s"] = (wall, "s")
    untraced = [u["wall_s"] for u in units if not u["traced"]]
    out["bench.trace_overhead_s"] = (
        statistics.median(u["wall_s"] for u in traced) - statistics.median(untraced), "s")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    setup: list[float] = []
    units: list[dict] = []
    next_stream = 0
    min_units = 2 if trace else 1  # a traced and an untraced run for the overhead
    start = time.perf_counter()
    while len(units) < min_units or time.perf_counter() - start < seconds:
        if not trace:
            setup += [setup_probe(env) for _ in range(PROBES_PER_RUN)]
        rec = run_in_child(env, workload, seed, next_stream, trace and len(units) % 2 == 0)
        next_stream += len(rec["seeds"])
        units.append(rec)

    seeds = [s for u in units for s in u["seeds"]]
    duplicates = len(seeds) - len(set(seeds))
    if duplicates:
        print(f"{duplicates} RNG stream seeds used twice", file=sys.stderr)
    attempted = sum(u["attempted"] for u in units)
    failed = sum(sum(u["errors"].values()) for u in units) + duplicates
    metrics = per_layer(units) if trace else end_to_end(units, setup)

    trials = [t for u in units for t in u["trial_s"]]
    print(f"[{workload}] seed {seed}: {len(units)} workload runs, {len(trials)} "
          f"realizations, failed_frac {failed / max(attempted, 1):.3g} "
          f"({failed}/{attempted})", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value if value is None else f'{value:.6g}'} {unit}",
              file=sys.stderr)
    if not trace:
        t = tail(trials)
        print("  trial_tail_ms = " + (
            f"{1e3 * t[1]:.6g} ms (p{t[0]:g} of {len(trials)} realizations)" if t
            else f"omitted: {len(trials)} realizations are too few"), file=sys.stderr)
    else:
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"spans-{workload}-seed{seed}.json"
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"],
             "runs": [u["spans"] for u in units if u["traced"]]}))
        print(f"  spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="jacobi-spectra benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SOURCE / "jacobi_spectra" / "__init__.py").is_file():
        print(f"no library sources under {SOURCE}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"[{name}] {exc}", file=sys.stderr)
            return 2
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
