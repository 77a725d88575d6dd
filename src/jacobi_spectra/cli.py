"""Command-line frontend.

Subcommands: ``sample``, ``roots``, ``deviation``, ``compare``, ``fmatrix``,
``verify``. All numeric output is serialized with 17 significant digits and a
locale-independent decimal point; JSON payloads carry ``"schema_version": 1``.
``--seed`` (the subcommands that draw, and ``verify``) defaults to the documented
constant 0x4A41434F424921, so every subcommand is reproducible without flags.

Exit codes, all returned by :func:`main`: 0 success, 2 parameter error (a
command line argparse rejects included), 3 I/O failure, 4 numerical failure
(a failed allocation included). ``fmatrix --route direct`` is capped at
n = 500, checked before the Gaussian draw; the library's dense route is not.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .betarand import RngStream
from .ensemble import JacobiParams
from .errors import NumericalFailureError, ParameterDomainError
from .fmatrix import (
    FDims,
    TRANSFORMS,
    f_eigs_direct,
    f_eigs_tridiag,
    sample_gaussian_pair,
    transform_limit_cdf,
)
from .polyroots import ensemble_roots
from .spectra import (
    REGIMES,
    SCALING_MODES,
    Ecdf,
    ScalingSequence,
    density_eval,
    deviation_probability_bound,
    deviation_report,
    ks_distance,
    model_cdf,
    monte_carlo_esd,
    realize,
    run_trials,
)
from .verify import DEFAULT_SEED, run_all

SCHEMA_VERSION = 1
DENSE_SIZE_CAP = 500  # policy cap of fmatrix --route direct


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _jacobi_params(args) -> JacobiParams:
    """Build ensemble parameters; --a-tilde/--b-tilde set a/b to beta*tilde/2 - 1,
    reported against the flag unless finite, > -1 and run at the flag's tilde to 1e-9."""
    ab = {"a": args.a, "b": args.b}
    tildes = {name: t for name, t in (("a", args.a_tilde), ("b", args.b_tilde)) if t is not None}
    for name, tilde in tildes.items():
        ab[name] = w = args.beta * tilde / 2.0 - 1.0
        if not -1.0 < w < np.inf:
            raise ParameterDomainError(
                f"--{name}-tilde {tilde} with --beta {args.beta} gives {name} = "
                f"beta*{name}_tilde/2 - 1 = {w}; it must be finite and > -1")
    p = JacobiParams(args.n, ab["a"], ab["b"], args.beta)
    for name, tilde in tildes.items():
        if abs((run := getattr(p, f"{name}_tilde")) - tilde) > 1e-9 * tilde:
            raise ParameterDomainError(f"--{name}-tilde {tilde} with --beta {args.beta} would run "
                                       f"at {name}_tilde = {run}; give --{name} instead")
    return p


def _write(text: str, out: str | None) -> None:
    text += "" if text.endswith("\n") else "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _rows_payload(header: tuple[str, ...], rows, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        return "\n".join(lines)
    return json.dumps(
        {"schema_version": SCHEMA_VERSION, "columns": list(header),
         "rows": [list(r) for r in rows]},
    )


def _trial_rows(spectra) -> list[tuple[int, int, float]]:
    """(trial, index, value) rows of per-trial spectra."""
    return [(t, i, float(v)) for t, vals in enumerate(spectra) for i, v in enumerate(vals)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    p = _jacobi_params(args)
    spectra = run_trials(lambda sub: realize(p, sub)[1], args.trials, RngStream(args.seed, 0))
    rows = _trial_rows(spectra)
    _write(_rows_payload(("trial", "index", "value"), rows, args.format), args.out)
    return 0


def cmd_roots(args) -> int:
    roots = ensemble_roots(_jacobi_params(args))
    rows = [(i, float(v)) for i, v in enumerate(roots)]
    _write(_rows_payload(("index", "value"), rows, args.format), args.out)
    return 0


def _quantiles(vals) -> dict:
    qs = np.quantile(vals, [0.0, 0.25, 0.5, 0.75, 1.0])
    return {k: float(v) for k, v in zip(("min", "q25", "median", "q75", "max"), qs)}


def cmd_deviation(args) -> int:
    p = _jacobi_params(args)
    rng = RngStream(args.seed, 0)
    reports = run_trials(lambda sub: deviation_report(p, sub), args.trials, rng)
    violations = sum(1 for r in reports if r.max_dev > r.chain_bound)
    median = float(np.median([r.scaled_dev for r in reports]))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "params": {"n": p.n, "a": p.a, "b": p.b, "beta": p.beta},
        "trials": args.trials,
        "max_dev": _quantiles([r.max_dev for r in reports]),
        "alpha_max_dev": _quantiles([r.alpha_max_dev for r in reports]),
        "chain_bound_violations": violations,
        "probability_bound": {
            "eps": args.eps,
            "value": deviation_probability_bound(p.n, p.a, p.b, args.eps),
        },
        # null where the rate is undefined (n = 1 or a + b < 0): JSON has no Infinity
        "scaled_dev_median": median if np.isfinite(median) else None,
    }
    _write(json.dumps(payload), args.out)
    return 0


def _compare_model(args, p: JacobiParams):
    """Regime model with plug-in parameters, plus the requested scaling."""
    model, scaling = REGIMES[args.model](p)
    if args.scaling == "auto":
        return model, "plain", scaling
    mode, *numbers = args.scaling.split(":")
    try:
        delta, eps = map(float, numbers)
    except ValueError:  # not two fields, or not numbers
        mode = None
    if mode not in SCALING_MODES:
        raise ParameterDomainError(
            "--scaling must be 'auto' or '<plain|doubled>:<delta>:<eps>'"
        )
    return model, mode, ScalingSequence(delta, eps, p.n)


def cmd_compare(args) -> int:
    p = _jacobi_params(args)
    model, mode, scaling = _compare_model(args, p)
    if any(v is not None and v < 1 for v in (args.bins, args.grid)):
        raise ParameterDomainError("--bins/--grid must be >= 1")
    if (args.bins or args.grid) and args.out is None:
        raise ParameterDomainError("--bins/--grid emit CSV companions and need --out")
    ecdf = monte_carlo_esd(p, scaling, args.trials, RngStream(args.seed, 0), mode=mode)
    ks = ks_distance(ecdf, model_cdf(model))
    lo, hi = model.support
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": args.model,
        "model_params": {
            k: float(v) for k, v in vars(model).items() if isinstance(v, (int, float))
        },
        "params": {"n": p.n, "a": p.a, "b": p.b, "beta": p.beta},
        "scaling": {"mode": mode, "delta": scaling.delta_n, "eps": scaling.epsilon_n},
        "trials": args.trials,
        "n_pooled": ecdf.n,
        "ks": ks,
        "support": [lo, hi],
    }
    _write(json.dumps(payload), args.out)
    if args.bins:
        counts, edges = np.histogram(ecdf.points, bins=args.bins, range=(lo, hi))
        rows = zip(edges[:-1], edges[1:], counts)
        _write(_rows_payload(("bin_left", "bin_right", "count"), rows, "csv"),
               args.out + ".hist.csv")
    if args.grid:
        # midpoint-spaced grid avoids evaluating at singular support endpoints
        step = (hi - lo) / args.grid
        xs = lo + step * (np.arange(args.grid) + 0.5)
        rows = zip(xs, density_eval(model, xs))
        _write(_rows_payload(("x", "f"), rows, "csv"), args.out + ".density.csv")
    return 0


def cmd_fmatrix(args) -> int:
    d = FDims(args.n, args.n1, args.n2)
    transform = args.transform
    tf = TRANSFORMS[transform][0]
    # the law is checked before the first draw; CSV needs none, so n2 = n still runs
    limit = transform_limit_cdf(transform, d) if args.format == "json" else None

    def spectrum(sub: RngStream) -> np.ndarray:
        if args.route == "direct":
            # checked in the trial, before its draw, so a bad --trials is reported first
            if d.n > DENSE_SIZE_CAP:
                raise ParameterDomainError(
                    f"dense F-matrix route is capped at n = {DENSE_SIZE_CAP}; "
                    "the tridiagonal route is not"
                )
            vals = f_eigs_direct(sample_gaussian_pair(d, sub)).values
        else:
            vals = f_eigs_tridiag(d, sub).values
        return np.sort(tf(vals, d))

    spectra = run_trials(spectrum, args.trials, RngStream(args.seed, 0))

    if args.format == "json":
        pool = Ecdf(np.concatenate(spectra))
        payload = {
            "schema_version": SCHEMA_VERSION,
            "dims": {"n": d.n, "n1": d.n1, "n2": d.n2},
            "route": args.route,
            "transform": transform,
            "trials": args.trials,
            "n_pooled": pool.n,
            "ks_vs_limit": ks_distance(pool, limit),
        }
        _write(json.dumps(payload), args.out)
    else:
        rows = _trial_rows(spectra)
        _write(_rows_payload(("trial", "index", "value"), rows, "csv"), args.out)
    return 0


def cmd_verify(args) -> int:
    report = run_all(seed=args.seed)
    _write(json.dumps({"schema_version": SCHEMA_VERSION, **report}, indent=2), args.out)
    return 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp, *, seed=True, trials=True, ensemble=False, dims=False):
    if seed:
        sp.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED,
                        help="64-bit seed (default 0x4A41434F424921)")
    sp.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    if trials:
        sp.add_argument("--trials", type=int, default=1)
    if ensemble:
        sp.add_argument("--n", type=int, required=True)
        for name in ("a", "b"):
            given = sp.add_mutually_exclusive_group()
            given.add_argument(f"--{name}", type=float, default=0.0)
            given.add_argument(f"--{name}-tilde", dest=f"{name}_tilde", type=float, default=None,
                               help=f"set {name} via {name} = beta*{name}_tilde/2 - 1")
        sp.add_argument("--beta", type=float, default=2.0)
    if dims:
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--n1", type=int, required=True)
        sp.add_argument("--n2", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jacobi-spectra",
        description="beta-Jacobi ensemble sampling, root approximations and "
                    "F-matrix experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="sample ensemble eigenvalues (CSV trial,index,value)")
    _add_common(sp, ensemble=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("roots", help="deterministic root approximations (CSV index,value)")
    _add_common(sp, seed=False, trials=False, ensemble=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=cmd_roots)

    sp = sub.add_parser("deviation", help="deviation statistics and bounds (JSON)")
    _add_common(sp, ensemble=True)
    sp.add_argument("--eps", type=float, default=1.0,
                    help="epsilon in (0,1] for the probability bound")
    sp.set_defaults(fn=cmd_deviation)

    sp = sub.add_parser("compare", help="pooled scaled ESD vs a limit density (JSON)")
    _add_common(sp, ensemble=True)
    sp.add_argument("--model", required=True, choices=tuple(REGIMES))
    sp.add_argument("--scaling", type=str, default="auto",
                    help="'auto' or '<plain|doubled>:<delta>:<eps>'")
    sp.add_argument("--grid", type=int, default=None,
                    help="emit OUT.density.csv with this many midpoint grid rows")
    sp.add_argument("--bins", type=int, default=None,
                    help="emit OUT.hist.csv with this many bins")
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("fmatrix", help="F-matrix spectra (CSV) or summary (JSON)")
    _add_common(sp, dims=True)
    sp.add_argument("--route", choices=("tridiag", "direct"), default="tridiag")
    sp.add_argument("--transform", choices=tuple(TRANSFORMS), default="none")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=cmd_fmatrix)

    sp = sub.add_parser("verify", help="run the full acceptance suite (JSON report)")
    _add_common(sp, trials=False)
    sp.set_defaults(fn=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # argparse: 2 for a rejected command line, 0 after --help
        return exc.code
    except ParameterDomainError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (NumericalFailureError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
