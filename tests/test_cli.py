import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import roots_hermite

import jacobi_spectra.cli as cli
from jacobi_spectra.betarand import RngStream
from jacobi_spectra.ensemble import JacobiParams, random_matrix, sample_alphas
from jacobi_spectra.fmatrix import TRANSFORMS, FDims, f_eigs_tridiag, semicircle_transform
from jacobi_spectra.spectra import REGIMES
from jacobi_spectra.trieig import eig_tridiag

from golden_cli import run_case


def run_cli(*args):
    """The command line run in-process by golden_cli.run_case, as subprocess.run's text result."""
    record, raw = run_case(list(args))
    return subprocess.CompletedProcess(list(args), record["exit"], raw["stdout"].decode(),
                                       raw["stderr"].decode())


def test_python_m_entry_exits_with_the_code_and_bytes_of_main():
    # the one CLI run in a fresh interpreter: sys.exit(main()) exits with the
    # code main returns and writes the in-process bytes, the drawn ones too
    for args, code in [
        (("sample", "--n", "5", "--trials", "2", "--seed", "7"), 0),
        (("roots", "--n", "3", "--seed", "99"), 2),  # argparse rejects the command line
        (("sample", "--n", "3", "--a", "-1"), 2),  # ParameterDomainError
        (("roots", "--n", "5", "--a", "1.7e308", "--beta", "1e-300"), 4),
    ]:
        r = subprocess.run([sys.executable, "-m", "jacobi_spectra", *args], capture_output=True,
                           text=True, env={**os.environ, "COLUMNS": "80"})
        ref = run_cli(*args)
        assert r.returncode == ref.returncode == code, args
        assert (r.stdout, r.stderr) == (ref.stdout, ref.stderr), args


def test_help_exits_0_with_the_usage_on_stdout():
    r = run_cli("roots", "--help")
    assert r.returncode == 0
    assert r.stdout.startswith("usage: jacobi-spectra roots ")
    assert r.stderr == ""


def test_sample_shape_and_determinism():
    cmd = ["sample", "--n", "5", "--a", "0", "--b", "0", "--beta", "2",
           "--trials", "2", "--seed", "7"]
    r1 = run_cli(*cmd)
    r2 = run_cli(*cmd)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout  # byte-identical
    lines = r1.stdout.strip().splitlines()
    assert lines[0] == "trial,index,value"
    assert len(lines) == 11
    vals = {}
    for line in lines[1:]:
        t, i, v = line.split(",")
        vals.setdefault(int(t), []).append(float(v))
    for t in (0, 1):
        assert vals[t] == sorted(vals[t])
    # 17 significant digits requested
    assert any(len(line.split(",")[2].replace("-", "").replace(".", "")) >= 15
               for line in lines[1:])


def _values_by_trial(stdout: str) -> dict[int, np.ndarray]:
    """CSV (trial, index, value) rows parsed back into one array per trial."""
    vals = {}
    for line in stdout.strip().splitlines()[1:]:
        t, _, v = line.split(",")
        vals.setdefault(int(t), []).append(float(v))
    return {t: np.array(v) for t, v in vals.items()}


def test_cli_trial_t_is_library_trial_t():
    # 17 significant digits round-trip, so the rows equal the library bytes
    seed, base = 11, RngStream(11, 0)
    r = run_cli("sample", "--n", "6", "--a", "2", "--b", "5", "--beta", "2",
                "--trials", "3", "--seed", str(seed))
    assert r.returncode == 0
    got = _values_by_trial(r.stdout)
    p = JacobiParams(6, 2.0, 5.0, 2.0)
    for t in range(3):
        ref = eig_tridiag(random_matrix(sample_alphas(p, base.substream(t)))).values
        assert got[t].tobytes() == ref.tobytes()
    r = run_cli("fmatrix", "--n", "6", "--n1", "20", "--n2", "30", "--trials", "3",
                "--seed", str(seed))
    assert r.returncode == 0
    got = _values_by_trial(r.stdout)
    d = FDims(6, 20, 30)
    for t in range(3):
        ref = np.sort(f_eigs_tridiag(d, base.substream(t)).values)
        assert got[t].tobytes() == ref.tobytes()


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ("sample", "--n", "5"),
    ("deviation", "--n", "5"),
    ("compare", "--n", "10", "--a", "30", "--b", "30", "--model", "ratio"),
    ("fmatrix", "--n", "5", "--n1", "10", "--n2", "10"),
], ids=lambda c: c[0])
def test_nonpositive_trials_exit_2(command, trials):
    r = run_cli(*command, "--trials", trials)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "parameter error: need trials >= 1\n"


HUGE = "1" + "0" * 400  # a size no float64 holds


@pytest.mark.parametrize("command", [
    ("sample", "--n", HUGE),
    ("roots", "--n", HUGE),
    ("fmatrix", "--n", HUGE, "--n1", HUGE, "--n2", HUGE),
], ids=lambda c: c[0])
def test_size_beyond_float_range_exits_2(command):
    r = run_cli(*command)
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("parameter error: ")


def test_sample_parameter_error_names_constraint():
    r = run_cli("sample", "--n", "3", "--a", "-1", "--b", "0", "--beta", "2")
    assert r.returncode == 2
    assert "a > -1" in r.stderr


@pytest.mark.parametrize(
    "params, code, message",
    [
        (("--a", "inf", "--b", "0", "--beta", "2"), 2, "finite and satisfy a > -1"),
        (("--a", "0", "--b", "0", "--beta", "inf"), 2, "finite and satisfy beta > 0"),
        (("--a", "1e308", "--b", "1e308", "--beta", "2"), 4, "overflowed float64"),
        # beta a_tilde/2 - 1 rounds to -1: the error names the flag, not an unpassed --a
        (("--a-tilde", "1e-20", "--beta", "1"), 2, "--a-tilde 1e-20 with --beta 1.0 gives a ="),
        (("--b-tilde", "inf"), 2, "--b-tilde inf with --beta 2.0 gives b ="),
        # a = beta a_tilde/2 - 1 keeps too few digits of a_tilde to run at it
        (("--a-tilde", "0.3", "--beta", "1e-12"), 2,
         "--a-tilde 0.3 with --beta 1e-12 would run at a_tilde = 0.2999822612537173; give --a"),
        (("--b-tilde", "1", "--beta", "1e-9"), 2,
         "--b-tilde 1.0 with --beta 1e-09 would run at b_tilde = 1.000000082740371; give --b"),
    ],
)
def test_sample_nonfinite_or_overflowing_params_exit_cleanly(params, code, message):
    r = run_cli("sample", "--n", "5", *params)
    assert r.returncode == code
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert message in r.stderr
    assert "Warning" not in r.stderr


def test_roots_closed_form_and_symmetry():
    r = run_cli("roots", "--n", "2", "--a-tilde", "1", "--b-tilde", "1", "--beta", "2")
    assert r.returncode == 0
    rows = [line.split(",") for line in r.stdout.strip().splitlines()[1:]]
    vals = [float(v) for _, v in rows]
    assert vals == pytest.approx([-2 / np.sqrt(3), 2 / np.sqrt(3)])
    r = run_cli("roots", "--n", "7", "--a", "3", "--b", "3", "--beta", "2")
    vals = [float(line.split(",")[1]) for line in r.stdout.strip().splitlines()[1:]]
    assert vals == pytest.approx([-v for v in vals[::-1]], abs=1e-12)


@pytest.mark.parametrize(
    "a, b, beta, code",
    [("1e100", "1e100", "2", 0), ("1e150", "1e150", "2", 0), ("1e200", "1e200", "2", 0),
     ("1e308", "1e308", "2", 0), ("1.7e308", "1.7e308", "2", 0), ("1.7e308", "0", "1e-300", 4)],
)
def test_roots_overflow_exits_4_without_traceback(a, b, beta, code):
    r = run_cli("roots", "--n", "5", "--a", a, "--b", b, "--beta", beta)
    assert r.returncode == code
    assert "Traceback" not in r.stderr
    assert "RuntimeWarning" not in r.stderr
    if code:
        # a_tilde = (2a + 2)/beta is infinite at a = 1.7e308, beta = 1e-300;
        # at a = b = 1e308 only a_tilde + b_tilde overflows, and the
        # recurrence takes its ratios at a smaller exact scale
        assert "recurrence coefficients overflowed float64" in r.stderr
    else:
        # a_tilde = b_tilde = a -> infinity: the doubled roots tend to
        # 2 h_k / sqrt(a_tilde), h_k the Hermite roots
        vals = np.array([float(line.split(",")[1])
                         for line in r.stdout.strip().splitlines()[1:]])
        expected = 2.0 * np.sort(roots_hermite(5)[0]) / np.sqrt(float(a))
        assert np.max(np.abs(vals - expected)) < 1e-8 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "args, code",
    [
        ("compare --model ratio --n 20 --a 1e306 --b 1e306 --beta 2", 4),
        ("compare --model semicircle --n 20 --a 1e300 --b -0.9999999 --beta 2", 4),
        ("compare --model ratio --n 20 --a 3 --b 3 --beta 2 --scaling plain:1e300:1e300", 0),
        ("roots --n 5 --a 5e307 --b 5e307 --beta 1", 0),
        ("roots --n 5 --a 1e308 --beta 2", 0),
        # beta0 = 5e198: the edge-law support is one float wide
        ("compare --model edge --n 20 --a 3 --b 1e200 --trials 2", 4),
        # radius 8e-300: its square underflows, so the weight 2/(pi r^2) is inf
        ("compare --model semicircle --n 20 --a 1 --b 1e300 --beta 2", 4),
        # the ratio-law support rounds to the one point 2/3
        ("compare --model ratio --n 20 --a 5e35 --b 1e36 --beta 2", 4),
    ],
)
def test_huge_parameters_exit_without_traceback_or_warning(args, code):
    # a float ** that overflows raises OverflowError where * gives inf; the
    # ratio support and the semicircle radius report it as exit 4, as does a
    # limit law whose support or weight leaves float64; a run that exits 0
    # writes nothing to stderr
    r = run_cli(*args.split())
    assert r.returncode == code
    assert "Traceback" not in r.stderr
    assert "RuntimeWarning" not in r.stderr
    if code:
        assert "overflowed float64" in r.stderr
    else:
        assert r.stderr == ""


def test_roots_at_underflowed_rescaled_parameters_exit_4_naming_the_underflow():
    r = run_cli("roots", "--n", "3", "--a", "-0.9999999999999999",
                "--b", "-0.9999999999999999", "--beta", "1.7e308")
    assert r.returncode == 4
    assert r.stderr.startswith("numerical failure:") and "both underflowed" in r.stderr
    assert "overflow" not in r.stderr and "Traceback" not in r.stderr


def test_fmatrix_eigenvalue_on_the_pole_exits_4():
    # n2 = n with n1 >> n: a sampled Jacobi eigenvalue rounds onto -2, a
    # numerical failure rather than the user's parameter error
    r = run_cli("fmatrix", "--n", "20", "--n1", "1000000000000000", "--n2", "20",
                "--trials", "3")
    assert r.returncode == 4
    assert r.stderr.startswith("numerical failure:") and "pole at -2" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("a", ["1", "120"])
def test_equivalent_scalings_give_one_pool_and_no_stderr(a):
    # doubled:0.5:0.5 applies shift 0 and scale 1, as plain:1:0 does: the same pool
    runs = [run_cli("compare", "--n", "40", "--a", a, "--b", a, "--model", "ratio",
                    "--trials", "2", "--scaling", scaling)
            for scaling in ("doubled:0.5:0.5", "plain:1:0")]
    assert [r.returncode for r in runs] == [0, 0]
    assert [r.stderr for r in runs] == ["", ""]
    assert json.loads(runs[0].stdout)["ks"] == json.loads(runs[1].stdout)["ks"]


@pytest.mark.parametrize(
    "args",
    [
        # runs that match their law (KS 0.0041, 0.0034) though the bound's
        # scale^4 (a + b)/log n reads 0.0906 and 4.8e-36, and two at n beta = 2
        # and 10 whose KS (0.107, 0.036) differ 3x where it reads 0.377 twice
        "--model semicircle --a 2e6 --b 1e6 --beta 2",
        "--model edge --a 1e15 --b 100 --beta 2",
        "--model ratio --a 1 --b 1 --beta 0.01",
        "--model ratio --a 1 --b 1 --beta 0.05",
        # a = b = 0, where that ratio is exactly 0
        "--model arcsine",
    ],
)
def test_successful_compare_writes_nothing_to_stderr(args):
    r = run_cli("compare", "--n", "200", "--trials", "20", *args.split())
    assert r.returncode == 0
    assert json.loads(r.stdout)["n_pooled"] == 4000
    assert r.stderr == ""


@pytest.mark.parametrize(
    "scaling, code, message",
    [
        ("plain:1:nan", 2, "a finite epsilon_n"),
        ("plain:inf:0", 2, "a finite delta_n > 0"),
        ("plain:nan:0", 2, "a finite delta_n > 0"),
        ("doubled:1e-320:0", 4, "overflowed float64"),
        ("plain:abc:0", 2, "--scaling must be"),
    ],
)
def test_compare_nonfinite_scaling_exits_without_traceback(scaling, code, message):
    r = run_cli("compare", "--n", "20", "--a", "60", "--b", "60", "--model", "ratio",
                "--scaling", scaling)
    assert r.returncode == code
    assert r.stdout == ""
    assert message in r.stderr
    assert "Traceback" not in r.stderr
    assert "RuntimeWarning" not in r.stderr


def test_deviation_summary():
    r = run_cli("deviation", "--n", "20", "--a", "10", "--b", "10", "--beta", "2",
                "--trials", "100", "--eps", "1")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["schema_version"] == 1
    assert payload["chain_bound_violations"] == 0
    from jacobi_spectra.spectra import deviation_probability_bound

    assert payload["probability_bound"]["value"] == pytest.approx(
        deviation_probability_bound(20, 10.0, 10.0, 1.0)
    )
    assert np.isfinite(payload["scaled_dev_median"])


def test_deviation_at_large_beta_reads_the_fluctuation_not_a_root_error():
    # at beta = 1e16 the eigenvalues sit about beta^-1/2 from the roots; a
    # root route that loses a_tilde = 12/beta reads 0.014 in every trial
    r = run_cli("deviation", "--n", "30", "--a", "5", "--b", "3", "--beta", "1e16",
                "--trials", "20")
    assert r.returncode == 0, r.stderr
    assert 1e-9 <= json.loads(r.stdout)["max_dev"]["median"] <= 1e-8


def _reject(constant):
    raise ValueError(f"{constant} is not a JSON value")


@pytest.mark.parametrize("params", [("--n", "1"), ("--n", "5", "--a", "-0.5", "--b", "-0.5")])
def test_deviation_undefined_rate_writes_null(params):
    # ((a + b)/log n)^(1/4) is undefined at n = 1 and for a + b < 0
    r = run_cli("deviation", *params, "--trials", "3")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout, parse_constant=_reject)
    assert payload["scaled_dev_median"] is None
    assert np.isfinite(payload["max_dev"]["median"])


def test_compare_emits_summary_and_csv(tmp_path):
    out = tmp_path / "cmp.json"
    r = run_cli("compare", "--model", "ratio", "--n", "300", "--a", "900", "--b", "900",
                "--beta", "2", "--trials", "2", "--grid", "512", "--bins", "40",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    payload = json.loads(out.read_text())
    assert payload["ks"] < 0.08
    assert payload["n_pooled"] == 600
    lo, hi = payload["support"]
    # histogram companion
    hist = (tmp_path / "cmp.json.hist.csv").read_text().strip().splitlines()
    assert hist[0] == "bin_left,bin_right,count"
    counts = [int(line.split(",")[2]) for line in hist[1:]]
    assert len(counts) == 40
    # density grid companion integrates to ~1 by trapezoid
    dens = (tmp_path / "cmp.json.density.csv").read_text().strip().splitlines()
    assert dens[0] == "x,f"
    xs, fs = np.array([[float(a) for a in line.split(",")] for line in dens[1:]]).T
    assert len(xs) == 512
    assert abs(np.trapezoid(fs, xs) - 1.0) < 1e-3
    assert lo < xs[0] < xs[-1] < hi


def test_compare_rejects_csv_without_out():
    r = run_cli("compare", "--model", "arcsine", "--n", "50", "--a", "7", "--b", "7",
                "--beta", "100", "--trials", "1", "--grid", "64")
    assert r.returncode == 2


@pytest.mark.parametrize("flag", ["--bins", "--grid"])
@pytest.mark.parametrize("value", ["-3", "0"])
def test_compare_nonpositive_bins_or_grid_exit_2(tmp_path, flag, value):
    out = tmp_path / "cmp.json"
    r = run_cli("compare", "--model", "ratio", "--n", "10", "--a", "30", "--b", "30",
                flag, value, "--out", str(out))
    assert r.returncode == 2
    assert r.stderr == "parameter error: --bins/--grid must be >= 1\n"
    assert list(tmp_path.iterdir()) == []


def test_compare_arcsine_defaults():
    # small-n version of the figure-reproduction run with beta growing like 2n
    r = run_cli("compare", "--model", "arcsine", "--n", "1000", "--a", "31.6",
                "--b", "31.6", "--beta", "2000", "--trials", "1")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["ks"] < 0.05


def test_compare_semicircle_far_beyond_one_over_eps():
    # a + b = 1.5e20: the odd variates' complements 1 + alpha are about 1e-20,
    # below the float64 spacing near -1, and read KS 0.465 when formed as 1 + alpha
    r = run_cli("compare", "--model", "semicircle", "--n", "200", "--beta", "2",
                "--trials", "20", "--a", "1e20", "--b", "5e19")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["ks"] < 0.01


def test_output_path_failure_exits_3(tmp_path):
    r = run_cli("roots", "--n", "2", "--a", "0", "--b", "0", "--beta", "2",
                "--out", str(tmp_path / "missing" / "roots.csv"))
    assert r.returncode == 3


def test_fmatrix_routes_and_transform_plumbing():
    common = ["--n", "30", "--n1", "90", "--n2", "120", "--trials", "2", "--seed", "5"]
    plain = run_cli("fmatrix", *common, "--route", "tridiag", "--transform", "none")
    moved = run_cli("fmatrix", *common, "--route", "tridiag", "--transform", "thm42")
    assert plain.returncode == 0 and moved.returncode == 0
    d = FDims(30, 90, 120)

    def parse(out):
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        return np.array([float(v) for _, _, v in rows])

    lam = parse(plain.stdout)
    mu = parse(moved.stdout)
    # same seed => same underlying spectra; transform applied pointwise
    by_trial = lam.reshape(2, 30)
    expected = np.sort(semicircle_transform(by_trial, d), axis=1).ravel()
    assert mu == pytest.approx(expected, rel=1e-12)


def test_fmatrix_direct_refuses_large_n():
    r = run_cli("fmatrix", "--n", "501", "--n1", "600", "--n2", "700",
                "--route", "direct")
    assert r.returncode == 2


def test_fmatrix_direct_cap_is_checked_before_the_draw(monkeypatch):
    def no_draw(d, rng):
        raise AssertionError("the Gaussian pair was drawn before the cap check")

    monkeypatch.setattr(cli, "sample_gaussian_pair", no_draw)
    r = run_cli("fmatrix", "--n", "501", "--n1", "600", "--n2", "700", "--route", "direct")
    assert r.returncode == 2
    assert r.stderr == (
        "parameter error: dense F-matrix route is capped at n = 500; "
        "the tridiagonal route is not\n"
    )


NO_LAW_AT_N2_EQUAL_TO_N = {
    "none": "aspect ratio must satisfy yprime in (0, 1)",
    "thm43": "growth ratio must be finite and satisfy beta0 > 0",
}


@pytest.mark.parametrize("route, transform", [
    ("tridiag", "none"), ("direct", "none"), ("tridiag", "thm43"), ("direct", "thm43"),
], ids=["tridiag", "direct", "thm43-tridiag", "thm43-direct"])
def test_fmatrix_json_limit_law_is_checked_before_the_draw(monkeypatch, route, transform):
    # n2 = n has no limit law (yprime = 1, beta0 = 0), so JSON stops before any realization
    def no_draw(*args):
        raise AssertionError("a realization was drawn before the limit-law check")

    monkeypatch.setattr(cli, "f_eigs_tridiag", no_draw)
    monkeypatch.setattr(cli, "sample_gaussian_pair", no_draw)
    r = run_cli("fmatrix", "--n", "1000", "--n1", "1200", "--n2", "1000", "--trials", "20",
                "--format", "json", "--route", route, "--transform", transform)
    assert r.returncode == 2
    assert r.stderr == f"parameter error: {NO_LAW_AT_N2_EQUAL_TO_N[transform]}\n"


def test_fmatrix_csv_at_n2_equal_to_n_needs_no_limit_law():
    r = run_cli("fmatrix", "--n", "5", "--n1", "10", "--n2", "5", "--trials", "2",
                "--format", "csv", "--transform", "thm43")
    assert r.returncode == 0 and r.stderr == ""
    assert len(r.stdout.splitlines()) == 1 + 2 * 5


def test_allocation_failure_exits_4_with_one_line(monkeypatch):
    # the draw is stubbed: a real oversized allocation would fill a large host
    def oversized(d, rng):
        raise MemoryError("Unable to allocate 14.9 GiB for an array")

    monkeypatch.setattr(cli, "sample_gaussian_pair", oversized)
    r = run_cli("fmatrix", "--n", "500", "--n1", "4000000", "--n2", "4000000",
                "--route", "direct")
    assert r.returncode == 4
    assert r.stderr == (
        "numerical failure: Unable to allocate 14.9 GiB for an array\n"
    )


def test_fmatrix_json_summary():
    r = run_cli("fmatrix", "--n", "40", "--n1", "120", "--n2", "160",
                "--trials", "3", "--format", "json")
    payload = json.loads(r.stdout)
    assert payload["schema_version"] == 1
    assert payload["n_pooled"] == 120
    assert 0.0 <= payload["ks_vs_limit"] <= 1.0


def test_verify_exit_code_tracks_report(monkeypatch):
    fake = {"seed": 1, "all_pass": True, "criteria": [{"id": "C01", "passed": True}]}
    monkeypatch.setattr(cli, "run_all", lambda seed: fake)
    r = run_cli("verify")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert list(payload) == ["schema_version", "seed", "all_pass", "criteria"]
    assert payload["schema_version"] == 1
    fake["all_pass"] = False
    r = run_cli("verify")
    assert r.returncode == 1
    assert '"C01"' in r.stdout


@pytest.mark.parametrize("command", [
    ("roots", "--n", "3", "--seed", "99"),  # roots draws nothing
    ("roots", "--n", "3", "--a", "7", "--a-tilde", "2"),
    ("sample", "--n", "3", "--b", "1", "--b-tilde", "2"),
], ids=" ".join)
def test_inert_or_conflicting_flags_exit_2(command):
    r = run_cli(*command)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error: " in r.stderr


def test_every_drawing_subcommand_takes_a_seed():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    seeded = [c for c, sp in sub.choices.items() if any(a.dest == "seed" for a in sp._actions)]
    assert seeded == ["sample", "deviation", "compare", "fmatrix", "verify"]


def _choices(command, dest):
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return next(a for a in sub.choices[command]._actions if a.dest == dest).choices


def test_model_and_transform_choices_are_the_table_keys():
    assert tuple(_choices("compare", "model")) == tuple(REGIMES)
    assert tuple(_choices("fmatrix", "transform")) == tuple(TRANSFORMS)


def test_internal_index_error_is_not_a_parameter_error(monkeypatch):
    # an indexing bug inside a subcommand must surface as a traceback,
    # not as exit code 2 blamed on the user's parameters
    def broken(args):
        raise IndexError("internal indexing bug")

    monkeypatch.setattr(cli, "cmd_roots", broken)
    with pytest.raises(IndexError):
        cli.main(["roots", "--n", "3"])
