import importlib.util
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from jacobi_spectra import trieig
from jacobi_spectra.betarand import RngStream
from jacobi_spectra.ensemble import (
    JacobiParams,
    SymTridiag,
    expected_matrix,
    random_matrix,
    sample_alphas,
)
from jacobi_spectra.errors import (
    DegenerateSampleError,
    MagnitudeOverflowError,
    NumericalFailureError,
    ParameterDomainError,
    finite_ascending,
)
from jacobi_spectra.fmatrix import FDims
from jacobi_spectra.polyroots import JacobiPolyParams, ensemble_roots, recurrence_coefficients
from jacobi_spectra.trieig import (
    Spectrum,
    _eig_zero_diagonal,
    charpoly_eval,
    eig_generalized_sym,
    eig_tridiag,
)
from oracles import (
    DenseSym,
    NotPositiveDefiniteError,
    cholesky,
    eig_dense_sym,
    eig_pencil,
    norm_inf,
    sturm_count,
)


def _tridiag(diag, off):
    return SymTridiag(np.asarray(diag, float), np.asarray(off, float))


def test_eig_tridiag_diagonal_and_closed_forms():
    s = eig_tridiag(_tridiag([3.0, 3.0, 3.0], [0.0, 0.0]))
    assert s.values == pytest.approx([3.0, 3.0, 3.0], abs=1e-12)
    s = eig_tridiag(_tridiag([0.0, 0.0], [2.0 / np.sqrt(3.0)]))
    assert s.values == pytest.approx([-2 / np.sqrt(3), 2 / np.sqrt(3)], rel=1e-12)
    # free Jacobi matrix: 2 cos(k pi / 6)
    s = eig_tridiag(_tridiag([0.0] * 5, [1.0] * 4))
    expected = np.sort(2.0 * np.cos(np.arange(1, 6) * np.pi / 6.0))
    assert s.values == pytest.approx(expected, abs=1e-12)


def test_eig_tridiag_single_entry():
    t = _tridiag([4.2], [])
    s = eig_tridiag(t)
    assert s.values.tolist() == [4.2]
    s.values[0] = 0.0  # the spectrum does not alias the matrix storage
    assert t.diag[0] == 4.2
    # a sampled 1x1 realization is 2 * alpha_0
    al = sample_alphas(JacobiParams(1, 1.0, 2.0, 2.0), RngStream(7, 9))
    assert eig_tridiag(random_matrix(al)).values.tolist() == [2.0 * al.alpha[0]]


@pytest.mark.parametrize("n", [1, 2, 9])
def test_eig_tridiag_of_strided_or_read_only_storage_equals_a_contiguous_copy(n):
    x = np.random.default_rng(n).standard_normal(2 * n)
    before = x.copy()
    strided = SymTridiag(x[::2], x[1 : 2 * n - 1 : 2])
    contiguous = SymTridiag(strided.diag.copy(), strided.off.copy())
    read_only = SymTridiag(strided.diag.copy(), strided.off.copy())
    read_only.diag.flags.writeable = read_only.off.flags.writeable = False
    assert n == 1 or not strided.diag.flags.c_contiguous  # one entry is contiguous anyway
    expected = eig_tridiag(contiguous).values.tobytes()
    for t in (strided, read_only):
        vals = eig_tridiag(t).values
        assert vals.tobytes() == expected
        assert not np.shares_memory(vals, t.diag) and not np.shares_memory(vals, t.off)
    assert x.tobytes() == before.tobytes()
    assert not read_only.diag.flags.writeable


def test_two_threads_reproduce_the_serial_realizations():
    # dsterf runs without the GIL, so the two solves overlap; each call must
    # own every buffer it writes
    p = JacobiParams(50, 150.0, 150.0, 2.0)
    bases = (RngStream(31, 0), RngStream(31, 1))

    def realize(base: RngStream) -> list[bytes]:
        return [eig_tridiag(random_matrix(sample_alphas(p, base.substream(t)))).values.tobytes()
                for t in range(200)]

    serial = [realize(base) for base in bases]
    threaded = [None, None]
    start = threading.Barrier(2, timeout=60)

    def work(i: int) -> None:
        start.wait()
        threaded[i] = realize(bases[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert threaded == serial


def test_eig_tridiag_nonfinite_entry_raises():
    with pytest.raises(NumericalFailureError):
        eig_tridiag(_tridiag([1.0, np.nan, 3.0], [1.0, 1.0]))
    with pytest.raises(NumericalFailureError):
        eig_tridiag(_tridiag([np.nan], []))
    with pytest.raises(NumericalFailureError):
        eig_tridiag(_tridiag([1.0, np.inf, 3.0], [1.0, 1.0]))


def test_eig_tridiag_scans_its_eigenvalues_once(monkeypatch):
    # Spectrum owns the order and finiteness check; eig_tridiag re-raises its
    # ParameterDomainError as a numerical failure with the message it had
    calls = []

    def counted(xs):
        calls.append(xs.size)
        return finite_ascending(xs)

    monkeypatch.setattr(trieig, "finite_ascending", counted)
    t = _tridiag([1.0, 2.0, 3.0], [0.5, 0.5])
    assert np.array_equal(eig_tridiag(t).values, trieig._dsterf(t.diag, t.off)[0])
    assert calls == [3]
    eig_tridiag(_tridiag(np.zeros(4), [1.0, 0.5, 0.25]))  # the half-size route
    assert calls == [3, 4]
    with pytest.raises(NumericalFailureError, match="^tridiagonal matrix has a NaN or infinite"):
        eig_tridiag(_tridiag([np.nan], []))
    with pytest.raises(ParameterDomainError, match="len\\(diag\\) - 1"):
        SymTridiag(np.zeros(0), np.zeros(0))


def test_sturm_count_matches_spectrum():
    rng = np.random.default_rng(0)
    t = _tridiag(rng.normal(size=9), np.abs(rng.normal(size=8)) + 0.1)
    vals = eig_tridiag(t).values
    xs = np.array([-3.0, -0.5, 0.2, 2.5])
    for x in xs:
        assert sturm_count(t, x) == int(np.sum(vals < x))
    assert list(sturm_count(t, xs)) == [int(np.sum(vals < x)) for x in xs]


def _sampled(p: JacobiParams, stream: int) -> SymTridiag:
    return random_matrix(sample_alphas(p, RngStream(7, stream)))


def _root_matrix(p: JacobiPolyParams) -> SymTridiag:
    diag, off_sq = recurrence_coefficients(p)
    return SymTridiag(diag, np.sqrt(off_sq))


@pytest.mark.parametrize("make", [
    lambda: _sampled(JacobiParams(400, 1200.0, 1200.0, 2.0), 0),
    lambda: _sampled(JacobiParams(400, -0.99, -0.99, 1e-3), 1),
    lambda: _sampled(JacobiParams(400, -0.99, 5.0, 1e4), 2),
    lambda: _sampled(FDims(1_000, 2_000_000, 100_000).jacobi_params(), 3),
    lambda: _root_matrix(JacobiPolyParams(1000, 2999.0, 2999.0)),
    lambda: _root_matrix(JacobiPolyParams(1000, -0.99, -0.99)),
], ids=["ensemble-3n", "tiny-beta", "huge-beta", "thm44", "roots-2999", "roots-0.99"])
def test_eig_tridiag_within_sturm_bracket(make):
    # the k-th eigenvalue v_k (0-based) must satisfy
    # count(v_k - tol) <= k < count(v_k + tol), tol = 1e-13 * ||T||_inf
    t = make()
    vals = eig_tridiag(t).values
    tol = 1e-13 * norm_inf(t)
    k = np.arange(t.n)
    assert np.all(sturm_count(t, vals - tol) <= k)
    assert np.all(k < sturm_count(t, vals + tol))


@pytest.mark.parametrize("n, seed", [(8, 4), (400, 0), (401, 0)])
def test_eig_tridiag_graded_zero_diagonal_within_sturm_bracket(n, seed):
    # off-diagonals spread over e^-20..1: both the half-size route eig_tridiag
    # takes here and the general solver hold the Sturm bracket
    rng = np.random.default_rng(seed)
    t = _tridiag(np.zeros(n), np.exp(-20.0 * rng.random(n - 1)))
    tol = 1e-13 * norm_inf(t)
    k = np.arange(n)
    for vals in (eig_tridiag(t).values, trieig._dsterf(t.diag, t.off)[0]):
        assert np.all(sturm_count(t, vals - tol) <= k)
        assert np.all(k < sturm_count(t, vals + tol))


@pytest.mark.parametrize("n", [1, 2, 7, 400, 401])
def test_eig_tridiag_routes_zero_diagonal_to_half_size_solve(n):
    # the route is read from the matrix: an all-zero diagonal (-0.0 included)
    # gives the half-size route's bytes, one nonzero diagonal entry dsterf's
    rng = np.random.default_rng(n)
    off = np.exp(-20.0 * rng.random(n - 1))
    diag = np.zeros(n)
    diag[::2] = -0.0
    assert np.array_equal(eig_tridiag(_tridiag(diag, off)).values, _eig_zero_diagonal(off))
    diag[n // 2] = 1e-300
    vals = eig_tridiag(_tridiag(diag, off)).values
    assert np.array_equal(vals, trieig._dsterf(diag, off)[0])


def test_mean_matrix_at_equal_exponents_takes_the_half_size_route():
    p = JacobiParams(301, 903.0, 903.0, 2.0)
    vals = eig_tridiag(expected_matrix(p)).values
    assert np.array_equal(vals, -vals[::-1])
    assert vals[150] == 0.0 and not np.signbit(vals[150])
    assert np.max(np.abs(vals - ensemble_roots(p))) <= 2e-15


@pytest.mark.parametrize("off", [[1.0, np.nan, 0.5], [1.0, np.inf, 0.5], [np.inf], [0.5, np.nan],
                                 [np.nan, 1e-12], [0.0, np.nan, 0.0, 0.0]])
def test_eig_zero_diagonal_nonfinite_entry_raises(off):
    # dlasq1 reports info = 0 on all of these, returning NaN or [inf, 0], or
    # finite values for the last two; eig_tridiag sends them to dsterf, which
    # reports info != 0 or a non-finite eigenvalue
    with pytest.raises(NumericalFailureError):
        eig_tridiag(_tridiag(np.zeros(len(off) + 1), off))


def test_eig_matches_charpoly_bisection_oracle():
    # locate charpoly sign changes by exhaustive bisection; n <= 12
    rng = np.random.default_rng(1)
    for n in (2, 5, 12):
        t = _tridiag(rng.normal(size=n), np.abs(rng.normal(size=n - 1)) + 0.05)
        vals = eig_tridiag(t).values
        bound = norm_inf(t) + 1.0
        xs = np.linspace(-bound, bound, 20001)
        fs = charpoly_eval(t, xs)
        roots = []
        for i in np.nonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0)[0]:
            lo, hi = xs[i], xs[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np.sign(charpoly_eval(t, mid)) == np.sign(charpoly_eval(t, lo)):
                    lo = mid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
        assert len(roots) == n
        assert np.max(np.abs(np.array(roots) - vals)) < 1e-9


@pytest.mark.parametrize("values", [[1.0, 3.0, 2.0], [], [[1.0, 2.0], [3.0, 4.0]]],
                         ids=["unsorted", "empty", "2-D"])
def test_spectrum_rejects_unsorted_empty_or_matrix_values(values):
    with pytest.raises(ParameterDomainError):
        Spectrum(np.array(values))


def test_charpoly_values():
    assert charpoly_eval(_tridiag([1.5], []), 4.0) == pytest.approx(2.5)
    assert charpoly_eval(_tridiag([0.0, 0.0], [1.0]), 2.0) == pytest.approx(3.0)
    t = _tridiag([0.0] * 6, [1.0] * 5)
    for v in eig_tridiag(t).values:
        assert abs(charpoly_eval(t, v)) < 1e-8


def test_charpoly_overflow_raises():
    t = _tridiag(np.zeros(400), np.ones(399))
    with pytest.raises(MagnitudeOverflowError):
        charpoly_eval(t, 1e3)


def test_trace_conservation():
    rng = np.random.default_rng(2)
    t = _tridiag(rng.normal(size=50), np.abs(rng.normal(size=49)))
    vals = eig_tridiag(t).values
    assert abs(vals.sum() - t.diag.sum()) < 1e-9 * 50 * norm_inf(t)
    m = rng.normal(size=(40, 40))
    a = DenseSym((m + m.T) / 2.0)
    dv = eig_dense_sym(a).values
    assert dv.sum() == pytest.approx(np.trace(a.a), rel=1e-8)


def test_dense_sym_validation():
    with pytest.raises(ParameterDomainError):
        DenseSym(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ParameterDomainError):
        DenseSym(np.zeros((2, 3)))


def test_eig_dense_examples():
    assert eig_dense_sym(DenseSym(np.eye(5))).values == pytest.approx(np.ones(5))
    assert eig_dense_sym(DenseSym(np.array([[0.0, 1.0], [1.0, 0.0]]))).values == pytest.approx(
        [-1.0, 1.0]
    )
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = DenseSym(q @ np.diag([1.0, 2.0, 3.0]) @ q.T)
    assert eig_dense_sym(a).values == pytest.approx([1.0, 2.0, 3.0], abs=1e-10)


def test_eig_dense_odd_size_and_cap():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(7, 7))
    a = DenseSym((m + m.T) / 2.0)
    assert eig_dense_sym(a).values == pytest.approx(np.linalg.eigvalsh(a.a), abs=1e-10)
    with pytest.raises(ParameterDomainError):
        eig_dense_sym(DenseSym(np.eye(501)))


def test_cholesky():
    assert cholesky(DenseSym(np.eye(4))) == pytest.approx(np.eye(4))
    low = cholesky(DenseSym(np.array([[4.0, 2.0], [2.0, 5.0]])))
    assert low == pytest.approx(np.array([[2.0, 0.0], [1.0, 2.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(DenseSym(np.array([[1.0, 2.0], [2.0, 1.0]])))
    # Wishart matrices with n2 >= n are a.s. positive definite
    rng = RngStream(99, 0)
    for t in range(1000):
        y = rng.normals(6 * 10).reshape(6, 10)
        low = cholesky(DenseSym(y @ y.T))
        assert np.all(np.diag(low) > 0.0)


def test_generalized_eig():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6))
    a = DenseSym((m + m.T) / 2.0)
    b = DenseSym(np.eye(6))
    # A = B and A = 2B
    w = rng.normal(size=(6, 9))
    spd = DenseSym(w @ w.T)
    assert eig_pencil(spd, spd).values == pytest.approx(np.ones(6))
    two = DenseSym(2.0 * spd.a)
    assert eig_pencil(two, spd).values == pytest.approx(2.0 * np.ones(6))
    # diagonal case
    da = DenseSym(np.diag([1.0, 2.0]))
    db = DenseSym(np.diag([4.0, 1.0]))
    assert eig_pencil(da, db).values == pytest.approx([0.25, 2.0])
    # identity B reduces to the standard problem
    assert eig_pencil(a, b).values == pytest.approx(
        eig_dense_sym(a).values, abs=1e-10
    )


def test_lapack_pencil_error_mapping():
    a = np.array([[1.0, 0.5], [0.5, 2.0]])
    # B not positive definite: dsygvd's Cholesky stops at column 2, info = n + 2
    with pytest.raises(DegenerateSampleError, match="info=4"):
        eig_generalized_sym(a, np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(DegenerateSampleError):
        eig_generalized_sym(a, np.zeros((2, 2)))
    # a NaN in A passes the Cholesky of B and gives NaN eigenvalues with info = 0
    with pytest.raises(NumericalFailureError, match="NaN or infinite"):
        eig_generalized_sym(np.array([[1.0, np.nan], [np.nan, 2.0]]), np.eye(2))


@pytest.mark.parametrize("a, b", [
    (np.eye(2), np.eye(3)), (np.ones((2, 3)), np.ones((2, 3))), (np.ones(4), np.ones(4)),
])
def test_pencil_of_mismatched_shapes_is_rejected(a, b):
    with pytest.raises(ParameterDomainError, match="square and of one size"):
        eig_generalized_sym(a, b)


def _python(code: str) -> str:
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_import_runs_no_scipy_package():
    # the LAPACK wrappers come from scipy's extension file, not scipy.linalg
    # and fractions, which only GeneralDensity loads, stays out as well
    out = _python("import sys, jacobi_spectra\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
                  "print('fractions' in sys.modules)")
    assert out == "[]\nFalse\n"


def test_missing_lapack_symbol_raises_import_error_naming_it():
    lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]["name"]
    message = rf"\({re.escape(lapack)}\) does not export scipy_dnosuch_64_"
    with pytest.raises(ImportError, match=message):
        trieig._lapack_routine("dnosuch", 0, 0)


_SCIPY_BYTES = """
import numpy as np
from scipy.linalg import lapack
from jacobi_spectra.betarand import RngStream
from jacobi_spectra.ensemble import JacobiParams, random_matrix, sample_alphas

for n in (50, 3000):
    t = random_matrix(sample_alphas(JacobiParams(n, 3.0 * n, 3.0 * n, 2.0), RngStream(3, n)))
    ref, info = lapack.dsterf(t.diag, t.off)
    assert info == 0
    assert ref.tobytes() == trieig.eig_tridiag(t).values.tobytes()
print(scipy.linalg.eigh(np.array([[2.0, 1.0], [1.0, 2.0]]), eigvals_only=True))
"""


@pytest.mark.parametrize("imports", [
    "import jacobi_spectra.trieig as trieig\nimport scipy.linalg\n",
    "import scipy.linalg\nimport jacobi_spectra.trieig as trieig\n",
], ids=["package-first", "scipy-linalg-first"])
def test_lapack_bytes_equal_scipy_in_either_import_order(imports):
    assert _python(imports + _SCIPY_BYTES) == "[1. 3.]\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_lapack_calls_map_no_scipy_library():
    (root,) = importlib.util.find_spec("scipy").submodule_search_locations
    prefixes = (os.path.join(root, ""), os.path.join(root + ".libs", ""))
    out = _python(f"""
import sys
import numpy as np
from jacobi_spectra.ensemble import SymTridiag
from jacobi_spectra.trieig import eig_generalized_sym, eig_tridiag
eig_tridiag(SymTridiag(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5])))
eig_tridiag(SymTridiag(np.zeros(4), np.array([1.0, 0.5, 0.25])))
eig_generalized_sym(np.array([[1.0, 0.5], [0.5, 2.0]]), np.eye(2))
with open("/proc/self/maps") as f:
    paths = {{p.strip() for line in f for p in line.split(maxsplit=5)[5:]}}
print(sorted(p for p in paths if p.startswith({prefixes!r})))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")
    assert out == "[]\n[]\n"
