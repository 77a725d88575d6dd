"""The numeric input contract: public entry points take real numbers only, and
a spectrum or an ECDF holds only finite values.

Every call below runs with warnings raised as errors, so a complex argument
that numpy truncates to its real part (with a ComplexWarning) fails as well
as one that is accepted silently.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from jacobi_spectra.betarand import (
    BetaParams,
    BetaPlan,
    GammaPlan,
    RngStream,
    beta_concentration_bound,
    beta_mean_pm1,
    sample_beta01,
)
from jacobi_spectra.ensemble import AlphaVector, SymTridiag
from jacobi_spectra.errors import ParameterDomainError, finite_ascending, real_array
from jacobi_spectra.fmatrix import (
    TRANSFORMS,
    FDims,
    f_to_jacobi,
    jacobi_to_f,
    reciprocal_edge_transform,
    semicircle_transform,
    shifted_semicircle_transform,
)
from jacobi_spectra.polyroots import JacobiPolyParams, jacobi_eval
from jacobi_spectra.spectra import (
    Ecdf,
    RatioDensity,
    ScalingSequence,
    cdf_grid,
    density_eval,
    ks_distance,
    model_cdf,
    scale_eigenvalues,
)
from jacobi_spectra.trieig import Spectrum, charpoly_eval, eig_generalized_sym

Z = 0.5 + 1.0j  # a complex number whose real part is a valid input everywhere below
ZS = np.array([0.25, Z])
M = RatioDensity(3.0, 3.0)
D = FDims(10, 40, 60)
T = SymTridiag(np.array([1.0, 2.0]), np.array([0.5]))
NONFINITE = {"nan-inside": [1.0, np.nan, 2.0], "inf": [np.inf], "-inf-first": [-np.inf, 0.0]}

CASES = {
    "SymTridiag": lambda: SymTridiag(np.array([Z, 2.0]), np.array([0.5])),
    "AlphaVector": lambda: AlphaVector(np.array([Z])),
    "Spectrum": lambda: Spectrum(np.array([0.25, Z])),
    "Ecdf": lambda: Ecdf(ZS),
    "cdf_grid": lambda: cdf_grid(M, ZS),
    "model_cdf": lambda: model_cdf(M)(ZS),
    "density_eval": lambda: density_eval(M, Z),
    "jacobi_eval": lambda: jacobi_eval(JacobiPolyParams(3, 0.5, 0.5), Z),
    "charpoly_eval": lambda: charpoly_eval(T, Z),
    "eig_generalized_sym": lambda: eig_generalized_sym(np.eye(2) * Z, np.eye(2)),
    "jacobi_to_f": lambda: jacobi_to_f(ZS, D),
    "f_to_jacobi": lambda: f_to_jacobi(Z, D),
    "semicircle_transform": lambda: semicircle_transform(ZS, D),
    "reciprocal_edge_transform": lambda: reciprocal_edge_transform(ZS, D),
    "shifted_semicircle_transform": lambda: shifted_semicircle_transform(ZS, D),
    "TRANSFORMS-none": lambda: TRANSFORMS["none"][0](ZS, D),
    "thm43-limit-cdf": lambda: TRANSFORMS["thm43"][1](D)(ZS),
    "beta_mean_pm1": lambda: beta_mean_pm1(BetaParams(np.array([Z]), np.array([2.0]))),
    "sample_beta01": lambda: sample_beta01(BetaParams(Z, 2.0), RngStream(1, 0)),
    "BetaPlan": lambda: BetaPlan(BetaParams(np.array([2.0, Z]), np.array([2.0, 3.0]))),
    "GammaPlan": lambda: GammaPlan(np.array([2.0, Z]), np.arange(2)),
    "ks_distance-cdf-output": lambda: ks_distance(Ecdf(np.array([0.25])), lambda x: x + 0j),
    "scale_eigenvalues": lambda: scale_eigenvalues(ZS, ScalingSequence(1.0, 0.0, 2), "plain"),
    "beta_concentration_bound": lambda: beta_concentration_bound(BetaParams(1.0, 1.0), Z),
}
for name, values in NONFINITE.items():
    CASES[f"Spectrum-{name}"] = lambda v=values: Spectrum(np.array(v))
    CASES[f"Ecdf-{name}"] = lambda v=values: Ecdf(np.array(v))


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_non_real_or_nonfinite_input_raises_a_parameter_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterDomainError):
            call()


def test_real_input_is_taken_as_float64():
    x = np.array([1.0, 2.0])
    assert real_array(x) is x
    for real in ([1, 2], np.array([1, 2], dtype=np.int32), np.array([1.0, 2.0], dtype=np.float32),
                 [Fraction(1), 2], np.array([True, False])):
        out = real_array(real)
        assert out.dtype == np.float64 and out.shape == (2,)
    assert real_array(3).shape == ()
    # the values of a real spectrum stay those it was given
    assert Spectrum([0, 1]).values.tolist() == [0.0, 1.0]


def test_spectrum_keeps_its_messages():
    with pytest.raises(ParameterDomainError, match="spectrum must be sorted ascending"):
        Spectrum(np.array([2.0, 1.0]))
    with pytest.raises(ParameterDomainError, match="spectrum must be finite"):
        Spectrum(np.array([2.0, np.nan, 1.0]))


@pytest.mark.parametrize("xs, expected", [
    ([], True), ([1.0], True), ([1.0, 1.0, 2.0], True), ([2.0, 1.0], False),
    ([np.nan], False), ([0.0, np.nan], False), ([np.nan, 0.0], False),
    ([1.0, np.nan, 2.0], False), ([-np.inf, 0.0], False), ([0.0, np.inf], False),
])
def test_finite_ascending(xs, expected):
    assert finite_ascending(np.array(xs, dtype=np.float64)) == expected
