"""The numeric input contract: public entry points take real numbers only,
sizes, seeds and counts are whole numbers, and a spectrum or an ECDF holds
only finite values.

Every call below runs with warnings raised as errors, so a complex argument
that numpy truncates to its real part (with a ComplexWarning) fails as well
as one that is accepted silently.
"""

import dataclasses
import importlib
import math
import pkgutil
import warnings
from fractions import Fraction

import numpy as np
import pytest

import jacobi_spectra
from jacobi_spectra.betarand import (
    BetaParams,
    BetaPlan,
    GammaPlan,
    RngStream,
    beta_concentration_bound,
    beta_mean_pm1,
    sample_beta01,
)
from jacobi_spectra.ensemble import AlphaVector, JacobiParams, SymTridiag
from jacobi_spectra.errors import (
    ParameterDomainError, finite_ascending, real_array, real_number, whole_number,
)
from jacobi_spectra.fmatrix import (
    TRANSFORMS,
    FDims,
    f_to_jacobi,
    jacobi_to_f,
    reciprocal_edge_transform,
    semicircle_transform,
    shifted_semicircle_transform,
)
from jacobi_spectra.polyroots import (
    JacobiPolyParams,
    ensemble_roots,
    first_param_lowering_residual,
    jacobi_eval,
    pochhammer,
    second_param_lowering_residual,
)
from jacobi_spectra.spectra import (
    EdgeDensity,
    Ecdf,
    FMatrixDensity,
    GeneralDensity,
    RatioDensity,
    ScalingSequence,
    SemicircleDensity,
    cdf_grid,
    density_eval,
    deviation_probability_bound,
    ks_distance,
    model_cdf,
    ratio_density_support,
    run_trials,
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

P = JacobiPolyParams(3, 0.5, 0.5)
R = RngStream(1, 0)
# every scalar argument site, as a call taking the value under test
SCALAR_SITES = {
    "JacobiParams-n": lambda v: JacobiParams(v, 1.0, 1.0, 2.0),
    "JacobiParams-a": lambda v: JacobiParams(10, v, 1.0, 2.0),
    "JacobiPolyParams-n": lambda v: JacobiPolyParams(v, 0.5, 0.5),
    "JacobiPolyParams-gamma": lambda v: JacobiPolyParams(3, v, 0.5),
    "FDims": lambda v: FDims(v, 40, 60),
    "ScalingSequence-delta_n": lambda v: ScalingSequence(v, 0.0, 5),
    "ScalingSequence-n": lambda v: ScalingSequence(1.0, 0.0, v),
    "GeneralDensity": lambda v: GeneralDensity(v, 0.0, 1.0, 1.0),
    "RatioDensity": lambda v: RatioDensity(v, 1.0),
    "ratio_density_support": lambda v: ratio_density_support(1.0, v),
    "SemicircleDensity": lambda v: SemicircleDensity(v),
    "EdgeDensity": lambda v: EdgeDensity(v),
    "FMatrixDensity": lambda v: FMatrixDensity(0.5, v),
    "pochhammer-a": lambda v: pochhammer(v, 2),
    "pochhammer-n": lambda v: pochhammer(1.0, v),
    "first_param_lowering_residual": lambda v: first_param_lowering_residual(P, v),
    "second_param_lowering_residual": lambda v: second_param_lowering_residual(P, v),
    "deviation_probability_bound-n": lambda v: deviation_probability_bound(v, 1.0, 1.0, 0.5),
    "deviation_probability_bound-a": lambda v: deviation_probability_bound(10, v, 1.0, 0.5),
    "run_trials": lambda v: run_trials(lambda sub: 0, v, R),
    "RngStream-base_seed": lambda v: RngStream(v),
    "RngStream-stream_id": lambda v: RngStream(5, v),
    "substream": lambda v: R.substream(v),
}
for name, site in SCALAR_SITES.items():
    CASES[f"{name}-complex"] = lambda site=site: site(Z)
    CASES[f"{name}-text"] = lambda site=site: site("1")  # float64 and int() parse text

NAN, INF = math.nan, math.inf
# parameters that must be finite, with the non-finite values they used to take
NONFINITE_PARAMS = {
    "GeneralDensity-a1": (lambda v: GeneralDensity(v, 0.0, 1.0, 1.0), (NAN, INF, -INF)),
    "GeneralDensity-a2": (lambda v: GeneralDensity(0.5, v, 1.0, 1.0), (NAN, INF, -INF)),
    "GeneralDensity-b1": (lambda v: GeneralDensity(0.5, 0.0, v, 1.0), (INF,)),
    "GeneralDensity-b2": (lambda v: GeneralDensity(0.5, 0.0, 1.0, v), (INF,)),
    "RatioDensity-alpha0": (lambda v: RatioDensity(v, 1.0), (NAN, INF)),
    "RatioDensity-beta0": (lambda v: RatioDensity(1.0, v), (NAN, INF)),
    "ratio_density_support-alpha0": (lambda v: ratio_density_support(v, 1.0), (NAN, INF)),
    "ratio_density_support-beta0": (lambda v: ratio_density_support(1.0, v), (NAN, INF)),
    "SemicircleDensity-radius": (lambda v: SemicircleDensity(v), (INF,)),
    "SemicircleDensity-center": (lambda v: SemicircleDensity(1.0, v), (NAN, INF, -INF)),
    "EdgeDensity-beta0": (lambda v: EdgeDensity(v), (NAN, INF)),
    "deviation_probability_bound-a": (
        lambda v: deviation_probability_bound(10, v, 1.0, 0.5), (NAN, INF, -INF)),
    "deviation_probability_bound-b": (
        lambda v: deviation_probability_bound(10, 1.0, v, 0.5), (NAN, INF, -INF)),
    "ScalingSequence-n": (lambda v: ScalingSequence(1.0, 0.0, v), (NAN, INF, -INF)),
}
for name, (site, values) in NONFINITE_PARAMS.items():
    for v in values:
        CASES[f"{name}-{v}"] = lambda site=site, v=v: site(v)

# density_eval at NaN, which read 0
CASES["density_eval-nan"] = lambda: density_eval(M, NAN)
CASES["density_eval-array-nan"] = lambda: density_eval(M, [0.1, NAN])

# whole numbers that were truncated, and out-of-range values that were accepted
CASES.update({
    "RngStream-fractional-seed": lambda: RngStream(5.7),
    "RngStream-fractional-stream_id": lambda: RngStream(5, 2.9),
    "substream-fractional": lambda: R.substream(1.5),
    "run_trials-fractional": lambda: run_trials(lambda sub: 0, 2.5, R),
    "ScalingSequence-negative-n": lambda: ScalingSequence(1, 0, -3),
    "deviation_probability_bound-n0": lambda: deviation_probability_bound(0, 1.0, 1.0, 0.5),
    "GammaPlan-negative-index": lambda: GammaPlan(np.array([2.0]), np.array([-1])),
    "GammaPlan-fractional-index": lambda: GammaPlan(np.array([2.0, 3.0]), np.array([0.5, 1.7])),
})
# an int beyond float64 range, where the float64 cast overflowed
HUGE = 10**400
CASES.update({
    "jacobi_eval-huge": lambda: jacobi_eval(P, HUGE),
    "density_eval-huge": lambda: density_eval(M, [0.1, HUGE]),
    "Spectrum-huge": lambda: Spectrum([0.0, HUGE]),
    "JacobiParams-huge-a": lambda: JacobiParams(5, HUGE, 0, 2),
})


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_non_real_or_nonfinite_input_raises_a_parameter_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterDomainError):
            call()


def test_density_eval_reads_zero_at_infinite_points():
    assert density_eval(M, INF) == 0.0 and density_eval(M, -INF) == 0.0
    assert density_eval(M, [-INF, INF]).tolist() == [0.0, 0.0]


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


def test_scalar_owners_normalise_what_they_accept():
    assert real_number(np.float32(0.5)) == 0.5 and type(real_number(Fraction(1, 2))) is float
    assert whole_number(np.int64(7), "") == 7 and type(whole_number(7.0, "")) is int
    assert whole_number(True, "") == 1
    for bad in (np.array([1.0]), [1.0]):
        with pytest.raises(ParameterDomainError):
            real_number(bad)
    with pytest.raises(ParameterDomainError, match="my message"):
        whole_number(3, "my message", 4)


def test_whole_numbers_keep_their_meaning():
    p = JacobiParams(10.0, 1, 1, 2)
    assert type(p.n) is int and type(p.a) is float
    assert ensemble_roots(p).tobytes() == ensemble_roots(JacobiParams(10, 1, 1, 2)).tobytes()
    assert JacobiPolyParams(3.0, 0.5, 0.5) == P
    # a negative seed still wraps mod 2^64
    assert RngStream(-1).base_seed == (1 << 64) - 1
    assert RngStream(np.int64(-1), np.uint8(3)).uniforms(4).tobytes() == (
        RngStream(2**64 - 1, 3.0).uniforms(4).tobytes()
    )


# DeviationReport is an output type: deviation_report fills it with computed
# statistics, so no caller's number reaches it
OUTPUT_TYPES = {"DeviationReport"}
# one valid instance of every frozen value type with float or int fields
EXAMPLES = {
    "BetaParams": BetaParams(2.0, 3.0),
    "JacobiParams": JacobiParams(10, 1.0, 1.0, 2.0),
    "FDims": D,
    "JacobiPolyParams": P,
    "GeneralDensity": GeneralDensity(0.5, 0.0, 1.0, 1.0),
    "RatioDensity": M,
    "SemicircleDensity": SemicircleDensity(1.0),
    "EdgeDensity": EdgeDensity(1.0),
    "FMatrixDensity": FMatrixDensity(0.5, 0.5),
    "ScalingSequence": ScalingSequence(1.0, 0.0, 2),
}


def _scalar_fields_of_value_types():
    """{type name: its float- or int-annotated fields} over the public modules."""
    found = {}
    for info in pkgutil.iter_modules(jacobi_spectra.__path__):
        if info.name.startswith("_"):  # __main__ runs the CLI
            continue
        module = importlib.import_module(f"jacobi_spectra.{info.name}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__ and cls.__dataclass_params__.frozen
                    and cls.__name__ not in OUTPUT_TYPES):
                continue
            names = [f.name for f in dataclasses.fields(cls)
                     if {"float", "int"} & {t.strip() for t in str(f.type).split("|")}]
            if names:
                found[cls.__name__] = names
    return found


def test_every_scalar_field_of_a_value_type_takes_real_numbers_only():
    found = _scalar_fields_of_value_types()
    # a new value type needs an example here, so that it is checked below
    assert found.keys() == EXAMPLES.keys()
    for name, fields in found.items():
        for field in fields:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ParameterDomainError):
                    dataclasses.replace(EXAMPLES[name], **{field: 1 + 1j})
