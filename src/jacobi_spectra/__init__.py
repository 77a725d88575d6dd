"""Sampling and asymptotics for beta-Jacobi eigenvalue ensembles.

The package samples ensemble spectra through an O(n) tridiagonal matrix model,
computes the deterministic Jacobi-polynomial root approximations, evaluates
the closed-form limiting spectral densities, and cross-checks the multivariate
F-matrix correspondence at desk scale.
"""

from .betarand import (
    BetaParams,
    RngStream,
    beta_concentration_bound,
    beta_mean_pm1,
    sample_beta01,
    sample_beta_pm1,
    sample_gamma,
    sample_normal,
)
from .ensemble import (
    AlphaVector,
    JacobiParams,
    SymTridiag,
    alpha_shape_params,
    alpha_shapes,
    expected_matrix,
    random_matrix,
    sample_alphas,
)
from .errors import (
    DegenerateSampleError,
    InternalConsistencyError,
    JacobiSpectraError,
    MagnitudeOverflowError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    ParameterDomainError,
)
from .fmatrix import (
    FDims,
    GaussianPair,
    f_eigs_direct,
    f_eigs_tridiag,
    f_esd_pooled,
    f_to_jacobi,
    jacobi_to_f,
    manova_eigs,
    reciprocal_edge_transform,
    sample_gaussian_pair,
    semicircle_transform,
    shifted_semicircle_transform,
    transform_limit_cdf,
)
from .polyroots import (
    JacobiPolyParams,
    first_param_lowering_residual,
    jacobi_eval,
    jacobi_roots_scaled,
    monic_factor,
    pochhammer,
    recurrence_coefficients,
    second_param_lowering_residual,
)
from .spectra import (
    REGIMES,
    ArcsineDensity,
    DensityModel,
    DeviationReport,
    Ecdf,
    EdgeDensity,
    FMatrixDensity,
    GeneralDensity,
    RatioDensity,
    ScalingSequence,
    SemicircleDensity,
    cdf_eval,
    cdf_grid,
    density_eval,
    density_norm,
    deviation_probability_bound,
    deviation_report,
    ecdf_eval,
    general_density_params_at_n,
    ks_distance,
    levy_distance,
    model_cdf,
    monte_carlo_esd,
    ratio_density_support,
    run_trials,
    scale_eigenvalues,
    two_sample_sup_distance,
)
from .trieig import (
    DenseSym,
    Spectrum,
    charpoly_eval,
    cholesky,
    eig_dense_sym,
    eig_generalized_sym,
    eig_tridiag,
    sturm_count,
)
from .verify import DEFAULT_SEED, run_all

__version__ = "0.1.0"
