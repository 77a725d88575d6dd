"""Sampling and asymptotics for beta-Jacobi eigenvalue ensembles.

The package samples ensemble spectra through an O(n) tridiagonal matrix model,
computes the deterministic Jacobi-polynomial root approximations, evaluates
the closed-form limiting spectral densities, and cross-checks the multivariate
F-matrix correspondence at desk scale.

The package root re-exports the names used by the README quick start and the
demos; everything else is imported from its submodule.
"""

from .betarand import RngStream
from .ensemble import JacobiParams, expected_matrix, random_matrix, sample_alphas
from .errors import (
    DegenerateSampleError,
    JacobiSpectraError,
    MagnitudeOverflowError,
    NumericalFailureError,
    ParameterDomainError,
)
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
    ensemble_roots,
    first_param_lowering_residual,
    jacobi_eval,
    jacobi_roots_scaled,
    monic_factor,
    second_param_lowering_residual,
)
from .spectra import (
    REGIMES,
    Ecdf,
    FMatrixDensity,
    density_eval,
    deviation_probability_bound,
    deviation_report,
    ks_distance,
    model_cdf,
    monte_carlo_esd,
    realize,
)
from .trieig import charpoly_eval, eig_tridiag

__version__ = "0.1.0"
