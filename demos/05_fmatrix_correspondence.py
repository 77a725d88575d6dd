"""The multivariate F-matrix through the tridiagonal back door.

Eigenvalues of (X X^T/n1)(Y Y^T/n2)^{-1} correspond, realization by
realization, to eigenvalues of a beta = 1 Jacobi ensemble under a Moebius
map. That makes F-spectra samplable in O(n) memory without ever forming a
Gaussian matrix. The correspondence is checked exactly on one realization,
then the tridiagonal route is pushed to dimensions (n1 = 2,000,000) far
beyond anything the dense construction could touch.
"""

import time

import numpy as np

from jacobi_spectra import (
    Ecdf,
    FDims,
    RngStream,
    f_eigs_direct,
    f_eigs_tridiag,
    f_esd_pooled,
    f_to_jacobi,
    ks_distance,
    manova_eigs,
    sample_gaussian_pair,
    transform_limit_cdf,
)

# exact same-realization correspondence at toy size
d = FDims(6, 40, 60)
g = sample_gaussian_pair(d, RngStream(3, 0))
lam_f = f_eigs_direct(g).values
mapped = np.sort(f_to_jacobi(lam_f, d))
direct = manova_eigs(g).values
print("one Gaussian realization, n=6, n1=40, n2=60:")
print("  F eigenvalues:        ", np.array2string(lam_f, precision=4))
print("  mapped to Jacobi side:", np.array2string(mapped, precision=4))
print("  symmetric-pencil eigs:", np.array2string(direct, precision=4))
print(f"  max disagreement: {np.max(np.abs(mapped - direct)):.2e}")

# distributional check against the classical limit density
d = FDims(1000, 2000, 3000)
t0 = time.perf_counter()
pool = f_esd_pooled(d, 4, RngStream(5, 0))
ks = ks_distance(Ecdf(pool), transform_limit_cdf("none", d))
print(f"\ntridiagonal route, n=1000, n1=2n, n2=3n, 4 trials "
      f"({time.perf_counter() - t0:.1f}s): KS vs limit = {ks:.4f}")

# dimensions no dense route could reach: n1 = 2e6 columns never materialized
d = FDims(1000, 2_000_000, 100_000)
t0 = time.perf_counter()
vals = f_eigs_tridiag(d, RngStream(7, 0)).values
print(f"\nn=1000, n1=2,000,000, n2=100,000 sampled in "
      f"{time.perf_counter() - t0:.2f}s (a dense X would hold 2e9 entries)")
pool = f_esd_pooled(d, 5, RngStream(9, 0), transform="thm44")
ks = ks_distance(Ecdf(pool), transform_limit_cdf("thm44", d))
print(f"transformed spectrum vs its shifted-semicircle limit: KS = {ks:.4f}")
