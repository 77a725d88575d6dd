"""Sample a beta-Jacobi spectrum and compare it to its deterministic skeleton.

The random tridiagonal model produces all n eigenvalues from 2n-1 beta
variates, so a draw costs O(n) memory. The ascending eigenvalues hug the
roots of a Jacobi polynomial with rescaled parameters; the per-realization
gap is controlled by a simple function of the variates' deviations from
their means.
"""

import numpy as np

from jacobi_spectra import (
    JacobiParams,
    RngStream,
    deviation_report,
    eig_tridiag,
    ensemble_roots,
    random_matrix,
    sample_alphas,
)

n, a, b, beta = 12, 30.0, 20.0, 2.0
params = JacobiParams(n, a, b, beta)
rng = RngStream(2024, 0)

lam = eig_tridiag(random_matrix(sample_alphas(params, rng))).values
roots = ensemble_roots(params)

print(f"beta-Jacobi ensemble  n={n}  a={a}  b={b}  beta={beta}")
print(f"rescaled parameters   a_tilde={params.a_tilde:.3f}  b_tilde={params.b_tilde:.3f}")
print()
print(f"{'eigenvalue':>14s} {'root':>14s} {'gap':>10s}")
for ev, rt in zip(lam, roots):
    print(f"{ev:14.8f} {rt:14.8f} {abs(ev - rt):10.2e}")

rep = deviation_report(params, RngStream(2024, 1))
print()
print(f"max gap over a fresh draw:   {rep.max_dev:.5f}")
print(f"variate deviation statistic: {rep.alpha_max_dev:.5f}")
print(f"guaranteed per-draw bound:   {rep.chain_bound:.5f}  (4 sqrt(3X) + 6X)")
print(f"rate-scaled gap:             {rep.scaled_dev:.5f}  (x ((a+b)/log n)^(1/4))")

# larger weights freeze the spectrum onto the roots
for ab in (20.0, 200.0, 2000.0):
    p = JacobiParams(n, ab, ab, beta)
    gaps = [deviation_report(p, RngStream(7, k)).max_dev for k in range(50)]
    print(f"a = b = {ab:6.0f}: median max gap over 50 draws = {np.median(gaps):.5f}")
