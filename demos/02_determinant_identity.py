"""Two independent routes to the same deterministic spectrum.

Replacing the variates of the (reversed) random matrix by their means gives a
concrete tridiagonal matrix. Its characteristic polynomial collapses, through
two contiguous-parameter identities, onto a single Jacobi polynomial with both
parameters lowered by one, so its eigenvalues equal the polynomial's roots on
the doubled variable. Here both sides are computed separately and compared.
"""

import numpy as np

from jacobi_spectra import (
    JacobiParams,
    JacobiPolyParams,
    charpoly_eval,
    eig_tridiag,
    expected_matrix,
    first_param_lowering_residual,
    jacobi_eval,
    jacobi_roots_scaled,
    monic_factor,
    second_param_lowering_residual,
)

print("route A: eigenvalues of the mean-entry tridiagonal matrix (the sampler's build at the means)")
print("route B: roots of P_n^(a_tilde-1, b_tilde-1)(x/2) via its recurrence")
print()
worst = 0.0
for n in (1, 2, 4, 8):
    for at, bt in ((0.5, 0.5), (1.0, 3.7), (3.7, 0.5)):
        p = JacobiParams(n, at - 1.0, bt - 1.0, 2.0)
        eig = eig_tridiag(expected_matrix(p)).values
        roots = jacobi_roots_scaled(JacobiPolyParams(n, at - 1.0, bt - 1.0)).values
        gap = np.max(np.abs(eig - roots))
        worst = max(worst, gap)
        print(f"n={n}  (a~,b~)=({at},{bt}):  max |route A - route B| = {gap:.2e}")
print(f"\nworst disagreement: {worst:.2e}")

# the characteristic polynomial itself matches the rescaled Jacobi polynomial
n, at, bt = 6, 2.5, 1.3
p = JacobiParams(n, at - 1.0, bt - 1.0, 2.0)
m = expected_matrix(p)
pp = JacobiPolyParams(n, at - 1.0, bt - 1.0)
print("\ncharacteristic polynomial vs 2^n * monic_factor * P_n(x/2):")
for x in (-1.5, -0.3, 0.8, 1.9):
    lhs = charpoly_eval(m, x)
    rhs = 2.0**n * monic_factor(pp) * jacobi_eval(pp, x / 2.0)
    print(f"  x={x:+.1f}:  {lhs:+.10e}  vs  {rhs:+.10e}")

# the two contiguous relations the collapse relies on, checked numerically
print("\ncontiguous-identity residuals (Abramowitz & Stegun 22.7.18/19):")
gen = np.random.default_rng(0)
r1 = max(
    first_param_lowering_residual(JacobiPolyParams(k, g, d), x)
    for k, g, d, x in zip(
        gen.integers(2, 11, 50),
        gen.uniform(0.1, 5, 50),
        gen.uniform(0.1, 5, 50),
        gen.uniform(-1, 1, 50),
    )
)
r2 = max(
    second_param_lowering_residual(JacobiPolyParams(int(k), g, d), x)
    for k, g, d, x in zip(
        gen.integers(1, 11, 50),
        gen.uniform(0.1, 5, 50),
        gen.uniform(0.1, 5, 50),
        gen.uniform(-1, 1, 50),
    )
)
print(f"  max relative residuals over 50 random points: {r1:.2e}, {r2:.2e}")
