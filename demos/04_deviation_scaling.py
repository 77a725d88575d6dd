"""How fast the random spectrum collapses onto the deterministic roots.

The maximal eigenvalue-root gap decays like ((log n)/(a+b))^(1/4) in the
worst case. Two experiments: the per-realization bound 4 sqrt(3X) + 6X is
never violated, and the rate-scaled gap stays bounded while n grows with
a = b = 3n. The exponential tail bound is also evaluated: it is vacuous
(greater than 1) until a + b reaches millions, which is why desk-scale
verification leans on the per-realization chain instead.
"""

import numpy as np

from jacobi_spectra import (
    JacobiParams,
    RngStream,
    deviation_probability_bound,
    deviation_report,
    ensemble_roots,
)

rng = RngStream(42, 0)

print("per-realization bound, n=20, a=b=10, beta=2, 500 draws:")
p = JacobiParams(20, 10.0, 10.0, 2.0)
roots = ensemble_roots(p)
worst_slack = np.inf
for t in range(500):
    r = deviation_report(p, rng.substream(t), roots=roots)
    worst_slack = min(worst_slack, r.chain_bound - r.max_dev)
print(f"  smallest bound slack: {worst_slack:.4f}  (never negative)")

print("\nrate-scaled gap medians, a = b = 3n, beta = 2, 100 draws each:")
base = rng.substream(10_000)
for i, n in enumerate((50, 100, 200, 400)):
    p = JacobiParams(n, 3.0 * n, 3.0 * n, 2.0)
    roots = ensemble_roots(p)
    sub = base.substream(i)
    scaled = [deviation_report(p, sub.substream(t), roots=roots).scaled_dev
              for t in range(100)]
    raw = [s / ((p.a + p.b) / np.log(n)) ** 0.25 for s in scaled]
    print(f"  n={n:4d}: median gap = {np.median(raw):.5f}, "
          f"rate-scaled median = {np.median(scaled):.4f}")

print("\nexponential tail bound at eps = 1 (prefactor 4(2n-1)):")
for ab in (10.0, 1e3, 1e5, 2.5e6, 1e7):
    print(f"  a + b = {2*ab:9.3g}:  bound = {deviation_probability_bound(20, ab, ab, 1.0):.4g}")
