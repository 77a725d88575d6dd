"""How fast the random spectrum collapses onto the deterministic roots.

The maximal eigenvalue-root gap decays like ((log n)/(a+b))^(1/4) in the
worst case. Two experiments: the per-realization bound 4 sqrt(3X) + 6X is
never violated, and the rate-scaled gap stays bounded while n grows with
a = b = 3n. The exponential tail bound is also evaluated: it is vacuous
(greater than 1) until a + b reaches millions, which is why desk-scale
verification leans on the per-realization chain instead.

The second experiment also shows what the rate-scaled gap measures. The
median gap falls with a log-log slope near -3/4, far faster than the
bound's n^(-1/4). The largest gap sits at one of the two edge indices in
about a quarter of the draws, far above the 2/n of a maximum placed at
random, and at a bulk index in the rest. The edge gap scaled by n^(2/3)
(the Jacobi edge scale, Johnstone 2008) and the middle-index gap scaled by
n/sqrt(log n) (the bulk scale, Gustavsson 2005) stay of one size across n.
"""

import math

import numpy as np

from jacobi_spectra import (
    JacobiParams,
    RngStream,
    deviation_probability_bound,
    deviation_report,
    ensemble_roots,
    realize,
)

rng = RngStream(42, 0)

print("per-realization bound, n=20, a=b=10, beta=2, 500 draws:")
p = JacobiParams(20, 10.0, 10.0, 2.0)
worst_slack = np.inf
for t in range(500):
    r = deviation_report(p, rng.substream(t))
    worst_slack = min(worst_slack, r.chain_bound - r.max_dev)
print(f"  smallest bound slack: {worst_slack:.4f}  (never negative)")

print("\nrate-scaled gap medians, a = b = 3n, beta = 2, 100 draws each:")
base = rng.substream(10_000)
ns = (50, 100, 200, 400)
medians = []
for i, n in enumerate(ns):
    p = JacobiParams(n, 3.0 * n, 3.0 * n, 2.0)
    roots = ensemble_roots(p)
    sub = base.substream(i)
    # the draw deviation_report makes, kept whole: |eigenvalue - root| per index
    gaps = np.array([np.abs(realize(p, sub.substream(t))[1] - roots) for t in range(100)])
    raw = gaps.max(axis=1)  # deviation_report's max_dev
    scaled = raw * ((p.a + p.b) / math.log(n)) ** 0.25
    medians.append(np.median(raw))
    at_edge = np.isin(gaps.argmax(axis=1), (0, n - 1)).mean()
    edge = np.median(gaps[:, [0, -1]]) * n ** (2 / 3)
    bulk = np.median(gaps[:, n // 2]) * n / np.sqrt(np.log(n))
    print(f"  n={n:4d}: median gap = {np.median(raw):.5f}, "
          f"rate-scaled median = {np.median(scaled):.4f}")
    print(f"          largest gap at index 0 or n-1 in {at_edge:.0%} of draws "
          f"(2/n = {2 / n:.1%}), at a bulk index in {1 - at_edge:.0%}")
    print(f"          edge gap x n^(2/3) = {edge:.3f}, "
          f"bulk gap x n/sqrt(log n) = {bulk:.3f}")
slope = np.polyfit(np.log(ns), np.log(medians), 1)[0]
print(f"  log-log slope of the median gap: {slope:.3f} "
      "(edge scale -2/3; the bound's rate -1/4)")

print("\nexponential tail bound at eps = 1 (prefactor 4(2n-1)):")
for ab in (10.0, 1e3, 1e5, 2.5e6, 1e7):
    print(f"  a + b = {2*ab:9.3g}:  bound = {deviation_probability_bound(20, ab, ab, 1.0):.4g}")
