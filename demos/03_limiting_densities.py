"""Empirical spectral distributions against their closed-form limits.

Three parameter regimes, three limit laws: weights growing linearly with n
give a ratio-dependent density, a diverging repulsion exponent freezes the
spectrum onto the arcsine law, and a vanishing exponent with linear weights
produces a semicircle after rescaling. Histogram and density-grid CSVs land
in demo_out/ for plotting with any external tool.
"""

import math
import os

import numpy as np

from jacobi_spectra import (
    REGIMES,
    JacobiParams,
    RngStream,
    density_eval,
    ks_distance,
    model_cdf,
    monte_carlo_esd,
)

OUT = os.path.join(os.path.dirname(__file__), "demo_out")
os.makedirs(OUT, exist_ok=True)
n = 2000
seed = RngStream(0x4A41434F424921, 0)

# each regime fixes its limit density and eigenvalue scaling from the parameters
runs = [
    ("ratio", JacobiParams(n, 3.0 * n, 3.0 * n, 2.0)),
    ("arcsine", JacobiParams(n, math.sqrt(n), math.sqrt(n), 2.0 * n)),
    ("semicircle", JacobiParams(n, n - 1.0, n - 1.0, 2.0 * n**-0.25)),
]

for i, (name, params) in enumerate(runs):
    model, scaling = REGIMES[name](params)
    ecdf = monte_carlo_esd(params, scaling, 1, seed.substream(i))
    ks = ks_distance(ecdf, model_cdf(model))
    lo, hi = model.support
    print(f"{name:11s} n={params.n}  support=({lo:+.3f}, {hi:+.3f})  KS vs limit = {ks:.4f}")

    counts, edges = np.histogram(ecdf.points, bins=60, range=(lo, hi), density=True)
    with open(os.path.join(OUT, f"{name}_hist.csv"), "w") as fh:
        fh.write("bin_left,bin_right,height\n")
        for j, c in enumerate(counts):
            fh.write(f"{edges[j]:.17g},{edges[j+1]:.17g},{c:.17g}\n")
    step = (hi - lo) / 512
    xs = lo + step * (np.arange(512) + 0.5)
    with open(os.path.join(OUT, f"{name}_density.csv"), "w") as fh:
        fh.write("x,f\n")
        for x, f in zip(xs, density_eval(model, xs)):
            fh.write(f"{x:.17g},{f:.17g}\n")

print(f"\nhistogram and density CSVs written to {OUT}/")
