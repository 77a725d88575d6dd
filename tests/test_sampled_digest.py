"""One sha256 over the package's sampled bytes.

The digest pins every byte the samplers produce: keyed beta draws and their
exact complements through ``sample_alphas -> random_matrix -> eig_tridiag`` at
ordinary and extreme parameters, ``sample_beta01`` at shape pairs from 1e-3
to 1e20, and the keyed ``uniforms`` and ``normals`` calls of ``RngStream``. A
change that only restructures the samplers must leave it as it is. Only a
change that means to move sampled bytes rewrites ``DIGEST``, and it names the
new digest and the reason in CHANGES.md (as the build on the exact complements
1 - alpha = 2 Z and 1 + alpha = 2 W did).
"""

import hashlib

import numpy as np

from jacobi_spectra.betarand import BetaParams, RngStream, sample_beta01
from jacobi_spectra.ensemble import JacobiParams, random_matrix, sample_alphas
from jacobi_spectra.trieig import eig_tridiag

DIGEST = "e4e5830cdcd3096b6d7e709c269d1f0499c957e48b1b2e04f44a2a94279e5328"

SIZES = (1, 2, 3, 7, 50, 301)
# (a, b, beta); None stands for 3n
PARAMS = (
    (0.0, 0.0, 2.0),
    (None, None, 2.0),
    (-0.9, 5.0, 0.3),
    (1e15, 5e14, 2.0),
    (1e18, 5e17, 2.0),
    (-0.999, -0.999, 1e-3),
    (0.5, 1e6, 1e4),
)
SUBSTREAMS = (0, 1, 7)
SHAPE_PAIRS = ((1e-3, 1e-3), (1e-3, 2.0), (0.5, 0.7), (3.0, 150.0), (1e6, 1e-3),
               (1e12, 3e12), (1e20, 1e20), (1e20, 1.0))


def sampled_bytes():
    """Every array the digest covers, in a fixed order."""
    base = RngStream(0x5A4D, 3)
    for n in SIZES:
        for a, b, beta in PARAMS:
            p = JacobiParams(n, 3.0 * n if a is None else a, 3.0 * n if b is None else b, beta)
            for t in SUBSTREAMS:
                alphas = sample_alphas(p, base.substream(t))
                m = random_matrix(alphas)
                yield from (alphas.alpha, *alphas.complements,
                            m.diag, m.off, eig_tridiag(m).values)
    rng = RngStream(0xB17A, 1)
    for p, q in SHAPE_PAIRS:
        yield sample_beta01(BetaParams(np.full(500, p), np.full(500, q)), rng)
    # normals cross the blocks of RngStream.normals
    yield from (rng.uniforms(1000), rng.normals(70_001), rng.uniforms(3))


def test_sampled_bytes_match_the_pinned_digest():
    h = hashlib.sha256()
    for a in sampled_bytes():
        h.update(a.tobytes())
    assert h.hexdigest() == DIGEST
