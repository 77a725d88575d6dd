"""Reproducible uniform, normal, gamma and beta variate generation.

All randomness in the package flows through :class:`RngStream`, a counter-based
generator (splitmix64 core): the k-th raw 64-bit word is a pure function of the
stream seed and k. Distinct streams derived from one base seed can therefore be
consumed concurrently without any coordination, and every sequence is
reproducible independently of thread scheduling.

Beta variates are produced as gamma ratios. The beta distribution on [-1, 1]
used by the ensemble has weight (1-x)^(p-1) (1+x)^(q-1), which forces the
orientation alpha = 1 - 2*Z for Z ~ Beta(p, q) on [0, 1]; flipping this sign
silently mirrors every spectrum downstream, so do not "simplify" it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# smallest positive normal double; used to keep gamma/beta draws off 0 and 1
_TINY = float(np.finfo(np.float64).tiny)
_ONE_MINUS = float(np.nextafter(1.0, 0.0))


class RngStream:
    """Deterministic pseudo-random stream.

    Parameters
    ----------
    base_seed : int
        64-bit seed shared by a family of streams.
    stream_id : int, optional
        Index of this stream within the family. The stream seed is
        ``base_seed XOR (stream_id * 0x9E3779B97F4A7C15)``, fed into a
        splitmix64 counter generator.

    Same (base_seed, stream_id) always yields the identical variate sequence
    for the identical call sequence. A single stream is single-consumer;
    use :meth:`substream` to hand independent streams to parallel tasks.
    """

    def __init__(self, base_seed: int, stream_id: int = 0):
        self.base_seed = int(base_seed) & _MASK64
        self.stream_id = int(stream_id)
        self._seed = np.uint64(self.base_seed ^ ((self.stream_id * _GOLDEN) & _MASK64))
        self._pos = 0

    def __repr__(self) -> str:
        return f"RngStream(base_seed={self.base_seed:#x}, stream_id={self.stream_id})"

    def substream(self, k: int) -> "RngStream":
        """Independent child stream number k (k = trial index, typically)."""
        if k < 0:
            raise ParameterDomainError("substream index must satisfy k >= 0")
        return RngStream(int(self._seed), k + 1)

    def _raw(self, m: int) -> np.ndarray:
        """Next m raw 64-bit words (vectorized splitmix64)."""
        with np.errstate(over="ignore"):
            ks = self._seed + np.arange(
                self._pos + 1, self._pos + m + 1, dtype=np.uint64
            ) * np.uint64(_GOLDEN)
            z = (ks ^ (ks >> np.uint64(30))) * _MIX1
            z = (z ^ (z >> np.uint64(27))) * _MIX2
            z = z ^ (z >> np.uint64(31))
        self._pos += m
        return z

    def uniforms(self, size: int) -> np.ndarray:
        """Uniform variates in the open interval (0, 1)."""
        return ((self._raw(size) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def normals(self, size: int) -> np.ndarray:
        """Standard normal variates via the polar rejection method."""
        out = np.empty(size)
        have = 0
        while have < size:
            need = size - have
            # acceptance rate is pi/4; two normals per accepted pair
            m = max(need, 8)
            u = self.uniforms(2 * m)
            v1 = 2.0 * u[:m] - 1.0
            v2 = 2.0 * u[m:] - 1.0
            s = v1 * v1 + v2 * v2
            ok = (s > 0.0) & (s < 1.0)
            f = np.sqrt(-2.0 * np.log(s[ok]) / s[ok])
            z = np.column_stack((v1[ok] * f, v2[ok] * f)).ravel()
            take = min(z.size, need)
            out[have : have + take] = z[:take]
            have += take
        return out


@dataclass(frozen=True)
class BetaParams:
    """Shape pair (p, q) of a beta distribution; both strictly positive.

    Fields may be scalars or equal-shaped arrays (one shape pair per draw).
    """

    p: float | np.ndarray
    q: float | np.ndarray

    def __post_init__(self):
        if not (np.all(np.asarray(self.p) > 0.0) and np.all(np.asarray(self.q) > 0.0)):
            raise ParameterDomainError("beta shapes must satisfy p > 0 and q > 0")


def _gamma_shape_ge1(rng: RngStream, shape: np.ndarray) -> np.ndarray:
    """Marsaglia-Tsang squeeze/rejection sampler; requires all shapes >= 1."""
    d = shape - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(shape.shape)
    pending = np.arange(shape.size)
    while pending.size:
        m = pending.size
        x = rng.normals(m)
        u = rng.uniforms(m)
        dp = d.flat[pending]
        v = (1.0 + c.flat[pending] * x) ** 3
        ok = v > 0.0
        x2 = x * x
        accept = ok & (u < 1.0 - 0.0331 * x2 * x2)
        rest = ok & ~accept
        if rest.any():
            vr = v[rest]
            accept[rest] = np.log(u[rest]) < 0.5 * x2[rest] + dp[rest] * (
                1.0 - vr + np.log(vr)
            )
        out.flat[pending[accept]] = dp[accept] * v[accept]
        pending = pending[~accept]
    return out


def sample_gamma(shape, rng: RngStream, size: int | None = None):
    """Gamma(shape, 1) variates.

    ``shape`` may be a scalar or an array (one shape per draw); valid from
    ~1e-3 up to beyond 1e7. Shapes below 1 are sampled at shape+1 and scaled
    by U^(1/shape).
    """
    shape_arr = np.asarray(shape, dtype=np.float64)
    if not np.all(shape_arr > 0.0):
        raise ParameterDomainError("gamma shape must satisfy shape > 0")
    scalar = shape_arr.ndim == 0 and size is None
    if shape_arr.ndim == 0:
        shape_arr = np.full(1 if size is None else int(size), float(shape_arr))
    elif size is not None:
        raise ParameterDomainError("size is only valid with a scalar shape")
    small = shape_arr < 1.0
    boosted = np.where(small, shape_arr + 1.0, shape_arr)
    g = _gamma_shape_ge1(rng, boosted)
    if small.any():
        u = rng.uniforms(shape_arr.size).reshape(shape_arr.shape)
        boost = np.where(small, u ** (1.0 / np.where(small, shape_arr, 1.0)), 1.0)
        # keep draws strictly positive even when the boost underflows
        g = np.maximum(g * boost, _TINY)
    return float(g[0]) if scalar else g


def sample_beta01(params: BetaParams, rng: RngStream, size: int | None = None):
    """Beta(p, q) variates on (0, 1), computed as a gamma ratio X/(X+Y)."""
    p = np.asarray(params.p, dtype=np.float64)
    q = np.asarray(params.q, dtype=np.float64)
    p, q = np.broadcast_arrays(p, q)
    scalar = p.ndim == 0 and size is None
    if p.ndim == 0:
        n = 1 if size is None else int(size)
        p = np.full(n, float(p))
        q = np.full(n, float(q))
    elif size is not None:
        raise ParameterDomainError("size is only valid with scalar shapes")
    x = sample_gamma(p, rng)
    y = sample_gamma(q, rng)
    z = x / (x + y)
    # rounding at extreme shapes can land exactly on the closed endpoints
    z = np.clip(z, _TINY, _ONE_MINUS)
    return float(z[0]) if scalar else z


def sample_beta_pm1(params: BetaParams, rng: RngStream, size: int | None = None):
    """Variates on (-1, 1) with density proportional to (1-x)^(p-1) (1+x)^(q-1).

    Orientation is 1 - 2*Beta01(p, q): the (1-x) exponent pairs with p.
    """
    z = sample_beta01(params, rng, size=size)
    a = 1.0 - 2.0 * np.asarray(z)
    a = np.clip(a, -1.0 + 2.0**-52, 1.0 - 2.0**-52)
    return float(a) if np.ndim(a) == 0 else a


def beta_mean_pm1(params: BetaParams):
    """Mean (q - p)/(p + q) of the [-1, 1] beta law above."""
    p = np.asarray(params.p, dtype=np.float64)
    q = np.asarray(params.q, dtype=np.float64)
    m = (q - p) / (p + q)
    return float(m) if m.ndim == 0 else m


def beta_concentration_bound(params: BetaParams, delta: float) -> float:
    """Tail bound 4*exp(c*(p+q)) for P(|Z - E Z| > delta), Z ~ Beta(p, q) on [0, 1].

    c = log(1 + d') - d' with d' = delta/(3 + 2*delta); c < 0 for delta > 0,
    so the bound decays exponentially in p + q. Often vacuous (> 1) for small
    shape sums.
    """
    if not delta > 0.0:
        raise ParameterDomainError("delta must satisfy delta > 0")
    dp = delta / (3.0 + 2.0 * delta)
    c = np.log1p(dp) - dp
    p = np.asarray(params.p, dtype=np.float64)
    q = np.asarray(params.q, dtype=np.float64)
    out = 4.0 * np.exp(c * (p + q))
    return float(out) if out.ndim == 0 else out
