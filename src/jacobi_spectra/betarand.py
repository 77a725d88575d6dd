"""Reproducible uniform, normal, gamma and beta variate generation.

All randomness in the package flows through :class:`RngStream`, a counter-based
generator (splitmix64 core): the k-th raw 64-bit word is a pure function of the
stream key and k. :meth:`RngStream.substream` derives a child key by mixing
(parent key, k), which does not commute, so ``s.substream(i).substream(j)`` and
``s.substream(j).substream(i)`` are different streams.

Gamma and beta draws are keyed rather than sequential. A call takes one word
of its stream as the call key, and every word it then uses is a pure
splitmix64 function of (call key, variate index j, attempt r, slot): each
Marsaglia-Tsang attempt reads a fixed set of slots (two Box-Muller uniforms
for its normal and one acceptance uniform), and a shape below 1 reads one
boost uniform of its own. Variate j therefore does not depend on how many
attempts other variates needed, or on which other variates share the call.
Normals, keyed or sequential, come from the Box-Muller transform.

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
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GOLDEN_U = np.uint64(_GOLDEN)
_SHIFTS_MULS = ((np.uint64(30), np.uint64(_MIX1)), (np.uint64(27), np.uint64(_MIX2)))
_SHIFT31 = np.uint64(31)
_SHIFT11 = np.uint64(11)

# A keyed word's counter is lane * 2^32 + j + 1 for variate j: lane 0 holds the
# boost uniform of a shape below 1, and attempt r reads lanes 3r + 1 .. 3r + 3.
_LANE = 1 << 32
# gamma variate index of the Y draw of beta variate j (X takes index j)
_Y_OFFSET = np.uint64(1 << 31)
_BLOCK = 1024

# smallest positive normal double; used to keep gamma/beta draws off 0 and 1
_TINY = float(np.finfo(np.float64).tiny)
_ONE_MINUS = float(np.nextafter(1.0, 0.0))


def _mix64(z: int) -> int:
    """splitmix64 finaliser of one 64-bit word."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _splitmix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser of the words z, in place; ``tmp`` is scratch of z's size.

    Unsigned array arithmetic wraps modulo 2^64.
    """
    for shift, mul in _SHIFTS_MULS:
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mul, out=z)
    np.right_shift(z, _SHIFT31, out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    return z


def _unit(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Uniforms in the open interval (0, 1) from the top 53 bits of words z."""
    np.right_shift(z, _SHIFT11, out=z)
    np.add(z, 0.5, out=out)
    np.multiply(out, 2.0**-53, out=out)
    return out


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normals sqrt(-2 log u1) cos(2 pi u2), written over u1."""
    np.log(u1, out=u1)
    np.multiply(u1, -2.0, out=u1)
    np.sqrt(u1, out=u1)
    np.multiply(u2, 2.0 * np.pi, out=u2)
    np.cos(u2, out=u2)
    np.multiply(u1, u2, out=u1)
    return u1


class RngStream:
    """Deterministic pseudo-random stream.

    Parameters
    ----------
    base_seed : int
        64-bit seed shared by a family of streams.
    stream_id : int, optional
        Index of this stream within the family. The stream key is
        ``base_seed XOR (stream_id * 0x9E3779B97F4A7C15)``, fed into a
        splitmix64 counter generator.

    Same (base_seed, stream_id) always yields the identical variate sequence
    for the identical call sequence. A single stream is single-consumer;
    use :meth:`substream` to hand independent streams to parallel tasks.
    """

    def __init__(self, base_seed: int, stream_id: int = 0):
        self.base_seed = int(base_seed) & _MASK64
        self.stream_id = int(stream_id)
        self._key = self.base_seed ^ ((self.stream_id * _GOLDEN) & _MASK64)
        self._pos = 0

    def __repr__(self) -> str:
        return f"RngStream(base_seed={self.base_seed:#x}, stream_id={self.stream_id})"

    def substream(self, k: int) -> "RngStream":
        """Independent child stream number k (k = trial index, typically).

        The child is ``RngStream(key, 0)`` with key = mix(parent key XOR
        mix((k + 1) * golden)); nesting in another order gives another key.
        """
        if k < 0:
            raise ParameterDomainError("substream index must satisfy k >= 0")
        return RngStream(_mix64(self._key ^ _mix64(((k + 1) * _GOLDEN) & _MASK64)), 0)

    def _call_key(self) -> int:
        """The next raw word, as the key of one keyed call."""
        self._pos += 1
        return _mix64((self._key + self._pos * _GOLDEN) & _MASK64)

    def uniforms(self, size: int) -> np.ndarray:
        """Uniform variates in the open interval (0, 1)."""
        z = np.arange(self._pos + 1, self._pos + size + 1, dtype=np.uint64)
        np.multiply(z, _GOLDEN_U, out=z)
        np.add(z, np.uint64(self._key), out=z)
        self._pos += size
        return _unit(_splitmix(z, np.empty_like(z)), np.empty(size))

    def normals(self, size: int) -> np.ndarray:
        """Standard normal variates via the Box-Muller transform (two uniforms each)."""
        u = self.uniforms(2 * size)
        return _box_muller(u[:size], u[size:]).copy()


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


def _gamma_keyed(key: int, shape: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Gamma(shape[i], 1) variates, the i-th drawn as variate j[i] of call ``key``.

    Marsaglia-Tsang squeeze/rejection at shape >= 1; a shape below 1 is drawn
    at shape + 1 and scaled by U^(1/shape). Every uniform is the keyed word
    of (key, j[i], attempt, slot), so entry i depends on nothing else, and
    the variates are drawn in blocks of at most ``_BLOCK`` to bound the
    scratch memory of a large call.
    """
    out = np.empty(shape.size)
    for lo in range(0, shape.size, _BLOCK):
        out[lo : lo + _BLOCK] = _gamma_block(key, shape[lo : lo + _BLOCK], j[lo : lo + _BLOCK])
    return out


def _gamma_block(key: int, shape: np.ndarray, j: np.ndarray) -> np.ndarray:
    """One block of :func:`_gamma_keyed`."""
    m = shape.size
    small = shape < 1.0
    d = shape + small - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    # (j + 1) * golden, the per-variate part of every keyed counter
    jg = (np.asarray(j, dtype=np.uint64) + np.uint64(1)) * _GOLDEN_U
    # one attempt's three slots, in buffers reused by every attempt
    z, tmp, w = np.empty(3 * m, np.uint64), np.empty(3 * m, np.uint64), np.empty(3 * m)

    def uniforms(rows: np.ndarray, lane: int, slots: int) -> np.ndarray:
        k = rows.size
        offsets = np.array(
            [((key + (lane + i) * _LANE * _GOLDEN) & _MASK64) for i in range(slots)],
            dtype=np.uint64,
        )
        zk = z[: slots * k].reshape(slots, k)
        np.add(rows, offsets[:, None], out=zk)
        return _unit(_splitmix(zk, tmp[: slots * k].reshape(slots, k)),
                     w[: slots * k].reshape(slots, k))

    out = np.empty(m)
    pending = np.arange(m)
    rows, dp, cp = jg, d, c
    lane = 1
    while True:
        u = uniforms(rows, lane, 3)
        x = _box_muller(u[0], u[1])
        v = (1.0 + cp * x) ** 3
        x2 = x * x
        # the squeeze bound is negative wherever v <= 0, since d >= 2/3
        accept = u[2] < 1.0 - 0.0331 * x2 * x2
        rest = ~accept & (v > 0.0)
        if rest.any():
            vr = v[rest]
            accept[rest] = np.log(u[2][rest]) < 0.5 * x2[rest] + dp[rest] * (
                1.0 - vr + np.log(vr)
            )
        out[pending[accept]] = dp[accept] * v[accept]
        pending = pending[~accept]
        if not pending.size:
            break
        rows, dp, cp = jg[pending], d[pending], c[pending]
        lane += 3
    if small.any():
        idx = np.flatnonzero(small)
        # lane 0: one boost uniform per variate, whatever its attempt count
        boost = uniforms(jg[idx], 0, 1)[0] ** (1.0 / shape[idx])
        # keep draws strictly positive even when the boost underflows
        out[idx] = np.maximum(out[idx] * boost, _TINY)
    return out


def sample_gamma(shape, rng: RngStream, size: int | None = None):
    """Gamma(shape, 1) variates.

    ``shape`` may be a scalar or an array (one shape per draw); valid from
    ~1e-3 up to beyond 1e7. Shapes below 1 are sampled at shape+1 and scaled
    by U^(1/shape). One call takes one key word of ``rng``; draw i is keyed
    variate i of that call.
    """
    shape_arr = np.asarray(shape, dtype=np.float64)
    if not np.all(shape_arr > 0.0):
        raise ParameterDomainError("gamma shape must satisfy shape > 0")
    scalar = shape_arr.ndim == 0 and size is None
    if shape_arr.ndim == 0:
        shape_arr = np.full(1 if size is None else int(size), float(shape_arr))
    elif size is not None:
        raise ParameterDomainError("size is only valid with a scalar shape")
    flat = shape_arr.ravel()
    g = _gamma_keyed(rng._call_key(), flat, np.arange(flat.size)).reshape(shape_arr.shape)
    return float(g[0]) if scalar else g


def _beta01_keyed(key: int, p: np.ndarray, q: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Beta(p[i], q[i]) on (0, 1) as keyed variate j[i] of call ``key``.

    One gamma pass over the concatenated shapes: X is keyed gamma variate j
    and Y keyed gamma variate j + 2^31.
    """
    j = np.asarray(j, dtype=np.uint64)
    g = _gamma_keyed(key, np.concatenate((p, q)), np.concatenate((j, j + _Y_OFFSET)))
    x, y = g[: p.size], g[p.size :]
    z = x / (x + y)
    # rounding at extreme shapes can land exactly on the closed endpoints
    return np.clip(z, _TINY, _ONE_MINUS, out=z)


def sample_beta01(params: BetaParams, rng: RngStream, size: int | None = None):
    """Beta(p, q) variates on (0, 1), computed as a gamma ratio X/(X+Y).

    One call takes one key word of ``rng``; draw i is keyed variate i of
    that call, so a prefix of the shapes gives a prefix of the draws.
    """
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
    z = _beta01_keyed(rng._call_key(), p.ravel(), q.ravel(), np.arange(p.size))
    return float(z[0]) if scalar else z.reshape(p.shape)


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
