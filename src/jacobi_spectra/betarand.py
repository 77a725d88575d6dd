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
Everything a call needs besides its key (the Marsaglia-Tsang constants and
the per-variate counter parts) is built once per shape set, as a
:class:`GammaPlan` or :class:`BetaPlan`, and a plan can serve any number of
calls. Normals, keyed or sequential, come from the Box-Muller transform.

Beta variates are produced as gamma ratios. The beta distribution on [-1, 1]
used by the ensemble has weight (1-x)^(p-1) (1+x)^(q-1), which forces the
orientation alpha = 1 - 2*Z for Z ~ Beta(p, q) on [0, 1]; flipping this sign
silently mirrors every spectrum downstream, so do not "simplify" it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MagnitudeOverflowError, ParameterDomainError

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
# largest gamma shape: 9 d (Marsaglia-Tsang) and X + Y (a beta pair) stay finite
_MAX_SHAPE = float(np.finfo(np.float64).max) / 16.0


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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class GammaPlan:
    """Everything of a keyed gamma call except its key, built once per shape set.

    Holds, per variate i, the Marsaglia-Tsang constants d (the shape minus
    1/3, plus 1 below shape 1) and c = 1/sqrt(9 d), and
    (j[i] + 1) * golden, the per-variate part of every keyed counter; and the
    index and reciprocal shape of every shape below 1. Every array is
    read-only, so one plan can serve any number of calls. Shapes above
    ``_MAX_SHAPE`` raise :class:`MagnitudeOverflowError`; up to it 9 d is
    finite, and so is every draw d * v, because v = (1 + c x)^3 exceeds 1 by
    less than 30 c when d is large (|x| < 8.7 for Box-Muller normals).
    """

    __slots__ = ("d", "c", "jg", "small", "inv_small", "_cuts")

    def __init__(self, shape: np.ndarray, j: np.ndarray):
        shape = np.asarray(shape, dtype=np.float64)
        if not np.all(shape > 0.0):
            raise ParameterDomainError("gamma shape must satisfy shape > 0")
        if not np.all(shape <= _MAX_SHAPE):
            raise MagnitudeOverflowError("gamma shape overflowed float64 arithmetic")
        below = shape < 1.0
        d = shape + below - 1.0 / 3.0
        small = np.flatnonzero(below)
        self.d = _frozen(d)
        self.c = _frozen(1.0 / np.sqrt(9.0 * d))
        self.jg = _frozen((np.asarray(j, dtype=np.uint64) + np.uint64(1)) * _GOLDEN_U)
        self.small = _frozen(small)
        self.inv_small = _frozen(1.0 / shape[small])
        # the shapes below 1 of block b are small[_cuts[b] : _cuts[b + 1]]
        self._cuts = np.searchsorted(small, np.arange(0, shape.size + _BLOCK, _BLOCK)).tolist()

    def draw(self, key: int) -> np.ndarray:
        """Gamma(shape[i], 1) variates, the i-th drawn as variate j[i] of call ``key``.

        Marsaglia-Tsang squeeze/rejection at shape >= 1; a shape below 1 is
        drawn at shape + 1 and scaled by U^(1/shape). Every uniform is the
        keyed word of (key, j[i], attempt, slot), so entry i depends on
        nothing else, and the variates are drawn in blocks of at most
        ``_BLOCK`` to bound the scratch memory of a large call.
        """
        m = self.d.size
        b = min(m, _BLOCK)
        # one attempt's three slots, in buffers reused by every attempt and block
        z, tmp, w = np.empty(3 * b, np.uint64), np.empty(3 * b, np.uint64), np.empty(3 * b)

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
        for blk, lo in enumerate(range(0, m, _BLOCK)):
            hi = lo + _BLOCK
            self._accept(uniforms, self.d[lo:hi], self.c[lo:hi], self.jg[lo:hi], out[lo:hi])
            s0, s1 = self._cuts[blk], self._cuts[blk + 1]
            if s0 < s1:
                idx = self.small[s0:s1]
                # lane 0: one boost uniform per variate, whatever its attempt count
                boost = uniforms(self.jg[idx], 0, 1)[0] ** self.inv_small[s0:s1]
                # keep draws strictly positive even when the boost underflows
                out[idx] = np.maximum(out[idx] * boost, _TINY)
        return out

    @staticmethod
    def _accept(uniforms, d: np.ndarray, c: np.ndarray, jg: np.ndarray, out: np.ndarray):
        """Marsaglia-Tsang rounds over one block until every variate is accepted."""
        pending = None
        rows, dp, cp = jg, d, c
        lane = 1
        while True:
            u = uniforms(rows, lane, 3)
            x = _box_muller(u[0], u[1])
            v = (1.0 + cp * x) ** 3
            x2 = x * x
            # the squeeze bound is negative wherever v <= 0, since d >= 2/3
            accept = u[2] < 1.0 - 0.0331 * x2 * x2
            rest = np.flatnonzero(~accept)
            rest = rest[v[rest] > 0.0]
            if rest.size:
                vr = v[rest]
                accept[rest] = np.log(u[2][rest]) < 0.5 * x2[rest] + dp[rest] * (
                    1.0 - vr + np.log(vr)
                )
            if pending is None:
                if accept.all():
                    np.multiply(dp, v, out=out)
                    return
                pending = np.arange(rows.size)
            out[pending[accept]] = dp[accept] * v[accept]
            pending = pending[~accept]
            if not pending.size:
                return
            rows, dp, cp = jg[pending], d[pending], c[pending]
            lane += 3


class BetaPlan:
    """Everything of a keyed beta call except its key, built once per shape pair set.

    Holds the shape pairs p and q of ``params`` (validated by
    :class:`BetaParams`), the gamma plan of one pass over the concatenated
    shapes (X of beta variate j is keyed gamma variate j, Y is keyed gamma
    variate j + 2^31), and the means (q - p)/(p + q) of the [-1, 1] law.
    Arrays are read-only.
    """

    __slots__ = ("p", "q", "gamma", "means")

    def __init__(self, params: BetaParams):
        p = np.array(params.p, dtype=np.float64)
        q = np.array(params.q, dtype=np.float64)
        if p.shape != q.shape:
            p, q = (np.array(a) for a in np.broadcast_arrays(p, q))
        j = np.arange(p.size, dtype=np.uint64)
        self.gamma = GammaPlan(np.concatenate((p.ravel(), q.ravel())),
                               np.concatenate((j, j + _Y_OFFSET)))
        self.p, self.q = _frozen(p), _frozen(q)
        self.means = _frozen(np.asarray(beta_mean_pm1(params)))

    def beta01(self, key: int) -> np.ndarray:
        """Beta(p, q) variates on (0, 1) of call ``key``, as gamma ratios X/(X+Y)."""
        g = self.gamma.draw(key)
        m = g.size // 2
        x, y = g[:m], g[m:]
        z = x / (x + y)
        # rounding at extreme shapes can land exactly on the closed endpoints
        np.maximum(z, _TINY, out=z)
        np.minimum(z, _ONE_MINUS, out=z)
        return z.reshape(self.p.shape)

    def beta_pm1(self, key: int) -> np.ndarray:
        """Variates on (-1, 1) of call ``key``, as :func:`sample_beta_pm1` draws them."""
        a = 1.0 - 2.0 * self.beta01(key)
        np.maximum(a, -1.0 + 2.0**-52, out=a)
        np.minimum(a, 1.0 - 2.0**-52, out=a)
        return a


def sample_gamma(shape, rng: RngStream, size: int | None = None):
    """Gamma(shape, 1) variates.

    ``shape`` may be a scalar or an array (one shape per draw); valid from
    ~1e-3 up to beyond 1e7. Shapes below 1 are sampled at shape+1 and scaled
    by U^(1/shape). One call takes one key word of ``rng``; draw i is keyed
    variate i of that call.
    """
    shape_arr = np.asarray(shape, dtype=np.float64)
    scalar = shape_arr.ndim == 0 and size is None
    if shape_arr.ndim == 0:
        shape_arr = np.full(1 if size is None else int(size), float(shape_arr))
    elif size is not None:
        raise ParameterDomainError("size is only valid with a scalar shape")
    plan = GammaPlan(shape_arr.ravel(), np.arange(shape_arr.size))
    g = plan.draw(rng._call_key()).reshape(shape_arr.shape)
    return float(g[0]) if scalar else g


def _beta_call(params: BetaParams, size: int | None) -> tuple[BetaPlan, bool]:
    """The plan of one :func:`sample_beta01`/:func:`sample_beta_pm1` call, and
    whether the call returns a float."""
    if np.ndim(params.p) == 0 and np.ndim(params.q) == 0:
        n = 1 if size is None else int(size)
        full = BetaParams(np.full(n, float(params.p)), np.full(n, float(params.q)))
        return BetaPlan(full), size is None
    if size is not None:
        raise ParameterDomainError("size is only valid with scalar shapes")
    return BetaPlan(params), False


def sample_beta01(params: BetaParams, rng: RngStream, size: int | None = None):
    """Beta(p, q) variates on (0, 1), computed as a gamma ratio X/(X+Y).

    One call takes one key word of ``rng``; draw i is keyed variate i of
    that call, so a prefix of the shapes gives a prefix of the draws.
    """
    plan, scalar = _beta_call(params, size)
    z = plan.beta01(rng._call_key())
    return float(z[0]) if scalar else z


def sample_beta_pm1(params: BetaParams, rng: RngStream, size: int | None = None):
    """Variates on (-1, 1) with density proportional to (1-x)^(p-1) (1+x)^(q-1).

    Orientation is 1 - 2*Beta01(p, q): the (1-x) exponent pairs with p.
    """
    plan, scalar = _beta_call(params, size)
    a = plan.beta_pm1(rng._call_key())
    return float(a[0]) if scalar else a


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
