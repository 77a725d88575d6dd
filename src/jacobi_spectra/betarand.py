"""Reproducible uniform, normal, gamma and beta variate generation.

All randomness in the package flows through :class:`RngStream`, a counter-based
generator (splitmix64 core): the k-th raw 64-bit word is a pure function of the
stream key and k. :meth:`RngStream.substream` derives a child key by mixing
(parent key, k), which does not commute, so ``s.substream(i).substream(j)`` and
``s.substream(j).substream(i)`` are different streams.

Every draw is one keyed call: it takes one word of its stream as the call key
(so a stream's position counts its calls), and every word it then reads is a
pure splitmix64 function of (call key, lane, index j). ``uniforms`` reads lane
0, normal j pairs lanes 1 and 2 at j by Box-Muller, and each Marsaglia-Tsang
attempt of gamma variate j reads three lanes (a Box-Muller normal and an
acceptance uniform), while a shape below 1 reads one lane-0 boost uniform.
Variate j therefore depends neither on how many attempts other variates
needed nor on which variates share the call. A :class:`GammaPlan` or
:class:`BetaPlan` holds everything a call needs besides its key, built once per
shape set for any number of calls. A round redraws, by one mask, the variates
that both its squeeze and its log test reject.

Beta variates Z ~ Beta(p, q) are gamma ratios X/(X+Y), drawn by
:meth:`BetaPlan.draw` with their complements W = Y/(X+Y). The ensemble's
variate on [-1, 1] has weight (1-x)^(p-1) (1+x)^(q-1), which forces the
orientation 1 - alpha = 2 Z and 1 + alpha = 2 W, so alpha = W - Z: the doubled
(Z, W) stack is the complement array of ``ensemble.AlphaVector``
(``ensemble.sample_alphas``). Swapping its rows silently mirrors every
spectrum downstream, so do not "simplify" it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MagnitudeOverflowError, ParameterDomainError, real_array, whole_number

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Scalar operands of the array passes are 0-d arrays: numpy converts a Python
# or numpy scalar operand on every call, which costs about as much as a pass
# over a few hundred entries.
_GOLDEN_U = np.array(_GOLDEN, dtype=np.uint64)
_SHIFTS_MULS = tuple(
    (np.array(shift, dtype=np.uint64), np.array(mul, dtype=np.uint64))
    for shift, mul in ((30, _MIX1), (27, _MIX2))
)
_SHIFT31 = np.array(31, dtype=np.uint64)
_SHIFT11 = np.array(11, dtype=np.uint64)
_HALF, _ONE, _THREE = (np.array(x) for x in (0.5, 1.0, 3.0))
_MINUS_TWO, _TWO_PI = np.array(-2.0), np.array(2.0 * np.pi)
_ULP53, _HALF_ULP53 = np.array(2.0**-53), np.array(2.0**-54)
_SQUEEZE = np.array(0.0331)  # Marsaglia-Tsang squeeze constant

# A keyed word's counter is lane * 2^32 + j + 1 for index j < 2^32: gamma attempt r
# reads lanes 3r + 1 .. 3r + 3, and lane 0 holds the boost uniform of a shape below 1.
_LANE = 1 << 32
# the golden-ratio part L * 2^32 * golden mod 2^64 of the counter of lane L, as a
# column over the lanes 1..3 of the first attempt, and the step to the next attempt
_FIRST_LANES = np.arange(1, 4, dtype=np.uint64)[:, None] * np.uint64((_LANE * _GOLDEN) & _MASK64)
_NEXT_LANES = np.array((3 * _LANE * _GOLDEN) & _MASK64, dtype=np.uint64)
# gamma variate index of the Y draw of beta variate j (X takes index j)
_Y_OFFSET = np.uint64(1 << 31)
_BLOCK = 1024
_NORMAL_BLOCK = 1 << 15  # indices per block of RngStream.normals, two lane words each
_NEXT_BLOCK = np.array(_NORMAL_BLOCK * _GOLDEN & _MASK64, dtype=np.uint64)  # a block's step

# smallest positive normal double; used to keep gamma/beta draws off 0 and 1
_TINY = float(np.finfo(np.float64).tiny)
_ONE_MINUS = float(np.nextafter(1.0, 0.0))
_TINY_0D = np.array(_TINY)
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


def _unit(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Uniforms (z' + 1/2) 2^-53 in the open interval (0, 1), z' the top 53 bits
    of words z, written into ``out`` (a new array when None)."""
    np.right_shift(z, _SHIFT11, out=z)
    # z' 2^-53 is exact (z' < 2^53); + 2^-54 then rounds as z' + 1/2 would, scaled
    out = np.multiply(z, _ULP53, out=out)
    out += _HALF_ULP53
    return out


def _uniforms(z: np.ndarray) -> np.ndarray:
    """Uniforms of the counter words z (hashed in place), as :func:`_unit` writes them."""
    return _unit(_splitmix(z, np.empty_like(z)))


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normals sqrt(-2 log u1) cos(2 pi u2), written over u1."""
    np.log(u1, out=u1)
    np.multiply(u1, _MINUS_TWO, out=u1)
    np.sqrt(u1, out=u1)
    np.multiply(u2, _TWO_PI, out=u2)
    np.cos(u2, out=u2)
    np.multiply(u1, u2, out=u1)
    return u1


class RngStream:
    """Deterministic pseudo-random stream.

    Parameters
    ----------
    base_seed : int
        64-bit seed shared by a family of streams (a whole number, taken mod 2^64).
    stream_id : int, optional
        Index of this stream within the family, a whole number. The stream key is
        ``base_seed XOR (stream_id * 0x9E3779B97F4A7C15)``, fed into a
        splitmix64 counter generator.

    Same (base_seed, stream_id) always yields the identical variate sequence
    for the identical call sequence. A single stream is single-consumer;
    use :meth:`substream` to hand independent streams to parallel tasks.
    """

    def __init__(self, base_seed: int, stream_id: int = 0):
        self.base_seed = whole_number(base_seed, "seed must be a whole number") & _MASK64
        self.stream_id = whole_number(stream_id, "stream id must be a whole number")
        self._key = self.base_seed ^ ((self.stream_id * _GOLDEN) & _MASK64)
        self._pos = 0

    def __repr__(self) -> str:
        return f"RngStream(base_seed={self.base_seed:#x}, stream_id={self.stream_id})"

    def substream(self, k: int) -> "RngStream":
        """Independent child stream number k (k = trial index, typically).

        The child is ``RngStream(key, 0)`` with key = mix(parent key XOR
        mix((k + 1) * golden)); nesting in another order gives another key.
        """
        k = whole_number(k, "substream index must be a whole number k >= 0", 0)
        return RngStream(_mix64(self._key ^ _mix64(((k + 1) * _GOLDEN) & _MASK64)), 0)

    def call_key(self) -> int:
        """The next raw word, as the key of one keyed call."""
        self._pos += 1
        return _mix64((self._key + self._pos * _GOLDEN) & _MASK64)

    def uniforms(self, size: int) -> np.ndarray:
        """Uniforms in (0, 1) of one keyed call: value j reads lane 0 at index j < 2^32."""
        size = whole_number(size, "size must be a whole number >= 0", 0)
        counters = (np.arange(size, dtype=np.uint64) + np.uint64(1)) * _GOLDEN_U
        return _uniforms(counters + np.uint64(self.call_key()))

    def normals(self, size: int) -> np.ndarray:
        """Standard normal variates via the Box-Muller transform, as one keyed call.

        Normal j pairs the lane-1 and lane-2 uniforms of index j < 2^32; blocks of
        ``_NORMAL_BLOCK`` indices bound the working memory beyond the result.
        """
        size = whole_number(size, "size must be a whole number >= 0", 0)
        out = np.empty(size)
        rows = np.arange(1, min(size, _NORMAL_BLOCK) + 1, dtype=np.uint64) * _GOLDEN_U
        z, tmp = np.empty((2, rows.size), np.uint64), np.empty((2, rows.size), np.uint64)
        lanes = _FIRST_LANES[:2] + np.uint64(self.call_key())
        for lo in range(0, size, _NORMAL_BLOCK):
            k = min(rows.size, size - lo)
            zk = _splitmix(np.add(rows[:k], lanes, out=z[:, :k]), tmp[:, :k])
            # the lane-2 uniforms go to the scratch words the hash is done with
            _box_muller(_unit(zk[0], out[lo:lo + k]), _unit(zk[1], tmp[0, :k].view(np.float64)))
            lanes += _NEXT_BLOCK
        return out


@dataclass(frozen=True)
class BetaParams:
    """Shape pair (p, q) of a beta distribution; both strictly positive.

    Fields may be scalars or equal-shaped arrays (one shape pair per draw), held as float64.
    """

    p: float | np.ndarray
    q: float | np.ndarray

    def __post_init__(self):
        p, q = real_array(self.p), real_array(self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if p.shape != q.shape:
            raise ParameterDomainError("beta shapes p and q must have the same shape")
        if not (np.all(p > 0.0) and np.all(q > 0.0)):
            raise ParameterDomainError("beta shapes must satisfy p > 0 and q > 0")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class GammaPlan:
    """Everything of a keyed gamma call except its key, built once per shape set.

    Holds, per variate i, the Marsaglia-Tsang constants d (the shape minus
    1/3, plus 1 below shape 1) and c = 1/sqrt(9 d); one slot row
    ``jg[i] = (j[i] + 1) * golden mod 2^64``, to which a call adds its key and
    the column L * 2^32 * golden of the lanes L it reads; and the index and
    reciprocal shape of every shape below 1. Every array is read-only, so one
    plan can serve any number of calls. Shapes above ``_MAX_SHAPE`` raise
    :class:`MagnitudeOverflowError`; up to it 9 d is finite, and so is every
    draw d * v, because v = (1 + c x)^3 exceeds 1 by less than 30 c when d
    is large (|x| < 8.7 for Box-Muller normals).
    """

    __slots__ = ("d", "c", "jg", "small", "inv_small")

    def __init__(self, shape: np.ndarray, j: np.ndarray):
        shape = real_array(shape)
        if not np.all(shape > 0.0):
            raise ParameterDomainError("gamma shape must satisfy shape > 0")
        if not np.all(shape <= _MAX_SHAPE):
            raise MagnitudeOverflowError("gamma shape overflowed float64 arithmetic")
        j = np.asarray(j)
        if j.dtype.kind not in "iu" or np.any(j < 0):
            raise ParameterDomainError("variate indices must be nonnegative integers")
        below = shape < 1.0
        d = shape + below - 1.0 / 3.0
        small = np.flatnonzero(below)
        self.d = _frozen(d)
        self.c = _frozen(1.0 / np.sqrt(9.0 * d))
        self.jg = _frozen((j.astype(np.uint64) + np.uint64(1)) * _GOLDEN_U)
        self.small = _frozen(small)
        self.inv_small = _frozen(1.0 / shape[small])

    def draw(self, key: int) -> np.ndarray:
        """Gamma(shape[i], 1) variates, the i-th drawn as variate j[i] of call ``key``.

        Marsaglia-Tsang squeeze/rejection at shape >= 1; a shape below 1 is
        drawn at shape + 1 and scaled by U^(1/shape). Every uniform is the
        keyed word of (key, j[i], attempt, slot), so entry i depends on
        nothing else, and the variates are drawn in blocks of at most
        ``_BLOCK`` to bound the scratch memory of a large call.
        """
        m = self.d.size
        key = np.array(key, dtype=np.uint64)
        out = np.empty(m)
        for lo in range(0, m, _BLOCK):
            hi = lo + _BLOCK
            self._accept(key, self.d[lo:hi], self.c[lo:hi], self.jg[lo:hi], out[lo:hi])
        for lo in range(0, self.small.size, _BLOCK):
            idx = self.small[lo:lo + _BLOCK]
            # lane 0: one boost uniform per variate, whatever its attempt count
            boost = _uniforms(self.jg[idx] + key) ** self.inv_small[lo:lo + _BLOCK]
            # keep draws strictly positive even when the boost underflows
            out[idx] = np.maximum(out[idx] * boost, _TINY)
        return out

    @staticmethod
    def _accept(key: np.ndarray, d: np.ndarray, c: np.ndarray, jg: np.ndarray, out: np.ndarray):
        """Marsaglia-Tsang rounds over one block until every variate is accepted.

        Each round writes d * v for every variate it draws; the one mask of
        variates both the squeeze and the log test reject is drawn again.
        """
        pending = None  # the block's variates still drawing, None for all of them
        rows, dp, cp = jg, d, c
        lanes = _FIRST_LANES + key
        while True:
            u = _uniforms(rows + lanes)
            # rows of u: the normal x (then x^2), v = (1 + c x)^3, the acceptance uniform
            x, v, ua = u
            _box_muller(x, v)
            np.multiply(cp, x, out=v)
            v += _ONE
            v **= _THREE
            if pending is None:
                np.multiply(dp, v, out=out)
            else:
                out[pending] = dp * v
            x2 = np.multiply(x, x, out=x)
            # no entry is NaN, so >= rejects exactly what < accepts
            reject = ua >= _ONE - _SQUEEZE * x2 * x2
            # The squeeze bound is negative wherever v <= 0 (d >= 2/3), and the
            # log test rejects v = _TINY: its right side is below -434, as
            # x^2 <= -2 log(2^-54), while log u >= log(2^-54) > -38. A
            # positive v is at least (2^-53)^3, so the clamp moves no other v
            # (d * v is written already; the squeeze's accepts ignore the log test).
            np.maximum(v, _TINY_0D, out=v)
            rhs = _ONE - v
            log_v, log_u = np.log(u[1:], out=u[1:])
            rhs += log_v
            rhs *= dp
            rhs += _HALF * x2
            reject &= log_u >= rhs
            left = reject.nonzero()[0]
            if not left.size:
                return
            pending = left if pending is None else pending[left]
            rows, dp, cp = jg[pending], d[pending], c[pending]
            lanes += _NEXT_LANES


class BetaPlan:
    """Everything of a keyed beta call except its key, built once per shape pair set.

    Holds the gamma plan of one pass over the concatenated shapes p and q of
    ``params`` (X of beta variate j is keyed gamma variate j, Y is keyed gamma
    variate j + 2^31), the array shape of p, and the means (q - p)/(p + q) of
    the [-1, 1] law; no copy of p or q. Arrays are read-only.
    """

    __slots__ = ("gamma", "shape", "means")

    def __init__(self, params: BetaParams):
        p, q = params.p, params.q
        j = np.arange(p.size, dtype=np.uint64)
        self.gamma = GammaPlan(np.concatenate((p.ravel(), q.ravel())),
                               np.concatenate((j, j + _Y_OFFSET)))
        self.shape = p.shape
        self.means = _frozen(real_array(beta_mean_pm1(params)))

    def draw(self, key: int) -> np.ndarray:
        """Beta(p, q) variates Z = X/(X+Y) of call ``key`` stacked with their
        complements W = Y/(X+Y) from the same gamma pair, as one new array of
        shape (2, *p.shape). W is never formed as 1 - Z, which loses a W far
        below the float64 spacing near 1. Unclamped: rounding at extreme
        shapes can put Z or W on 0 or 1.
        """
        g = self.gamma.draw(key).reshape(2, -1)
        np.divide(g, g[0] + g[1], out=g)
        return g.reshape((2, *self.shape))


def sample_beta01(params: BetaParams, rng: RngStream) -> np.ndarray:
    """Beta(p, q) variates on (0, 1) shaped like ``params.p``, as gamma ratios X/(X+Y).

    One call takes one key word of ``rng``; draw i is keyed variate i of
    that call, so a prefix of the shapes gives a prefix of the draws.
    """
    z = BetaPlan(params).draw(rng.call_key())[0, ...]
    np.maximum(z, _TINY, out=z)
    np.minimum(z, _ONE_MINUS, out=z)
    return z


def beta_mean_pm1(params: BetaParams):
    """Mean (q - p)/(p + q) of the [-1, 1] beta law above."""
    m = (params.q - params.p) / (params.p + params.q)
    return float(m) if m.ndim == 0 else m


def beta_concentration_bound(params: BetaParams, delta: float) -> float:
    """Tail bound 4*exp(c*(p+q)) for P(|Z - E Z| > delta), Z ~ Beta(p, q) on [0, 1].

    c = log(1 + d') - d' with d' = delta/(3 + 2*delta); c < 0 for delta > 0,
    so the bound decays exponentially in p + q. Often vacuous (> 1) for small
    shape sums.
    """
    delta = real_array(delta)
    if not delta > 0.0:
        raise ParameterDomainError("delta must satisfy delta > 0")
    dp = delta / (3.0 + 2.0 * delta)
    c = np.log1p(dp) - dp
    out = 4.0 * np.exp(c * (params.p + params.q))
    return float(out) if out.ndim == 0 else out
