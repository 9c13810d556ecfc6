"""Probability primitives: categorical distributions, seeded sampling, TV distance.

Every stochastic routine in this package draws uniforms from an explicit
:class:`RngStream`, so runs are bit-reproducible given a seed. A stream is
numpy's Philox stream for (seed, path), held as SeedSequence's mixed pool
and a position, and draws come through one scratch generator per thread,
reloaded at the stream's key and position for every fill. Philox is
counter-based, so single draws are drawn ahead a few values at a time without
changing any output; a stream's position counts the values consumed.
Sampling is inverse-CDF over ascending token index with left-closed
intervals, which makes the algorithms enumerable in tests.
"""

from __future__ import annotations

import bisect
import math
import operator
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# A token is just an index into a vocabulary of declared size.
TokenId = int

# Probability rows must sum to 1 within this tolerance.
SUM_TOL = 1e-9
# Entries in [-NEG_TOL, 0) are rounding noise and get clamped to 0;
# anything below -NEG_TOL is a real error.
NEG_TOL = 1e-12


class SpectrError(Exception):
    """Base class for all package errors."""


class ValidationError(SpectrError, ValueError):
    """Input violates a domain contract (bad probability vector, bad range)."""


class DimensionError(SpectrError, ValueError):
    """Operands declare different vocabulary sizes."""


@dataclass(frozen=True)
class ProbVector:
    """A finite categorical distribution over token indices 0..vocab_size-1.

    `probs` is a read-only float64 copy of the input: the caller's array is
    neither aliased nor frozen. Checking it costs one copy, one sum and one
    min (a sum that is not finite is how a NaN or an infinity shows), plus a
    clamp and a second sum only when some entry is negative.
    """

    probs: np.ndarray

    def __init__(self, probs: Iterable[float]):
        arr = np.array(list(probs) if not isinstance(probs, np.ndarray) else probs,
                       dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError(f"probability vector must be non-empty 1-D, got shape {arr.shape}")
        total = float(np.add.reduce(arr))
        if not math.isfinite(total) and not np.isfinite(arr).all():
            raise ValidationError("probability vector contains non-finite entries")
        low = np.minimum.reduce(arr)
        if low < -NEG_TOL:
            raise ValidationError(f"negative probability {low!r} below clamp tolerance {-NEG_TOL}")
        if low < 0.0:
            arr[arr < 0.0] = 0.0
            total = float(np.add.reduce(arr))
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, off by more than {SUM_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def vocab_size(self) -> int:
        return int(self.probs.size)

    def __len__(self) -> int:
        return self.vocab_size

    def __getitem__(self, token: TokenId) -> float:
        return float(self.probs[token])

    @property
    def cdf(self) -> np.ndarray:
        cached = self.__dict__.get("_cdf")
        if cached is None:
            cached = np.cumsum(self.probs)
            cached.setflags(write=False)
            object.__setattr__(self, "_cdf", cached)
        return cached

    def support(self) -> np.ndarray:
        """Indices with strictly positive mass."""
        return np.flatnonzero(self.probs > 0.0)

    @classmethod
    def uniform(cls, vocab_size: int, support: int | None = None) -> "ProbVector":
        """Uniform over the first `support` tokens of a `vocab_size` vocabulary."""
        if vocab_size < 1:
            raise ValidationError("vocab_size must be positive")
        s = vocab_size if support is None else support
        if not 1 <= s <= vocab_size:
            raise ValidationError(f"support {s} out of range [1, {vocab_size}]")
        row = np.zeros(vocab_size)
        row[:s] = 1.0 / s
        return cls(row)

    @classmethod
    def bernoulli(cls, head: float) -> "ProbVector":
        """Two-symbol distribution; `head` is the mass on token 1."""
        if not 0.0 <= head <= 1.0:
            raise ValidationError(f"bernoulli head {head!r} outside [0, 1]")
        return cls([1.0 - head, head])

    @classmethod
    def parse(cls, text: str) -> "ProbVector":
        """Parse the CLI text form, comma-separated decimals like "0.25,0.75"."""
        try:
            values = [float(part) for part in text.split(",") if part.strip() != ""]
        except ValueError as exc:
            raise ValidationError(f"cannot parse probability vector from {text!r}") from exc
        return cls(values)

    def format(self) -> str:
        return ",".join(f"{v:.12g}" for v in self.probs)


def _check_same_vocab(p: ProbVector, q: ProbVector) -> None:
    if p.vocab_size != q.vocab_size:
        raise DimensionError(f"vocab mismatch: {p.vocab_size} vs {q.vocab_size}")


# SeedSequence's constants (numpy.random.bit_generator): entropy words are
# hashed into a 4-word pool, and a Philox key is the pool hashed once more.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(values: Iterable, what: str) -> tuple[tuple[int, ...], list[int]]:
    """Nonnegative integers `values` and their little-endian 32-bit words, as
    SeedSequence splits its entropy (0 is one word)."""
    if type(values) is tuple and len(values) == 1:
        # One int below 2**32, as a child of one index has, is its own word;
        # bools, numpy ints and wider values take the general path.
        v = values[0]
        if type(v) is int and 0 <= v <= _M32:
            return values, [v]
    ints, words = [], []
    for v in values:
        try:
            v = operator.index(v)
        except TypeError:
            raise ValidationError(f"{what} must be a nonnegative integer, got {v!r}") from None
        if v < 0:
            raise ValidationError(f"{what} must be a nonnegative integer, got {v!r}")
        ints.append(v)
        words.append(v & _M32)
        v >>= 32
        while v:
            words.append(v & _M32)
            v >>= 32
    return tuple(ints), words


def _absorb(pool: tuple[int, ...], h: int,
            words: list[int]) -> tuple[tuple[int, ...], int]:
    """(pool, hash constant) after SeedSequence mixes `words` into every pool word,
    as it does for each entropy word past the pool's four."""
    p0, p1, p2, p3 = pool
    for w in words:
        v = w ^ h
        h = h * _MULT_A & _M32
        v = v * h & _M32
        x = (_MIX_L * p0 - _MIX_R * (v ^ v >> 16)) & _M32
        p0 = x ^ x >> 16
        v = w ^ h
        h = h * _MULT_A & _M32
        v = v * h & _M32
        x = (_MIX_L * p1 - _MIX_R * (v ^ v >> 16)) & _M32
        p1 = x ^ x >> 16
        v = w ^ h
        h = h * _MULT_A & _M32
        v = v * h & _M32
        x = (_MIX_L * p2 - _MIX_R * (v ^ v >> 16)) & _M32
        p2 = x ^ x >> 16
        v = w ^ h
        h = h * _MULT_A & _M32
        v = v * h & _M32
        x = (_MIX_L * p3 - _MIX_R * (v ^ v >> 16)) & _M32
        p3 = x ^ x >> 16
    return (p0, p1, p2, p3), h


# A single draw fills the stream's look-ahead to the end of the next Philox
# block (4 values each) past the one it starts in.
_AHEAD = 8


class _Scratch(threading.local):
    """Per thread: one Philox generator, built at the thread's first draw, and
    the state dict it is reloaded from (only the counter's first word and the
    key change)."""

    bitgen = gen = state = None


_SCRATCH = _Scratch()


class RngStream:
    """Counter-based uniform stream keyed by a seed and a path of indices.

    The stream is `Generator(Philox(SeedSequence(seed, spawn_key=path)))`,
    held as SeedSequence's mixed pool and `draws`. `child(i, j, ...)` mixes
    only the new path words into the pool, so substreams cost no
    SeedSequence. Draws come from one scratch generator per thread, reloaded
    for every fill at the Philox key that follows from the pool and at
    `draws`, which counts the values consumed, never the ones drawn ahead. A
    single draw `uniform()` fills only when its look-ahead is empty: it draws
    ahead to the end of the next Philox block and keeps the values it has not
    returned yet; `uniforms(n)` drops them and fills n. A stream's output
    depends only on (seed, path) and its position, and identical (seed,
    path) reproduce the same draws.
    """

    __slots__ = ("seed", "path", "draws", "_pool", "_hash", "_ahead")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        (self.seed,), words = _words((seed,), "seed")
        self.path, path_words = _words(path, "path entry")
        # The seed's pool; every hashmix step multiplied the hash constant by
        # _MULT_A: 4 to fill the pool, 12 to cross-mix it, 4 per word past 4.
        pool = tuple(np.random.SeedSequence(self.seed).pool.tolist())
        h = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, len(words) - 4), 1 << 32) & _M32
        self._pool, self._hash = _absorb(pool, h, path_words)
        self.draws = 0
        self._ahead = ()

    def _generator(self) -> np.random.Generator:
        """The thread's generator, reloaded at this stream's key and next draw;
        the callers have emptied the look-ahead."""
        # generate_state(2, np.uint64): 4 words, paired little-endian.
        h, words = _INIT_B, []
        for v in self._pool:
            v ^= h
            h = h * _MULT_B & _M32
            v = v * h & _M32
            words.append(v ^ v >> 16)
        key = [words[0] | words[1] << 32, words[2] | words[3] << 32]
        s = _SCRATCH
        state = s.state
        if state is None:
            s.bitgen = np.random.Philox(0)
            s.gen = np.random.Generator(s.bitgen)
            state = s.state = {
                "bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0,
                "state": {"counter": [0, 0, 0, 0], "key": key}}
        philox = state["state"]
        philox["counter"][0] = self.draws >> 2
        philox["key"] = key
        s.bitgen.state = state
        if self.draws & 3:
            s.bitgen.random_raw(self.draws & 3)
        return s.gen

    def uniform(self) -> float:
        """One U[0,1) draw."""
        ahead = self._ahead
        if not ahead:
            # Fill from the generator itself, not through `uniforms`: `draws`
            # counts only what is returned.
            ahead = self._generator().random(_AHEAD - (self.draws & 3)).tolist()
            ahead.reverse()
            self._ahead = ahead
        self.draws += 1
        return ahead.pop()

    def uniforms(self, n: int) -> np.ndarray:
        """`n` U[0,1) draws in stream order."""
        self._ahead = ()
        out = self._generator().random(n)
        self.draws += n
        return out

    def child(self, *path: int) -> "RngStream":
        """Independent substream keyed by this stream's path extended by `path`.

        Equal to RngStream(seed, path + extension): only the extension's
        words are mixed into this stream's pool. The child starts at position
        0.
        """
        ext, words = _words(path, "path entry")
        stream = RngStream.__new__(RngStream)
        stream.seed = self.seed
        stream.path = self.path + ext
        stream._pool, stream._hash = _absorb(self._pool, self._hash, words)
        stream.draws = 0
        stream._ahead = ()
        return stream

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path}, draws={self.draws})"


def sample(dist: ProbVector, rng: RngStream) -> TokenId:
    """Draw one token by inverse CDF, consuming exactly one uniform.

    Intervals are left-closed over ascending index: token i owns
    [cdf[i-1], cdf[i]).
    """
    return _pick(dist, rng.uniform())


def _pick(dist: ProbVector, u: float) -> TokenId:
    # The cdf is nondecreasing, so this is searchsorted(cdf, u, side="right").
    i = bisect.bisect_right(dist.cdf, u)
    if i >= dist.vocab_size:
        # u fell beyond a cdf that sums just under 1; assign to the top token.
        i = _last_positive(dist)
    return i


def _last_positive(dist: ProbVector) -> int:
    supp = dist.support()
    if supp.size == 0:
        raise ValidationError("distribution has no positive mass")
    return int(supp[-1])


def random_prob_vector(vocab_size: int, rng: RngStream, spread: float = 4.0) -> ProbVector:
    """A seeded strictly-positive distribution: exponentiate-and-normalize uniforms."""
    row = np.exp(spread * rng.uniforms(vocab_size))
    return ProbVector(row / row.sum())


def tv_distance(p: ProbVector, q: ProbVector) -> float:
    """Total variation distance, (1/2) * sum |p - q|."""
    _check_same_vocab(p, q)
    return float(0.5 * np.abs(p.probs - q.probs).sum())

