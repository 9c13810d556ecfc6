"""Probability primitives: categorical distributions, seeded sampling, TV distance.

Every stochastic routine in this package draws uniforms from an explicit
:class:`RngStream`, so runs are bit-reproducible given a seed. Sampling is
inverse-CDF over ascending token index with left-closed intervals, which makes
the algorithms enumerable in tests.
"""

from __future__ import annotations

import bisect
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


class DegenerateResidualError(SpectrError):
    """Residual requested for p == q, where acceptance is certain."""


@dataclass(frozen=True)
class ProbVector:
    """A finite categorical distribution over token indices 0..vocab_size-1."""

    probs: np.ndarray

    def __init__(self, probs: Iterable[float]):
        arr = np.asarray(list(probs) if not isinstance(probs, np.ndarray) else probs,
                         dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError(f"probability vector must be non-empty 1-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("probability vector contains non-finite entries")
        low = arr.min()
        if low < -NEG_TOL:
            raise ValidationError(f"negative probability {low!r} below clamp tolerance {-NEG_TOL}")
        arr = np.where(arr < 0.0, 0.0, arr)
        total = float(arr.sum())
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


class RngStream:
    """Counter-based uniform stream (Philox) keyed by a seed and a path of indices.

    Identical (seed, path) always reproduce the same draw sequence, and
    `child(i, j, ...)` derives an independent substream, so concurrent
    consumers never share mutable state.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        if seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(ss))
        self.draws = 0

    def uniform(self) -> float:
        """One U[0,1) draw."""
        self.draws += 1
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        """`n` U[0,1) draws in stream order."""
        self.draws += n
        return self._gen.random(n)

    def child(self, *path: int) -> "RngStream":
        """Independent substream keyed by this stream's path extended by `path`.

        Equal to RngStream(seed, path + extension), built from this stream's
        already-validated seed and path.
        """
        stream = RngStream.__new__(RngStream)
        stream.seed = seed = self.seed
        stream.path = key = self.path + tuple(map(int, path))
        stream._gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=key)))
        stream.draws = 0
        return stream

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path}, draws={self.draws})"


def sample(dist: ProbVector, rng: RngStream) -> TokenId:
    """Draw one token by inverse CDF, consuming exactly one uniform.

    Intervals are left-closed over ascending index: token i owns
    [cdf[i-1], cdf[i]).
    """
    return _pick(dist, rng.uniform())


def sample_many(dist: ProbVector, rng: RngStream, n: int) -> np.ndarray:
    """Vectorized `sample`: n tokens from n sequential uniforms of `rng`."""
    u = rng.uniforms(n)
    idx = np.searchsorted(dist.cdf, u, side="right")
    over = idx >= dist.vocab_size
    if np.any(over):
        idx[over] = _last_positive(dist)
    return idx


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


def residual_maximal(p: ProbVector, q: ProbVector) -> ProbVector:
    """Correction distribution of the single-draft maximal coupling.

    p_res(x) = (q(x) - min(p(x), q(x))) / (1 - sum min(p, q)). Only defined
    when p != q; the caller must not request it when acceptance is certain.
    """
    _check_same_vocab(p, q)
    m = np.minimum(p.probs, q.probs)
    denom = 1.0 - float(m.sum())
    if denom <= SUM_TOL:
        raise DegenerateResidualError("residual undefined: p equals q within tolerance")
    return ProbVector((q.probs - m) / denom)
