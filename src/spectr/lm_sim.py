"""Toy autoregressive models and the simulated cost of serial model calls.

A ToyLm is a table-based n-gram sampler: the conditional for a context is a
seeded function of the last `order` tokens, generated lazily and memoized, so
arbitrarily long contexts never blow up memory and repeated queries agree
bit-for-bit across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .prob_core import ProbVector, RngStream, ValidationError, _words

# Fraction of entries zeroed per row when allow_zeros is on; exercises the
# unbounded q/p regime.
ZERO_FRACTION = 0.25
# Uniform draws are scaled by this before exponentiation; larger means peakier
# rows (more LM-like contrast between likely and unlikely tokens).
ROW_SPREAD = 3.0


def window(context: Sequence[int], order: int) -> tuple[int, ...]:
    """The last `order` tokens of the context as ints: all that an order-`order`
    model reads of it, and () at order 0 (where `context[-0:]` is all of it)."""
    return tuple(int(t) for t in context[-order:]) if order else ()


class ToyLm:
    """Seeded table-based autoregressive model.

    Rows are exponentiate-and-normalize transforms of seeded uniforms, so
    they are strictly positive (bounded q/p between any two such models)
    unless `allow_zeros` knocks out a seeded subset of entries. The row at
    window `key` draws from the stream RngStream(seed, key), built as
    `prefix.child(key[-1])` from the memoised stream of the window's prefix
    `key[:-1]` (one per distinct prefix), and at order 0 as `root.child()`.
    Prefix streams and the root are only ever parents and are never drawn
    from, so a row rebuilt in any order is the same row.
    """

    def __init__(self, vocab_size: int, order: int, seed: int, allow_zeros: bool = False):
        if vocab_size < 2:
            raise ValidationError("vocab_size must be >= 2")
        if order < 0:
            raise ValidationError("order must be >= 0")
        self.vocab_size = vocab_size
        self.order = order
        self.allow_zeros = allow_zeros
        # RngStream rejects a seed that is not a nonnegative integer.
        self._root = RngStream(seed)
        self.seed = self._root.seed
        self._rows: dict[tuple[int, ...], ProbVector] = {}
        self._prefixes: dict[tuple[int, ...], RngStream] = {(): self._root}

    def signature(self) -> tuple:
        """What fixes every row: models with equal signatures, such as two built
        with the same arguments, give the same row at every window, bit for bit."""
        return (type(self), self.vocab_size, self.order, self.seed, self.allow_zeros)

    def context_key(self, context: Sequence[int]) -> tuple[int, ...]:
        """The suffix of the context that actually conditions the next token."""
        key = window(context, self.order)
        for t in key:
            if not 0 <= t < self.vocab_size:
                raise ValidationError(f"token {t} out of range for vocab {self.vocab_size}")
        return key

    def next_dist(self, context: Sequence[int]) -> ProbVector:
        """Next-token conditional for the given context (memoized per key).

        The memo is looked up once, by the raw suffix; the key is converted and
        range-checked only on a miss, before a row is built, so a raw suffix
        hits only for contexts that passed the check. A miss builds the row
        under the converted key without looking it up again: a row is a pure
        function of (seed, window), so a rebuilt row is the same row.
        """
        row = self._rows.get(tuple(context[-self.order:]) if self.order else ())
        if row is None:
            key = self.context_key(context)
            row = self._rows[key] = ProbVector(self._row_values(key))
        return row

    def _row_values(self, key: tuple[int, ...]) -> np.ndarray:
        # One draw: V uniforms for the values, then (with zeros) V for the mask.
        v = self.vocab_size
        u = self._row_stream(key).uniforms(2 * v if self.allow_zeros else v)
        row = np.exp(ROW_SPREAD * u[:v])
        if self.allow_zeros:
            zero = u[v:] < ZERO_FRACTION
            if zero.all():
                zero[int(np.argmax(row))] = False
            row[zero] = 0.0
        return row / row.sum()

    def _row_stream(self, key: tuple[int, ...]) -> RngStream:
        """A fresh RngStream(seed, key), extending the memoised stream of key[:-1]."""
        if not key:
            return self._root.child()
        prefix = self._prefixes.get(key[:-1])
        if prefix is None:
            prefix = self._prefixes[key[:-1]] = self._root.child(*key[:-1])
        return prefix.child(key[-1])


class _BlendedLm(ToyLm):
    """Per-context mixture (1-eps)*base + eps*perturbation, rows renormalized."""

    def __init__(self, base: ToyLm, perturbation: ToyLm, eps: float):
        super().__init__(base.vocab_size, base.order, perturbation.seed,
                         allow_zeros=base.allow_zeros or perturbation.allow_zeros)
        self._base = base
        self._perturbation = perturbation
        self._eps = eps

    def signature(self) -> tuple:
        return (type(self), self._base.signature(), self._perturbation.signature(), self._eps)

    def _row_values(self, key: tuple[int, ...]) -> np.ndarray:
        # The perturbation row only feeds the blend, so it is neither
        # validated nor memoized; ProbVector would hold the same float64s.
        row = ((1.0 - self._eps) * self._base.next_dist(key).probs
               + self._eps * self._perturbation._row_values(key))
        return row / row.sum()


@dataclass(frozen=True)
class ModelPair:
    """A large target model and a small draft model built as its mixture."""

    big: ToyLm
    small: ToyLm
    divergence_eps: float


@dataclass(frozen=True)
class CostModel:
    """Simulated time units under the parallel computational model.

    One batched call to the big model costs `big_call_cost` regardless of
    batch size or length; drafting costs `small_call_cost` per serial draft
    step (the batch axis is free); `overhead_per_iter` covers bookkeeping.
    """

    big_call_cost: float = 1.0
    small_call_cost: float = 0.0
    overhead_per_iter: float = 0.0

    def __post_init__(self):
        costs = (self.big_call_cost, self.small_call_cost, self.overhead_per_iter)
        if not all(0.0 <= c < np.inf for c in costs):
            raise ValidationError("costs must be finite and nonnegative")


def make_model_pair(vocab_size: int, order: int, seed: int, eps: float,
                    allow_zeros: bool = False) -> ModelPair:
    """Deterministic (big, small) pair whose per-context divergence scales with eps.

    small's rows are (1-eps)*big + eps*perturbation for an independent seeded
    perturbation model, so eps=0 gives identical models and eps=1 makes the
    draft model independent of the target.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValidationError("eps must lie in [0, 1]")
    (seed,), _ = _words((seed,), "seed")
    seeds = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    big = ToyLm(vocab_size, order, int(seeds[0]), allow_zeros=allow_zeros)
    perturbation = ToyLm(vocab_size, order, int(seeds[1]), allow_zeros=allow_zeros)
    small = _BlendedLm(big, perturbation, eps)
    return ModelPair(big=big, small=small, divergence_eps=eps)

