"""Exact distribution computations for validity verification.

At desk scale the sequence-level selection can be verified without sampling:
enumerate every possible draft forest with its construction probability, walk
each forest through the decoder's own selection step into one output-sequence
table per call, and sweep that table once against the big model's chain rule,
keeping only the worst cell.

The checked identity is stepwise: for every depth i and emitted prefix,

    Pr(Y_i = y, length >= i, prefix) = M_b(y | context, prefix) * Pr(length >= i, prefix)

i.e. each emitted token is a fresh big-model sample given everything emitted
before it, regardless of how long the run survives afterwards. This is the
form the recursive-selection induction actually guarantees, and it is what
makes the iterated decoder exact.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .lm_sim import ToyLm
from .draft_gen import DraftNode, StructuralError
from .spectr_decode import PROB_FLOOR, SelectionMethod, TokenSelector, selection_step
from . import token_coupling as tc

SeqDist = dict[tuple[int, ...], float]


def _walk(selector: TokenSelector, base: tuple[int, ...], emitted: tuple[int, ...],
          state: tuple[DraftNode, ...], k_initial: int, weight: float, out: SeqDist) -> None:
    """Add `weight` times the selection's law from `state` on to `out`, by emitted sequence."""
    # With no live drafts left, the selector's law is the bonus token's.
    tokens = tuple(node.token for node in state)
    for y, w in selector.support(base + emitted, tokens, k_initial):
        children = selection_step(state, y)
        if children is None:
            _bump(out, emitted + (y,), weight * w)
        else:
            _walk(selector, base, emitted + (y,), children, k_initial, weight * w, out)


def enumerate_draft_forests(small: ToyLm, context: Sequence[int],
                            branching: Sequence[int]):
    """Yield every possible draft forest with its construction probability.

    `branching` lists the per-depth expansion factors; i.i.d. drafts of count
    K and length L correspond to (K, 1, ..., 1). Probabilities multiply the
    draft-model conditionals of every node given its own prefix.
    """
    branching = [int(b) for b in branching]
    if not branching or any(b < 1 for b in branching):
        raise StructuralError("branching factors must be positive integers")
    base = tuple(int(t) for t in context)
    yield from _group_options(small, base, branching, (), 0)


def _group_options(small: ToyLm, base: tuple, branching: list[int], prefix: tuple,
                   depth: int) -> list[tuple[tuple[DraftNode, ...], float]]:
    """Every group of branching[depth] i.i.d. sibling nodes under `prefix`, with its probability."""
    cond = small.next_dist(base + prefix)
    single: list[tuple[DraftNode, float]] = []
    for y in np.flatnonzero(cond.probs > PROB_FLOOR).tolist():
        groups = (_group_options(small, base, branching, prefix + (y,), depth + 1)
                  if depth + 1 < len(branching) else [((), 1.0)])
        single.extend((DraftNode(y, kids), cond[y] * w2) for kids, w2 in groups)
    return [(tuple(node for node, _ in combo), math.prod(wi for _, wi in combo))
            for combo in itertools.product(single, repeat=branching[depth])]


def method_output_distribution(big: ToyLm, small: ToyLm, context: Sequence[int],
                               branching: Sequence[int],
                               method: SelectionMethod) -> SeqDist:
    """Exact output-sequence law of draft_selection over all draft randomness."""
    selector = TokenSelector(big, small, method)  # recomputed on every call
    base = tuple(int(t) for t in context)
    k_initial = math.prod(int(b) for b in branching)
    total: SeqDist = {}
    mass = 0.0
    for roots, prob in enumerate_draft_forests(small, context, branching):
        mass += prob
        _walk(selector, base, (), roots, k_initial, prob, total)
    if abs(mass - 1.0) > 1e-9:
        raise tc.ValidationError(f"forest enumeration mass {mass!r} != 1")
    return total


def max_chain_rule_gap(dist: SeqDist, big: ToyLm, context: Sequence[int],
                       length: int) -> tuple[float, tuple]:
    """Largest stepwise violation and the first (depth, prefix, token) cell where
    it occurs, found in one sweep with prefixes in order of first appearance.
    A law with no cell to check, such as an empty one, raises ValidationError."""
    base = tuple(int(t) for t in context)
    worst, cell = 0.0, None
    for i in range(1, length + 2):
        alive: dict[tuple[int, ...], float] = {}
        extended: dict[tuple[int, ...], float] = {}
        for seq, w in dist.items():
            if len(seq) >= i:
                _bump(alive, seq[:i - 1], w)
                _bump(extended, seq[:i], w)
        for prefix, mass in alive.items():
            row = big.next_dist(base + prefix)
            for y in range(big.vocab_size):
                gap = abs(extended.get(prefix + (y,), 0.0) - mass * row[y])
                if cell is None or gap > worst:
                    worst, cell = gap, (i, prefix, y)
    if cell is None:
        raise tc.ValidationError("the output law has no chain-rule cell to check")
    return worst, cell


def _bump(table: dict, key, value: float) -> None:
    table[key] = table.get(key, 0.0) + value
