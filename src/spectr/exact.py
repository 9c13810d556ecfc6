"""Exact distribution computations for validity verification.

At desk scale the sequence-level selection can be verified without sampling:
enumerate every possible draft forest with its construction probability,
propagate the token-level plan's conditional law through the recursion, and
compare the resulting output-sequence distribution against the big model's
chain rule.

The checked identity is stepwise: for every depth i and emitted prefix,

    Pr(Y_i = y, length >= i, prefix) = M_b(y | context, prefix) * Pr(length >= i, prefix)

i.e. each emitted token is a fresh big-model sample given everything emitted
before it, regardless of how long the run survives afterwards. This is the
form the recursive-selection induction actually guarantees, and it is what
makes the iterated decoder exact.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .lm_sim import ToyLm
from .draft_gen import DraftNode, StructuralError
from .spectr_decode import PROB_FLOOR, SelectionMethod, TokenSelector
from . import token_coupling as tc

SeqDist = dict[tuple[int, ...], float]


def selection_output_distribution(context: Sequence[int], roots: Sequence[DraftNode],
                                  selector: TokenSelector, k_initial: int) -> SeqDist:
    """Exact law of the selection output for one fixed draft forest."""
    return _selection_law(selector, tuple(map(int, context)), (), tuple(roots), k_initial)


def _selection_law(selector: TokenSelector, base: tuple[int, ...], emitted: tuple[int, ...],
                   state: tuple[DraftNode, ...], k_initial: int) -> SeqDist:
    # With no live drafts left, the selector's law is the bonus token's.
    out: SeqDist = {}
    tokens = tuple(node.token for node in state)
    for y, w in selector.support(base + emitted, tokens, k_initial):
        survivors = [node for node in state if node.token == y]
        if not survivors:
            _bump(out, emitted + (y,), w)
            continue
        children = tuple(c for node in survivors for c in node.children)
        for seq, w2 in _selection_law(selector, base, emitted + (y,), children,
                                      k_initial).items():
            _bump(out, seq, w * w2)
    return out


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


def _node_options(small: ToyLm, base: tuple[int, ...], branching: list[int],
                  prefix: tuple[int, ...], depth: int) -> list[tuple[DraftNode, float]]:
    cond = small.next_dist(base + prefix)
    options: list[tuple[DraftNode, float]] = []
    for y in np.flatnonzero(cond.probs > PROB_FLOOR):
        y = int(y)
        w = cond[y]
        if depth + 1 >= len(branching):
            options.append((DraftNode(y), w))
            continue
        for kids, w2 in _group_options(small, base, branching, prefix + (y,), depth + 1):
            options.append((DraftNode(y, kids), w * w2))
    return options


def _group_options(small: ToyLm, base: tuple, branching: list[int], prefix: tuple,
                   depth: int) -> list[tuple[tuple[DraftNode, ...], float]]:
    single = _node_options(small, base, branching, prefix, depth)
    return [(tuple(node for node, _ in combo), float(np.prod([wi for _, wi in combo])))
            for combo in itertools.product(single, repeat=branching[depth])]


def method_output_distribution(big: ToyLm, small: ToyLm, context: Sequence[int],
                               branching: Sequence[int],
                               method: SelectionMethod) -> SeqDist:
    """Exact output-sequence law of draft_selection over all draft randomness."""
    selector = TokenSelector(big, small, method)  # recomputed on every call
    k_initial = int(np.prod([int(b) for b in branching]))
    total: SeqDist = {}
    mass = 0.0
    for roots, prob in enumerate_draft_forests(small, context, branching):
        mass += prob
        for seq, w in selection_output_distribution(context, roots, selector, k_initial).items():
            _bump(total, seq, prob * w)
    if abs(mass - 1.0) > 1e-9:
        raise tc.ValidationError(f"forest enumeration mass {mass!r} != 1")
    return total


def chain_rule_gaps(dist: SeqDist, big: ToyLm, context: Sequence[int],
                    length: int) -> list[tuple[int, tuple[int, ...], int, float]]:
    """Stepwise chain-rule violations of an output-sequence distribution.

    Returns (depth, prefix, token, |gap|) for every prefix/token cell, where
    gap = Pr(len >= i, prefix + token) - M_b(token | ctx, prefix) * Pr(len >= i, prefix).
    """
    base = tuple(int(t) for t in context)
    gaps = []
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
                lhs = extended.get(prefix + (y,), 0.0)
                gaps.append((i, prefix, y, abs(lhs - mass * row[y])))
    return gaps


def max_chain_rule_gap(dist: SeqDist, big: ToyLm, context: Sequence[int],
                       length: int) -> tuple[float, tuple]:
    """Largest stepwise violation and the cell where it occurs."""
    gaps = chain_rule_gaps(dist, big, context, length)
    worst = max(gaps, key=lambda g: g[3])
    return worst[3], worst[:3]


def _bump(table: dict, key, value: float) -> None:
    table[key] = table.get(key, 0.0) + value
