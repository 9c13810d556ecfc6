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

from .prob_core import ProbVector, residual_maximal
from .lm_sim import ToyLm
from .draft_gen import DraftNode
from .spectr_decode import SelectionMethod
from . import token_coupling as tc

SeqDist = dict[tuple[int, ...], float]
PROB_FLOOR = 1e-15


class ExactSelector:
    """Analytic conditional law of the token-level selection, per method."""

    def __init__(self, big: ToyLm, small: ToyLm, method: SelectionMethod):
        self.big = big
        self.small = small
        self.method = method
        self._cache: dict = {}

    def conditional(self, context: tuple[int, ...], tokens: tuple[int, ...],
                    k_initial: int) -> np.ndarray:
        """Distribution of the selected token given the ordered draft tokens.

        Memoized by (context key, tokens, k_initial); the returned array is
        shared between calls, so it is read-only.
        """
        ckey = (self.big.memo_key(context), self.small.memo_key(context))
        out = self._cache.get((ckey, tokens, k_initial))
        if out is None:
            out = self._conditional(context, ckey, tokens, k_initial)
            out.setflags(write=False)
            self._cache[(ckey, tokens, k_initial)] = out
        return out

    def _conditional(self, context, ckey, tokens, k_initial) -> np.ndarray:
        p = self.small.next_dist(context)
        q = self.big.next_dist(context)
        k = len(tokens)
        kind = self.method.kind
        if kind == "maximal":
            if k != 1:
                raise tc.ValidationError("maximal selection requires a single draft")
            return self._maximal_conditional(p, q, tokens[0])
        if kind == "kseq":
            gamma, params = self._kseq_setup(p, q, ckey, k, k_initial)
            return self._kseq_conditional(p, q, tokens, gamma, params)
        plan = self._plan(p, q, ckey, k)
        return plan.conditional(tokens).probs

    @staticmethod
    def _maximal_conditional(p: ProbVector, q: ProbVector, draft: int) -> np.ndarray:
        accept = min(1.0, q[draft] / p[draft])
        out = np.zeros(p.vocab_size)
        out[draft] += accept
        if accept < 1.0:
            out += (1.0 - accept) * residual_maximal(p, q).probs
        return out

    def _kseq_setup(self, p, q, ckey, k, k_initial):
        if self.method.gamma_policy == "k_initial":
            gamma = float(max(k_initial, k))
        else:
            gamma = self._cache.get(("gamma", ckey, k))
            if gamma is None:
                gamma = tc._gamma_star_or_k(p, q, k)
                self._cache[("gamma", ckey, k)] = gamma
        params = self._cache.get(("params", ckey, k, gamma))
        if params is None:
            params = tc.kseq_params(p, q, k, gamma)
            self._cache[("params", ckey, k, gamma)] = params
        return gamma, params

    @staticmethod
    def _kseq_conditional(p, q, tokens, gamma, params) -> np.ndarray:
        out = np.zeros(p.vocab_size)
        survive = 1.0
        for x in tokens:
            accept = min(1.0, q[x] / (gamma * p[x]))
            out[x] += survive * accept
            survive *= (1.0 - accept)
        out += survive * params.residual.probs
        return out

    def _plan(self, p, q, ckey, k):
        plan = self._cache.get(("plan", ckey, k))
        if plan is None:
            plan, _ = tc.otm_lp_solve(p, q, k, cap=self.method.lp_cap)
            self._cache[("plan", ckey, k)] = plan
        return plan


def selection_output_distribution(context: Sequence[int], roots: Sequence[DraftNode],
                                  selector: ExactSelector, k_initial: int) -> SeqDist:
    """Exact law of the selection output for one fixed draft forest."""
    big = selector.big
    base = tuple(int(t) for t in context)

    def recurse(emitted: tuple[int, ...], state: tuple[DraftNode, ...]) -> SeqDist:
        ctx = base + emitted
        tokens = tuple(node.token for node in state)
        cond = selector.conditional(ctx, tokens, k_initial)
        out: SeqDist = {}
        for y in np.flatnonzero(cond > PROB_FLOOR):
            y = int(y)
            w = float(cond[y])
            survivors = [node for node in state if node.token == y]
            if not survivors:
                _bump(out, emitted + (y,), w)
                continue
            children = tuple(c for node in survivors for c in node.children)
            if not children:
                bonus = big.next_dist(ctx + (y,))
                for y2 in np.flatnonzero(bonus.probs > PROB_FLOOR):
                    _bump(out, emitted + (y, int(y2)), w * bonus[int(y2)])
                continue
            for seq, w2 in recurse(emitted + (y,), children).items():
                _bump(out, seq, w * w2)
        return out

    return recurse((), tuple(roots))


def enumerate_draft_forests(small: ToyLm, context: Sequence[int],
                            branching: Sequence[int]):
    """Yield every possible draft forest with its construction probability.

    `branching` lists the per-depth expansion factors; i.i.d. drafts of count
    K and length L correspond to (K, 1, ..., 1). Probabilities multiply the
    draft-model conditionals of every node given its own prefix.
    """
    base = tuple(int(t) for t in context)
    branching = [int(b) for b in branching]

    def node_options(prefix: tuple[int, ...], depth: int) -> list[tuple[DraftNode, float]]:
        cond = small.next_dist(base + prefix)
        options: list[tuple[DraftNode, float]] = []
        for y in np.flatnonzero(cond.probs > PROB_FLOOR):
            y = int(y)
            w = cond[y]
            if depth + 1 >= len(branching):
                options.append((DraftNode(y), w))
                continue
            for kids, w2 in group_options(prefix + (y,), depth + 1):
                options.append((DraftNode(y, kids), w * w2))
        return options

    def group_options(prefix: tuple[int, ...], depth: int) -> list[tuple[tuple[DraftNode, ...], float]]:
        single = node_options(prefix, depth)
        groups: list[tuple[tuple[DraftNode, ...], float]] = []
        for combo in itertools.product(single, repeat=branching[depth]):
            nodes = tuple(node for node, _ in combo)
            w = float(np.prod([wi for _, wi in combo]))
            groups.append((nodes, w))
        return groups

    yield from group_options((), 0)


def method_output_distribution(big: ToyLm, small: ToyLm, context: Sequence[int],
                               branching: Sequence[int],
                               method: SelectionMethod) -> SeqDist:
    """Exact output-sequence law of draft_selection over all draft randomness."""
    selector = ExactSelector(big, small, method)
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
