"""Draft-set construction: one prefix-tree draw, read lazily.

A draft set with branching factors (k_1..k_L) is a forest of token nodes with
uniform leaf depth L that branches k_i ways at depth i. K i.i.d. drafts of
length L are the factors (K, 1, ..., 1), a forest of K single-child chains.
A set draws all its uniforms in one call and keeps them flat, leaf-major, L
per leaf: a node at depth d is the draft model's pick at its own prefix from
uniform d of its first leaf, `uniforms[leaf * L + d]`.

A `DraftSet` is that draw, not the forest: the draft model, the context, the
factors and the uniforms. Selection reads it depth by depth. Every live draft
carries the prefix just emitted, so their tokens are picks from the one
draft-model row at that prefix (`picks`, given the row the selector already
holds as the draft law), and no node off the emitted path is picked.
`roots`, the whole forest, is built from the same picks on first access and
cached. `checked_factors` is the one branching check, which the exact oracle
shares. A set above DRAFT_DEPTH_CAP or DRAFT_NODE_CAP raises SizeLimitError
before it draws.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

# `sample` is unused here but kept importable: perfbench's tracer patches it by name.
from .prob_core import ProbVector, RngStream, SpectrError, _pick, sample  # noqa: F401
from .lm_sim import ToyLm, window
from .token_coupling import SizeLimitError

# Largest draft set: the whole forest of 16,384 nodes, as `roots` builds it, took
# 0.7-2.5 s and 3 MB (V = 16, one x86 core), and `roots` recurses once per
# depth, well inside Python's recursion limit.
DRAFT_NODE_CAP = 1 << 14
DRAFT_DEPTH_CAP = 256


class StructuralError(SpectrError):
    """Draft set is malformed: bad factors, or a draw of the wrong shape."""


@dataclass(frozen=True)
class DraftNode:
    token: int
    children: tuple["DraftNode", ...] = ()


@dataclass(frozen=True)
class DraftSet:
    """Candidate continuations of `context`, drawn from the draft `model`:
    `uniforms[leaf * length + d]` picks the depth-d token of every node whose
    first leaf is `leaf`, and every leaf lies at depth `length`."""

    model: ToyLm
    context: tuple[int, ...]
    factors: tuple[int, ...]
    uniforms: tuple[float, ...]

    @property
    def length(self) -> int:
        return len(self.factors)

    def validate(self) -> int:
        """The number of drafts (leaves); raises unless the factors are positive
        and the draw holds `length` uniforms for every leaf."""
        leaves = math.prod(checked_factors(self.factors))
        if len(self.uniforms) != leaves * len(self.factors):
            raise StructuralError(f"the draw is not {leaves} leaves of {self.length} uniforms")
        return leaves

    def children(self, leaves: Sequence[int], depth: int) -> Sequence[int]:
        """The first leaves of the depth-`depth` nodes under the nodes one depth
        up whose first leaves are `leaves` (the roots are children([0], 0));
        none below the leaves."""
        if depth >= len(self.factors):
            return []
        k = self.factors[depth]
        if k == 1:  # a node's only child shares its first leaf
            return leaves
        step = math.prod(self.factors[depth + 1:])
        return [leaf + j * step for leaf in leaves for j in range(k)]

    def picks(self, row: ProbVector, depth: int, leaves: Sequence[int]) -> list[int]:
        """The tokens of the depth-`depth` nodes whose first leaves are `leaves`,
        picked from `row`, the draft model's row at their shared prefix."""
        cdf, u, length = row.cdf, self.uniforms, len(self.factors)
        tokens = [bisect_right(cdf, u[leaf * length + depth]) for leaf in leaves]
        if len(cdf) in tokens:  # a uniform past a cdf that sums just under 1
            tokens = [_pick(row, u[leaf * length + depth]) for leaf in leaves]
        return tokens

    @cached_property
    def roots(self) -> tuple[DraftNode, ...]:
        """The whole forest, built from the same picks on first access;
        selection never reads it."""
        self.validate()
        return self._grow((), 0)

    def _grow(self, prefix: tuple, first_leaf: int) -> tuple[DraftNode, ...]:
        leaves = self.children([first_leaf], len(prefix))
        if not leaves:
            return ()
        tokens = self.picks(self.model.next_dist(self.context + prefix), len(prefix), leaves)
        return tuple(DraftNode(tok, self._grow(prefix + (tok,), leaf))
                     for leaf, tok in zip(leaves, tokens))


def checked_factors(factors: Sequence[int]) -> list[int]:
    """`factors` as a list of ints; raises unless it is non-empty and all positive."""
    factors = [int(k) for k in factors]
    if not factors or any(k < 1 for k in factors):
        raise StructuralError("branching factors must be positive integers")
    return factors


def sample_iid_drafts(small: ToyLm, context: Sequence[int], K: int, L: int,
                      rng: RngStream) -> DraftSet:
    """K independent autoregressive rollouts of length L from the draft model:
    the prefix tree with factors (K, 1, ..., 1), so draft j reads uniforms
    [jL, (j+1)L) of rng and its contents do not depend on K."""
    if K < 1 or L < 1:
        raise StructuralError("K and L must be >= 1")
    if L > DRAFT_DEPTH_CAP:  # before the L factors are built
        raise SizeLimitError(f"draft length {L} exceeds the depth cap {DRAFT_DEPTH_CAP}")
    return build_prefix_tree_drafts(small, context, (K,) + (1,) * (L - 1), rng)


def build_prefix_tree_drafts(small: ToyLm, context: Sequence[int],
                             factors: Sequence[int], rng: RngStream) -> DraftSet:
    """Prefix-tree draft set with branching factors (k_1..k_L).

    Each node at depth i has k_{i+1} children whose tokens are i.i.d. draws
    from the draft model conditioned on the node's sequence; the prod k_i
    leaf paths form the draft set. The set draws rng.uniforms(leaves * L)
    in one call, before which either cap raises SizeLimitError, and picks no
    token until it is read. Leaf j (in construction order) owns uniforms
    [jL, (j+1)L), and a node at depth d takes uniform d of its first leaf, so
    the result does not depend on traversal order and a leaf's contents do
    not depend on later leaves. The set keeps the last `small.order` tokens
    of the context.
    """
    factors = checked_factors(factors)
    if len(factors) > DRAFT_DEPTH_CAP:
        raise SizeLimitError(f"draft length {len(factors)} exceeds the depth cap {DRAFT_DEPTH_CAP}")
    leaves = math.prod(factors)
    nodes = sum(itertools.accumulate(factors, operator.mul))
    if nodes > DRAFT_NODE_CAP:
        raise SizeLimitError(f"a draft set of {nodes} nodes exceeds the node cap {DRAFT_NODE_CAP}")
    return DraftSet(model=small, context=window(context, small.order), factors=tuple(factors),
                    uniforms=tuple(rng.uniforms(leaves * len(factors)).tolist()))
