"""Draft-set construction: one prefix-tree builder.

A draft set is a forest of token nodes with uniform leaf depth L that
branches k_i ways at depth i. K i.i.d. drafts of length L are the tree with
factors (K, 1, ..., 1), a forest of K single-child chains. A set draws all
its uniforms in one call and reads them leaf-major, L per leaf, so both read
the same protocol. Draft selection consumes the forest directly: at each
depth the *nodes* currently alive are exactly the i.i.d. small-model draws
the token-level coupling assumes.

A draft set is only the forest (`roots`, `length`, `validate`): the draft law
at every prefix is the draft model's own row, which selection reads back from
`ToyLm.next_dist` and its row memo. `checked_factors` is the one branching
check, which the exact oracle shares. A set above DRAFT_DEPTH_CAP or
DRAFT_NODE_CAP raises SizeLimitError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# `sample` is unused here but kept importable: perfbench's tracer patches it by name.
from .prob_core import RngStream, SpectrError, _pick, sample  # noqa: F401
from .lm_sim import ToyLm
from .token_coupling import SizeLimitError

# Largest draft set: 16,384 nodes took 0.7-2.5 s and 3 MB (V = 16, one x86 core),
# and `_grow` recurses once per depth, well inside Python's recursion limit.
DRAFT_NODE_CAP = 1 << 14
DRAFT_DEPTH_CAP = 256


class StructuralError(SpectrError):
    """Draft set is malformed: empty, leaves at mixed depths, or bad factors."""


@dataclass(frozen=True)
class DraftNode:
    token: int
    children: tuple["DraftNode", ...] = ()


@dataclass(frozen=True)
class DraftSet:
    """Candidate continuations of a context, drawn from the draft model:
    the construction forest `roots`, every leaf at depth `length`."""

    roots: tuple[DraftNode, ...]
    length: int

    def validate(self) -> int:
        """The number of drafts (leaves); raises unless every leaf is at depth `length`."""
        if not self.roots:
            raise StructuralError("draft set is empty")
        nodes = self.roots
        for _ in range(self.length - 1):
            if not all(node.children for node in nodes):
                raise StructuralError("draft leaves lie at mixed depths")
            nodes = [child for node in nodes for child in node.children]
        if self.length < 1 or any(node.children for node in nodes):
            raise StructuralError("draft leaves lie at mixed depths")
        return len(nodes)


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
    in one call, before which either cap raises SizeLimitError. Leaf j (in
    construction order) owns uniforms [jL, (j+1)L), and a node at depth d
    takes uniform d of its first leaf, so the result does not depend on
    traversal order and a leaf's contents do not depend on later leaves.
    """
    factors = checked_factors(factors)
    if len(factors) > DRAFT_DEPTH_CAP:
        raise SizeLimitError(f"draft length {len(factors)} exceeds the depth cap {DRAFT_DEPTH_CAP}")
    # spans[d]: the leaves under one node at depth d - 1 (spans[0] under the whole forest).
    spans = [math.prod(factors[d:]) for d in range(len(factors) + 1)]
    nodes = sum(spans[0] // span for span in spans[1:])
    if nodes > DRAFT_NODE_CAP:
        raise SizeLimitError(f"a draft set of {nodes} nodes exceeds the node cap {DRAFT_NODE_CAP}")
    uniforms = rng.uniforms(spans[0] * len(factors)).reshape(spans[0], len(factors)).tolist()
    roots = _grow(small, tuple(int(t) for t in context), spans, uniforms, (), 0)
    return DraftSet(roots=roots, length=len(factors))


def _grow(small: ToyLm, base: tuple, spans: list[int], uniforms: list,
          prefix: tuple, first_leaf: int) -> tuple[DraftNode, ...]:
    """The nodes under `prefix`, whose leaves start at `first_leaf`; rows that
    nodes share come back from the draft model's row memo."""
    row = small.next_dist(base + prefix)
    d = len(prefix)
    nodes = []
    for leaf in range(first_leaf, first_leaf + spans[d], spans[d + 1]):
        tok = _pick(row, uniforms[leaf][d])
        children = ()
        if d + 2 < len(spans):
            children = _grow(small, base, spans, uniforms, prefix + (tok,), leaf)
        nodes.append(DraftNode(tok, children))
    return tuple(nodes)
