"""Draft-set construction: one prefix-tree builder.

A draft set is a forest of token nodes with uniform leaf depth L that
branches k_i ways at depth i. K i.i.d. drafts of length L are the tree with
factors (K, 1, ..., 1), a forest of K single-child chains, and every leaf
owns one RNG substream, so both read the same protocol. Draft selection
consumes the forest directly: at each depth the *nodes* currently alive are
exactly the i.i.d. small-model draws the token-level coupling assumes.

A draft set is only the forest: the draft law at every prefix is the draft
model's own row, which selection reads back from `ToyLm.next_dist` and its
row memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# `sample` is unused here but kept importable: perfbench's tracer patches it by name.
from .prob_core import RngStream, SpectrError, _pick, sample  # noqa: F401
from .lm_sim import ToyLm


class StructuralError(SpectrError):
    """Draft set is malformed: empty, or sequences of mixed length."""


@dataclass(frozen=True)
class DraftNode:
    token: int
    children: tuple["DraftNode", ...] = ()


@dataclass(frozen=True)
class DraftSet:
    """Candidate continuations of a context, drawn from the draft model.

    `roots` is the construction forest; `sequences` lists its leaves'
    root-to-leaf token paths in construction order.
    """

    roots: tuple[DraftNode, ...]
    length: int

    @property
    def sequences(self) -> tuple[tuple[int, ...], ...]:
        out: list[tuple[int, ...]] = []
        for root in self.roots:
            _leaf_paths(root, (), out)
        return tuple(out)

    def validate(self) -> int:
        """The number of drafts (leaves); raises unless every leaf is at depth `length`."""
        if not self.roots:
            raise StructuralError("draft set is empty")
        seqs = self.sequences
        if any(len(s) != self.length for s in seqs):
            raise StructuralError("draft sequences have mixed lengths")
        return len(seqs)

    @classmethod
    def from_sequences(cls, sequences: Sequence[Sequence[int]]) -> "DraftSet":
        """Wrap explicit equal-length sequences as an i.i.d.-style chain forest."""
        if not sequences:
            raise StructuralError("draft set is empty")
        lengths = {len(s) for s in sequences}
        if len(lengths) != 1:
            raise StructuralError("draft sequences have mixed lengths")
        if 0 in lengths:
            raise StructuralError("draft sequences must have at least one token")
        roots = tuple(_chain(tuple(int(t) for t in s)) for s in sequences)
        return cls(roots=roots, length=lengths.pop())


def _leaf_paths(node: DraftNode, prefix: tuple[int, ...], out: list) -> None:
    path = prefix + (node.token,)
    if not node.children:
        out.append(path)
    for child in node.children:
        _leaf_paths(child, path, out)


def _chain(tokens: tuple[int, ...]) -> DraftNode:
    node = DraftNode(tokens[-1])
    for t in reversed(tokens[:-1]):
        node = DraftNode(t, (node,))
    return node


def sample_iid_drafts(small: ToyLm, context: Sequence[int], K: int, L: int,
                      rng: RngStream) -> DraftSet:
    """K independent autoregressive rollouts of length L from the draft model:
    the prefix tree with factors (K, 1, ..., 1), so draft j reads its L
    uniforms from rng.child(j) and its contents do not depend on K."""
    if K < 1 or L < 1:
        raise StructuralError("K and L must be >= 1")
    return build_prefix_tree_drafts(small, context, (K,) + (1,) * (L - 1), rng)


def build_prefix_tree_drafts(small: ToyLm, context: Sequence[int],
                             factors: Sequence[int], rng: RngStream) -> DraftSet:
    """Prefix-tree draft set with branching factors (k_1..k_L).

    Each node at depth i has k_{i+1} children whose tokens are i.i.d. draws
    from the draft model conditioned on the node's sequence; the prod k_i
    leaf sequences form the draft set. Leaf j (in construction order) draws
    rng.child(j).uniforms(L) once, and a node at depth d takes uniform d of
    its first leaf: one substream per leaf, so the result does not depend
    on traversal order.
    """
    factors = [int(k) for k in factors]
    if not factors or any(k < 1 for k in factors):
        raise StructuralError("expansion factors must be positive integers")
    # spans[d]: the leaves under one node at depth d - 1 (spans[0] under the whole forest).
    spans = [math.prod(factors[d:]) for d in range(len(factors) + 1)]
    uniforms = [rng.child(j).uniforms(len(factors)).tolist() for j in range(spans[0])]
    roots = _grow(small, tuple(int(t) for t in context), spans, uniforms, {}, (), 0)
    return DraftSet(roots=roots, length=len(factors))


def _grow(small: ToyLm, base: tuple, spans: list[int], uniforms: list, rows: dict,
          prefix: tuple, first_leaf: int) -> tuple[DraftNode, ...]:
    """The nodes under `prefix`, whose leaves start at `first_leaf`; `rows` keeps
    the draft model's rows read so far, by prefix (nodes may share prefixes)."""
    row = rows.get(prefix)
    if row is None:
        row = rows[prefix] = small.next_dist(base + prefix)
    d = len(prefix)
    nodes = []
    for leaf in range(first_leaf, first_leaf + spans[d], spans[d + 1]):
        tok = _pick(row, uniforms[leaf][d])
        children = ()
        if d + 2 < len(spans):
            children = _grow(small, base, spans, uniforms, rows, prefix + (tok,), leaf)
        nodes.append(DraftNode(tok, children))
    return tuple(nodes)
