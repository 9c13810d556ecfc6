"""Draft-set construction: i.i.d. sequences and prefix-tree expansion.

Both constructions produce a forest of token nodes with uniform leaf depth L.
An i.i.d. set of K drafts is a forest of K single-child chains; a prefix tree
with expansion factors (k_1..k_L) branches k_i ways at depth i. Draft
selection consumes the forest directly: at each depth the *nodes* currently
alive are exactly the i.i.d. small-model draws the token-level coupling
assumes.

Every next-token conditional encountered during construction is cached, the
same bookkeeping a batched scorer would keep for the selection phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .prob_core import ProbVector, RngStream, SpectrError, _pick, sample
from .lm_sim import ToyLm


class StructuralError(SpectrError):
    """Draft set is malformed: empty, or sequences of mixed length."""


@dataclass(frozen=True)
class DraftNode:
    token: int
    children: tuple["DraftNode", ...] = ()


@dataclass(frozen=True)
class DraftSet:
    """Candidate continuations of a context, with cached draft-model conditionals.

    `roots` is the construction forest; `sequences` lists its leaves'
    root-to-leaf token paths in construction order. `conditionals` maps each
    context-relative prefix encountered during sampling to the draft model's
    next-token law at that prefix.
    """

    roots: tuple[DraftNode, ...]
    length: int
    construction: str  # "iid" | "tree"
    params: tuple[int, ...]  # (K,) for iid, expansion factors for tree
    conditionals: Mapping[tuple[int, ...], ProbVector] = field(default_factory=dict)

    @property
    def sequences(self) -> tuple[tuple[int, ...], ...]:
        out: list[tuple[int, ...]] = []
        for root in self.roots:
            _leaf_paths(root, (), out)
        return tuple(out)

    def validate(self) -> None:
        if not self.roots:
            raise StructuralError("draft set is empty")
        seqs = self.sequences
        if any(len(s) != self.length for s in seqs):
            raise StructuralError("draft sequences have mixed lengths")

    @classmethod
    def from_sequences(cls, sequences: Sequence[Sequence[int]],
                       conditionals: Mapping[tuple[int, ...], ProbVector] | None = None,
                       ) -> "DraftSet":
        """Wrap explicit equal-length sequences as an i.i.d.-style chain forest."""
        if not sequences:
            raise StructuralError("draft set is empty")
        lengths = {len(s) for s in sequences}
        if len(lengths) != 1:
            raise StructuralError("draft sequences have mixed lengths")
        roots = tuple(_chain(tuple(int(t) for t in s)) for s in sequences)
        return cls(roots=roots, length=lengths.pop(), construction="iid",
                   params=(len(sequences),), conditionals=dict(conditionals or {}))


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
    """K independent autoregressive rollouts of length L from the draft model.

    Draft j takes its L uniforms from its own substream rng.child(j), in
    one call, so draft contents do not depend on K or on generation order.
    """
    if K < 1 or L < 1:
        raise StructuralError("K and L must be >= 1")
    conditionals: dict[tuple[int, ...], ProbVector] = {}
    roots = []
    base = tuple(int(t) for t in context)
    for j in range(K):
        prefix: tuple[int, ...] = ()
        tokens = []
        for u in rng.child(j).uniforms(L).tolist():
            cond = conditionals.get(prefix)
            if cond is None:
                cond = small.next_dist(base + prefix)
                conditionals[prefix] = cond
            tok = _pick(cond, u)
            tokens.append(tok)
            prefix = prefix + (tok,)
        roots.append(_chain(tuple(tokens)))
    return DraftSet(roots=tuple(roots), length=L, construction="iid", params=(K,),
                    conditionals=conditionals)


def build_prefix_tree_drafts(small: ToyLm, context: Sequence[int],
                             factors: Sequence[int], rng: RngStream) -> DraftSet:
    """Breadth-wise prefix-tree draft set with branching factors (k_1..k_L).

    Each node at depth i spawns k_{i+1} children whose tokens are i.i.d.
    draws from the draft model conditioned on the node's sequence; the leaf
    sequences (prod k_i of them) form the draft set. Each node's token comes
    from the substream keyed by its path of child indices, so the result is
    independent of traversal order.
    """
    factors = [int(k) for k in factors]
    if not factors or any(k < 1 for k in factors):
        raise StructuralError("expansion factors must be positive integers")
    conditionals: dict[tuple[int, ...], ProbVector] = {}
    roots = _grow(small, tuple(int(t) for t in context), factors, rng, conditionals, (), (), 0)
    return DraftSet(roots=roots, length=len(factors), construction="tree",
                    params=tuple(factors), conditionals=conditionals)


def _grow(small: ToyLm, base: tuple, factors: list[int], rng: RngStream, conditionals: dict,
          prefix: tuple, path: tuple, depth: int) -> tuple[DraftNode, ...]:
    """The nodes under `prefix`, caching the draft model's row there."""
    cond = conditionals.get(prefix)
    if cond is None:
        cond = conditionals[prefix] = small.next_dist(base + prefix)
    nodes = []
    for c in range(factors[depth]):
        tok = sample(cond, rng.child(*path, c))
        children = ()
        if depth + 1 < len(factors):
            children = _grow(small, base, factors, rng, conditionals, prefix + (tok,),
                             path + (c,), depth + 1)
        nodes.append(DraftNode(tok, children))
    return tuple(nodes)


def draft_count(drafts: DraftSet) -> int:
    """Number of leaf sequences (K for iid, prod k_i for tree)."""
    if drafts.construction == "tree":
        return math.prod(drafts.params)
    return drafts.params[0]
