"""Draft-set construction: i.i.d. sequences and prefix-tree expansion.

Both constructions produce a forest of token nodes with uniform leaf depth L.
An i.i.d. set of K drafts is a forest of K single-child chains; a prefix tree
with expansion factors (k_1..k_L) branches k_i ways at depth i. Draft
selection consumes the forest directly: at each depth the *nodes* currently
alive are exactly the i.i.d. small-model draws the token-level coupling
assumes.

A draft set is only the forest: the draft law at every prefix is the draft
model's own row, which selection reads back from `ToyLm.next_dist` and its
row memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .prob_core import RngStream, SpectrError, _pick, sample
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
    """K independent autoregressive rollouts of length L from the draft model.

    Draft j takes its L uniforms from its own substream rng.child(j), in
    one call, so draft contents do not depend on K or on generation order.
    """
    if K < 1 or L < 1:
        raise StructuralError("K and L must be >= 1")
    # The rows read so far, by prefix: drafts share prefixes, so this saves
    # most `next_dist` calls.
    rows: dict = {}
    roots = []
    base = tuple(int(t) for t in context)
    for j in range(K):
        prefix: tuple[int, ...] = ()
        tokens = []
        for u in rng.child(j).uniforms(L).tolist():
            row = rows.get(prefix)
            if row is None:
                row = rows[prefix] = small.next_dist(base + prefix)
            tok = _pick(row, u)
            tokens.append(tok)
            prefix = prefix + (tok,)
        roots.append(_chain(tuple(tokens)))
    return DraftSet(roots=tuple(roots), length=L)


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
    roots = _grow(small, tuple(int(t) for t in context), factors, rng, {}, (), (), 0)
    return DraftSet(roots=roots, length=len(factors))


def _grow(small: ToyLm, base: tuple, factors: list[int], rng: RngStream, rows: dict,
          prefix: tuple, path: tuple, depth: int) -> tuple[DraftNode, ...]:
    """The nodes under `prefix`; `rows` keeps the draft model's rows read so far, by prefix."""
    row = rows.get(prefix)
    if row is None:
        row = rows[prefix] = small.next_dist(base + prefix)
    nodes = []
    for c in range(factors[depth]):
        tok = sample(row, rng.child(*path, c))
        children = ()
        if depth + 1 < len(factors):
            children = _grow(small, base, factors, rng, rows, prefix + (tok,),
                             path + (c,), depth + 1)
        nodes.append(DraftNode(tok, children))
    return tuple(nodes)
