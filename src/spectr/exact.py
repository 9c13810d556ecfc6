"""Exact distribution computations for validity verification.

At desk scale the sequence-level selection can be verified without sampling.
Given the emitted prefix, the live drafts at a depth are i.i.d. draws from
the draft model's row for that prefix, and only their number carries
forward, so the oracle walks states (emitted prefix, live count m) depth by
depth instead of draft forests, reading the very rule the decoder draws from
(`TokenSelector.rule`). Every state, of any method, takes the rule's
`count_law`: the joint law of the emitted token y and the count c of live
drafts carrying it, in O(m) numpy calls for a K-SEQ scan and from every
listed draft tuple's row for an OTM plan. Its entries above PROB_FLOOR go
into a table the call owns; a token carried by c > 0 live drafts moves the
weight to (prefix + token, c * next branching factor), a token carried by
none ends the sequence, and after the last depth the bonus row applies. A
walk whose states and output sequences could hold more than COUNT_ENTRY_CAP
entries raises SizeLimitError before any depth is walked, and an OTM state
whose plan would list more draft tuples than the plan's own cap raises it
when the plan is built. The chain-rule check then sweeps the one output
table once, keeping only the worst cell.

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

from .lm_sim import ToyLm, window
from .draft_gen import DraftNode, checked_factors
from .spectr_decode import SelectionMethod, TokenSelector
from . import token_coupling as tc

SeqDist = dict[tuple[int, ...], float]

# Law entries at or below this are left out of the oracle's law table.
PROB_FLOOR = 1e-15
# Most entries a walk may store, bounded from |vocab| and the branching factors
# alone before any depth is walked: |vocab| * (m + 1) law cells for every state
# (prefix, m) a depth can reach, and |vocab| output sequences for every prefix.
# The output table and the chain-rule check's sweep of it set the peak (`spectr
# verify`, ru_maxrss, one core of a 2-core x86 container): V = 16 with factors
# (4, 1, 1, 1) bounds 3.1 M entries and peaked at 316 MB, V = 1,024 with 8
# drafts one deep 2.1 M and 379 MB, and V = 4 with one draft nine deep 3.1 M and
# 414 MB in 11 s, the largest measured; V = 3 with one draft twelve deep bounds
# 5.6 M and would peak at 794 MB.
COUNT_ENTRY_CAP = 1 << 22


def method_output_distribution(big: ToyLm, small: ToyLm, context: Sequence[int],
                               branching: Sequence[int], method: SelectionMethod) -> SeqDist:
    """Exact output-sequence law of draft_selection over all draft randomness,
    walked over (emitted prefix, live count) states by each rule's
    `count_law`; a walk above COUNT_ENTRY_CAP entries raises SizeLimitError
    before any row is built, and an OTM state above the plan's tuple cap
    raises it as its plan is built."""
    branching = checked_factors(branching)
    _check_count_walk(big.vocab_size, branching)
    selector = TokenSelector(big, small, method)  # recomputed on every call
    # (window, live count) -> (token, count, probability) over the entries above
    # PROB_FLOOR of its count law; with no live drafts, of the big model's row.
    laws: dict = {}
    base = tuple(int(t) for t in context)
    out: SeqDist = {}
    states = {((), branching[0]): 1.0}
    fanouts = iter(branching[1:])
    while states:
        # After the leaves, survivors hand on no drafts and the bonus row applies.
        fanout = next(fanouts, 0)
        reached: dict[tuple[tuple[int, ...], int], float] = {}
        for (prefix, live), weight in states.items():
            ctx = base + prefix
            key = (window(ctx, selector.order), live)
            law = laws.get(key)
            if law is None:
                law = laws[key] = _count_support(
                    selector.rule(ctx, live).count_law() if live
                    else big.next_dist(ctx).probs[:, None])
            for y, c, wy in law:
                if c:
                    _bump(reached, (prefix + (y,), c * fanout), weight * wy)
                else:
                    _bump(out, prefix + (y,), weight * wy)
        states = reached
    mass = sum(out.values())
    if abs(mass - 1.0) > 1e-9:
        raise tc.ValidationError(f"output law mass {mass!r} != 1")
    return out


def _check_count_walk(vocab: int, branching: list[int]) -> None:
    """Refuse a walk that could store more than COUNT_ENTRY_CAP entries.

    At depth d there are at most vocab^d prefixes, and the live count is
    branching[0] at the root, then c * branching[d] for a survivor count c
    up to the product of the factors before d. Every such state may hold
    vocab * (live + 1) law cells, every prefix hands on at most vocab output
    sequences, and a survivor of the last depth holds the bonus row's vocab
    cells.
    """
    prefixes, entries, most = 1, 0, 0
    for factor in [*branching, 0]:
        if not most:  # the root's one live count
            cells = vocab * (factor + 1)
        elif not factor:  # the bonus row after the leaves
            cells = vocab
        else:  # the sum over c = 1 .. most of vocab * (c * factor + 1)
            cells = vocab * (factor * most * (most + 1) // 2 + most)
        entries += prefixes * (cells + vocab)
        if entries > COUNT_ENTRY_CAP:
            raise tc.SizeLimitError(f"the count walk could store {entries} entries, above "
                                    f"the count entry cap {COUNT_ENTRY_CAP}")
        prefixes *= vocab
        most = most * factor if most else factor


def check_walk_caps(vocab: int, branching: Sequence[int], method: SelectionMethod) -> None:
    """Refuse, before any row is built, a walk that method_output_distribution
    would refuse on models whose every row entry is above PROB_FLOOR, as
    `spectr verify`'s are, so that a list of methods is refused before any is
    walked. It refuses nothing such a walk accepts.

    Every walk is bounded from |vocab| and the factors alone. An OTM walk
    also builds a plan at every state it reaches, and every support is the
    whole vocabulary, so a state of live count m lists |vocab|^m tuples. The
    all-survive chain of states is surely reached, up to the product of the
    factors at the last depth: the plan sends its first set, {0},
    min(P({0}), q(0)) to token 0, so the all-zero tuple emits token 0 with
    probability at least q(0) and keeps all m drafts. At one draft the plan
    is the maximal coupling in closed form, which sends just that; only at
    m >= 2 does a max-flow run, and it sends that on its first path, which no
    later path can undo. So that last state's tuples are checked against the
    plan's cap.
    """
    branching = checked_factors(branching)
    if method.kind == "otm_lp":
        tc._check_tuple_space(vocab, math.prod(branching), tc.DEFAULT_TUPLE_CAP)
    _check_count_walk(vocab, branching)


def _count_support(table: np.ndarray) -> list[tuple[int, int, float]]:
    """(token, count, probability) over the entries of a count table above PROB_FLOOR."""
    ys, cs = np.nonzero(table > PROB_FLOOR)
    return list(zip(ys.tolist(), cs.tolist(), table[ys, cs].tolist()))


def enumerate_draft_forests(small: ToyLm, context: Sequence[int],
                            branching: Sequence[int]):
    """Yield every possible draft forest with its construction probability.

    `branching` lists the per-depth expansion factors; i.i.d. drafts of count
    K and length L correspond to (K, 1, ..., 1). Probabilities multiply the
    draft-model conditionals of every node given its own prefix. There are
    (|supp|^L)^K forests for K i.i.d. drafts, so this serves only as the
    independent reference that the state walk is tested against (and
    perfbench's tracer still counts what it yields, by name).
    """
    branching = checked_factors(branching)
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
            row = big.next_dist(base + prefix).probs.tolist()
            for y, qy in enumerate(row):
                gap = abs(extended.get(prefix + (y,), 0.0) - mass * qy)
                if cell is None or gap > worst:
                    worst, cell = gap, (i, prefix, y)
    if cell is None:
        raise tc.ValidationError("the output law has no chain-rule cell to check")
    return worst, cell


def _bump(table: dict, key, value: float) -> None:
    table[key] = table.get(key, 0.0) + value
